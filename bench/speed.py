"""Machine-speed probe.

The 2-core VM the benchmark was tuned on runs the same Python code up to
25% faster or slower from one ten-second stretch to the next, because
other tenants share its cores.  A pass therefore runs a short fixed
kernel before its first op and after every op, and ``run.py`` scales
each op's latency by ``REFERENCE_S / (mean of the probes on either
side)``: seconds at the reference speed of the tuning machine.  The raw
latencies are reported next to the scaled ones.

The kernels use only builtins and numpy, never ``fractions`` or
anything the package could replace, so a change to octamoment cannot
move the probe.  The probe kind follows the layer a workload loads:
``python`` for the exact layers, ``numpy`` for Monte Carlo.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter

# Median probe time on the tuning machine (Intel Xeon, 2 vCPU, Python 3.11).
REFERENCE_S = {"python": 0.004, "numpy": 0.0012}


def _python_kernel() -> int:
    acc, table = 1, {}
    for i in range(1, 6000):
        acc = (acc * 1103515245 + i) % 2147483647
        table[i & 255] = table.get(i & 255, 0) + math.gcd(acc * 99991, i * 65537)
    return len(",".join(str(v) for v in table.values()))


def _numpy_kernel() -> float:
    import numpy as np

    a = np.full((256, 12, 12), 0.5)
    total = 0.0
    for _ in range(8):
        total += float(np.einsum("bii->b", a @ a @ a).sum())
    return total


_KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def probe(kind: str) -> float:
    """Seconds the ``kind`` kernel takes now, without garbage collection
    (whose pauses depend on the heap the ops left behind)."""
    kernel = _KERNELS[kind]
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        gc.enable()
