"""Outside-in tracing of the ``octamoment`` layers.

:func:`install` wraps named functions of the package and rebinds every
module attribute that refers to the original, so calls made inside a
module (``_assemble_real`` calling ``F_formula``) are traced as well as
calls made through the package namespace.  Nothing inside ``src/``
changes.  Each wrapper records calls, inclusive seconds (outermost
call of a recursion only) and self seconds (inclusive minus the time of
traced callees), plus per-function counts computed from the arguments
and results.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from math import factorial, perm
from time import perf_counter

# Functions to wrap, per module.  Besides the ones the per-layer metrics
# name, the library entry points are wrapped so that their time counts as
# a callee and not as CLI self time.  Functions that do not exist are
# skipped, so the tracer keeps working when the package is refactored.
TARGETS = {
    "partitions": ("multinomial",),
    "symfun": ("eval_monomial", "eval_power_sum", "to_monomial"),
    "arrays": ("enumerate_M",),
    "hypermaps": ("L_table", "lp_by_array", "lp_table", "_lp_data",
                  "class_connection_table", "double_coset_data"),
    "closedform": ("F_formula", "F_counts", "real_expansion", "real_expansion_strict",
                   "real_expansion_report", "complex_expansion",
                   "q_real", "q_compl", "pairing_power_sum_series",
                   "oracle_monomial_expansion", "remark_identity_check"),
    "forests": ("theta_forward", "theta_inverse", "enumerate_forests", "validate_forest"),
    "moments": ("moment_real_exact", "moment_complex_exact", "mc_moment_real",
                "mc_moment_complex"),
    "verify": ("run_suite", "coeffs_self_check", "lp_from_pairings"),
}

# Entry points of one real-expansion assembly; only the outermost call of
# any of them counts as an assembly.
ASSEMBLY = {"closedform.real_expansion", "closedform.real_expansion_strict",
            "closedform.real_expansion_report"}

# Cached tables whose misses enumerate all (2n-1)!! pairings of size n.
PAIRING_TABLES = {"hypermaps.L_table", "hypermaps._lp_data"}


def _odd_double_factorial(n: int) -> int:
    return factorial(2 * n) // (2**n * factorial(n))


class Tracer:
    """Per-function statistics for the calls made while installed."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.cached: dict[str, object] = {}
        self._active: dict[str, int] = defaultdict(int)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager timing a span the caller opens (a CLI call)."""
        return _Span(self, name)

    def _enter(self, name: str) -> float:
        self._stack().append(0.0)
        self._active[name] += 1
        return perf_counter()

    def _exit(self, name: str, start: float) -> None:
        elapsed = perf_counter() - start
        stack = self._stack()
        child = stack.pop()
        if stack:
            stack[-1] += elapsed
        self._active[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += elapsed - child
        if not self._active[name]:
            self.incl[name] += elapsed

    def wrap(self, name: str, fn):
        tracer = self
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = f"{name}.{args[0]}" if name == "verify.run_suite" and args else name
            if name in ASSEMBLY and not any(tracer._active[a] for a in ASSEMBLY):
                tracer.counts["closedform.assemblies"] += 1
            misses = cache_info().misses if cache_info else 0
            start = tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span, start)
            tracer._count(name, args, kwargs, result)
            if cache_info and name in PAIRING_TABLES and cache_info().misses > misses:
                tracer.counts["hypermaps.pairings"] += _odd_double_factorial(args[0])
            return result

        return wrapper

    def _count(self, name, args, kwargs, result) -> None:
        if name == "closedform.F_formula" and not result.well_defined:
            self.counts["closedform.F_formula.flagged"] += 1
        elif name == "arrays.enumerate_M":
            self.counts["arrays.enumerate_M.strata"] += len(result)
        elif name == "symfun.eval_monomial":
            lam, eigs = args[0], args[1]
            if len(lam) <= len(eigs):
                self.counts["symfun.eval_monomial.placements"] += perm(len(eigs), len(lam))
        elif name in ("moments.mc_moment_real", "moments.mc_moment_complex"):
            samples = args[3] if len(args) > 3 else kwargs["samples"]
            moments = sys.modules["octamoment.moments"]
            shard = getattr(moments, "SHARD_SIZE", 1 << 14)
            self.counts["moments.mc.samples"] += samples
            self.counts["moments.mc.shards"] += -(-samples // shard)
            workers = getattr(moments, "_worker_count", lambda: 1)()
            self.counts["moments.mc.workers"] = max(self.counts["moments.mc.workers"], workers)

    def snapshot(self) -> dict[str, float]:
        """Inclusive seconds per function and counts so far (for per-op deltas)."""
        return {**self.incl, **self.counts}

    def cache_stats(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of each wrapped ``lru_cache`` table."""
        return {name: tuple(fn.cache_info()[:2]) for name, fn in self.cached.items()}


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.start = self.tracer._enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._exit(self.name, self.start)


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind it in all loaded ``octamoment`` modules."""
    modules = [m for k, m in sys.modules.items() if k == "octamoment" or k.startswith("octamoment.")]
    for mod_name, functions in TARGETS.items():
        home = sys.modules.get(f"octamoment.{mod_name}")
        for fn_name in functions:
            original = getattr(home, fn_name, None)
            if not callable(original):
                continue
            name = f"{mod_name}.{fn_name}"
            if hasattr(original, "cache_info"):
                tracer.cached[name] = original
            replacement = tracer.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)
