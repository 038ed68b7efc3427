"""Seeded op lists for the four benchmark workloads.

An op is a JSON-ready dict with an ``id`` that is unique within its pass
and a ``kind``:

* ``cli``: ``argv`` for ``octamoment.cli.main`` and the exit code
  ``expect_rc`` it must return;
* ``exact``: ``fn`` (``moment_real_exact`` or ``moment_complex_exact``)
  with ``n`` and exact eigenvalue lists ``x`` and ``y``;
* ``mc``: an ``mc`` CLI request on dense random matrices; the matrices
  are drawn from ``matrix_seed`` when the inputs are built.

The seed picks the eigenvalues, the matrices and the Monte Carlo seeds.
It never picks sizes, so every seed gives a pass of the same cost and
the run-to-run spread measures the machine, not the draw.  Nor does it
pick the order of the ops, so ``expand`` and ``verify`` get the same
inputs for every seed: ops share ``lru_cache`` tables and allocator
state, and in a seeded order the cold table builds moved from op to op,
which moved the median op latency by 30-40% between seeds.  This module imports neither numpy nor octamoment, so the op
list costs nothing at set-up; :func:`build_matrix` imports numpy when
the inputs are built.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("expand", "evaluate", "verify", "sample")

# Seconds of --seconds budgeted per pass: a run makes
# max(2, round(seconds / budget)) passes, so the number of ops, and with
# it the tail percentile, depends on --seconds alone.  On the 2-core
# machine the benchmark was tuned on, a pass of expand takes about 7 s,
# verify 6 s, sample 5 s and evaluate 3 s.  The budgets give 4, 4, 4 and
# 8 passes at --seconds 20, counts for which the op_tail_s rank falls
# among the middle copies of one op rather than on its fastest or
# slowest copy.
PASS_BUDGET_S = {"expand": 5.0, "evaluate": 2.5, "verify": 5.0, "sample": 5.0}

# Speed-probe kernel per workload (see speed.py): the kind of code its ops run.
PROBE_KIND = {"expand": "python", "evaluate": "python", "verify": "python", "sample": "numpy"}

SUITES = ("bijection", "strata", "complex", "corollaries", "special")
MC_SHAPES = ((2, 8), (3, 10), (4, 12), (5, 14), (6, 16))  # (n, dim)
MC_SAMPLES = 20_000  # two shards of the fixed 16384-sample layout
# The suite then takes about twice the heaviest mc op, which keeps the
# op_tail_s rank away from two ops of nearly equal cost.
MC_SUITE_SAMPLES = 100_000


def _cli(op_id: str, argv: list, expect_rc: int = 0) -> dict:
    return {"id": op_id, "kind": "cli", "argv": [str(a) for a in argv], "expect_rc": expect_rc}


def _expand(rng: random.Random) -> list[dict]:
    ops = [_cli(f"expansion-real-{n}", ["expansion", "--n", n, "--field", "real"]) for n in range(1, 6)]
    ops += [
        _cli(f"expansion-strict-{n}", ["expansion", "--n", n, "--field", "real", "--strict"], 2)
        for n in range(6, 9)
    ]
    ops += [_cli(f"report-{n}", ["report", "--n", n]) for n in range(1, 6)]
    ops += [
        _cli(f"expansion-complex-{n}", ["expansion", "--n", n, "--field", "complex"])
        for n in range(1, 17)
    ]
    return ops


def _eigs(rng: random.Random, dim: int) -> list[str]:
    # Fixed magnitudes (i mod 9 + 1)/(i mod 4 + 1); the seed picks the signs
    # and the order.  The size of the exact arithmetic, and with it the
    # cost, is then the same for every seed.
    out = [f"{rng.choice([-1, 1]) * (i % 9 + 1)}/{i % 4 + 1}" for i in range(dim)]
    rng.shuffle(out)
    return out


def _evaluate(rng: random.Random) -> list[dict]:
    # Fixed order: the cold oracle table built by the first n = 5 real op
    # then always lands on the same op.
    ops = []
    for n in (3, 4, 5):
        for dim in range(4, 9):
            for fn in ("moment_real_exact", "moment_complex_exact"):
                ops.append(
                    {
                        "id": f"{fn}-{n}-{dim}",
                        "kind": "exact",
                        "fn": fn,
                        "n": n,
                        "x": _eigs(rng, dim),
                        "y": _eigs(rng, dim),
                    }
                )
    return ops


def _verify(rng: random.Random) -> list[dict]:
    ops = [_cli(f"verify-{s}", ["verify", "--suite", s]) for s in SUITES]
    ops += [
        _cli(f"coeffs-{kind}-{n}", ["coeffs", "--n", n, "--kind", kind, "--format", "json"])
        for n in range(1, 8)
        for kind in ("L", "LP")
    ]
    return ops


def _sample(rng: random.Random) -> list[dict]:
    ops = []
    for field in ("real", "complex"):
        for n, dim in MC_SHAPES:
            ops.append(
                {
                    "id": f"mc-{field}-{n}-{dim}",
                    "kind": "mc",
                    "field": field,
                    "n": n,
                    "dim": dim,
                    "samples": MC_SAMPLES,
                    "mc_seed": rng.randrange(1 << 32),
                    "matrix_seed": rng.randrange(1 << 32),
                }
            )
    suite_seed = rng.randrange(1 << 32)
    ops.append(
        _cli(
            "verify-mc",
            ["verify", "--suite", "mc", "--samples", MC_SUITE_SAMPLES, "--seed", suite_seed],
        )
    )
    return ops


_BUILDERS = {"expand": _expand, "evaluate": _evaluate, "verify": _verify, "sample": _sample}


def make_ops(workload: str, seed: int) -> list[dict]:
    """The op list of one pass; the same (workload, seed) gives the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def build_matrix(op: dict, which: str):
    """The dense symmetric (real) or hermitian (complex) matrix ``which``
    (``"x"`` or ``"y"``) of an ``mc`` op, exactly symmetric in floating point."""
    import numpy as np

    rng = np.random.default_rng([op["matrix_seed"], 0 if which == "x" else 1])
    dim = op["dim"]
    a = rng.standard_normal((dim, dim))
    if op["field"] == "complex":
        a = a + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / (2 * dim**0.5)


def matrix_json(m) -> dict:
    """The ``{dim, entries}`` document the ``mc --matrix-x`` option reads."""
    if m.dtype.kind == "c":
        rows = [[[z.real, z.imag] for z in row] for row in m.tolist()]
    else:
        rows = m.tolist()
    return {"dim": len(rows), "entries": rows}


def mc_argv(op: dict, workdir: str) -> list[str]:
    """Write the op's matrices into ``workdir`` and return its CLI argv."""
    argv = ["mc", "--n", str(op["n"]), "--field", op["field"], "--samples", str(op["samples"]),
            "--seed", str(op["mc_seed"])]
    for which in ("x", "y"):
        path = os.path.join(workdir, f"{op['id']}-{which}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(matrix_json(build_matrix(op, which)), handle)
        argv += [f"--matrix-{which}", path]
    return argv
