"""octamoment benchmark: four closed-loop workloads, one client each.

    python3 bench/run.py --workload expand|evaluate|verify|sample \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src``.  Each pass runs every op of the workload once in a fresh
interpreter (``worker.py``), so the ``lru_cache`` tables start empty as
they do for a command-line user.  A run makes ``max(2, round(S /
budget))`` passes (``workloads.PASS_BUDGET_S``).
Before the passes a separate interpreter computes the reference of every
op; each pass checks its outputs against them after its timed loop.

With ``--trace 0`` the last line of stdout gives the end-to-end metrics;
with ``--trace 1`` it gives the per-layer metrics of traced passes, which
alternate with untraced ones to measure the tracing overhead.  The line
before it is a JSON record of the run: environment, pass times, the tail
percentile, failures and, when traced, the ROADMAP facts.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402

# One worker thread everywhere: OCTAMOMENT_THREADS at its default, BLAS
# single-threaded, hashing fixed.
PINNED_ENV = {
    "OCTAMOMENT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
MIN_SETUPS = 5          # set-up is measured at least this many times per run
WORKER_TIMEOUT_S = 150  # no single interpreter may run longer
RUN_DEADLINE_S = 150    # beyond the first two, a pass starts only if it can end by then

# Counts that a program run repeats exactly; traced passes must agree.
DETERMINISTIC = (
    "arrays.enumerate_M.strata", "closedform.F_formula.flagged", "hypermaps.pairings",
    "symfun.eval_monomial.placements", "moments.mc.samples", "moments.mc.shards",
    "closedform.F_formula.calls", "arrays.enumerate_M.calls", "partitions.multinomial.calls",
    "symfun.eval_monomial.calls",
)


class BenchError(RuntimeError):
    pass


def _unit(name: str) -> str:
    if name.endswith("samples_per_s"):
        return "1/s"
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(("share", "share_strict8", "overhead_frac")):
        return "frac"
    return "count"


def _spawn(mode: str, args, workdir: str, check: bool = False) -> tuple[float | None, dict]:
    """Run one worker; returns (set-up seconds, result document)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    if check:
        cmd.append("--check")
    env = dict(os.environ, PYTHONPATH=SRC, **PINNED_ENV)
    err_path = os.path.join(workdir, "stderr.txt")
    setup = result = None
    with open(err_path, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT,
                                text=True)
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                if line.startswith("@@READY"):
                    setup = time.perf_counter() - start
                elif line.startswith("@@RESULT "):
                    result = json.loads(line[len("@@RESULT "):])
            rc = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if rc != 0 or (mode != "setup" and result is None):
        with open(err_path, encoding="utf-8") as err:
            tail = err.read()[-2000:]
        raise BenchError(f"worker --mode {mode} exited {rc}:\n{tail}")
    return setup, result or {}


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(args, versions: dict) -> dict:
    return {
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "octamoment": versions.get("octamoment"),
        "git_commit": _git_commit(),
        "pinned_env": PINNED_ENV,
    }


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 ops beyond it,
    that percentile (nearest rank) and the number of ops beyond it."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - 10)  # 1-based; ranks rank+1..N lie beyond
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def _scale(result: dict, kind: str) -> None:
    """Give each op of a pass its latency at reference speed, ``s``: the
    raw latency times REFERENCE_S over the mean of the two speed probes
    on either side of the op.  Adds the pass wall times, raw and scaled."""
    probes = result["probes"]
    for i, record in enumerate(result["ops"]):
        local = (probes[i] + probes[i + 1]) / 2
        record["s"] = record["raw_s"] * speed.REFERENCE_S[kind] / local
    result["wall_s"] = sum(r["s"] for r in result["ops"])
    result["raw_wall_s"] = sum(r["raw_s"] for r in result["ops"])


def _verdicts(checked: dict, passes: list[dict]) -> list[dict]:
    """Every op record of ``passes`` with its ``problem``.  Only the
    ``checked`` pass compares outputs with the references; an op of
    another pass inherits that verdict when its output is byte-identical
    and fails otherwise, since the program promises identical reruns."""
    first = {r["id"]: r for r in checked["ops"]}
    records = []
    for p in passes:
        for r in p["ops"]:
            ref = first[r["id"]]
            if r["digest"] == ref["digest"]:
                problem = ref["problem"]
            else:
                problem = "output differs from the checked pass"
            records.append(dict(r, problem=problem))
    return records


def _facts(workload: str, metrics: dict) -> dict:
    """The ROADMAP baseline facts a traced run of ``workload`` can confirm.
    They are reported, not enforced: the optimizations they motivate are
    meant to falsify them."""
    value = lambda name: metrics[name]["value"]  # noqa: E731
    if workload == "expand":
        return {
            "two_assemblies_per_real_expansion_op": value("closedform.assemblies_per_op") == 2,
            "F_formula_majority_of_strict_n8": value("closedform.F_formula.share_strict8") > 0.5,
        }
    if workload == "evaluate":
        return {"eval_monomial_majority_of_evaluate": value("symfun.eval_monomial.share") > 0.5}
    return {}


def run(args) -> tuple[dict, dict]:
    passes_wanted = max(2, round(args.seconds / workloads.PASS_BUDGET_S[args.workload]))
    if args.trace:
        per_kind = max(2, passes_wanted // 2)
        schedule = ["pass", "traced"] * per_kind
    else:
        schedule = ["pass"] * passes_wanted
    workdir = tempfile.mkdtemp(prefix=".run-", dir=HERE)
    try:
        run_start = time.perf_counter()
        _, versions = _spawn("reference", args, workdir)
        reference_s = time.perf_counter() - run_start
        setups: list[float] = []
        results: dict[str, list[dict]] = {"pass": [], "traced": []}
        longest = 0.0
        for i, mode in enumerate(schedule):
            started = time.perf_counter()
            if i >= 2 and started + longest - run_start > RUN_DEADLINE_S:
                break
            setup, result = _spawn(mode, args, workdir, check=i == 0)
            longest = max(longest, time.perf_counter() - started)
            _scale(result, workloads.PROBE_KIND[args.workload])
            results[mode].append(result)
            if mode == "pass":
                setups.append(setup)
        if not args.trace:
            while len(setups) < MIN_SETUPS:
                setups.append(_spawn("setup", args, workdir)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = results["pass"]
    measured = results["traced"] if args.trace else untraced
    records = _verdicts(untraced[0], measured)
    failures = [f"{r['id']}: {r['problem']}" for r in records if r["problem"]]
    latencies = [r["s"] for r in records]
    tail, tail_pct, beyond = _tail(latencies)
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(args, versions),
        "passes": len(measured),
        "ops_per_pass": len(measured[0]["ops"]),
        "op_tail_percentile": round(tail_pct, 2),
        "op_tail_ops_beyond": beyond,
        "pass_wall_s": [p["wall_s"] for p in measured],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in measured],
        "raw_op_p50_s": statistics.median(r["raw_s"] for r in records),
        "probe_median_s": statistics.median(x for p in measured for x in p["probes"]),
        "setup_s": setups,
        "reference_s": reference_s,
        "failures": failures[:20],
    }
    correct = not failures
    if args.trace:
        layers = [p["layers"] for p in measured]
        drift = sorted(k for k in DETERMINISTIC if len({l[k] for l in layers}) > 1)
        correct = correct and not drift
        metrics = {
            name: {"value": statistics.median(l[name] for l in layers), "unit": _unit(name)}
            for name in layers[0]
        }
        overhead = (statistics.median(p["wall_s"] for p in measured)
                    / statistics.median(p["wall_s"] for p in untraced) - 1)
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
        detail["counts_differ_between_passes"] = drift
        detail["counts"] = {k: layers[0][k] for k in DETERMINISTIC}
        detail["facts"] = _facts(args.workload, metrics)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(p["wall_s"] for p in measured), "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "op_tail_s": {"value": tail, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in measured),
                            "unit": "MB"},
            "ok_frac": {"value": 1 - len(failures) / len(records), "unit": "frac"},
        }
    summary = {"correct": correct, "attempted": len(records), "failed": len(failures),
               "metrics": metrics}
    return detail, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # A terminated run unwinds, so _spawn stops the worker it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "octamoment", "__init__.py")):
        print(f"bench: no octamoment package under {SRC}", file=sys.stderr)
        return 2
    try:
        detail, summary = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
