"""One fresh interpreter of the benchmark: a timed pass, a set-up probe or
the reference computation.

Usage (``run.py`` starts it with ``PYTHONPATH`` set to the checkout's
``src``)::

    python3 bench/worker.py --mode pass|traced|setup|reference \\
        --workload NAME --seed N --workdir DIR [--check]

The worker prints ``@@READY`` once octamoment and numpy are imported and
the inputs are built; the parent times set-up up to that line.  A pass
then runs every op once, closed loop, and prints ``@@RESULT`` followed by
one JSON document with each op's latency and output digest and, with
``--check``, the verdict of :func:`oracle.check`.  ``traced`` is a pass
with :mod:`tracer` installed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import speed
import workloads

CLI_SUBCOMMANDS = ("coeffs", "expansion", "report", "verify", "mc")


def _ready() -> None:
    sys.__stdout__.write("@@READY\n")
    sys.__stdout__.flush()


def _result(payload: dict) -> None:
    sys.__stdout__.write("@@RESULT " + json.dumps(payload) + "\n")
    sys.__stdout__.flush()


def _import_package():
    import numpy  # noqa: F401  (part of set-up: the Monte Carlo layer needs it)
    import octamoment
    import octamoment.cli

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(octamoment.__file__).startswith(src + os.sep):
        raise SystemExit(f"octamoment imported from {octamoment.__file__}, not from {src}")
    return octamoment


def _build_inputs(ops: list[dict], om, workdir: str) -> list:
    """The arguments of each op, all made before timing starts."""
    built = []
    for op in ops:
        if op["kind"] == "exact":
            spec = om.MatrixSpec.from_eigs
            built.append((op["fn"], op["n"], spec(op["x"]), spec(op["y"])))
        elif op["kind"] == "mc":
            built.append(workloads.mc_argv(op, workdir))
        else:
            built.append(op["argv"])
    return built


def _run_op(om, op: dict, inputs, tracer) -> dict:
    if op["kind"] == "exact":
        fn_name, n, x, y = inputs
        value = getattr(om, fn_name)(n, x, y)
        return {"value": str(value)}
    stdout, stderr = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.main.{inputs[0]}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), span:
        try:
            rc = om.cli.main(list(inputs))
        except SystemExit as exc:
            rc = exc.code
    return {"rc": rc, "stdout": stdout.getvalue()}


def _pass(om, ops, built, tracer, probe_kind):
    """Run every op once; a speed probe precedes the first op and follows
    each op, so ``probes`` has one more entry than ``latencies``."""
    latencies, probes, outputs, deltas = [], [speed.probe(probe_kind)], [], []
    for op, inputs in zip(ops, built):
        before = tracer.snapshot() if tracer else None
        start = time.perf_counter()
        try:
            out = _run_op(om, op, inputs, tracer)
        except Exception as exc:  # a failing op is counted, the pass goes on
            out = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(time.perf_counter() - start)
        probes.append(speed.probe(probe_kind))
        outputs.append(out)
        if tracer:
            after = tracer.snapshot()
            deltas.append({k: v - before.get(k, 0.0) for k, v in after.items()})
    return latencies, probes, outputs, deltas


def _digest(out: dict) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()[:16]


def _trace_summary(tracer, ops, latencies, deltas) -> dict:
    """The per-layer metrics of one traced pass."""
    m: dict[str, float] = {}
    calls, incl, self_s, counts = tracer.calls, tracer.incl, tracer.self_s, tracer.counts
    m["closedform.F_formula.calls"] = calls["closedform.F_formula"]
    m["closedform.F_formula.self_s"] = self_s["closedform.F_formula"]
    m["closedform.F_formula.flagged"] = counts["closedform.F_formula.flagged"]
    m["arrays.enumerate_M.calls"] = calls["arrays.enumerate_M"]
    m["arrays.enumerate_M.strata"] = counts["arrays.enumerate_M.strata"]
    m["arrays.enumerate_M.self_s"] = self_s["arrays.enumerate_M"]
    m["partitions.multinomial.calls"] = calls["partitions.multinomial"]
    m["partitions.multinomial.s"] = incl["partitions.multinomial"]
    m["closedform.complex_expansion.s"] = incl["closedform.complex_expansion"]
    m["symfun.eval_monomial.calls"] = calls["symfun.eval_monomial"]
    m["symfun.eval_monomial.self_s"] = self_s["symfun.eval_monomial"]
    m["symfun.eval_monomial.placements"] = counts["symfun.eval_monomial.placements"]
    m["symfun.eval_power_sum.s"] = incl["symfun.eval_power_sum"]
    cache = tracer.cache_stats()
    for table, cached in (("L_table", "L_table"), ("lp_by_array", "_lp_data"),
                          ("class_connection_table", "class_connection_table"),
                          ("double_coset_data", "double_coset_data")):
        hits, misses = cache.get(f"hypermaps.{cached}", (0, 0))
        m[f"hypermaps.{table}.s"] = incl[f"hypermaps.{table}"]
        m[f"hypermaps.{table}.hits"] = hits
        m[f"hypermaps.{table}.misses"] = misses
    m["hypermaps.pairings"] = counts["hypermaps.pairings"]
    for fn in ("theta_forward", "theta_inverse", "enumerate_forests", "validate_forest"):
        m[f"forests.{fn}.calls"] = calls[f"forests.{fn}"]
        m[f"forests.{fn}.s"] = incl[f"forests.{fn}"]
    mc_s = incl["moments.mc_moment_real"] + incl["moments.mc_moment_complex"]
    m["moments.mc.s"] = mc_s
    m["moments.mc.samples"] = counts["moments.mc.samples"]
    m["moments.mc.samples_per_s"] = counts["moments.mc.samples"] / mc_s if mc_s else 0.0
    m["moments.mc.shards"] = counts["moments.mc.shards"]
    m["moments.mc.workers"] = counts["moments.mc.workers"]

    for suite in workloads.SUITES + ("mc",):
        m[f"verify.run_suite.{suite}.s"] = incl[f"verify.run_suite.{suite}"]
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.main.{sub}.self_s"] = self_s[f"cli.main.{sub}"]
    # ROADMAP facts, per op.
    real_ops = assemblies = 0
    share8 = 0.0
    op_total = sum(latencies)
    for op, lat, delta in zip(ops, latencies, deltas):
        argv = op.get("argv", [])
        if op.get("fn") == "moment_real_exact" or (
            argv[:1] == ["expansion"] and "real" in argv and "--strict" not in argv
        ):
            real_ops += 1
            assemblies += delta.get("closedform.assemblies", 0)
        if op["id"] == "expansion-strict-8":
            share8 = delta.get("closedform.F_formula", 0.0) / lat
    m["closedform.assemblies_per_op"] = assemblies / real_ops if real_ops else 0.0
    m["closedform.F_formula.share_strict8"] = share8
    m["symfun.eval_monomial.share"] = incl["symfun.eval_monomial"] / op_total
    return m


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["pass", "traced", "setup", "reference"], required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--check", action="store_true",
                        help="check every output against the references after the pass")
    args = parser.parse_args()

    om = _import_package()
    ops = workloads.make_ops(args.workload, args.seed)
    if args.mode == "reference":
        import oracle

        refs = {op["id"]: oracle.reference(op, om) for op in ops}
        with open(os.path.join(args.workdir, "refs.json"), "w", encoding="utf-8") as handle:
            json.dump(refs, handle)
        _result({"numpy": sys.modules["numpy"].__version__,
                 "octamoment": getattr(om, "__version__", "unknown")})
        return 0
    built = _build_inputs(ops, om, args.workdir)
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    _ready()
    if args.mode == "setup":
        return 0
    latencies, probes, outputs, deltas = _pass(om, ops, built, tracer,
                                               workloads.PROBE_KIND[args.workload])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    refs = None
    if args.check:
        import oracle

        with open(os.path.join(args.workdir, "refs.json"), encoding="utf-8") as handle:
            refs = json.load(handle)
    records = []
    for op, lat, out in zip(ops, latencies, outputs):
        record = {"id": op["id"], "raw_s": lat, "digest": _digest(out)}
        if refs is not None:
            try:
                record["problem"] = oracle.check(op, out, refs[op["id"]])
            except Exception as exc:  # malformed output is a failed op
                record["problem"] = f"unreadable output: {type(exc).__name__}: {exc}"
        records.append(record)
    payload = {"probes": probes, "peak_rss_mb": peak_rss_mb, "ops": records}
    if tracer:
        payload["layers"] = _trace_summary(tracer, ops, latencies, deltas)
    _result(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
