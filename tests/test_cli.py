"""Command-line surface: output shapes, determinism, exit codes."""

import dataclasses
import functools
import hashlib
import io
import json
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import groupby
from types import SimpleNamespace

import numpy as np
import pytest

from octamoment import cli, verify
from octamoment import closedform as cf
from octamoment import hypermaps as hm
from octamoment.arrays import enumerate_M
from octamoment.cli import main
from octamoment.closedform import (
    F_formula,
    complex_expansion,
    iter_degenerate_pairs,
    iter_degenerate_strata,
    real_expansion,
)
from octamoment.forests import forest_to_json, theta_forward
from octamoment.hypermaps import iter_partitioned_hypermaps
from octamoment.moments import MatrixSpec, moment_real_exact
from octamoment.partitions import aut, format_partition, format_rational, partitions_of
from octamoment.symfun import MonomialExpansion


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


def test_coeffs_c_table(capsys):
    code, out = run_cli(["coeffs", "--n", "2", "--kind", "c", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert {"lambda": "2", "mu": "1,1", "c": 1} in rows
    assert {"lambda": "1,1", "mu": "2", "c": 1} in rows


def test_coeffs_b_table(capsys):
    code, out = run_cli(["coeffs", "--n", "2", "--kind", "b", "--format", "json"], capsys)
    assert code == 0
    rows = {(r["lambda"], r["mu"]): r["b"] for r in json.loads(out)}
    assert rows[("2", "1,1")] == 8
    assert rows[("1,1", "2")] == 8
    assert rows[("2", "2")] == 8


def test_coeffs_L_table_n1(capsys):
    code, out = run_cli(["coeffs", "--n", "1", "--kind", "L", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["L"] == 1


def test_expansion_complex(capsys):
    code, out = run_cli(["expansion", "--n", "2", "--field", "complex"], capsys)
    assert code == 0
    payload = json.loads(out)
    coeffs = {(t["lambda"], t["mu"]): t["coeff"] for t in payload["terms"]}
    assert coeffs == {("2", "2"): "2", ("2", "1,1"): "2", ("1,1", "2"): "2"}
    assert payload["degenerate_strata"] == []


def test_expansion_real_reports_flagged_stratum(capsys):
    code, out = run_cli(["expansion", "--n", "2", "--field", "real"], capsys)
    assert code == 0
    payload = json.loads(out)
    coeffs = {(t["lambda"], t["mu"]): t["coeff"] for t in payload["terms"]}
    assert coeffs == {("2", "2"): "3", ("2", "1,1"): "2", ("1,1", "2"): "2"}
    assert len(payload["degenerate_strata"]) == 1
    assert payload["degenerate_strata"][0]["oracle_value"] == 1


def test_expansion_strict_exit_code(capsys):
    code, out = run_cli(["expansion", "--n", "2", "--field", "real", "--strict"], capsys)
    assert code == 2
    payload = json.loads(out)
    assert payload["degenerate_strata"]


def test_expansion_real_n1(capsys):
    code, out = run_cli(["expansion", "--n", "1", "--field", "real"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [{"lambda": "1", "mu": "1", "coeff": "1"}]


def test_report_subcommand(capsys):
    code, out = run_cli(["report", "--n", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report) == 1 and report[0]["lambda"] == "2"


def test_verify_suite_exit_zero(capsys):
    code, out = run_cli(["verify", "--suite", "special", "--n-max", "3"], capsys)
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_strata_clamps_n_max_to_oracle_bound(capsys):
    code = main(["verify", "--suite", "strata", "--n-max", "6"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert "n=6" not in captured.out
    assert lines[-1] == "16/16 checks passed"
    assert len(captured.err.splitlines()) == 1 and "bound 5" in captured.err


def test_verify_clamps_n_max_to_the_pairing_oracle_bound(capsys):
    code = main(["verify", "--suite", "special", "--n-max", "9"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[-1] == "7/7 checks passed"
    assert len(captured.err.splitlines()) == 1 and "bound 7" in captured.err


def record_suite(monkeypatch, name):
    """Replace a verification suite by a recorder of its arguments that has
    the suite's signature."""
    calls = []

    @functools.wraps(verify.SUITES[name])
    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return []

    monkeypatch.setitem(verify.SUITES, name, recorder)
    return calls


def test_verify_clamps_bijection_n_max_to_the_partitioned_oracle_bound(monkeypatch, capsys):
    calls = record_suite(monkeypatch, "bijection")
    code = main(["verify", "--suite", "bijection", "--n-max", "6"])
    captured = capsys.readouterr()
    assert code == 0
    assert calls == [((), {"n_max": 5})]
    assert captured.err == (
        "note: bijection suite clamps n_max=6 to the partitioned-hypermap oracle bound 5\n"
    )


@pytest.mark.parametrize("suite, n_max", [("complex", "-3"), ("strata", "0"), ("bijection", "0")])
def test_verify_n_max_below_1_exits_3_with_one_line(monkeypatch, capsys, suite, n_max):
    calls = record_suite(monkeypatch, suite)
    code = main(["verify", "--suite", suite, "--n-max", n_max])
    captured = capsys.readouterr()
    assert code == 3
    assert calls == []
    assert captured.out == ""
    assert captured.err == f"octamoment: error: n_max must be >= 1, got {n_max}\n"


def test_verify_corollaries_passes_n_max_to_both_halves(monkeypatch, capsys):
    calls = record_suite(monkeypatch, "corollaries")
    assert main(["verify", "--suite", "corollaries", "--n-max", "7"]) == 0
    assert main(["verify", "--suite", "corollaries", "--n-max", "9"]) == 0
    assert calls == [((), {"n_max": 7})] * 2
    assert "bound 7" in capsys.readouterr().err


def test_suite_corollaries_n_max_sets_both_halves():
    names = [check.name for check in verify.suite_corollaries(3)]
    assert names == [f"corollaries/real n={n}" for n in (1, 2, 3)] + [
        f"corollaries/complex n={n}" for n in (1, 2, 3)
    ]


def test_suite_bijection_reports_an_invalid_forest(monkeypatch):
    # theta_inverse's own validation (step 0) is the suite's validity check.
    forward = verify.fo.theta_forward

    def recolored(h):
        forest = forward(h)
        return dataclasses.replace(
            forest, colors=tuple("b" if c == "w" else "w" for c in forest.colors)
        )

    monkeypatch.setattr(verify.fo, "theta_forward", recolored)
    first = verify.suite_bijection(1)[0]
    assert first.name == "bijection/hypermap-round-trip n=1" and not first.ok
    assert first.detail.startswith("invalid forest for f3 = ")


_TWO_EDGES = next(iter_partitioned_hypermaps(2))


@pytest.mark.parametrize(
    ("target", "replacement", "check", "detail"),
    [
        ("forest_degree", lambda forest: hm.degree_array(_TWO_EDGES),
         "bijection/hypermap-round-trip n=1", "degree mismatch for f3 = "),
        ("theta_inverse", lambda forest: _TWO_EDGES,
         "bijection/hypermap-round-trip n=1", "round trip failed for f3 = "),
        ("enumerate_forests", lambda a, listed=verify.fo.enumerate_forests: listed(a)[1:],
         "bijection/forest-round-trip n=1", "count mismatch at "),
    ],
    ids=["degree", "round-trip", "count"],
)
def test_suite_bijection_reports_each_failure(target, replacement, check, detail, monkeypatch):
    # Only the suite's view of the module is patched: enumerate_forests
    # itself checks each forest with forest_degree.
    monkeypatch.setattr(verify, "fo", SimpleNamespace(**{**vars(verify.fo), target: replacement}))
    result = next(r for r in verify.suite_bijection(1) if r.name == check)
    assert not result.ok and result.detail.startswith(detail)


def test_forest_half_of_bijection_reports_its_first_failure(monkeypatch):
    strata = [
        ((lam, mu, r), a)
        for lam in partitions_of(2)
        for mu in partitions_of(2)
        for r in (0, 1)
        for a in enumerate_M(lam, mu, r)
    ]
    (first_group, first), (last_group, last) = strata[0], strata[-1]
    assert first_group != last_group  # a failure ends the walk, not one group of it
    original = hm.lp_by_array

    def tampered(n):
        table = original(n)
        if n == 2:
            table = {**table, first: table.get(first, 0) + 1, last: table.get(last, 0) + 1}
        return table

    monkeypatch.setattr(hm, "lp_by_array", tampered)
    result = next(r for r in verify.suite_bijection(2) if r.name == "bijection/forest-round-trip n=2")
    assert (result.ok, result.detail) == (False, f"count mismatch at {first}")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("--suite mc --n-max 0 --samples 2000 --seed 3", "the mc suite takes no n_max"),
        ("--suite mc --n-max 2", "the mc suite takes no n_max"),
        ("--suite special --n-max 2 --samples 5", "the special suite takes no samples"),
        ("--suite strata --seed 1", "the strata suite takes no seed"),
    ],
    ids=["mc-n-max", "mc-n-max-alone", "special-samples", "strata-seed"],
)
def test_verify_option_the_suite_does_not_take_exits_3_with_one_line(capsys, argv, message):
    code = main(["verify", *argv.split()])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"octamoment: error: {message}\n"


def test_verify_mc_small(capsys):
    code, out = run_cli(
        ["verify", "--suite", "mc", "--samples", "20000", "--seed", "7"], capsys
    )
    assert code == 0
    assert "mc/real n=1 m=2" in out


def test_bijection_round_trip_via_files(tmp_path, capsys):
    h = next(iter_partitioned_hypermaps(2))
    forest = theta_forward(h)
    forest_path = tmp_path / "forest.json"
    forest_path.write_text(json.dumps(forest_to_json(forest)))
    dot_path = tmp_path / "forest.dot"
    code, out = run_cli(
        ["bijection", "--input", str(forest_path), "--dot", str(dot_path)], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["direction"] == "forest->hypermap"
    assert dot_path.read_text().startswith("digraph")

    hypermap_path = tmp_path / "hypermap.json"
    hypermap_path.write_text(json.dumps(payload["hypermap"]))
    code, out = run_cli(["bijection", "--input", str(hypermap_path)], capsys)
    assert code == 0
    payload2 = json.loads(out)
    assert payload2["direction"] == "hypermap->forest"
    assert payload2["forest"] == forest_to_json(forest)


def test_bijection_rejects_invalid_forest(tmp_path, capsys):
    bad = {
        "seed": 0,
        "vertices": [
            {"id": 0, "color": "white", "slots": [{"kind": "thorn", "label": "a"}]},
            {
                "id": 1,
                "color": "black",
                "slots": [
                    {"kind": "loop", "loop": 0},
                    {"kind": "loop", "loop": 0},
                    {"kind": "thorn", "label": "a"},
                ],
            },
        ],
        "loops": [{"vertex": 1, "loop": 0, "kind": "arrow", "target": 0}],
        "thorn_matching": [[[0, 0], [1, 2]]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run_cli(["bijection", "--input", str(path)], capsys)
    assert code == 1
    assert "violations" in json.loads(out)


def test_single_edge_forest_maps_to_trivial_pairing(tmp_path, capsys):
    data = {
        "seed": 0,
        "vertices": [
            {"id": 0, "color": "white", "slots": [{"kind": "edge", "child": 1}]},
            {"id": 1, "color": "black", "slots": []},
        ],
        "loops": [],
        "thorn_matching": [],
    }
    path = tmp_path / "single.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(["bijection", "--input", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["hypermap"]["f3"] == [["1", "1^"]]


def test_mc_subcommand_json(capsys):
    code, out = run_cli(
        [
            "mc", "--n", "2", "--field", "complex", "--samples", "20000",
            "--seed", "11", "--dim", "2",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["samples"] == 20000
    assert payload["exact"] == 16.0
    assert abs(payload["z_score"]) <= 5


def _reject_constant(token):
    raise ValueError(f"not JSON: {token}")


def test_mc_zero_variance_prints_strict_json(capsys):
    code, out = run_cli(
        [
            "mc", "--n", "2", "--x-eigs", "0,0", "--y-eigs", "1,1",
            "--samples", "100", "--seed", "1",
        ],
        capsys,
    )
    assert code == 0
    record = json.loads(out, parse_constant=_reject_constant)
    assert record["std_error"] == 0 and record["mean"] == record["exact"] == 0
    assert record["z_score"] is None


def test_mc_prints_exact_beyond_the_oracle_bound(capsys):
    code, out = run_cli(
        ["mc", "--n", "6", "--x-eigs", "1,-1/2", "--y-eigs", "2,1", "--samples", "100"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["exact_rational"] == format_rational(
        moment_real_exact(6, MatrixSpec.from_eigs([1, "-1/2"]), MatrixSpec.from_eigs([2, 1]))
    )


def test_json_output_rejects_non_finite_numbers():
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            cli._json_dumps({"z_score": value})


def _pairs(strata):
    """``strata`` grouped by (lam, mu) in their order, as (lam, mu, number of
    strata, sum of their counts)."""
    groups = groupby(strata, key=lambda d: (d.lam, d.mu))
    return [
        (lam, mu, len(group), sum(d.oracle_value for d in group))
        for (lam, mu), group in ((key, list(g)) for key, g in groups)
    ]


def _pair_records(strata, counts=True):
    """The ``degenerate_strata`` records of ``expansion``: one per (lambda,
    mu) pair of ``strata``, with its number of strata and, if ``counts``,
    the sum of their counts."""
    records = []
    for lam, mu, number, total in _pairs(strata):
        record = {"lambda": format_partition(lam), "mu": format_partition(mu), "strata": number}
        if counts:
            record["oracle_value"] = total
        records.append(record)
    return records


def test_strata_writer_equals_json_dumps_of_records():
    # The report list against the encoder on the records.
    flagged = 0
    for n in range(1, 10):
        strata = tuple(iter_degenerate_strata(n))
        flagged += len(strata)
        text = "".join(cli._strata_chunks(strata))
        assert text == json.dumps([d.to_json() for d in strata], indent=2, sort_keys=True), n
    assert flagged > 0 and not tuple(iter_degenerate_strata(1))
    assert "".join(cli._strata_chunks(())) == "[]"


def _expansion_cases():
    """(expansion, strata, strict) for every branch of the real writer."""
    for n in range(1, 6):
        yield real_expansion(n), tuple(iter_degenerate_strata(n)), False
    for n in range(2, 8):
        yield real_expansion(n), tuple(iter_degenerate_strata(n)), True
    yield MonomialExpansion(3), (), False


def test_expansion_writer_equals_json_dumps_of_records():
    cases = 0
    for expansion, strata, strict in _expansion_cases():
        # the strict view: no pair with a flagged stratum, no counts
        flagged = {(d.lam, d.mu) for d in strata} if strict else set()
        kept = {key: c for key, c in expansion.items() if key not in flagged}
        reference = {
            "n": expansion.n,
            "field": "real",
            "degenerate_strata": _pair_records(strata, not strict),
            "terms": MonomialExpansion(expansion.n, kept).to_records(),
        }
        seen = cli._PairSet(expansion.n) if strict else None
        pair_chunks = cli._pair_chunks(_pairs(strata), seen)
        blocks = cli._real_blocks(expansion, seen if strict else ())
        text = "".join(cli._expansion_chunks(expansion.n, "real", pair_chunks, blocks))
        assert text == json.dumps(reference, indent=2, sort_keys=True) + "\n", (
            expansion.n,
            strict,
        )
        assert not strict or all(key in seen for key in flagged)
        cases += 1
    assert cases == 5 + 6 + 1
    empty = cli._expansion_chunks(3, "real", ["[]"], cli._real_blocks(MonomialExpansion(3)))
    assert '"terms": []' in "".join(empty)


def test_complex_writer_equals_json_dumps_of_records(capsys):
    # The complex command writes per length block without building the
    # expansion; its stdout is still the encoder's view of the expansion.
    for n in range(1, 17):
        reference = {
            "n": n,
            "field": "complex",
            "degenerate_strata": [],
            "terms": complex_expansion(n).to_records(),
        }
        expected = json.dumps(reference, indent=2, sort_keys=True) + "\n"
        chunks = cli._expansion_chunks(n, "complex", ["[]"], cli._complex_blocks(n))
        assert "".join(chunks) == expected, n
        for strict in ([], ["--strict"]):
            code, out = run_cli(["expansion", "--n", str(n), "--field", "complex", *strict], capsys)
            assert (code, out) == (0, expected), (n, strict)


class _Sink(io.TextIOBase):
    """A stdout that counts the characters written to it and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)


def test_expansion_and_report_hold_one_record_at_a_time(monkeypatch):
    # One untraced run per order warms every cache the commands read (the
    # expansion and the per-side tables); a traced run then holds about one
    # record at a time, not the document it writes.  The peak is mostly one
    # lambda block of terms, so the strict document, about half the full
    # one, is traced at n = 12, where its peak is under half the bound.
    monkeypatch.setattr(sys, "stdout", _Sink())
    for n in ("10", "12"):
        assert main(["expansion", "--n", n, "--field", "real"]) == 0
    for argv, expected_code in (
        ("expansion --n 10 --field real", 0),
        ("expansion --n 12 --field real --strict", 2),
        ("report --n 10", 0),
    ):
        sink = _Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(argv.split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == expected_code, argv
        assert peak < sink.chars / 10, (argv, peak, sink.chars)


def test_expansion_summary_is_the_per_stratum_list_grouped_by_pair(capsys):
    # expansion lists each flagged (lambda, mu) pair once, in the order of
    # report's per-stratum list, with its number of strata and their summed
    # counts (left out under --strict).
    for n in range(1, 9):
        strata = tuple(iter_degenerate_strata(n))
        assert list(iter_degenerate_pairs(n)) == _pairs(strata), n
        for strict in (False, True):
            argv = ["expansion", "--n", str(n), "--field", "real"] + ["--strict"] * strict
            code, out = run_cli(argv, capsys)
            assert code == (2 if strict and strata else 0), (n, strict)
            summary = json.loads(out)["degenerate_strata"]
            assert summary == _pair_records(strata, counts=not strict), (n, strict)
    assert [(lam, mu) for lam, mu, _, _ in iter_degenerate_pairs(2)] == [((2,), (2,))]


def test_expansion_coefficient_is_the_unflagged_sum_plus_the_flagged_counts(capsys):
    # Each printed coefficient is aut(lam) aut(mu) times the F_formula sum
    # over the strata that F_formula does not flag plus the oracle_value
    # of the pair, 0 for a pair with no flagged stratum.
    for n in range(1, 7):
        code, out = run_cli(["expansion", "--n", str(n), "--field", "real"], capsys)
        data = json.loads(out)
        printed = {(t["lambda"], t["mu"]): Fraction(t["coeff"]) for t in data["terms"]}
        flagged = {(d["lambda"], d["mu"]): d["oracle_value"] for d in data["degenerate_strata"]}
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                key = (format_partition(lam), format_partition(mu))
                unflagged = 0
                for r in range(n // 2 + 1):
                    for a in enumerate_M(lam, mu, r):
                        value = F_formula(a, n)
                        unflagged += value.value if value.well_defined else 0
                expected = aut(lam) * aut(mu) * (unflagged + flagged.get(key, 0))
                assert printed.get(key, 0) == expected, (n, key)
        assert code == 0


def _off_prefactor(exact):
    """A prefactor that no longer divides the counts."""

    def off(p, q, r, n):
        v, num, den = exact(p, q, r, n)
        return v, num, den * 1_000_003

    return off


def _lower_prefactor(exact):
    """A prefactor one order lower, so the count reads a bracket row below
    the one it should; orders -1 and 0 only, so the order stays in the
    bracket's rows."""

    def lower(p, q, r, n):
        v, num, den = exact(p, q, r, n)
        return (v - 1 if v in (-1, 0) else v), num, den

    return lower


@pytest.mark.parametrize(
    "broken, message",
    [(_off_prefactor, r"count .* is not an integer"), (_lower_prefactor, "a pole survives")],
    ids=["integrality", "pole"],
)
def test_expansion_command_checks_every_flagged_count(broken, message, monkeypatch, capsys):
    # The per-pair summary still runs the count core on every flagged
    # stratum, so its checks still guard the command.  The expansion is
    # cached first, so the error can only come from the walk.
    real_expansion(6)
    monkeypatch.setattr(cf, "_prefactor", broken(cf._prefactor))
    for argv in (["expansion", "--n", "6", "--field", "real"], ["report", "--n", "6"]):
        with pytest.raises(ArithmeticError, match=message):
            main(argv)
    capsys.readouterr()


def test_strict_exits_2_iff_a_stratum_is_written(capsys):
    for argv, expected_code in (
        ("expansion --n 1 --field real --strict", 0),
        ("expansion --n 2 --field real --strict", 2),
        ("report --n 1 --strict", 0),
        ("report --n 2 --strict", 2),
    ):
        code, out = run_cli(argv.split(), capsys)
        record = json.loads(out)
        strata = record["degenerate_strata"] if argv.startswith("expansion") else record
        assert (code, bool(strata)) == (expected_code, expected_code == 2), argv


@pytest.mark.parametrize(
    "n, digest",
    [
        (14, "6687289fe69f444fa9f26fa66793a5a3a95cd63db69433abc7ffa9683f01602b"),
        (16, "9e203140082fbffae30fb2f39ddc0cafa2e816de7ad814c5d5185f96edd17647"),
    ],
)
def test_complex_expansion_digest_is_unchanged(n, digest, capsys):
    # Recorded before the complex terms were written per length block.
    code, out = run_cli(["expansion", "--n", str(n), "--field", "complex"], capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


def test_complex_expansion_command_builds_no_expansion(capsys, monkeypatch):
    def unreachable(n):
        raise AssertionError("complex_expansion was built")

    monkeypatch.setattr(cli.cf, "complex_expansion", unreachable)
    code, out = run_cli(["expansion", "--n", "5", "--field", "complex"], capsys)
    assert code == 0 and json.loads(out)["terms"]


def test_expansion_terms_never_reach_json_dumps(capsys, monkeypatch):
    dumped = []
    real_dumps = json.dumps

    def spy(data, **kwargs):
        dumped.append(data)
        return real_dumps(data, **kwargs)

    monkeypatch.setattr(json, "dumps", spy)
    for argv in (
        ["expansion", "--n", "4", "--field", "complex"],
        ["expansion", "--n", "3", "--field", "real"],
        ["expansion", "--n", "3", "--field", "real", "--strict"],
        ["report", "--n", "3"],
    ):
        code, out = run_cli(argv, capsys)
        record = json.loads(out)
        assert record["terms"] if argv[0] == "expansion" else record
    # Neither command calls json.dumps: no head, no strata record, no term.
    assert dumped == []


def test_byte_identical_reruns(capsys):
    args = ["expansion", "--n", "3", "--field", "real"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second
    args = ["mc", "--n", "1", "--samples", "5000", "--seed", "3", "--dim", "2"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


def test_mc_domain_error_exits_3_with_one_line(capsys):
    code = main(["mc", "--n", "0", "--dim", "2", "--samples", "100"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == ["octamoment: error: moment order n must be >= 1"]


def test_mc_exact_moment_beyond_the_float_range_exits_3_with_one_line(capsys):
    argv = "mc --n 30 --field complex --x-eigs 1000000 --y-eigs 1000000 --samples 2 --seed 1"
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "octamoment: error: the exact order-30 moment does not fit in a float"
    ]


def _raise_one_count(table):
    key = next(iter(table))
    return {**table, key: table[key] + 1}


def _move_one_r1_count(table):
    """Move one r = 1 count to an r = 1 key that is not its transpose: the
    total and the r = 0 slice stay, the r-summed table is no longer
    symmetric."""
    entries = dict(table)
    ones = [key for key in entries if key[2] == 1]
    src = next(key for key in ones if key[0] != key[1])
    dst = next(key for key in ones if key not in (src, (src[1], src[0], 1)))
    entries[src] -= 1
    entries[dst] += 1
    return entries


@pytest.mark.parametrize(
    ("oracle", "tamper", "argv", "line"),
    [
        ("class_connection_table", _raise_one_count, "coeffs --n 4 --kind c",
         "FAIL coeffs/class-algebra n=4"),
        ("double_coset_table", _raise_one_count, "coeffs --n 3 --kind b",
         "FAIL coeffs/double-coset n=3: coset sizes verified for 3 types"),
        ("L_table", _move_one_r1_count, "coeffs --n 5 --kind L",
         "FAIL coeffs/symmetry n=5"),
    ],
    ids=["class-algebra", "double-coset", "symmetry"],
)
def test_coeffs_self_check_fails_on_a_tampered_table(oracle, tamper, argv, line, monkeypatch, capsys):
    original = getattr(hm, oracle)
    monkeypatch.setattr(hm, oracle, lambda n: tamper(original(n)))
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


def _raise_one_orientable_count(table):
    key = next(key for key in table if key[2] == 0)
    return {**table, key: table[key] + 1}


@pytest.mark.parametrize(
    ("oracle", "tamper", "suite", "lines"),
    [
        ("lp_by_array", _raise_one_count, "strata", [
            "FAIL strata/per-stratum-count n=1: 1 strata, 1 mismatches",
            "FAIL strata/aggregated-count n=1: 1 profiles",
            "FAIL strata/per-stratum-count n=2: 5 strata, 1 mismatches",
            "FAIL strata/aggregated-count n=2: 5 profiles",
            "FAIL strata/per-stratum-count n=3: 21 strata, 1 mismatches",
            "FAIL strata/aggregated-count n=3: 18 profiles",
            "FAIL strata/flagged-set: 8 flagged strata, documented boundary case MISSING",
        ]),
        ("lp_table", _raise_one_count, "strata", [
            f"FAIL strata/real-expansion n={n}: 1 coefficient mismatches" for n in (1, 2, 3)
        ]),
        ("lp_from_pairings", _raise_one_orientable_count, "complex", [
            f"FAIL complex/coefficients n={n}: {zeros} zero cases included"
            for n, zeros in ((1, 0), (2, 1), (3, 3))
        ]),
        ("lp_from_pairings", _raise_one_count, "special", [
            f"FAIL special/coefficients n={n}: m_{n} x m_n; hook a=0" for n in (1, 2, 3)
        ]),
        ("L_table", _raise_one_count, "corollaries", [
            *(f"FAIL corollaries/real n={n}: l,m <= 5" for n in (1, 2, 3)),
            "FAIL corollaries/complex n=1: l,m <= 5",
        ]),
        ("lp_from_pairings", _raise_one_count, "corollaries", [
            f"FAIL corollaries/real n={n}: l,m <= 5" for n in (1, 2, 3)
        ]),
    ],
    ids=["strata-by-array", "strata-by-types", "complex", "special", "corollaries-pairings",
         "corollaries-partitioned"],
)
def test_verify_fails_on_a_tampered_oracle(oracle, tamper, suite, lines, monkeypatch, capsys):
    # L_table feeds the cached lp_from_pairings: its cache is cleared around
    # the run, so the tampered counts reach it and do not outlive the test.
    cached = hm.lp_from_pairings
    original = getattr(hm, oracle)
    monkeypatch.setattr(hm, oracle, lambda n: tamper(original(n)))
    cached.cache_clear()
    try:
        code = main(["verify", "--suite", suite, "--n-max", "3"])
    finally:
        cached.cache_clear()
    out = capsys.readouterr().out
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == lines


def test_special_names_a_failing_partition_by_its_parts(monkeypatch, capsys):
    original = verify.cf.remark_identity_check
    monkeypatch.setattr(
        verify.cf, "remark_identity_check", lambda lam: lam != (2, 1) and original(lam)
    )
    code = main(["verify", "--suite", "special", "--n-max", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL special/coefficients n=3: cell-sum identity at 2,1"
    ]


def test_expansion_domain_error_exits_3_with_one_line(capsys):
    code = main(["expansion", "--n", "0", "--field", "complex"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == ["octamoment: error: n must be >= 1"]


@pytest.mark.parametrize(
    "argv",
    ["expansion --n 0 --field real", "expansion --n 0 --field complex", "report --n 0"],
)
def test_domain_error_creates_no_out_file(argv, tmp_path, capsys):
    # The output is streamed, but the n >= 1 check comes before the file.
    path = tmp_path / "out.json"
    code = main([*argv.split(), "--out", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.splitlines() == ["octamoment: error: n must be >= 1"]
    assert not path.exists()


def test_oracle_bound_error_names_the_fixed_bound(capsys):
    code = main(["coeffs", "--n", "9", "--kind", "L"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "octamoment: error: pairing classification: n = 9 exceeds the oracle's "
        "fixed size bound 7"
    ]


def test_parser_is_built_once_per_process(capsys):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    # One shared parser, but a fresh namespace per call: no option leaks.
    assert main(["expansion", "--n", "2", "--field", "real", "--strict"]) == 2
    assert main(["expansion", "--n", "2", "--field", "real"]) == 0
    assert cli.build_parser() is parser
    capsys.readouterr()


# sha256 of stdout and the exit code of each command, recorded before the
# real assembly was folded into one entry point.  The mc record drops the
# sampled fields (mean, std_error, z_score): their last bits depend on the
# BLAS kernel numpy picks for the CPU.  What is left pins the exact path.
# The real expansions at n >= 2 were re-recorded when ``degenerate_strata``
# became one record per flagged (lambda, mu) pair; their ``terms`` lists
# are byte for byte the earlier ones.
GOLDEN = [
    ("expansion --n 1 --field real", 0, "ea5551696097350a005af42aabb81750fd3b2aa4367b45d1017e75f30b2a4149"),
    ("expansion --n 2 --field real", 0, "e5b562dbc51e09e8947f904916b2eb15c63639500537591cf7a2211e7d178ba5"),
    ("expansion --n 3 --field real", 0, "6256c9a77db292c607455ad092d1b7fc9bcf3ae4066b828463829438d13f6fe5"),
    ("expansion --n 4 --field real", 0, "edab674faea0ece210596795a1ee320258b87894ebf2873a1d3192cf20876136"),
    ("expansion --n 5 --field real", 0, "99636b9ef2df4d896e661ab842b05f4a52ca57950ec57902fe717839f73d987b"),
    ("expansion --n 2 --field real --strict", 2, "5f51345b34287fcf2c093868546675e0fac84635745d20d3017b13ee744e52fa"),
    ("expansion --n 6 --field real --strict", 2, "8859d54b3203605853ec7d95703e5a91e379299436e7d9f576110d540ed0e818"),
    ("report --n 1", 0, "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("report --n 2", 0, "5e0f36d87287a1ef9e24339326366b9ea840542db4c9d884504dc04fa7f16ed7"),
    ("report --n 3", 0, "e7922b402613aeec7acbca2ecf1ab273b4544eaa34601c1a5a83ec545afb61e9"),
    ("report --n 4", 0, "ef4b04355a9e7f6d7b198a38668096a0dbbe3d05b9fc26e72af91fe80015cde2"),
    ("report --n 5", 0, "cf402b6538912c12161e771739544ffaeeb90a670884f2e6be2c6251dd33929b"),
    ("report --n 2 --strict", 2, "5e0f36d87287a1ef9e24339326366b9ea840542db4c9d884504dc04fa7f16ed7"),
    ("expansion --n 6 --field complex", 0, "f90ccf46768ea752f42ac618830de84596a7b81d907aa305a3b51e48e74d7175"),
    ("coeffs --n 4 --kind LP --format json", 0, "942d87eb8874f2033bda5360bb517dc87eebef5839fa2e79af0b9c4d18672af0"),
    ("mc --n 3 --x-eigs 1/2,-2/3,3 --y-eigs 2,1/3,-1 --samples 5000 --seed 1", 0,
     "6d9f6f093baec4268c19e11aaf92153c0016588ae678961091f11cdcb1a9095c"),
    # Recorded before the expansion terms were written without json.dumps.
    ("expansion --n 12 --field complex", 0, "237cb2c2fad2c5a81eaa7ae531fa50ec09963aec6de4ea3187127d29536258a9"),
    ("expansion --n 7 --field real --strict", 2, "dde9fe4bb082b8a3b86199187df2093b4dc228d6c7a4eece417a88c6726f49a1"),
    ("expansion --n 8 --field real --strict", 2, "c73d550cbfd3b5a4d1f5fb66f6d6ee119dd7a7cff40f470a27fc917ab45129ef"),
    # Re-recorded when flagged strata became resolved by continuation in n
    # (exit 0 for every n); each equals the earlier output with the
    # enumeration oracle's bound raised to 6.
    ("expansion --n 6 --field real", 0, "d4fabe7b9606c28a31a5bf880fa24fff9bc764ab61c42764974421b8c861bc6b"),
    ("report --n 6", 0, "3f3236c1d5cdf80bac54610e4ddb6437737d55e267d8161ef5fefc78c206bc3d"),
    # Recorded before the degree arrays were built from vertex profiles.
    ("coeffs --n 3 --kind LP --per-array", 0, "b14915e737b3db3bb006dc32228843496620f0c7386c6979cdc5b54573261784"),
    ("coeffs --n 5 --kind LP --per-array", 0, "6b20321bb3d676206c30f9a0a50afadcd080fcaaf62700e4b9a3f09ee38ed0ea"),
    ("coeffs --n 5 --kind LP --per-array --format json", 0, "6b20321bb3d676206c30f9a0a50afadcd080fcaaf62700e4b9a3f09ee38ed0ea"),
    # Recorded before the coefficient rows were built in one loop and the
    # partition names rendered once per row.
    ("coeffs --n 3 --kind L --format pretty", 0, "a6d32129e25911123ae9292c27471b9d7db2889a79b225b9b59b91d2e410db31"),
    ("coeffs --n 3 --kind L --format csv", 0, "0b9918baefc8573bde63fe07ef3c4bb1c969058dd57c7daa7ad8f449b78ee0ac"),
    ("coeffs --n 3 --kind L --format json", 0, "d7279fb8e9c4fd3fe8375dcddaba1c9e9f0a39ec5dc82a845b8a9fa2215b8868"),
    ("coeffs --n 3 --kind b --format pretty", 0, "7b32b5b484d9d430a7a727c66d223f31498c69890473cb0e438100dc67f21990"),
    ("coeffs --n 3 --kind b --format csv", 0, "4aa7703057acf3d05397de9fad43641e659582b191a9bdfbdcc6717b8d2e5549"),
    ("coeffs --n 3 --kind b --format json", 0, "112075a9fecf040f2b752efc995f203fb5b9bb5dafcbca5eee9a317d78cc4b2d"),
    ("coeffs --n 3 --kind c --format pretty", 0, "25d1fbaf83e13f9491e99dd0f2e5fda7b0c539e3946cc83535e63fc1720ef75d"),
    ("coeffs --n 3 --kind c --format csv", 0, "c1b02bbcebed6134a27a7e7c42a4be42d747680614b1c600992730375f8c1e24"),
    ("coeffs --n 3 --kind c --format json", 0, "ed2e59cbb6e8f65b793ca672628f589710520a5a5380d45f572e7b10a9608984"),
    ("coeffs --n 3 --kind LP --format pretty", 0, "cc3891800fe9916a376f006b4cbce7b965c5d3561f6460bfa7955ad87d3032f3"),
    ("coeffs --n 3 --kind LP --format csv", 0, "1efe4a0b3ac800ae474b52846ba98a5cff2581960b19e71bac3cd8ec2ab230c3"),
    ("coeffs --n 3 --kind LP --format json", 0, "0afc2437d11579e27edc8f48765f1605a1bac5e66c26e44abfc5f8c1c41b88db"),
    ("coeffs --n 5 --kind L", 0, "8b1aebf03942c935cc3d2ceb4af366242298a5c7f8adc8c46463092f76eab439"),
    ("coeffs --n 5 --kind b", 0, "b2e7a793f5791c95b501eb8bbddb8612ea73bbfd83c58d380fe7c2fac496c3f5"),
    ("coeffs --n 5 --kind c", 0, "1efac8f77ab3c32f02403a861f19d0fb033b621f7206b256cf8ee41eec991496"),
    ("coeffs --n 5 --kind LP", 0, "b3493af82e06d3402aa40ccfc5fb13a5cc06d64ce1dbbbbcd043f14059b01822"),
]


def test_golden_stdout_and_exit_codes(capsys):
    for command, expected_code, expected_digest in GOLDEN:
        argv = command.split()
        code, out = run_cli(argv, capsys)
        if argv[0] == "mc":
            record = json.loads(out)
            for key in ("mean", "std_error", "z_score"):
                del record[key]
            out = json.dumps(record, sort_keys=True)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
            expected_code,
            expected_digest,
        ), command


@pytest.mark.parametrize(
    "argv",
    [
        ["expansion", "--n", "x", "--field", "real"],
        ["frobnicate"],
        ["expansion", "--n", "2"],
        ["expansion", "--n", "2", "--field", "real", "--oracle-max-n", "5"],
        ["report", "--n", "2", "--oracle-max-n", "5"],
        ["mc", "--n", "2", "--matrix-x", "m.json", "--x-eigs", "5,7", "--y-eigs", "1,1"],
        ["mc", "--n", "2", "--x-eigs", "1,1", "--y-eigs", "5,7", "--matrix-y", "m.json"],
    ],
    ids=["bad-int", "unknown-subcommand", "missing-flag", "no-oracle-bound", "no-report-bound",
         "mc-x-eigs-and-matrix-x", "mc-y-eigs-and-matrix-y"],
)
def test_usage_error_exits_3_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("octamoment: error: ")


@pytest.mark.parametrize("seed", [-1, 2**128])
@pytest.mark.parametrize("command", ["mc --n 1 --dim 2", "verify --suite mc"])
def test_seed_outside_the_philox_key_range_exits_3_naming_the_option(command, seed, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*command.split(), "--seed", str(seed)])
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out) == (3, "")
    assert captured.err == (
        f"octamoment: error: argument --seed: must satisfy 0 <= seed < 2**128, got {seed}\n"
    )


@pytest.mark.parametrize("seed", [2**128 - 2, 2**128 - 1])
def test_verify_mc_seed_without_room_for_its_offsets_exits_3_with_one_line(seed, capsys):
    """The mc suite also draws from seed + 1 and seed + 2: a seed that
    ``--seed`` accepts but whose offsets leave the Philox key range."""
    code = main(["verify", "--suite", "mc", "--seed", str(seed)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (
        "octamoment: error: the mc suite draws from seed, seed + 1 and seed + 2, "
        "so --seed must be below 2**128 - 2\n"
    )


def test_verify_mc_at_the_largest_seed_with_room_for_its_offsets():
    results = verify.run_suite("mc", samples=2, seed=2**128 - 3)
    assert len(results) == 11


def test_mc_without_matrix_source_exits_3_with_one_line(capsys):
    code = main(["mc", "--n", "2", "--samples", "10"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "octamoment: error: need --x-eigs/--y-eigs, matrix files, or --dim"
    ]


@pytest.mark.parametrize(
    ("source", "dim", "got"),
    [
        (["--x-eigs", "1,2", "--y-eigs", "1,2"], 5, 2),
        (["--y-eigs", "1,2,3"], 2, 3),
        (["--matrix-x", "bad.json"], 5, 2),
    ],
    ids=["eigs-both", "eigs-y-only", "matrix-file"],
)
def test_mc_dim_other_than_the_matrix_dimension_exits_3(source, dim, got, tmp_path, capsys):
    argv = ["mc", "--n", "2", "--samples", "10", "--dim", str(dim), *source]
    line = _one_error_line(argv, {"eigs": [1, 2]}, tmp_path, capsys)
    assert line == f"octamoment: error: --dim {dim} disagrees with the matrix's dimension {got}"


@pytest.mark.parametrize("dim", ["-1", "0"])
def test_mc_dim_below_1_exits_3_naming_dim(dim, capsys):
    code = main(["mc", "--n", "2", "--samples", "10", "--dim", dim])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == ["octamoment: error: --dim must be >= 1"]


def test_mc_real_field_rejects_a_complex_matrix(tmp_path, capsys):
    hermitian = {"entries": [[1, [0, 1]], [[0, -1], 2]]}
    argv = ["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--dim", "2"]
    line = _one_error_line(argv + ["--field", "real"], hermitian, tmp_path, capsys)
    assert "imaginary" in line
    assert main([str(tmp_path / a) if a == "bad.json" else a for a in argv]
                + ["--field", "complex"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["dim"] == 2 and record["std_error"] > 0


@pytest.mark.parametrize(
    "argv, message",
    [
        ("coeffs --n 3 --kind L --per-array", "--per-array needs --kind LP"),
        ("coeffs --n 5 --kind LP --per-array --format csv", "--per-array writes JSON only"),
        ("coeffs --n 5 --kind LP --per-array --format pretty", "--per-array writes JSON only"),
    ],
    ids=["kind-L", "format-csv", "format-pretty"],
)
def test_per_array_without_kind_LP_exits_3_with_one_line(argv, message, capsys):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == [f"octamoment: error: {message}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["bijection", "--input", "missing.json"],
        ["mc", "--n", "2", "--samples", "10", "--matrix-x", "missing.json", "--dim", "2"],
    ],
    ids=["bijection-input", "matrix-x"],
)
def test_missing_input_file_exits_3_with_one_line(argv, tmp_path, capsys):
    argv = [str(tmp_path / a) if a == "missing.json" else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("octamoment: error: ")
    assert "missing.json" in lines[0]


_VALID_N2 = {"f3": [["1", "2^"], ["2", "1^"]], "pi1": [["1", "2", "1^", "2^"]],
             "pi2": [["1", "2", "1^", "2^"]]}


@pytest.mark.parametrize(
    "argv, content",
    [
        (["bijection", "--input", "bad.json"], {"n": 2}),
        (["bijection", "--input", "bad.json"], {"vertices": []}),
        (["bijection", "--input", "bad.json"], []),
        (
            ["bijection", "--input", "bad.json"],
            {"seed": 0, "vertices": [
                {"id": 0, "color": "white", "slots": [{"kind": "edge", "child": "x"}]},
            ]},
        ),
        (["bijection", "--input", "bad.json"],
         {**_VALID_N2, "n": 2, "f3": [["1", "9"], ["2", "1^"]]}),
        (["bijection", "--input", "bad.json"], {**_VALID_N2, "n": "2"}),
        (["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--dim", "2"],
         {"dim": 2}),
        (["mc", "--n", "2", "--samples", "10", "--x-eigs", "1/0", "--y-eigs", "1"], None),
        (["mc", "--n", "2", "--samples", "10", "--x-eigs", "", "--y-eigs", "1,2", "--dim", "2"],
         None),
        (["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--dim", "2"],
         {"entries": 5}),
        (["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--dim", "2"],
         {"eigs": 5}),
        (["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--dim", "2"],
         {"entries": [1, 2]}),
        (["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--dim", "2"],
         {"entries": [[1, 2], [2]]}),
        (["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--dim", "2"],
         {"entries": [[{}, 1], [1, 2]]}),
        (["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--dim", "2"],
         {"entries": [[[2, 0, 5], 1], [1, 2]]}),
        (["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--dim", "2"],
         {"entries": [[True, 1], [1, 2]]}),
        (["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--dim", "2"],
         {"entries": [["1", 1], [1, 2]]}),
        (["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--dim", "2"],
         {"entries": [[float("inf"), 1], [1, 2]]}),
        (["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json",
          "--matrix-y", "bad.json"],
         {"eigs": []}),
        (["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json",
          "--matrix-y", "bad.json"],
         {"dim": True, "eigs": [1]}),
        (["mc", "--n", "2", "--samples", "10", "--x-eigs", "1e400", "--y-eigs", "1"], None),
        (["mc", "--n", "2", "--samples", "10", "--x-eigs", "1e400", "--y-eigs", "1",
          "--field", "complex"], None),
        (["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--y-eigs", "1"],
         {"eigs": ["1e400"]}),
        (["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--y-eigs", "1,1"],
         {"eigs": ["1", "2"], "entries": [[5, 0], [0, 7]]}),
        (["mc", "--n", "2", "--samples", "10", "--x-eigs", "1,", "--y-eigs", "1,2"], None),
        (["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--y-eigs", "1"],
         {"eigs": [None]}),
        (["bijection", "--input", "bad.json"],
         {**_VALID_N2, "n": 2, "f3": [["1", "2^", "1^"], ["2"]]}),
        (["bijection", "--input", "bad.json"], {"seed": 0, "vertices": "ab"}),
        (["bijection", "--input", "bad.json"], {"seed": 0, "vertices": ["ab"]}),
        (["bijection", "--input", "bad.json"], {"seed": 0, "vertices": [], "loops": "ab"}),
    ],
    ids=["hypermap-without-f3", "forest-without-seed", "json-list", "edge-child-x",
         "label-9-at-n2", "n-as-string", "matrix-dim-only", "eigs-zero-denominator",
         "eigs-empty-string",
         "entries-not-a-list", "eigs-not-a-list", "entries-not-rows", "entries-ragged",
         "entry-object", "entry-three-numbers", "entry-boolean", "entry-string", "entry-infinite",
         "eigs-empty-both", "dim-boolean", "eigs-beyond-float-real", "eigs-beyond-float-complex",
         "matrix-eigs-beyond-float", "eigs-and-entries", "eigs-trailing-comma", "eigs-null",
         "f3-pair-of-three", "vertices-as-string", "vertex-as-string", "loops-as-string"],
)
def test_malformed_input_exits_3_with_one_line(argv, content, tmp_path, capsys):
    _one_error_line(argv, content, tmp_path, capsys)


@pytest.mark.parametrize(
    "source, content, message",
    [
        (["--x-eigs", "1,", "--y-eigs", "1,2"], None,
         "--x-eigs entry 1: Invalid literal for Fraction: ''"),
        (["--x-eigs", "1,2", "--y-eigs", "2,1/0"], None,
         "--y-eigs entry 1: rational '1/0' has a zero denominator"),
        (["--matrix-x", "bad.json", "--y-eigs", "1,2"], {"eigs": [1, None]},
         "'eigs' entry 1: Invalid literal for Fraction: 'None'"),
    ],
    ids=["x-eigs-empty", "y-eigs-zero-denominator", "matrix-eigs-null"],
)
def test_an_eigenvalue_that_does_not_parse_is_named(source, content, message, tmp_path, capsys):
    argv = ["mc", "--n", "2", "--samples", "10", *source]
    assert _one_error_line(argv, content, tmp_path, capsys) == f"octamoment: error: {message}"


@pytest.mark.parametrize("exponent", ["100000000", "-100000000"])
@pytest.mark.parametrize("source", ["--x-eigs", "--matrix-x"])
def test_a_huge_exponent_exits_3_at_once(exponent, source, tmp_path, child_env):
    # Fraction would build 10**(10**8) first, which takes minutes.
    text = f"1e{exponent}"
    if source == "--matrix-x":
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"eigs": [text]}), encoding="utf-8")
        text = str(path)
    argv = ["mc", "--n", "1", source, text, "--y-eigs", "1", "--samples", "2"]
    result = subprocess.run(
        [sys.executable, "-m", "octamoment", *argv],
        capture_output=True, text=True, env=child_env, timeout=5,
    )
    assert (result.returncode, result.stdout) == (3, "")
    named = "--x-eigs" if source == "--x-eigs" else "'eigs'"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    assert result.stderr.splitlines() == [
        f"octamoment: error: {named} entry 0: "
        f"rational '1e{exponent}' has an exponent beyond {limit} in magnitude"
    ]


@pytest.mark.parametrize("pair", [["1", "2^", "1^"], ["1"], "12"], ids=["three", "one", "string"])
def test_an_f3_pair_without_two_labels_is_named(pair, tmp_path, capsys):
    record = {**_VALID_N2, "n": 2, "f3": [["2", "1^"], pair]}
    line = _one_error_line(["bijection", "--input", "bad.json"], record, tmp_path, capsys)
    assert line == f"octamoment: error: hypermap 'f3' pair 1 must hold two labels, got {pair!r}"


@pytest.mark.parametrize(
    "f3", [[["1", "2"], ["1", "1^"]], [["1", "1"], ["2", "2^"]]], ids=["twice", "with-itself"]
)
def test_an_f3_label_used_twice_is_named(f3, tmp_path, capsys):
    record = {**_VALID_N2, "n": 2, "f3": f3}
    line = _one_error_line(["bijection", "--input", "bad.json"], record, tmp_path, capsys)
    assert line == "octamoment: error: hypermap 'f3' uses label '1' twice"


@pytest.mark.parametrize(
    "pi1, label", [([["1", "2^"], ["2", "x^"]], "x^")], ids=["not-a-label"]
)
def test_a_hypermap_token_that_is_not_a_label_is_named(pi1, label, tmp_path, capsys):
    record = {**_VALID_N2, "n": 2, "pi1": pi1}
    line = _one_error_line(["bijection", "--input", "bad.json"], record, tmp_path, capsys)
    assert line == f"octamoment: error: label {label!r} is not one of 1..2 or 1^..2^"


@pytest.mark.parametrize(
    "key, blocks, message",
    [
        ("pi1", ["ab"], "block 0 must be a list of labels, got 'ab'"),
        ("pi1", ["12"], "block 0 must be a list of labels, got '12'"),
        ("pi1", ["1", "2", "1", "2"], "block 0 must be a list of labels, got '1'"),
        ("pi2", [["1", "2"], "1^2^"], "block 1 must be a list of labels, got '1^2^'"),
        ("pi2", [["1", "2"], {"1^": 1, "2^": 2}],
         "block 1 must be a list of labels, got {'1^': 1, '2^': 2}"),
        ("pi1", "12", "must be a list of blocks, got '12'"),
        ("pi1", {"a": 1}, "must be a list of blocks, got {'a': 1}"),
    ],
    ids=["block-as-string", "block-of-labels-as-string", "labels-as-blocks",
         "pi2-block-as-string", "block-as-object", "blocks-as-string", "blocks-as-object"],
)
def test_a_hypermap_block_that_is_not_a_list_is_named(key, blocks, message, tmp_path, capsys):
    # A string or an object would be read through its characters or keys,
    # so "12" would pass for the labels 1 and 2.
    record = {**_VALID_N2, "n": 2, key: blocks}
    line = _one_error_line(["bijection", "--input", "bad.json"], record, tmp_path, capsys)
    assert line == f"octamoment: error: hypermap {key!r} {message}"


_SINGLE_EDGE = {
    "seed": 0,
    "vertices": [
        {"id": 0, "color": "white", "slots": [{"kind": "edge", "child": 1}]},
        {"id": 1, "color": "black", "slots": []},
    ],
    "loops": [],
    "thorn_matching": [],
}


@pytest.mark.parametrize(
    "argv, content, message",
    [
        (["mc", "--n", "2", "--x-eigs", "1,2", "--y-eigs", "1"], None,
         "X and Y must have equal dimension"),
        (["mc", "--n", "2", "--dim", "2", "--samples", "1"], None,
         "need at least 2 samples for a standard error"),
        (["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--y-eigs", "1"],
         {"entries": [[1, 2]]}, "entries must be a dim x dim matrix"),
        (["bijection", "--input", "bad.json"],
         {**_SINGLE_EDGE, "vertices": [{"id": 0, "color": "white",
                                        "slots": [{"kind": "bogus"}]}]},
         "unknown slot kind 'bogus'"),
        (["bijection", "--input", "bad.json"],
         {**_SINGLE_EDGE, "vertices": [_SINGLE_EDGE["vertices"][0],
                                       {**_SINGLE_EDGE["vertices"][1], "id": 2}]},
         "vertex ids must be 0..V-1"),
        (["bijection", "--input", "bad.json"],
         {"seed": 0, "vertices": [{"id": 0, "color": "white", "slots": "ab"}]},
         "vertex 0 'slots' must be a list of slot objects, got 'ab'"),
        (["bijection", "--input", "bad.json"],
         {**_SINGLE_EDGE, "vertices": [_SINGLE_EDGE["vertices"][0],
                                       {**_SINGLE_EDGE["vertices"][1], "slots": ["thorn"]}]},
         "vertex 1 'slots' must be a list of slot objects, got ['thorn']"),
        (["bijection", "--input", "bad.json"], {"seed": 0, "vertices": "ab"},
         "forest 'vertices' must be a list of vertex objects, got 'ab'"),
        (["bijection", "--input", "bad.json"], {"seed": 0, "vertices": ["ab"]},
         "forest 'vertices' must be a list of vertex objects, got ['ab']"),
        (["bijection", "--input", "bad.json"], {**_SINGLE_EDGE, "loops": "ab"},
         "forest 'loops' must be a list of loop objects, got 'ab'"),
        (["bijection", "--input", "bad.json"], {**_SINGLE_EDGE, "loops": [["ab"]]},
         "forest 'loops' must be a list of loop objects, got [['ab']]"),
        (["bijection", "--input", "bad.json"], {**_SINGLE_EDGE, "thorn_matching": 5},
         "forest 'thorn_matching' must be a list of matched pairs, got 5"),
    ],
    ids=["mc-unequal-dimensions", "mc-one-sample", "entries-one-row", "slot-kind-bogus",
         "vertex-ids-0-and-2", "slots-as-string", "slot-as-string", "vertices-as-string",
         "vertex-as-string", "loops-as-string", "loop-as-list", "thorn-matching-as-number"],
)
def test_input_outside_the_domain_exits_3_with_its_message(argv, content, message, tmp_path,
                                                            capsys):
    assert _one_error_line(argv, content, tmp_path, capsys) == f"octamoment: error: {message}"


@pytest.mark.parametrize(
    "pi1, violation",
    [([["1", "2", "1^", "2^"], ["1", "2^"]], "pi1 blocks overlap"),
     ([["1", "2^"]], "pi1 does not cover the ground set")],
    ids=["overlap", "label-missing"],
)
def test_a_hypermap_whose_pi1_is_not_a_partition_exits_1(pi1, violation, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**_VALID_N2, "n": 2, "pi1": pi1}), encoding="utf-8")
    code = main(["bijection", "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert json.loads(captured.out) == {"valid": False, "violations": [violation]}


def test_run_suite_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="^unknown suite 'nope'; choose from "):
        verify.run_suite("nope")


def test_ragged_entries_name_the_row(tmp_path, capsys):
    argv = ["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--dim", "2"]
    line = _one_error_line(argv, {"entries": [[1, 2], [2]]}, tmp_path, capsys)
    assert line.endswith("'entries' row 1 has 1 entries, expected 2"), line


def _one_error_line(argv, content, tmp_path, capsys) -> str:
    """Run ``argv`` on ``content`` written to ``bad.json``; check exit code 3
    and a one-line error, and return that line."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    code = main([str(path) if a == "bad.json" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("octamoment: error: ")
    return lines[0]


def _mc_on_matrix_text(text, tmp_path, capsys):
    """``mc --n 1`` with X read from ``text`` and Y = I_2: exit code, stdout
    and stderr."""
    path = tmp_path / "x.json"
    path.write_text(text, encoding="utf-8")
    code = main(["mc", "--n", "1", "--matrix-x", str(path), "--y-eigs", "1,1", "--samples", "2"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "literal, eig",
    [
        ("1e-400", Fraction(1, 10**400)),
        ("0.30000000000000000001", Fraction(30000000000000000001, 10**20)),
        ("1.5E-3", Fraction(3, 2000)),
    ],
    ids=["below-the-float-range", "more-digits-than-a-double", "capital-exponent"],
)
def test_matrix_file_eigenvalues_are_read_from_their_literal_text(literal, eig, tmp_path, capsys):
    # A float would have read 1e-400 as 0 and the long literal as 0.3.
    code, out, err = _mc_on_matrix_text(f'{{"eigs": [{literal}, 1]}}', tmp_path, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["exact_rational"] == format_rational(2 * (eig + 1))


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"eigs": [1e400, 1]}', "an eigenvalue lies beyond the float range of Monte Carlo"),
        ('{"eigs": ["1e400", 1]}', "an eigenvalue lies beyond the float range of Monte Carlo"),
        ('{"eigs": [1e100000000, 1]}',
         "'eigs' entry 0: rational '1e100000000' has an exponent beyond "
         f"{getattr(sys, 'get_int_max_str_digits', lambda: 0)() or 4300} in magnitude"),
        ('{"dim": 2.0, "eigs": [1, 1]}', "declared dim must be an integer, got 2.0"),
        ('{"entries": [[1.5, [2.5, 1e-400, 0]], [2.5, 1]]}',
         "entry (0, 1) must be a number or an [re, im] pair, got [2.5, 0.0, 0]"),
    ],
    ids=["number-beyond-the-float-range", "string-beyond-the-float-range", "huge-exponent",
         "float-dim", "three-numbers-for-a-pair"],
)
def test_matrix_file_numbers_keep_their_messages(text, message, tmp_path, capsys):
    code, out, err = _mc_on_matrix_text(text, tmp_path, capsys)
    assert (code, out) == (3, "")
    assert err.splitlines() == [f"octamoment: error: {message}"]


@pytest.mark.parametrize(
    "text",
    [
        '{"entries": [[0.1, 0.30000000000000000001], [0.3, 1e-400]]}',
        '{"entries": [[0.1, [0.30000000000000000001, 1e-400]], [[0.3, -1e-400], 2.5E0]]}',
    ],
    ids=["real", "complex"],
)
def test_matrix_file_dense_entries_are_the_floats_json_reads(text, tmp_path):
    path = tmp_path / "x.json"
    path.write_text(text, encoding="utf-8")
    spec = cli._matrix_from_args(str(path), None, None, "--x-eigs")
    rows = json.loads(text)["entries"]
    expected = np.array([[complex(*x) if isinstance(x, list) else x for x in row] for row in rows])
    assert spec.entries.dtype == expected.dtype
    assert spec.entries.dtype in (np.float64, np.complex128)
    assert spec.entries.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_matrix_entry_is_rejected_before_sampling(bad, tmp_path, capsys):
    argv = ["mc", "--n", "2", "--samples", "10", "--matrix-x", "bad.json", "--dim", "2"]
    line = _one_error_line(argv, {"entries": [[bad, 1], [1, 2]]}, tmp_path, capsys)
    assert line == "octamoment: error: matrix entries must be finite"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize(("n", "entry"), [(30, 1000000), (2, 1e200)], ids=["1e6-n30", "1e200-n2"])
def test_mc_estimate_beyond_the_float_range_exits_3_with_one_line(
    n, entry, field, tmp_path, capsys
):
    argv = ["mc", "--n", str(n), "--field", field, "--matrix-x", "bad.json",
            "--matrix-y", "bad.json", "--samples", "2", "--seed", "1"]
    line = _one_error_line(argv, {"entries": [[entry]]}, tmp_path, capsys)
    assert line == (
        f"octamoment: error: the Monte Carlo estimate of the order-{n} moment overflows a float"
    )


def test_hypermap_without_f3_names_the_missing_key(tmp_path, capsys):
    record = {"n": 2, "pi1": _VALID_N2["pi1"], "pi2": _VALID_N2["pi2"]}
    line = _one_error_line(["bijection", "--input", "bad.json"], record, tmp_path, capsys)
    assert "'f3'" in line


def test_forest_color_other_than_white_or_black_is_rejected(tmp_path, capsys):
    forest = forest_to_json(theta_forward(next(iter_partitioned_hypermaps(3))))
    red = [rec["id"] for rec in forest["vertices"] if rec["color"] == "black"]
    for rec in forest["vertices"]:
        if rec["color"] == "black":
            rec["color"] = "red"
    line = _one_error_line(["bijection", "--input", "bad.json"], forest, tmp_path, capsys)
    assert f"vertex {min(red)} " in line and "'red'" in line


@pytest.mark.parametrize(
    "entry",
    [[[0, 0], [1, 1.0]], [[0, 0], [True, 1]], [[0, 0]]],
    ids=["float-slot", "boolean-vertex", "one-reference"],
)
def test_a_thorn_matching_entry_without_two_integer_references_is_named(
    entry, tmp_path, capsys
):
    # The n = 3 forest of BIJECTION_GOLDEN, whose one matched pair is
    # [[0, 0], [1, 1]]; a float compares equal to its int and True to 1.
    forest = {**_LOOP_FOREST, "thorn_matching": [entry]}
    line = _one_error_line(["bijection", "--input", "bad.json"], forest, tmp_path, capsys)
    assert line == (
        "octamoment: error: malformed forest JSON: thorn_matching entry 0 "
        f"is not two [vertex, slot] pairs of integers: {entry!r}"
    )


def test_python_dash_m_runs_the_cli(capsys, child_env):
    for argv, code in [
        (["expansion", "--n", "3", "--field", "complex"], 0),
        (["expansion", "--n", "2", "--field", "real", "--strict"], 2),
    ]:
        assert main(argv) == code
        expected = capsys.readouterr().out.encode()
        result = subprocess.run(
            [sys.executable, "-m", "octamoment", *argv], capture_output=True, env=child_env
        )
        assert (result.returncode, result.stdout, result.stderr) == (code, expected, b"")
    bad = subprocess.run(
        [sys.executable, "-m", "octamoment", "expansion", "--n", "0", "--field", "complex"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert bad.returncode == 3
    assert bad.stdout == ""
    assert bad.stderr.splitlines() == ["octamoment: error: n must be >= 1"]


def test_console_entry_point(child_env):
    result = subprocess.run(
        [sys.executable, "-m", "octamoment.cli", "--help"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert result.returncode == 0
    assert "coeffs" in result.stdout


# Two n = 3 hypermaps and their forests (one forest with loops and a thorn
# pair, one with tree edges only), with the sha256 of stdout and of the
# ``--dot`` file, recorded before ``bijection`` shared one output tail.
BIJECTION_GOLDEN = [
    (
        {"n": 3, "f3": [["1", "1^"], ["2", "3^"], ["3", "2^"]],
         "pi1": [["1", "2", "1^", "3^"], ["3", "2^"]],
         "pi2": [["1", "1^"], ["2", "3", "2^", "3^"]]},
        "fe6ee7848dab3bf163ee17ba331636ff56189b4f8b6352d6a5ca61916b66a566",
        "852c6e404c075a08409fbc45461117f59e90dc60b5d1e56ede2fbfdb40cb0e45",
    ),
    (
        {"seed": 0, "vertices": [
            {"id": 0, "color": "white", "slots": [
                {"kind": "edge", "child": 1}, {"kind": "edge", "child": 2}]},
            {"id": 1, "color": "black", "slots": []},
            {"id": 2, "color": "black", "slots": [{"kind": "edge", "child": 3}]},
            {"id": 3, "color": "white", "slots": []}],
         "loops": [], "thorn_matching": []},
        "f0c59f80fa65ba3039c65db6725b0b21f21a22896aab9836753805f9d1ff504a",
        "852c6e404c075a08409fbc45461117f59e90dc60b5d1e56ede2fbfdb40cb0e45",
    ),
    (
        {"n": 3, "f3": [["1", "2^"], ["2", "3"], ["1^", "3^"]],
         "pi1": [["1", "2", "3", "1^", "2^", "3^"]],
         "pi2": [["1", "2", "3", "1^", "2^", "3^"]]},
        "35690e50c6ba320a055ae09158b41d5185eb5c6ecb1b846ac6d83d585b790db7",
        "8f184c3676dbf3e366baa240af8ffb781514c1fd0dbe6e4493924ea7a5216b7e",
    ),
    (
        {"seed": 0, "vertices": [
            {"id": 0, "color": "white", "slots": [
                {"kind": "thorn", "label": "a"}, {"kind": "loop", "loop": 0},
                {"kind": "loop", "loop": 0}]},
            {"id": 1, "color": "black", "slots": [
                {"kind": "loop", "loop": 0}, {"kind": "thorn", "label": "a"},
                {"kind": "loop", "loop": 0}]}],
         "loops": [{"vertex": 0, "loop": 0, "kind": "greek", "target": 1},
                   {"vertex": 1, "loop": 0, "kind": "arrow", "target": 0}],
         "thorn_matching": [[[0, 0], [1, 1]]]},
        "200d676204219b5b8f6cebf391bea62ddeef48c6346ecf2fa952b6125a79e90a",
        "8f184c3676dbf3e366baa240af8ffb781514c1fd0dbe6e4493924ea7a5216b7e",
    ),
]


_LOOP_FOREST = BIJECTION_GOLDEN[3][0]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("record, stdout_digest, dot_digest", BIJECTION_GOLDEN,
                         ids=["hypermap-edges", "forest-edges", "hypermap-loops", "forest-loops"])
def test_golden_bijection_stdout_and_dot(record, stdout_digest, dot_digest, tmp_path, capsys):
    path, dot = tmp_path / "in.json", tmp_path / "out.dot"
    path.write_text(json.dumps(record), encoding="utf-8")
    code, out = run_cli(["bijection", "--input", str(path), "--dot", str(dot)], capsys)
    assert (code, _sha256(out), _sha256(dot.read_text(encoding="utf-8"))) == (
        0,
        stdout_digest,
        dot_digest,
    )


def test_out_writes_the_stdout_bytes_to_the_file(tmp_path, capsys):
    # Blocks {1, 2} and {1^, 2^} make an invalid hypermap, whose report
    # goes to --out as well; its --dot file is not written.
    invalid, dot = tmp_path / "invalid.json", tmp_path / "out.dot"
    invalid.write_text(
        json.dumps({**_VALID_N2, "n": 2, "pi1": [["1", "2"], ["1^", "2^"]]}), encoding="utf-8"
    )
    for argv, expected_code in (
        (["coeffs", "--n", "3", "--kind", "c", "--format", "csv"], 0),
        (["expansion", "--n", "3", "--field", "real", "--strict"], 2),
        (["expansion", "--n", "6", "--field", "complex"], 0),
        (["report", "--n", "3"], 0),
        (["report", "--n", "3", "--strict"], 2),
        (["bijection", "--input", str(invalid), "--dot", str(dot)], 1),
    ):
        code, out = run_cli(argv, capsys)
        path = tmp_path / "out.txt"
        assert run_cli([*argv, "--out", str(path)], capsys) == (expected_code, "")
        assert code == expected_code and path.read_bytes() == out.encode()
    assert not dot.exists()


def test_bijection_rejects_invalid_hypermap(tmp_path, capsys):
    # Blocks {1, 2} and {1^, 2^} are neither stable nor hat-balanced, and
    # nor are {1} and {1^}: degree_array would misread either, so the
    # command validates before it classifies.
    cases = [
        (
            {**_VALID_N2, "n": 2, "pi1": [["1", "2"], ["1^", "2^"]]},
            [
                "pi1 block [0, 1] is not stable",
                "pi1 block [0, 1] is hat-unbalanced",
                "pi1 block [2, 3] is not stable",
                "pi1 block [2, 3] is hat-unbalanced",
            ],
        ),
        (
            {"n": 1, "f3": [["1", "1^"]], "pi1": [["1^"], ["1"]], "pi2": [["1", "1^"]]},
            [
                "pi1 block [0] is not stable",
                "pi1 block [0] is hat-unbalanced",
                "pi1 block [1] is not stable",
                "pi1 block [1] is hat-unbalanced",
            ],
        ),
    ]
    for record, violations in cases:
        path, dot = tmp_path / "bad.json", tmp_path / "out.dot"
        path.write_text(json.dumps(record), encoding="utf-8")
        code = main(["bijection", "--input", str(path), "--dot", str(dot)])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        payload = json.loads(captured.out)
        assert payload["valid"] is False
        assert payload["violations"] == violations
        assert not dot.exists()


def test_bijection_reports_an_empty_block(tmp_path, capsys):
    record = {"n": 1, "f3": [["1", "1^"]], "pi1": [[], ["1", "1^"]], "pi2": [["1", "1^"]]}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    code = main(["bijection", "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert json.loads(captured.out) == {"valid": False, "violations": ["pi1 has an empty block"]}


def test_hypermap_n_beyond_its_pairs_is_rejected_before_allocation(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the pairing was built")

    monkeypatch.setattr(cli.hm.Pairing, "from_pairs", unreachable)
    record = {"n": 10**9, "f3": [], "pi1": [], "pi2": []}
    line = _one_error_line(["bijection", "--input", "bad.json"], record, tmp_path, capsys)
    assert line == "octamoment: error: hypermap 'f3' must list n = 1000000000 pairs, got 0"


@pytest.mark.parametrize("suite, n_max", [("complex", 4), ("bijection", 3)])
def test_suite_passes_at_small_n(suite, n_max):
    results = verify.run_suite(suite, n_max=n_max)
    assert len(results) >= n_max
    assert all(check.ok for check in results), [c.line() for c in results if not c.ok]
