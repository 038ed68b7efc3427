"""Command-line surface: output shapes, determinism, exit codes."""

import json
import subprocess
import sys

from octamoment.cli import main
from octamoment.forests import forest_to_json, theta_forward
from octamoment.hypermaps import iter_partitioned_hypermaps


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


def test_expansion_domain_error_exits_3_with_one_line(capsys):
    code = main(["expansion", "--n", "0", "--field", "complex"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.splitlines() == ["octamoment: error: n must be >= 1"]


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "octamoment.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "coeffs" in result.stdout
