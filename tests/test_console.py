"""Whole CLI commands at sizes past the unit tests: recorded stdout
digests, exact moments against the projector closed forms, Monte Carlo
agreement, the JSON layout, the table shapes, the verification suites,
and the memory of the streamed n = 12 real expansion and of Monte Carlo
at a large dimension; and the package names the benchmark harness reads,
with every module's ``__all__`` and the version, which ``pyproject.toml``
states too.

Each command runs through ``cli.main`` in this process, except the memory
checks, which each read a process of their own.  A bound on elapsed time is the
time the command may take from the shell, interpreter start included."""

import hashlib
import importlib
import json
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import octamoment
import octamoment.cli
from octamoment.cli import main
from octamoment.closedform import q_compl, q_real
from octamoment.moments import _block_size


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _reject_constant(token):
    raise ValueError(f"not JSON: {token}")


def _strict_json(text: str):
    """``json.loads`` that rejects ``NaN`` and ``Infinity``."""
    return json.loads(text, parse_constant=_reject_constant)


# sha256 of stdout and the exit code of each command, as the workflow's shell
# checks recorded them before these tests replaced them.  The two real
# expansions were re-recorded when ``degenerate_strata`` became one record
# per flagged (lambda, mu) pair; their ``terms`` lists are byte for byte the
# earlier ones.
DIGESTS = [
    ("report --n 10", 0, "7cc3e81e0c315b9bd078466aeb9592c64b0943452d65e0e37cceafa68f9aef5a"),
    ("expansion --n 10 --field real --strict", 2, "667164d007e9c6d8afda84cb4d19eb02f24f6d1edb9881a4ec66f0a477c7ac15"),
    ("expansion --n 10 --field real", 0, "244450964800a92e2fbf518269f89a70c895db30cc43f98c1d74fa1a1c438eb3"),
    ("verify --suite corollaries", 0, "180de49b68a6647b1690fa3a366ff05b00b5e2d97c683074b6a33ff2f5e5f079"),
    ("verify --suite bijection", 0, "bfe8b54ffe4ab9e9d403e428deb18ba15998b3dbb9419f3efee324d2ef221b77"),
    ("verify --suite strata", 0, "c44e6b3f5f5d2f65977442e6d90541d7e41c5abcd1d5c5585dddf5c855628b13"),
    ("verify --suite complex", 0, "5e030deb423e5a48dbc759425be88ab2506b36c4c87022f90c0173671f8b9709"),
    ("verify --suite special", 0, "8fe60f78cb4ef5503c60e67ffe7ccc265ccbb3cc02a6cabd843930759bcb59d4"),
    ("coeffs --n 7 --kind b --format json", 0, "a3a8f9d33f350b31cdff32dba8b0e010e55a9c18e511031c620f994ad07d2ead"),
    ("coeffs --n 7 --kind c --format json", 0, "9ff6bb4175e3e1229b6ada729ba5657d3dba4594854151956a10c10250793c81"),
    ("coeffs --n 7 --kind L --format json", 0, "feb9e0ca1fef526f8729fb69e4b19dbd0c9d4758952d27b9d5e5f409b0393c02"),
    ("coeffs --n 7 --kind LP --format json", 0, "913578f988c258b82ed65b78dda9aebedd25e2ce97449b1054d78ca4d783fd8f"),
]


@pytest.mark.parametrize("command, expected_code, expected_digest", DIGESTS,
                         ids=[command for command, _, _ in DIGESTS])
def test_stdout_digest_is_unchanged(command, expected_code, expected_digest, capsys):
    code, out = _run(command.split(), capsys)
    assert (code, _sha256(out)) == (expected_code, expected_digest)


# The printed 11-edge example (``worked_example_11`` in test_bijection) as a
# ``bijection --input`` record.
WORKED_HYPERMAP = {
    "n": 11,
    "f3": [["1", "4"], ["1^", "8^"], ["2", "9"], ["2^", "3^"], ["3", "11^"], ["4^", "10^"],
           ["5", "7"], ["5^", "6"], ["6^", "11"], ["7^", "9^"], ["8", "10"]],
    "pi1": [["11^", "1", "1^", "2", "2^", "3", "3^", "4", "7^", "8", "8^", "9", "9^", "10"],
            ["4^", "5", "5^", "6", "6^", "7", "10^", "11"]],
    "pi2": [["2", "2^", "3", "3^", "5", "5^", "6", "6^", "7", "7^", "9", "9^", "11", "11^"],
            ["1", "1^", "4", "4^", "8", "8^", "10", "10^"]],
}


def _hypermap_key(h):
    return (h["n"], *(sorted(sorted(block) for block in h[k]) for k in ("f3", "pi1", "pi2")))


# Two small records: at n = 3 a forest that is its seed tree alone, at n = 4
# two non-seed trees of one shape, so the canonical labeling minimizes over
# their orders.
SMALL_HYPERMAPS = [
    {"n": 3, "f3": [["1", "1^"], ["2", "3^"], ["3", "2^"]],
     "pi1": [["1", "2", "1^", "3^"], ["3", "2^"]], "pi2": [["1", "1^"], ["2", "3", "2^", "3^"]]},
    {"n": 4, "f3": [["1", "2"], ["3", "4"], ["1^", "2^"], ["3^", "4^"]],
     "pi1": [["1", "2", "3", "4", "1^", "2^", "3^", "4^"]],
     "pi2": [["1", "2", "1^", "2^"], ["3", "4", "3^", "4^"]]},
]


def _round_trip(hypermap, path, capsys):
    """The forward and the back record of ``hypermap``, each with its exit
    code, through ``bijection --input``."""
    path.write_text(json.dumps(hypermap), encoding="utf-8")
    forward = _run(["bijection", "--input", str(path)], capsys)
    path.write_text(json.dumps(json.loads(forward[1])["forest"]), encoding="utf-8")
    back = _run(["bijection", "--input", str(path)], capsys)
    assert _hypermap_key(json.loads(back[1])["hypermap"]) == _hypermap_key(hypermap)
    return forward, back


def test_worked_hypermap_through_the_bijection_and_back(tmp_path, capsys):
    path = tmp_path / "in.json"
    (code, forward), (code_back, back) = _round_trip(WORKED_HYPERMAP, path, capsys)
    assert (code, _sha256(forward)) == (
        0, "fe737aa872476a4c094ae8cf4c5be2bff875198e3266fb14b9a0c56539af617c"
    )
    assert (code_back, _sha256(back)) == (
        0, "1cb057bed541a59f9aa44c64ef7ee9c01e12a3369582d882e045e4f47a32a503"
    )
    forests = []
    for hypermap in SMALL_HYPERMAPS:
        (code, forward), (code_back, back) = _round_trip(hypermap, path, capsys)
        assert (code, code_back) == (0, 0)
        assert json.loads(back)["hypermap"] == hypermap  # written in its canonical order
        forests.append(json.loads(forward)["forest"])
    # the n = 4 forest has two non-seed roots
    f = forests[1]
    below = {s["child"] for v in f["vertices"] for s in v["slots"] if s["kind"] == "edge"}
    assert len({v["id"] for v in f["vertices"]} - below - {f["seed"]}) == 2


@pytest.mark.parametrize(
    "command, expected, seconds",
    [
        ("mc --n 20 --field complex --x-eigs 1,1,1 --y-eigs 1,1,0 --samples 100 --seed 1",
         q_compl(20, 3, 2), 30),
        ("mc --n 9 --field complex --x-eigs 1,-1/2,2 --y-eigs 1/3,1,1 --samples 2 --seed 1",
         "3970714815665/972", 30),
        ("mc --n 12 --field real --x-eigs 1,1,1 --y-eigs 1,1,0 --samples 100 --seed 1",
         47088731289600, 60),
        ("mc --n 16 --field real --x-eigs 1,1,1,1 --y-eigs 1,1,1,0 --samples 2 --seed 1",
         703429928878989312000, 120),
        ("mc --n 40 --field complex --x-eigs 1,2 --y-eigs 1,1 --samples 100 --seed 1",
         "72665775638076362807599694993184305725336114874548224000000000", 5),
    ],
    ids=["complex-n20-projectors", "complex-n9", "real-n12-projectors", "real-n16-projectors",
         "complex-n40"],
)
def test_mc_prints_the_exact_moment(command, expected, seconds, capsys):
    start = time.perf_counter()
    code, out = _run(command.split(), capsys)
    elapsed = time.perf_counter() - start
    assert (code, _strict_json(out)["exact_rational"]) == (0, str(expected))
    assert elapsed < seconds


def test_real_projector_closed_form_at_n_12_and_16():
    assert q_real(12, 3, 2) == 47088731289600
    assert q_real(16, 4, 3) == 703429928878989312000


@pytest.mark.parametrize(
    "command",
    [
        "mc --n 5 --field complex --x-eigs 1,-1/2,2 --y-eigs 1/3,1,1 --samples 20000 --seed 1",
        "mc --n 4 --field real --x-eigs 1,-1/2,2 --y-eigs 1/3,1,1 --samples 20000 --seed 1",
        # 17 full blocks and one 1-sample block
        f"mc --n 3 --field complex --dim 24 --samples {17 * _block_size(24, True) + 1} --seed 1",
        f"mc --n 3 --field real --dim 24 --samples {17 * _block_size(24, False) + 1} --seed 1",
    ],
    ids=["complex-n5", "real-n4", "complex-n3-last-block-of-one", "real-n3-last-block-of-one"],
)
def test_mc_estimate_is_within_5_standard_errors(command, capsys):
    code, out = _run(command.split(), capsys)
    record = _strict_json(out)
    assert code == 0 and abs(record["z_score"]) <= 5, record


@pytest.mark.parametrize(
    "command",
    ["expansion --n 7 --field real", "expansion --n 9 --field real",
     "expansion --n 11 --field real", "report --n 8"],
)
def test_stdout_is_strict_json_in_the_json_dumps_layout(command, capsys):
    start = time.perf_counter()
    code, out = _run(command.split(), capsys)
    elapsed = time.perf_counter() - start
    assert (code, out) == (0, json.dumps(_strict_json(out), indent=2, sort_keys=True) + "\n")
    assert elapsed < 120


def test_report_resolves_every_flagged_stratum(capsys):
    code, out = _run(["report", "--n", "8"], capsys)
    records = _strict_json(out)
    assert code == 0 and records
    assert all(type(record.get("oracle_value")) is int for record in records)


def test_coeffs_pretty_and_csv_have_a_header_and_one_line_per_row(capsys):
    rows = len(_strict_json(_run(["coeffs", "--n", "4", "--kind", "L", "--format", "json"], capsys)[1]))
    pretty = _run(["coeffs", "--n", "4", "--kind", "L"], capsys)[1].splitlines()
    csv = _run(["coeffs", "--n", "4", "--kind", "L", "--format", "csv"], capsys)[1].splitlines()
    assert len(pretty) == len(csv) == rows + 1
    assert csv[0] == "lambda,mu,r,L,b,c"


@pytest.mark.parametrize(
    "command",
    ["verify --suite corollaries --n-max 6", "verify --suite complex --n-max 8",
     "verify --suite strata", "verify --suite special"],
)
def test_verify_suite_passes(command, capsys):
    code, out = _run(command.split(), capsys)
    assert code == 0 and "FAIL" not in out


@pytest.mark.parametrize("suite", ["bijection", "strata", "complex", "corollaries", "special"])
def test_every_enumerating_suite_passes_at_n_max_1(suite, capsys):
    code, out = _run(["verify", "--suite", suite, "--n-max", "1"], capsys)
    lines = out.splitlines()
    assert code == 0 and all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"


def test_strata_checks_its_flagged_set_from_n_max_2(capsys):
    code, out = _run(["verify", "--suite", "strata", "--n-max", "2"], capsys)
    assert code == 0
    assert "PASS strata/flagged-set: 1 flagged strata, documented boundary case present" in out


def test_package_version_matches_pyproject():
    # The benchmark's reference record reports octamoment.__version__.
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == octamoment.__version__


# The package names the benchmark harness reads: bench/oracle.py computes its
# reference records from them and bench/worker.py runs its ops through them.
BENCH_NAMES = [
    "F_formula", "enumerate_M", "aut", "coeff_hook", "coeff_m_lambda_m_n", "complex_coeff",
    "odd_double_factorial", "oracle_monomial_expansion", "pairing_power_sum_series",
    "partitions_of", "q_real", "q_compl", "MatrixSpec", "moment_real_exact",
    "moment_complex_exact", "__version__",
]


def test_package_exports_the_names_the_benchmark_reads():
    missing = [name for name in BENCH_NAMES if not hasattr(octamoment, name)]
    assert missing == []
    assert callable(octamoment.cli.main)


def test_every_all_entry_resolves():
    names = [info.name for info in pkgutil.iter_modules(octamoment.__path__)]
    assert "symfun" in names
    unresolved = []
    for name in names:
        if name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"octamoment.{name}")
        unresolved += [f"{name}.{entry}" for entry in getattr(module, "__all__", ())
                       if not hasattr(module, entry)]
    assert unresolved == []


def test_cli_import_loads_no_thread_pool(child_env):
    # Monte Carlo imports its helper's pool when it samples, so the start-up
    # of every command stays as it is.
    probe = (
        "import sys, octamoment.cli; "
        "print([m for m in ('concurrent.futures', 'queue') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


# Runs the command given by its arguments in a child of its own and prints
# its exit code, its peak RSS in KiB (Linux), the sha256 of its stdout,
# hashed as it arrives, and the size of its stdout in bytes.  The peak is read in this small wrapper, not in the
# test process: Linux carries a process's high-water RSS across exec, so a
# child started straight from a large test process would report the
# parent's size.
_CHILD_PROBE = """
import hashlib, resource, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "octamoment", *sys.argv[1:]], stdout=subprocess.PIPE)
digest, size = hashlib.sha256(), 0
for block in iter(lambda: proc.stdout.read(1 << 16), b""):
    digest.update(block)
    size += len(block)
print(proc.wait(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, digest.hexdigest(), size)
"""


def _probe(command, child_env):
    result = subprocess.run(
        [sys.executable, "-c", _CHILD_PROBE, *command.split()],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env,
    )
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout.split()


def test_real_expansion_streams_in_bounded_memory_byte_for_byte(child_env):
    # The document is written one record at a time: the child's peak RSS
    # stayed far below the 33 MB that one record per flagged stratum made
    # (208 MB when that document was built whole).  One record per flagged
    # pair makes it about 1.0 MB.  The wrapper's own child inherits its
    # environment, so both run this tree.
    code, peak_kib, digest, size = _probe("expansion --n 12 --field real", child_env)
    assert (code, digest, size) == (
        "0", "16bdacd3f838916fb02ec24d44386e02332d26895151e4f50a37b7ef0b41241d", "1040849"
    )
    assert int(peak_kib) / 1024 < 100


@pytest.mark.parametrize("field", ["real", "complex"])
def test_mc_at_a_large_dimension_runs_in_bounded_memory(field, child_env):
    # At dim 96 a block is 3 real or 1 complex sample (256 KiB of U), so the
    # child peaks near 38 MB in either field; in one block of all 300
    # samples, under the sample cap alone, it peaked at 143 MB (real) and
    # 248 MB (complex) with one BLAS thread.
    command = f"mc --n 2 --field {field} --dim 96 --samples 300 --seed 1"
    code, peak_kib, _, _ = _probe(command, child_env)
    assert code == "0"
    assert int(peak_kib) / 1024 < 80
