"""Exact moment evaluation and Monte Carlo behavior."""

import math
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octamoment.cli import main
from octamoment.closedform import complex_expansion, q_compl, q_real
from octamoment.hypermaps import pairing_power_sum_series
from octamoment import moments
from octamoment.moments import (
    MatrixSpec,
    mc_moment_complex,
    mc_moment_real,
    moment_complex_exact,
    moment_real_exact,
)


I2 = MatrixSpec.identity(2)


def test_matrix_spec_validation():
    with pytest.raises(ValueError):
        MatrixSpec.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        MatrixSpec(2, eigs=(Fraction(1),))
    spec = MatrixSpec.from_dense(np.array([[1.0, 2.0], [2.0, -1.0]]))
    with pytest.raises(ValueError):
        spec.exact_eigs()
    herm = MatrixSpec.from_dense(np.array([[1.0, 1j], [-1j, 0.0]]))
    assert herm.dim == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_matrix_spec_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        MatrixSpec.from_dense(np.array([[bad, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="finite"):
        MatrixSpec.from_dense(np.array([[1.0, complex(0.0, bad)], [complex(0.0, -bad), 2.0]]))


def test_matrix_spec_rejects_dimension_zero():
    with pytest.raises(ValueError, match="dimension"):
        MatrixSpec.from_eigs([])
    with pytest.raises(ValueError, match="dimension"):
        MatrixSpec.from_dense([])


@pytest.mark.parametrize(
    "text, message",
    [("1e5000", "has an exponent beyond"), ("1/0", "has a zero denominator")],
)
def test_from_eigs_reads_text_as_the_command_line_does(text, message):
    # parse_rational bounds the exponent before Fraction builds 10**5000;
    # the evaluation kernel reads each letter by the same rule.
    with pytest.raises(ValueError, match=f"^eigs entry 0: rational '{text}' {message}"):
        MatrixSpec.from_eigs([text])
    with pytest.raises(ValueError, match=f"^rational '{text}' {message}"):
        complex_expansion(1).evaluate([text], [1])


@pytest.mark.parametrize(
    "bad, shown",
    [(math.inf, "inf"), (-math.inf, "-inf"), (None, "None"), (1 + 2j, r"\(1\+2j\)")],
    ids=["inf", "-inf", "None", "complex"],
)
def test_from_eigs_names_an_entry_that_fraction_cannot_read(bad, shown):
    # Fraction raises OverflowError on an infinity and TypeError on None or a
    # complex number; each reaches the caller as the ValueError naming the entry.
    with pytest.raises(ValueError, match=f"^eigs entry 0: cannot read {shown} as a rational: "):
        MatrixSpec.from_eigs([bad])
    with pytest.raises(ValueError, match=f"^cannot read {shown} as a rational: "):
        complex_expansion(1).evaluate([bad], [1])


def test_matrix_spec_json():
    spec = MatrixSpec.from_json({"dim": 2, "eigs": ["1/2", "3"]})
    assert spec.eigs == (Fraction(1, 2), Fraction(3))
    dense = MatrixSpec.from_json(
        {"dim": 2, "entries": [[1.0, [0.0, 1.0]], [[0.0, -1.0], 2.0]]}
    )
    assert dense.entries[0, 1] == 1j


def test_matrix_spec_json_rejects_a_wrong_dim():
    for data in (
        {"dim": 3, "eigs": ["1", "2"]},
        {"dim": 3, "entries": [[1.0, 0.0], [0.0, 2.0]]},
        # 1 == True == 1.0, but a declared dim must be an int
        {"dim": True, "eigs": [1]},
        {"dim": 1.0, "eigs": [1]},
        {"dim": "1", "eigs": [1]},
        {"dim": None, "entries": [[1.0]]},
    ):
        with pytest.raises(ValueError, match="declared dim"):
            MatrixSpec.from_json(data)


def test_exact_values():
    assert moment_real_exact(1, I2, I2) == 4
    assert moment_real_exact(2, I2, I2) == 20
    assert moment_complex_exact(1, I2, I2) == 4
    assert moment_complex_exact(2, I2, I2) == 16
    x = MatrixSpec.from_eigs([1, 0])
    assert moment_complex_exact(2, x, x) == 2
    assert moment_real_exact(2, MatrixSpec.projector(1, 2), I2) == q_real(2, 1, 2)


def test_routes_agree():
    x = MatrixSpec.from_eigs([Fraction(1, 2), Fraction(-2, 3), 3])
    y = MatrixSpec.from_eigs([2, Fraction(1, 3), -1])
    for n in range(1, 6):
        oracle = pairing_power_sum_series(n, "real").evaluate(x.eigs, y.eigs)
        assert moment_real_exact(n, x, y) == oracle


def test_moment_real_exact_beyond_the_oracle_bound():
    x = MatrixSpec.from_eigs([Fraction(1, 2), Fraction(-2, 3), 3])
    y = MatrixSpec.from_eigs([2, Fraction(1, 3), -1])
    oracle = pairing_power_sum_series(6, "real").evaluate(x.eigs, y.eigs)
    assert moment_real_exact(6, x, y) == oracle


def test_symmetry_and_scaling():
    x = MatrixSpec.from_eigs([Fraction(1, 2), 2])
    y = MatrixSpec.from_eigs([-1, Fraction(5, 3)])
    c = Fraction(-3, 7)
    for n in range(1, 5):
        real_xy = moment_real_exact(n, x, y)
        assert real_xy == moment_real_exact(n, y, x)
        assert moment_complex_exact(n, x, y) == moment_complex_exact(n, y, x)
        scaled = MatrixSpec.from_eigs([c * e for e in x.eigs])
        assert moment_real_exact(n, scaled, y) == c**n * real_xy


def test_projector_specialization():
    for n in range(1, 5):
        for l in range(0, 4):
            for m in range(max(l, 1), 4):
                x = MatrixSpec.projector(l, m)
                ident = MatrixSpec.identity(m)
                assert moment_real_exact(n, x, ident) == q_real(n, l, m)
                assert moment_complex_exact(n, x, ident) == q_compl(n, l, m)


@pytest.mark.parametrize("n", [12, 16, 20, 30, 40])
def test_complex_projector_specialization_at_large_n(n):
    # Ranks up to 3, and full rank n, where every length k <= n contributes.
    cases = [(l, m, 3) for l in range(0, 4) for m in range(0, 4)] + [(n, n, n), (n, 1, n)]
    for l, m, dim in cases:
        x, y = MatrixSpec.projector(l, dim), MatrixSpec.projector(m, dim)
        assert moment_complex_exact(n, x, y) == q_compl(n, l, m), (l, m)


def test_complex_exact_moment_needs_no_partition_table(monkeypatch):
    """The complex route reads no placement table, which has one state per
    partition of every j <= n: with the table out of reach, n = 40 still
    equals the projector closed form."""

    def no_table(n):
        raise AssertionError(f"placement table of degree {n} requested")

    monkeypatch.setattr("octamoment.symfun._placements", no_table)
    for l, m, dim in [(2, 1, 3), (3, 3, 3), (40, 40, 40), (40, 1, 40)]:
        x, y = MatrixSpec.projector(l, dim), MatrixSpec.projector(m, dim)
        assert moment_complex_exact(40, x, y) == q_compl(40, l, m), (l, m)


@pytest.mark.parametrize("n", [0, -1])
def test_exact_moments_reject_an_order_below_1(n):
    for exact_moment in (moment_real_exact, moment_complex_exact):
        with pytest.raises(ValueError, match=r"^n must be >= 1$"):
            exact_moment(n, I2, I2)


@pytest.mark.parametrize("l, m", [(3, 2), (-1, 2), (0, 0), (1, 0), (0, -1)])
def test_projector_rejects_a_rank_outside_0_to_m(l, m):
    with pytest.raises(ValueError, match="0 <= l <= m"):
        MatrixSpec.projector(l, m)


def test_mc_matches_exact_real():
    est = mc_moment_real(2, I2, I2, 200_000, seed=1234)
    assert abs(est.z_score(20.0)) <= 5
    est1 = mc_moment_real(1, I2, I2, 100_000, seed=77)
    assert abs(est1.z_score(4.0)) <= 5


def test_mc_matches_exact_complex():
    est = mc_moment_complex(2, I2, I2, 200_000, seed=4321)
    assert abs(est.z_score(16.0)) <= 5


_small_rational = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 3),
    eigs=st.integers(1, 3).flatmap(
        lambda dim: st.tuples(*[st.lists(_small_rational, min_size=dim, max_size=dim)] * 2)
    ),
)
def test_exact_moments_match_mc_at_random_rational_eigenvalues(n, eigs):
    x, y = (MatrixSpec.from_eigs(e) for e in eigs)
    for exact, mc in ((moment_real_exact, mc_moment_real),
                      (moment_complex_exact, mc_moment_complex)):
        est = mc(n, x, y, 20_000, seed=20240801)
        assert abs(est.z_score(float(exact(n, x, y)))) <= 5


def test_z_score_of_an_exact_zero_variance_estimate():
    zero = MatrixSpec.from_eigs([0, 0])
    est = mc_moment_real(2, zero, I2, 100, seed=1)
    exact = moment_real_exact(2, zero, I2)
    assert est.std_error == 0 and est.mean == exact == 0
    assert est.z_score(float(exact)) == 0.0
    assert est.z_score(1.0) == float("inf")
    assert est.to_json(exact)["z_score"] is None


def test_mc_reproducible_and_seed_sensitive():
    a = mc_moment_real(2, I2, I2, 50_000, seed=9)
    b = mc_moment_real(2, I2, I2, 50_000, seed=9)
    assert (a.mean, a.std_error) == (b.mean, b.std_error)
    c = mc_moment_real(2, I2, I2, 50_000, seed=10)
    assert a.mean != c.mean


def test_mc_threads_do_not_change_results(monkeypatch, capsys):
    # OCTAMOMENT_THREADS is not read: no value of it, valid or not, changes `mc`.
    argv = ["mc", "--n", "2", "--dim", "2", "--samples", "40000", "--seed", "5"]
    assert main(argv) == 0
    base = capsys.readouterr()
    for raw in ("4", "abc"):
        monkeypatch.setenv("OCTAMOMENT_THREADS", raw)
        assert main(argv) == 0
        assert capsys.readouterr() == base, raw


# repr of (mean, std_error) at seed 11 for X = diag(1/2, -2/3, 3) and Y the
# rank-one projector diag(1, 0, 0), order 1, recorded from one Philox
# stream per estimate, each sample's real parts then its imaginary parts.
# 2 and 100 samples fill one partial block, 16384 sixteen full blocks,
# 16385 end on a 1-sample block, and 40000 and 150000 reduce 40 and 147
# blocks; at 147 blocks, summing them in another order changes the last
# bits of the real mean.  With a diagonal X, a rank-one Y and n = 1, every
# real product is a single rounding, so the real values do not depend on
# the BLAS kernel.  A complex |u|^2 sums two products, which kernels with
# and without fused multiply-add round differently; the real values pin the
# reduction order that both fields share, and the complex ones are pinned
# to 1e-12.
MC_PINNED = {
    ("real", 2): (1.2078555024968238, 1.7914245990970505),
    ("real", 100): (2.7972124019649893, 0.4057885061852489),
    ("real", 16384): (2.8052998950795534, 0.03401437136518349),
    ("real", 16385): (2.805263680827207, 0.03401231463544188),
    ("real", 40000): (2.8327067834983604, 0.021976277745662087),
    ("real", 150000): (2.8080945159412667, 0.011276232199447444),
    ("complex", 2): (5.179615096950558, 3.9717595944537347),
    ("complex", 100): (3.009931514057402, 0.31125754807991723),
    ("complex", 16384): (2.8268732912365784, 0.02417612481199153),
    ("complex", 16385): (2.827367669909403, 0.024179703829527936),
    ("complex", 40000): (2.8045689842382404, 0.015493021233967733),
    ("complex", 150000): (2.8162311858931464, 0.00799367458350845),
}


def test_mc_estimates_are_pinned():
    x = MatrixSpec.from_eigs([Fraction(1, 2), Fraction(-2, 3), 3])
    y = MatrixSpec.projector(1, 3)
    for (field, samples), expected in MC_PINNED.items():
        estimator = mc_moment_real if field == "real" else mc_moment_complex
        est = estimator(1, x, y, samples, seed=11)
        got = (est.mean, est.std_error)
        if field == "real":
            assert got == expected, (field, samples)
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=0), (field, samples)


# stdout of `verify --suite mc --samples 20000 --seed 3`; four decimals
# hide the BLAS kernel's last bits.
VERIFY_MC_SEED3 = """\
PASS mc/real n=1 m=2: mean=3.9652 exact=4.0000 z=-1.76
PASS mc/complex n=1 m=2: mean=3.9842 exact=4.0000 z=-1.11
PASS mc/real n=2 m=2: mean=19.6408 exact=20.0000 z=-1.67
PASS mc/complex n=2 m=2: mean=15.9387 exact=16.0000 z=-0.50
PASS mc/real n=2 m=3: mean=62.7744 exact=63.0000 z=-0.49
PASS mc/complex n=2 m=3: mean=53.8841 exact=54.0000 z=-0.43
PASS mc/real n=3 m=2: mean=139.5834 exact=144.0000 z=-1.58
PASS mc/complex n=3 m=2: mean=83.9955 exact=84.0000 z=-0.00
PASS mc/real rational eigenvalues n=2: mean=28.3118 exact=28.0000 z=+0.49
PASS mc/complex rational eigenvalues n=2: mean=17.7890 exact=17.7222 z=+0.25
PASS mc/fixed-seed-reproducible
11/11 checks passed
"""


def test_verify_mc_output_is_pinned(capsys):
    assert main(["verify", "--suite", "mc", "--samples", "20000", "--seed", "3"]) == 0
    assert capsys.readouterr().out == VERIFY_MC_SEED3


def _positive_definite(dim: int, complex_field: bool, seed: int) -> MatrixSpec:
    # Positive definite X and Y make every tr T^n positive, so the means
    # compare at a relative tolerance without cancellation.
    rng = np.random.default_rng([dim, seed])
    a = rng.standard_normal((dim, dim))
    if complex_field:
        a = a + 1j * rng.standard_normal((dim, dim))
    s = a @ a.conj().T / dim + np.eye(dim)
    return MatrixSpec.from_dense((s + s.conj().T) / 2)


def _reference_estimate(n, x, y, samples, seed, complex_field):
    """mean and std_error of tr (X U Y U^H)^n, one matrix power per sample,
    over one Philox stream keyed by the seed: per sample its real parts,
    then its imaginary parts, with N(0, 1/2) complex parts."""
    xd, yd, m = x.dense(), y.dense(), x.dim
    rng = np.random.Generator(np.random.Philox(key=seed))
    parts = rng.standard_normal((samples, 2 if complex_field else 1, m, m))
    u = parts[:, 0]
    if complex_field:
        u = (u + 1j * parts[:, 1]) * math.sqrt(0.5)
    t = xd @ u @ yd @ np.conj(np.transpose(u, (0, 2, 1)))
    v = np.trace(np.linalg.matrix_power(t, n), axis1=1, axis2=2).real
    return v.mean(), v.std(ddof=1) / math.sqrt(samples)


def _assert_kernel_matches_a_plain_matrix_power(field, dim, samples):
    # n = 1..7 covers the trace, odd and even splits of the power.
    complex_field = field == "complex"
    x = _positive_definite(dim, complex_field, 0)
    y = _positive_definite(dim, complex_field, 1)
    estimator = mc_moment_complex if complex_field else mc_moment_real
    for n in range(1, 8):
        est = estimator(n, x, y, samples, seed=13)
        mean, std_error = _reference_estimate(n, x, y, samples, 13, complex_field)
        assert est.mean == pytest.approx(mean, rel=1e-10, abs=0), n
        assert est.std_error == pytest.approx(std_error, rel=1e-10, abs=0), n


@pytest.mark.parametrize("samples", [2, 1025, 16385])
@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_mc_kernel_matches_a_plain_matrix_power(field, dim, samples):
    # 1025 and 16385 samples are one and sixteen blocks of _BLOCK samples,
    # then a 1-sample block.  Where the byte cap makes the blocks smaller
    # (complex dim 5: 655 samples), the run takes as many blocks of that
    # size, so it still ends on a 1-sample block.
    if samples > 2:
        blocks = (samples - 1) // moments._BLOCK
        samples = blocks * moments._block_size(dim, field == "complex") + 1
    _assert_kernel_matches_a_plain_matrix_power(field, dim, samples)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_mc_kernel_matches_a_plain_matrix_power_in_byte_capped_blocks(field):
    # At dim 24 the byte cap binds (56 real and 28 complex samples a block):
    # two blocks, then a 1-sample block.
    dim = 24
    block = moments._block_size(dim, field == "complex")
    assert block < moments._BLOCK
    _assert_kernel_matches_a_plain_matrix_power(field, dim, 2 * block + 1)


def test_block_size_caps_samples_and_bytes():
    # _BLOCK samples while they fit in _BLOCK_BYTES of U: real m <= 5 and
    # complex m <= 4, where every pinned estimate lies; fewer above, and
    # one sample once two do not fit (real m >= 129, complex m >= 91), also
    # when a single U is larger than the cap (real m >= 182).
    dims = (1, 4, 5, 6, 24, 90, 91, 128, 129, 182)
    sizes = {
        field: [moments._block_size(m, field == "complex") for m in dims]
        for field in ("real", "complex")
    }
    assert sizes == {
        "real": [1024, 1024, 1024, 910, 56, 4, 3, 2, 1, 1],
        "complex": [1024, 1024, 655, 455, 28, 2, 1, 1, 1, 1],
    }


@pytest.mark.parametrize("field", ["real", "complex"])
def test_mc_peak_memory_is_one_block_of_buffers(field):
    # An estimate holds one block of samples at a time: at dim 24 a block is
    # 256 KiB of U (56 real or 28 complex samples), and the draws, U and
    # three work buffers take 1.2 MiB in either field; a block of 1024
    # samples would take 22.5 MiB (real) or 45 MiB (complex).  The helper
    # thread fills the draws in place.  17 full blocks, then a 1-sample
    # block.  numpy reports its buffers to tracemalloc; a first small run
    # imports the helper's pool outside the traced one.
    dim = 24
    complex_field = field == "complex"
    estimator = mc_moment_complex if complex_field else mc_moment_real
    samples = 17 * moments._block_size(dim, complex_field) + 1
    estimator(2, I2, I2, 2, seed=1)
    tracemalloc.start()
    try:
        estimator(2, MatrixSpec.identity(dim), MatrixSpec.identity(dim), samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 2 * 2**20
    assert peak < bound, (peak / 2**20, bound / 2**20)


@pytest.mark.parametrize("estimator", [mc_moment_real, mc_moment_complex])
def test_mc_estimate_does_not_depend_on_the_block_size(estimator, monkeypatch):
    # Blocks of 7 samples, and blocks capped at 1000 bytes of U (13 real or
    # 6 complex samples at dim 3).
    complex_field = estimator is mc_moment_complex
    x = _positive_definite(3, complex_field, 0)
    base = estimator(3, x, x, 1000, seed=5)
    for name, value in (("_BLOCK", 7), ("_BLOCK_BYTES", 1000)):
        with monkeypatch.context() as patch:
            patch.setattr(moments, name, value)
            assert moments._block_size(3, complex_field) < 1000
            small = estimator(3, x, x, 1000, seed=5)
        assert (small.mean, small.std_error) == pytest.approx(
            (base.mean, base.std_error), rel=1e-12, abs=0
        ), name


@pytest.mark.parametrize("estimator", [mc_moment_real, mc_moment_complex])
def test_mc_estimate_does_not_depend_on_thread_timing(estimator, monkeypatch):
    # A helper thread draws the next block while this one is traced: a trace
    # that lags 20 ms on every other block must not change a bit.  40
    # samples in blocks of 7 end on a 5-sample block.
    x = _positive_definite(3, estimator is mc_moment_complex, 0)
    monkeypatch.setattr(moments, "_BLOCK", 7)
    base = estimator(3, x, x, 40, seed=5)
    traces = moments._block_traces
    calls = []

    def lagging(*args):
        calls.append(None)
        if len(calls) % 2:
            time.sleep(0.02)
        return traces(*args)

    monkeypatch.setattr(moments, "_block_traces", lagging)
    lagged = estimator(3, x, x, 40, seed=5)
    assert len(calls) == 6
    assert (lagged.mean, lagged.std_error) == (base.mean, base.std_error)


@pytest.mark.parametrize("estimator", [mc_moment_real, mc_moment_complex])
def test_mc_leaves_no_thread_behind(estimator, monkeypatch):
    # 3000 samples are three blocks: the second one raises while the helper
    # draws the third.
    before = threading.active_count()
    estimator(2, I2, I2, 3000, seed=1)
    assert threading.active_count() == before
    traces = moments._block_traces
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("the second block fails")
        return traces(*args)

    monkeypatch.setattr(moments, "_block_traces", failing)
    with pytest.raises(RuntimeError, match="the second block fails"):
        estimator(2, I2, I2, 3000, seed=1)
    assert threading.active_count() == before


@pytest.mark.parametrize("estimator", [mc_moment_real, mc_moment_complex])
def test_seeds_that_differ_by_2_to_the_64_draw_different_streams(estimator):
    x = MatrixSpec.from_eigs([1, 2])
    assert estimator(2, x, x, 100, seed=1).mean != estimator(2, x, x, 100, seed=1 + 2**64).mean


def test_mc_error_scales_with_samples():
    small = mc_moment_real(2, I2, I2, 50_000, seed=31)
    big = mc_moment_real(2, I2, I2, 100_000, seed=31)
    ratio = big.std_error / small.std_error
    assert abs(ratio - 1 / math.sqrt(2)) <= 0.2 / math.sqrt(2)


def test_eigenvalue_beyond_the_float_range_is_exact_but_not_sampled():
    big, one = MatrixSpec.from_eigs(["1e400"]), MatrixSpec.identity(1)
    # E u^4 = 3 for a real standard normal u, E |u|^4 = 2 for a complex one
    assert moment_real_exact(2, big, one) == 3 * Fraction(10) ** 800
    assert moment_complex_exact(2, big, one) == 2 * Fraction(10) ** 800
    for estimator in (mc_moment_real, mc_moment_complex):
        with pytest.raises(ValueError, match="beyond the float range"):
            estimator(2, big, one, 10, seed=1)


def test_mc_rejects_asymmetric_input():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        mc_moment_real(1, MatrixSpec(2, entries=None, eigs=(Fraction(1), Fraction(1))), MatrixSpec.from_dense(bad), 10, 1)


def test_mc_dense_matches_eigenvalue_form():
    # conjugating a diagonal matrix must not change the estimate beyond noise
    theta = 0.3
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    diag = np.diag([1.5, -0.5])
    x_dense = MatrixSpec.from_dense(rot @ diag @ rot.T)
    x_eigs = MatrixSpec.from_eigs([Fraction(3, 2), Fraction(-1, 2)])
    exact = moment_real_exact(2, x_eigs, x_eigs)
    est = mc_moment_real(2, x_dense, MatrixSpec.from_dense(diag), 200_000, seed=8)
    assert abs(est.z_score(float(exact))) <= 5


@pytest.mark.parametrize("estimator", [mc_moment_real, mc_moment_complex])
@pytest.mark.parametrize("n", [0, -3])
def test_mc_rejects_order_below_one(estimator, n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        estimator(n, I2, I2, 100, 1)


def test_mc_real_traces_complex_typed_real_entries_as_floats(monkeypatch):
    # Entries written as [x, 0] pairs arrive as a complex array; the real
    # moment must still run the trace kernel in float64.
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    x = a + a.T
    floats = MatrixSpec.from_dense(x)
    pairs = MatrixSpec.from_json({"entries": [[[v, 0] for v in row] for row in x.tolist()]})
    assert pairs.entries.dtype == np.complex128
    expect = mc_moment_real(3, floats, floats, 300, 1)
    dtypes = set()
    traces = moments._block_traces

    def spy(u, xd, yh, n, work):
        dtypes.update(arr.dtype for arr in (u, xd, yh, *work))
        return traces(u, xd, yh, n, work)

    monkeypatch.setattr(moments, "_block_traces", spy)
    assert mc_moment_real(3, pairs, pairs, 300, 1) == expect
    assert dtypes == {np.dtype(np.float64)}
