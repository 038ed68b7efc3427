"""Exact moment evaluation and Monte Carlo behavior."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octamoment.cli import main
from octamoment.closedform import q_compl, q_real
from octamoment.hypermaps import pairing_power_sum_series
from octamoment.moments import (
    SHARD_SIZE,
    MatrixSpec,
    _shard_rng,
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
# rank-one projector diag(1, 0, 0), order 1, recorded while the shards still
# ran through an optional worker pool.  1, 2, 3 and 10 shards, the last one
# partial; at 10 shards, summing them in another order changes the last bits
# of the real mean.  With a diagonal X, a rank-one Y and n = 1, every real
# product is a single rounding, so the real values do not depend on the
# BLAS kernel.  A complex |u|^2 sums two products, which kernels with and
# without fused multiply-add round differently; the real values pin the
# reduction order that both fields share, and the complex ones are pinned
# to 1e-12.
MC_PINNED = {
    ("real", 2): (1.2078555024968238, 1.7914245990970505),
    ("real", 100): (2.7972124019649893, 0.4057885061852489),
    ("real", 16384): (2.805299895079553, 0.03401437136518348),
    ("real", 16385): (2.8047056042004708, 0.034017486930065566),
    ("real", 40000): (2.840524244887842, 0.021994462613034987),
    ("real", 150000): (2.842039851787076, 0.011371553628571876),
    ("complex", 2): (5.179615096950558, 1.1878832623956257),
    ("complex", 100): (3.0099315140574014, 0.319842416258259),
    ("complex", 16384): (2.8268732912365784, 0.024214091840243042),
    ("complex", 16385): (2.8264737432031466, 0.024215910350581717),
    ("complex", 40000): (2.829570557099257, 0.015533846459694207),
    ("complex", 150000): (2.832390535948697, 0.008017175928631768),
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


# stdout of `verify --suite mc --samples 20000 --seed 3`, recorded with the
# worker pool still in place; four decimals hide the BLAS kernel's last bits.
VERIFY_MC_SEED3 = """\
PASS mc/real n=1 m=2: mean=3.9764 exact=4.0000 z=-1.19
PASS mc/complex n=1 m=2: mean=3.9931 exact=4.0000 z=-0.48
PASS mc/real n=2 m=2: mean=19.7827 exact=20.0000 z=-1.00
PASS mc/complex n=2 m=2: mean=16.0387 exact=16.0000 z=+0.31
PASS mc/real n=2 m=3: mean=62.7657 exact=63.0000 z=-0.51
PASS mc/complex n=2 m=3: mean=54.0480 exact=54.0000 z=+0.17
PASS mc/real n=3 m=2: mean=141.5822 exact=144.0000 z=-0.86
PASS mc/complex n=3 m=2: mean=85.2060 exact=84.0000 z=+1.04
PASS mc/real rational eigenvalues n=2: mean=28.1404 exact=28.0000 z=+0.23
PASS mc/complex rational eigenvalues n=2: mean=17.9273 exact=17.7222 z=+0.75
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
    over the estimator's Philox shards with N(0, 1/2) complex parts."""
    xd, yd, m = x.dense(), y.dense(), x.dim
    values = []
    for k, start in enumerate(range(0, samples, SHARD_SIZE)):
        count = min(SHARD_SIZE, samples - start)
        rng = _shard_rng(seed, k)
        u = rng.standard_normal((count, m, m))
        if complex_field:
            u = (u + 1j * rng.standard_normal((count, m, m))) * math.sqrt(0.5)
        t = xd @ u @ yd @ np.conj(np.transpose(u, (0, 2, 1)))
        values.append(np.trace(np.linalg.matrix_power(t, n), axis1=1, axis2=2).real)
    v = np.concatenate(values)
    return v.mean(), v.std(ddof=1) / math.sqrt(samples)


@pytest.mark.parametrize("samples", [2, 1025, 16385])
@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_mc_kernel_matches_a_plain_matrix_power(field, dim, samples):
    # 1025 samples cross a block of the kernel, 16385 a shard; n = 1..7
    # covers the trace, odd and even splits of the power.
    complex_field = field == "complex"
    x = _positive_definite(dim, complex_field, 0)
    y = _positive_definite(dim, complex_field, 1)
    estimator = mc_moment_complex if complex_field else mc_moment_real
    for n in range(1, 8):
        est = estimator(n, x, y, samples, seed=13)
        mean, std_error = _reference_estimate(n, x, y, samples, 13, complex_field)
        assert est.mean == pytest.approx(mean, rel=1e-10, abs=0), n
        assert est.std_error == pytest.approx(std_error, rel=1e-10, abs=0), n


def test_mc_error_scales_with_samples():
    small = mc_moment_real(2, I2, I2, 50_000, seed=31)
    big = mc_moment_real(2, I2, I2, 100_000, seed=31)
    ratio = big.std_error / small.std_error
    assert abs(ratio - 1 / math.sqrt(2)) <= 0.2 / math.sqrt(2)


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
