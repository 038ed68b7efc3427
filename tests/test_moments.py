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


def test_mc_threads_do_not_change_results(monkeypatch):
    base = mc_moment_real(2, I2, I2, 60_000, seed=5)
    monkeypatch.setenv("OCTAMOMENT_THREADS", "4")
    threaded = mc_moment_real(2, I2, I2, 60_000, seed=5)
    assert (base.mean, base.std_error) == (threaded.mean, threaded.std_error)


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_mc_rejects_a_malformed_thread_count(monkeypatch, capsys, raw):
    monkeypatch.setenv("OCTAMOMENT_THREADS", raw)
    message = f"OCTAMOMENT_THREADS must be a positive integer, got {raw!r}"
    with pytest.raises(ValueError) as info:
        mc_moment_real(2, I2, I2, 100, seed=5)
    assert str(info.value) == message
    for argv in (["mc", "--n", "2", "--dim", "2", "--samples", "100"], ["verify", "--suite", "mc"]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"octamoment: error: {message}\n"


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
