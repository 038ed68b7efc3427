"""Symmetric-function layer: basis change against direct evaluation."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octamoment.hypermaps import pairing_power_sum_series
from octamoment.moments import MatrixSpec, moment_complex_exact, moment_real_exact
from octamoment.partitions import Partition, aut, partitions_of
from octamoment.symfun import (
    MonomialExpansion,
    PowerSumExpansion,
    eval_monomial,
    eval_monomial_ones,
    eval_power_sum,
    monomial_table,
    p_in_m_basis,
    power_sums,
    to_monomial,
)


def placement_walk(lam, eigs):
    """Reference m_lam: every injective placement of the parts on the
    letters, d!/(d-l)! of them, over-counting each monomial Aut_lam times."""
    xs = [Fraction(e) for e in eigs]
    total = Fraction(0)
    for pos in itertools.permutations(range(len(xs)), lam.length):
        term = Fraction(1)
        for part, j in zip(lam, pos):
            term *= xs[j] ** part
        total += term
    return total / aut(lam)


def test_p_in_m_examples():
    assert p_in_m_basis(Partition([2])) == {Partition([2]): 1}
    assert p_in_m_basis(Partition([1, 1])) == {Partition([2]): 1, Partition([1, 1]): 2}
    for n in range(1, 8):
        assert p_in_m_basis(Partition([n])) == {Partition([n]): 1}


def random_alphabets(rng, max_len=5, count=4):
    for _ in range(count):
        size = rng.randint(1, max_len)
        yield [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)]


def test_p_in_m_matches_direct_evaluation():
    rng = random.Random(2024)
    for n in range(1, 9):
        alphabets = list(random_alphabets(rng))
        for lam in partitions_of(n):
            expansion = p_in_m_basis(lam)
            for xs in alphabets:
                direct = eval_power_sum(lam, xs)
                via_m = sum(
                    (c * eval_monomial(mu, xs) for mu, c in expansion.items()),
                    Fraction(0),
                )
                assert direct == via_m, (lam, xs)


def test_eval_monomial_examples():
    assert eval_monomial_ones(Partition([1, 1]), 3) == 3
    assert eval_monomial(Partition([2]), [1, 1]) == 2
    a, b = Fraction(2, 3), Fraction(-1, 2)
    assert eval_monomial(Partition([2, 1]), [a, b]) == a**2 * b + a * b**2
    assert eval_monomial(Partition([1, 1, 1]), [1, 2]) == 0
    assert eval_monomial(Partition(), [1, 2]) == 1


def test_eval_monomial_ones_matches_explicit_alphabet():
    for n in range(1, 9):
        for lam in partitions_of(n):
            for l in range(0, 7):
                assert eval_monomial_ones(lam, l) == eval_monomial(lam, [1] * l)


def test_to_monomial_expands_each_slot():
    p2, p11 = Partition([2]), Partition([1, 1])
    series = PowerSumExpansion(2, {(p2, p11): Fraction(1)})
    expanded = to_monomial(series)
    assert expanded.coeff(p2, p2) == 1
    assert expanded.coeff(p2, p11) == 2
    assert expanded.coeff(p11, p2) == 0

    one = Partition([1])
    series1 = PowerSumExpansion(1, {(one, one): Fraction(1)})
    assert to_monomial(series1).coeff(one, one) == 1


def test_to_monomial_hand_expansion_n2():
    p2, p11 = Partition([2]), Partition([1, 1])
    series = PowerSumExpansion(
        2,
        {
            (p2, p11): Fraction(1),
            (p11, p2): Fraction(1),
            (p2, p2): Fraction(1),
        },
    )
    expanded = to_monomial(series)
    assert expanded.coeff(p2, p2) == 3
    assert expanded.coeff(p2, p11) == 2
    assert expanded.coeff(p11, p2) == 2
    assert expanded.coeff(p11, p11) == 0
    # evaluation equals the power-sum route on a concrete alphabet
    xs = [Fraction(1, 2), 3]
    ys = [2, Fraction(-1, 3)]
    assert expanded.evaluate(xs, ys) == series.evaluate(xs, ys)


def test_records_round_trip_and_order():
    exp = to_monomial(
        PowerSumExpansion(
            2, {(Partition([2]), Partition([1, 1])): Fraction(3, 2)}
        )
    )
    records = exp.to_records()
    # canonical key order: reverse-lex lambda then reverse-lex mu
    keys = [(r["lambda"], r["mu"]) for r in records]
    assert keys == [("2", "2"), ("2", "1,1")]
    back = MonomialExpansion.from_records(2, records)
    assert back == exp


# A small pool makes repeated letters and zeros common; st.fractions adds
# letters outside it.
LETTERS = st.one_of(
    st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(0, 6), xs=st.lists(LETTERS, max_size=7))
@example(n=3, xs=[])
@example(n=0, xs=[])
@example(n=6, xs=[Fraction(1, 2), -1])  # d < l(lam) for most lam
@example(n=4, xs=[2, 2, 0, 2, Fraction(-1, 3)])
@example(n=6, xs=[Fraction(-2, 3), 0, 1, 1, -1, Fraction(3, 2), 2])
def test_monomial_table_matches_placement_walk(n, xs):
    table = monomial_table(n, xs)
    assert set(table) == set(partitions_of(n))
    for lam in partitions_of(n):
        assert table[lam] == placement_walk(lam, xs), (lam, xs)
        assert eval_monomial(lam, xs) == table[lam]
    expected = [sum((Fraction(x) ** k for x in xs), Fraction(0)) for k in range(1, n + 1)]
    assert power_sums(n, xs) == [1] + expected


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    kind=st.sampled_from(["real", "complex"]),
    xs=st.lists(LETTERS, max_size=5),
    ys=st.lists(LETTERS, max_size=5),
)
def test_p_to_m_round_trip_evaluates_equal(n, kind, xs, ys):
    series = pairing_power_sum_series(n, kind)
    assert to_monomial(series).evaluate(xs, ys) == series.evaluate(xs, ys)


def test_evaluators_scale_to_large_dimension():
    """n = 5 at dim = 40: the placement walk would visit 40!/35! ~ 7.9e7
    placements per m_lam; the table evaluates each alphabet once."""
    xs = [Fraction((-1) ** i * (i % 7 + 1), i % 5 + 1) for i in range(40)]
    ys = [Fraction((-1) ** (i // 3) * (i % 4 + 1), i % 3 + 2) for i in range(40)]
    x, y = MatrixSpec.from_eigs(xs), MatrixSpec.from_eigs(ys)
    assert moment_real_exact(5, x, y) == pairing_power_sum_series(5, "real").evaluate(xs, ys)
    assert moment_complex_exact(5, x, y) == pairing_power_sum_series(5, "complex").evaluate(
        xs, ys
    )


def test_constructor_leaves_caller_dict_unchanged():
    p2, p11 = Partition([2]), Partition([1, 1])
    coeffs = {(p2, p11): 3}
    expansion = MonomialExpansion(2, coeffs)
    assert coeffs == {(p2, p11): 3} and type(coeffs[(p2, p11)]) is int
    assert type(expansion.coeff(p2, p11)) is Fraction
    coeffs[(p2, p2)] = 5
    assert expansion.coeff(p2, p2) == 0


def test_items_are_the_nonzero_terms():
    p2, p11 = Partition([2]), Partition([1, 1])
    with_zero = MonomialExpansion(2, {(p11, p2): 0, (p2, p11): 3, (p2, p2): Fraction(0)})
    assert with_zero.items() == (((p2, p11), Fraction(3)),)
    assert with_zero.coeff(p11, p2) == 0
    assert with_zero == MonomialExpansion(2, {(p2, p11): 3})
    assert with_zero != MonomialExpansion(2, {(p2, p11): 3, (p2, p2): 1})


def test_key_of_another_order_is_rejected():
    p21, p3, p4, p22 = Partition([2, 1]), Partition([3]), Partition([4]), Partition([2, 2])
    for key in ((p21, p22), (p4, p3), (p4, p22), (Partition(), p3)):
        for cls in (MonomialExpansion, PowerSumExpansion):
            with pytest.raises(ValueError, match=r"does not index order 3"):
                cls(3, {key: 1})
    with pytest.raises(ValueError, match=r"does not index order -1"):
        MonomialExpansion(-1, {(p3, p3): 1})
    assert MonomialExpansion(3, {(p21, p3): 1}).coeff(p21, p3) == 1
