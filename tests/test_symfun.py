"""Symmetric-function layer: basis change against direct evaluation."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octamoment.closedform import complex_expansion, real_expansion
from octamoment.hypermaps import oracle_monomial_expansion, pairing_power_sum_series
from octamoment.moments import MatrixSpec, moment_complex_exact, moment_real_exact
from octamoment.partitions import (
    Partition,
    aut,
    coarsening_counts,
    falling,
    parse_rational,
    partitions_of,
)
from octamoment.symfun import (
    _monomial_numerators,
    _placements,
    _power_sum_numerators,
    MonomialExpansion,
    PowerSumExpansion,
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


def power_sum_product(lam, eigs):
    """Reference p_lam: the product over the parts k of sum_i x_i^k."""
    xs = [Fraction(e) for e in eigs]
    total = Fraction(1)
    for part in lam:
        total *= sum((x**part for x in xs), Fraction(0))
    return total


def monomial_values(n, eigs):
    """``m_lam(eigs)`` for every partition ``lam`` of ``n``, read from the
    integer numerators of the monomial table."""
    nums, den = _monomial_numerators(n, eigs)
    return {lam: Fraction(v, den) for lam, v in zip(partitions_of(n), nums)}


def p_in_m(lam):
    """p_lam in the monomial basis: the coefficient of m_nu is Aut_nu
    times the number of ways to merge the parts of lam into those of nu."""
    return {nu: aut(nu) * r for nu, r in coarsening_counts(lam).items()}


def test_p_in_m_examples():
    assert p_in_m(Partition([2])) == {Partition([2]): 1}
    assert p_in_m(Partition([1, 1])) == {Partition([2]): 1, Partition([1, 1]): 2}
    for n in range(1, 8):
        assert p_in_m(Partition([n])) == {Partition([n]): 1}


def random_alphabets(rng, max_len=5, count=4):
    for _ in range(count):
        size = rng.randint(1, max_len)
        yield [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)]


def test_p_in_m_matches_direct_evaluation():
    rng = random.Random(2024)
    for n in range(1, 9):
        alphabets = list(random_alphabets(rng))
        tables = [monomial_values(n, xs) for xs in alphabets]
        for lam in partitions_of(n):
            expansion = p_in_m(lam)
            for xs, table in zip(alphabets, tables):
                direct = power_sum_product(lam, xs)
                via_m = sum((c * table[mu] for mu, c in expansion.items()), Fraction(0))
                assert direct == via_m, (lam, xs)


def test_eval_monomial_examples():
    assert monomial_values(2, [1, 1, 1])[Partition([1, 1])] == 3
    assert monomial_values(2, [1, 1])[Partition([2])] == 2
    a, b = Fraction(2, 3), Fraction(-1, 2)
    assert monomial_values(3, [a, b])[Partition([2, 1])] == a**2 * b + a * b**2
    assert monomial_values(3, [1, 2])[Partition([1, 1, 1])] == 0
    assert monomial_values(0, [1, 2]) == {Partition(): 1}


def test_eval_monomial_ones_matches_explicit_alphabet():
    """m_lam at l ones is (l)_{len(lam)} / Aut_lam."""
    for n in range(1, 9):
        for l in range(0, 7):
            table = monomial_values(n, [1] * l)
            for lam in partitions_of(n):
                assert table[lam] == Fraction(falling(l, lam.length), aut(lam))


def test_records_round_trip_and_order():
    p2, p11 = Partition([2]), Partition([1, 1])
    exp = MonomialExpansion(2, {(p2, p11): 3, (p2, p2): Fraction(3, 2)})
    records = exp.to_records()
    # canonical key order: reverse-lex lambda then reverse-lex mu
    keys = [(r["lambda"], r["mu"]) for r in records]
    assert keys == [("2", "2"), ("2", "1,1")]
    parts = lambda text: Partition(map(int, text.split(",")))
    back = MonomialExpansion(
        2,
        {
            (parts(r["lambda"]), parts(r["mu"])): parse_rational(r["coeff"])
            for r in records
        },
    )
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
    table = monomial_values(n, xs)
    assert set(table) == set(partitions_of(n))
    for lam in partitions_of(n):
        assert table[lam] == placement_walk(lam, xs), (lam, xs)
    nums, den = _power_sum_numerators(n, xs)
    for lam, v in zip(partitions_of(n), nums):
        assert Fraction(v, den) == power_sum_product(lam, xs), (lam, xs)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 7),
    kind=st.sampled_from(["real", "complex"]),
    xs=st.lists(LETTERS, max_size=7),
    ys=st.lists(LETTERS, max_size=7),
)
def test_p_to_m_round_trip_evaluates_equal(n, kind, xs, ys):
    """The oracle series in both bases: the monomial one is built from the
    partitioned-hypermap refinement, the power-sum one from the pairing
    table, and they agree at every pair of alphabets."""
    expected = pairing_power_sum_series(n, kind).evaluate(xs, ys)
    assert oracle_monomial_expansion(n, kind).evaluate(xs, ys) == expected


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
    assert tuple(with_zero.items()) == (((p2, p11), Fraction(3)),)
    assert dict(with_zero.coeffs) == {(p2, p11): 3}
    assert not hasattr(with_zero, "_terms")  # the terms are kept once, in coeffs
    assert with_zero.coeff(p11, p2) == 0
    # both assemblies hand their zeros to the constructor
    for n in range(1, 9):
        for expansion in (real_expansion(n), complex_expansion(n)):
            assert 0 not in expansion.coeffs.values(), n
            assert not hasattr(expansion, "_terms"), n
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


def test_negative_order_is_rejected():
    for cls in (MonomialExpansion, PowerSumExpansion):
        with pytest.raises(ValueError, match=r"^order n = -1 must be >= 0$"):
            cls(-1, {})
        with pytest.raises(ValueError, match=r"^order n = -2 must be >= 0$"):
            cls(-2)
    assert MonomialExpansion(0, {}).evaluate([1], [2]) == 0


def test_items_keys_are_partitions():
    for cls in (MonomialExpansion, PowerSumExpansion):
        expansion = cls(3, {((1, 1, 1), (2, 1)): 1, (Partition([3]), (3,)): 2})
        keys = [k for key, _ in expansion.items() for k in key]
        assert keys == [(3,), (3,), (1, 1, 1), (2, 1)]
        assert all(type(k) is Partition for k in keys)
        assert expansion.coeff((1, 1, 1), (2, 1)) == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 10),
    xs=st.lists(LETTERS, min_size=1, max_size=6),
    ys=st.lists(LETTERS, min_size=1, max_size=6),
)
@example(n=10, xs=[Fraction(1, 2), -1], ys=[0, 2, 2])  # d < l(lam) for most lam
@example(n=7, xs=[0, 0, 1], ys=[Fraction(-2, 3), Fraction(-2, 3), 5, 0, 1, 1])
def test_complex_length_sums_match_the_expansion(n, xs, ys):
    """The length-sum route against the assembled complex expansion and,
    for n <= 7, the pairing enumeration in the power-sum basis."""
    value = moment_complex_exact(n, MatrixSpec.from_eigs(xs), MatrixSpec.from_eigs(ys))
    assert value == complex_expansion(n).evaluate(xs, ys)
    if n <= 7:
        assert value == pairing_power_sum_series(n, "complex").evaluate(xs, ys)


def test_evaluate_with_non_integer_coefficients():
    """Coefficients over a common denominator 21: the integer pass divides
    once at the end and agrees with the power-sum route and a plain sum."""
    p3, p21, p111 = Partition([3]), Partition([2, 1]), Partition([1, 1, 1])
    series = PowerSumExpansion(3, {(p21, p3): Fraction(1, 3), (p111, p21): Fraction(2, 7)})
    # p_21 = m_3 + m_21 and p_111 = m_3 + 3 m_21 + 6 m_111, in both slots
    expanded = MonomialExpansion(
        3,
        {
            (p3, p3): Fraction(13, 21),
            (p3, p21): Fraction(2, 7),
            (p21, p3): Fraction(25, 21),
            (p21, p21): Fraction(6, 7),
            (p111, p3): Fraction(12, 7),
            (p111, p21): Fraction(12, 7),
        },
    )
    assert {c.denominator for _, c in expanded.items()} == {7, 21}
    xs = [Fraction(1, 2), -3, Fraction(2, 5)]
    ys = [Fraction(-4, 3), 1, 0, Fraction(7, 2)]
    mx, my = monomial_values(3, xs), monomial_values(3, ys)
    plain = sum((c * mx[lam] * my[mu] for (lam, mu), c in expanded.items()), Fraction(0))
    assert expanded.evaluate(xs, ys) == series.evaluate(xs, ys) == plain


def test_placement_table_size_and_order():
    """Transition counts, and the order an in-place pass relies on: each
    transition targets an earlier state, and the partitions of n come
    first in ``partitions_of(n)`` order."""
    for n, count in ((0, 0), (1, 1), (5, 26), (16, 2455), (20, 8266)):
        size, moves = _placements(n)
        assert size == sum(len(partitions_of(j)) for j in range(n + 1))
        assert sum(len(targets) for _, targets in moves) == count
        assert all(dst < src for src, targets in moves for _, dst in targets)
        assert [src for src, _ in moves] == sorted(src for src, _ in moves)
    assert _placements(4) is _placements(4)
    nums, den = _monomial_numerators(4, [1, 1, 1, 1])
    assert den == 1
    assert nums == [placement_walk(lam, [1, 1, 1, 1]) for lam in partitions_of(4)]


@st.composite
def expansions(draw):
    """A random expansion in either basis with rational coefficients."""
    n = draw(st.integers(0, 5))
    parts = partitions_of(n)
    keys = st.tuples(st.sampled_from(parts), st.sampled_from(parts))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    cls = draw(st.sampled_from([MonomialExpansion, PowerSumExpansion]))
    return cls(n, draw(st.dictionaries(keys, coeffs, max_size=8)))


P3, P21, P111 = Partition([3]), Partition([2, 1]), Partition([1, 1, 1])
P4, P31, P22, P1111 = Partition([4]), Partition([3, 1]), Partition([2, 2]), Partition([1] * 4)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(series=expansions(), xs=st.lists(LETTERS, max_size=5), ys=st.lists(LETTERS, max_size=5))
@example(series=PowerSumExpansion(3, {(P21, P3): Fraction(1, 3)}), xs=[], ys=[1, 2])
@example(series=MonomialExpansion(3, {(P111, P21): Fraction(-2, 7)}), xs=[0, 0], ys=[])
@example(series=PowerSumExpansion(0, {(Partition(), Partition()): Fraction(5, 2)}), xs=[], ys=[])
@example(
    series=PowerSumExpansion(4, {(P22, P1111): Fraction(3, 5), (P4, P31): -1}),
    xs=[0, Fraction(1, 2), 0, Fraction(-2, 3)],
    ys=[Fraction(5, 4), 0, 2],
)
def test_evaluate_matches_a_plain_fraction_sum(series, xs, ys):
    """The integer kernel of both bases against the term-by-term Fraction
    sum over the reference basis functions."""
    f = placement_walk if isinstance(series, MonomialExpansion) else power_sum_product
    plain = sum(
        (c * f(lam, xs) * f(mu, ys) for (lam, mu), c in series.items()), Fraction(0)
    )
    assert series.evaluate(xs, ys) == plain


def test_bases_are_not_equal_with_the_same_coefficients():
    key = (Partition([1, 1]), Partition([1, 1]))
    m, p = MonomialExpansion(2, {key: 1}), PowerSumExpansion(2, {key: 1})
    assert m != p and p != m
    assert m.evaluate([1, 2], [1, 2]) == 4
    assert p.evaluate([1, 2], [1, 2]) == 81
    assert m == MonomialExpansion(2, {key: Fraction(1)})
