"""Kernel combinatorics against independent oracles."""

import random
import sys
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from octamoment.partitions import (
    Partition,
    aut,
    coarsening_counts,
    falling,
    format_partition,
    format_rational,
    multinomial,
    odd_double_factorial,
    parse_rational,
    partitions_of,
    set_partitions,
    zee,
)


def euler_partition_counts(n_max):
    """Independent oracle: partition counts by the pentagonal-number
    recurrence p(n) = sum_k (-1)^{k+1} [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def test_partition_normalization_and_validation():
    assert Partition([1, 3, 2]) == Partition([3, 2, 1])
    assert Partition().n == 0 and Partition().length == 0
    with pytest.raises(ValueError):
        Partition([2, 0])
    lam = Partition([2, 2, 1])
    assert lam.n == 5 and lam.length == 3
    assert lam.multiplicities() == {2: 2, 1: 1}


@pytest.mark.parametrize("bad", [2.7, 2.0, "3"], ids=["float", "integral-float", "string"])
def test_partition_rejects_a_part_that_is_not_an_integer(bad):
    # A part used to go through int(), so 2.7 silently became 2.
    with pytest.raises(ValueError, match=f"partition parts must be integers, got {bad!r}"):
        Partition([bad, 1])


def test_partition_accepts_numpy_integers():
    lam = Partition([np.int64(3), 1])
    assert lam == (3, 1) and all(type(part) is int for part in lam)


def test_partitions_of_counts_and_order():
    assert partitions_of(1) == (Partition([1]),)
    assert len(partitions_of(4)) == 5
    counts = euler_partition_counts(12)
    for n in range(13):
        assert len(partitions_of(n)) == counts[n]
    # reverse lexicographic: descending tuple order, no repeats
    for n in range(9):
        ps = partitions_of(n)
        assert len(set(ps)) == len(ps)
        assert list(ps) == sorted(ps, reverse=True)
    assert partitions_of(8)[0] == Partition([8])
    assert partitions_of(8)[-1] == Partition([1] * 8)


def test_aut_and_zee():
    assert aut(Partition([2, 2, 1])) == 2
    assert zee(Partition([2, 2, 1])) == 8
    for n in range(1, 8):
        assert zee(Partition([n])) == n
    # class sizes n!/z_lam sum to n!
    for n in range(1, 9):
        assert sum(factorial(n) // zee(lam) for lam in partitions_of(n)) == factorial(n)


def test_multinomial_values():
    assert multinomial(5, [2, 2]) == 30
    assert multinomial(-2, [1, 1]) == 6
    assert multinomial(2, [2, 2]) == 0
    assert multinomial(3, [0, 0]) == 1
    assert multinomial(4, [-1, 2]) == 0
    # a rational top would be floored by the integer division, so it is refused
    with pytest.raises(TypeError):
        multinomial(Fraction(-1, 2), [1])


def test_multinomial_vs_falling():
    rng = random.Random(7)
    for _ in range(50):
        top = rng.randint(-9, 9)
        for k in range(13):
            value = multinomial(top, [k])
            assert type(value) is int
            assert value * factorial(k) == falling(top, k)


def test_falling():
    assert falling(3, 2) == 6
    assert falling(2, 3) == 0
    for l in range(-3, 5):
        assert falling(l, 0) == 1
    with pytest.raises(ValueError):
        falling(3, -1)


def test_odd_double_factorial():
    assert [odd_double_factorial(k) for k in (0, 1, 2, 3)] == [1, 1, 3, 15]
    # product oracle
    value = 1
    for t in range(1, 7):
        value *= 2 * t - 1
    assert odd_double_factorial(6) == value == 10395


def exhaustive_merges(lam):
    """Oracle: all coarsenings of lam by exhaustive merge search."""
    out = set()
    for sp in set_partitions(range(lam.length)):
        out.add(Partition(sum(lam[i] for i in block) for block in sp))
    return out


def test_refinement_count_examples():
    assert coarsening_counts(Partition([1, 1]))[Partition([2])] == 1
    assert coarsening_counts(Partition([1, 1, 1, 1]))[Partition([2, 2])] == 3
    for lam in partitions_of(6):
        assert coarsening_counts(lam)[lam] == 1


def test_refinement_positive_iff_merge_reachable():
    for n in range(1, 9):
        for lam in partitions_of(n):
            reachable = exhaustive_merges(lam)
            for nu in partitions_of(n):
                assert (coarsening_counts(lam).get(nu, 0) > 0) == (nu in reachable)


def test_coarsening_counts_is_read_only():
    lam = Partition([2, 1, 1])
    contents = dict(coarsening_counts(lam))
    with pytest.raises(TypeError):
        coarsening_counts(lam)[Partition([4])] = 0
    with pytest.raises(TypeError):
        coarsening_counts(lam)[Partition([1, 1, 1, 1])] = 1
    assert dict(coarsening_counts(lam)) == contents
    assert contents[Partition([4])] == 1


def test_set_partition_count_is_bell():
    bell = [1, 1, 2, 5, 15, 52, 203]
    for n, b in enumerate(bell):
        assert sum(1 for _ in set_partitions(range(n))) == b


def test_partition_text_round_trip():
    lam = Partition([3, 2, 2, 1])
    assert format_partition(lam) == "3,2,2,1"


def test_rational_text_round_trip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == -7
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(8, 4)) == "2"


def test_parse_rational_rejects_an_exponent_beyond_the_digit_limit():
    # Fraction would build the power of 10 first; the int-string digit limit
    # bounds the exponent, as it bounds a digit string.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    for text in ("1e400", "3/2", "-0.25", " 2.5E-3 ", "1_0e1_0", f"1e{limit}", f"1e-{limit}"):
        assert parse_rational(text) == Fraction(text.strip()), text
    for text in (f"1e{limit + 1}", f"1E-{limit + 1}", "2.5e+1_000_000", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exponent beyond"):
            parse_rational(text)


def test_format_rational_of_fractions_ints_and_bools():
    for x in [Fraction(-3, 4), Fraction(0), Fraction(-5), 7, -12, 0]:
        f = Fraction(x)
        expected = str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
        assert format_rational(x) == expected
        assert parse_rational(format_rational(x)) == x
    assert (format_rational(True), format_rational(False)) == ("1", "0")
    assert format_rational("6/4") == "3/2"
