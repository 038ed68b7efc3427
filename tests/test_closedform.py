"""Closed formulas against the enumeration oracles."""

import hashlib
import json
import random
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from itertools import groupby, product
from math import factorial, gamma
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octamoment.arrays import (
    ArrayTuple,
    _sides,
    black_sides,
    cells_of,
    enumerate_M,
    white_sides,
)
from octamoment import closedform as cf
from octamoment import verify
from octamoment.verify import _strata
from octamoment.cli import main
from octamoment.closedform import (
    _factorial_leading,
    F_counts,
    F_formula,
    StratumValue,
    alpha,
    coeff_hook,
    coeff_m_lambda_m_n,
    complex_coeff,
    DegenerateStratum,
    complex_expansion,
    complex_length_coeffs,
    iter_degenerate_strata,
    q_compl,
    q_real,
    real_expansion,
    remark_identity_check,
)
from octamoment.hypermaps import (
    L_table,
    lp_by_array,
    lp_from_pairings,
    lp_table,
    oracle_monomial_expansion,
)
from octamoment.moments import MatrixSpec, moment_complex_exact, moment_real_exact
from octamoment.partitions import (
    Partition,
    aut,
    falling,
    format_partition,
    multinomial,
    partitions_of,
)


def all_strata(n):
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            for r in range(n // 2 + 1):
                for a in enumerate_M(lam, mu, r):
                    yield lam, mu, r, a


P1 = Partition([1])
P2 = Partition([2])
P11 = Partition([1, 1])


def test_vertex_profiles_round_trip_every_stratum():
    for n in range(1, 8):
        for _, _, _, a in all_strata(n):
            vertices = list(a.vertices())
            assert len(vertices) == (
                a.num_white + a.num_white_root + a.num_black + a.num_black_root
            )
            assert ArrayTuple.from_vertices(a.seed_degree, a.seed_loops, vertices) == a


KINDS = (("w", False), ("w", True), ("b", False), ("b", True))


def counted_array(seed_degree, seed_loops, vertices):
    """The four fields of ``ArrayTuple.from_vertices`` by a Counter."""
    tally = Counter(vertices)
    cells = [
        tuple(sorted((i, j, c) for (*k, i, j), c in tally.items() if tuple(k) == kind))
        for kind in KINDS
    ]
    return ArrayTuple(*cells, seed_degree, seed_loops)


def test_from_vertices_matches_a_counter():
    rng = random.Random(20240)
    cases = [[], [("w", False, 1, 0)], [("b", True, 2, 1)] * 3]
    cases.append([(color, root, 1 + k, k % 2) for k, (color, root) in enumerate(KINDS)])
    for _ in range(300):
        pool = [(*rng.choice(KINDS), rng.randint(1, 4), rng.randint(0, 2)) for _ in range(4)]
        cases.append([rng.choice(pool) for _ in range(rng.randint(1, 12))])
    for vertices in cases:
        seed = (rng.randint(1, 5), rng.randint(0, 2))
        assert ArrayTuple.from_vertices(*seed, vertices) == counted_array(*seed, vertices)
        assert ArrayTuple.from_vertices(*seed, iter(vertices)) == counted_array(*seed, vertices)


@pytest.mark.parametrize(
    ("vertices", "message"),
    [
        ([("w", False, 0, 0)], "bad cell (0, 0, 1)"),
        ([("b", True, 2, -1)] * 2, "bad cell (2, -1, 2)"),
        # the first bad cell in field order, then in order of appearance
        ([("b", False, 1, -1), ("w", True, 0, 1), ("w", True, -3, 0)], "bad cell (0, 1, 1)"),
        ([("b", True, 1, 0), ("b", False, 3, -2), ("b", True, 0, 0)], "bad cell (3, -2, 1)"),
    ],
)
def test_from_vertices_reports_a_bad_cell(vertices, message):
    with pytest.raises(ValueError) as err:
        ArrayTuple.from_vertices(1, 0, vertices)
    assert str(err.value) == message


def test_from_vertices_reports_the_bad_cell_that_cells_of_reports():
    """On random profile lists with bad cells among them, from_vertices
    raises the message of cells_of on each field's Counter tally, in field
    order, and otherwise matches the Counter reference."""
    rng = random.Random(20250)
    for _ in range(400):
        pool = [(*rng.choice(KINDS), rng.randint(-1, 3), rng.randint(-1, 2)) for _ in range(4)]
        vertices = [rng.choice(pool) for _ in range(rng.randint(1, 10))]
        tally = Counter(vertices)
        try:
            expected = ArrayTuple(
                *(
                    cells_of([(i, j, c) for (*k, i, j), c in tally.items() if tuple(k) == kind])
                    for kind in KINDS
                ),
                2,
                1,
            )
        except ValueError as err:
            with pytest.raises(ValueError) as raised:
                ArrayTuple.from_vertices(2, 1, vertices)
            assert str(raised.value) == str(err)
        else:
            assert ArrayTuple.from_vertices(2, 1, vertices) == expected


def test_strata_walk_lists_enumerate_M_in_order(monkeypatch):
    """verify's stratum walk lists exactly the strata of enumerate_M in
    the order of lambda, mu, r and enumerate_M, through one enumerate_M
    call per (lambda, mu, r): sum_{n <= 3} p(n)^2 (n//2 + 1) = 27 calls
    for the strata suite at n_max = 3."""
    calls = []

    def counted(*args):
        calls.append(args)
        return enumerate_M(*args)

    monkeypatch.setattr(verify, "enumerate_M", counted)
    verify.suite_strata(3)
    assert len(calls) == 27
    for n in range(1, 8):
        expected = [
            (lam, mu, r, a)
            for lam in partitions_of(n)
            for mu in partitions_of(n)
            for r in range(n // 2 + 1)
            for a in enumerate_M(lam, mu, r)
        ]
        assert list(_strata(n)) == expected


def test_enumerate_M_examples():
    assert enumerate_M(P1, P1, 0) == [ArrayTuple.from_vertices(1, 0, [("b", False, 1, 0)])]
    assert enumerate_M(P2, P2, 1) == [ArrayTuple.from_vertices(2, 1, [("b", True, 2, 1)])]
    assert enumerate_M(P2, P2, 0) == [ArrayTuple.from_vertices(2, 0, [("b", False, 2, 0)])]


@pytest.mark.parametrize(
    "lam, mu, r, message",
    [(P1, P2, 0, "lam and mu must partition the same n"), (P2, P2, -1, "r must be >= 0")],
    ids=["different-n", "negative-r"],
)
def test_enumerate_M_rejects_arguments_outside_its_domain(lam, mu, r, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        enumerate_M(lam, mu, r)


@pytest.mark.parametrize("l, m", [(-1, 2), (2, -1)])
@pytest.mark.parametrize("moment", [q_real, q_compl])
def test_projector_moments_reject_a_negative_rank(moment, l, m):
    with pytest.raises(ValueError, match="^matrix ranks must be >= 0$"):
        moment(2, l, m)


def test_enumerate_M_keys_are_consistent():
    for n in range(1, 6):
        for lam, mu, r, a in all_strata(n):
            assert a.white_type() == lam
            assert a.black_type() == mu
            assert a.loop_pairs == r
            assert a.validate() == []


def test_stratum_completeness_against_oracle():
    for n in range(1, 6):
        generated = set()
        for _, _, _, a in all_strata(n):
            generated.add(a)
        assert len(generated) == len(list(all_strata(n)))  # no duplicates
        for a in lp_by_array(n):
            assert a in generated


def test_counts_are_int_and_only_rationals_are_fractions():
    # The closed-form counts are handed out as the integers they are
    # computed as; the loop-placement coefficient and the moments are
    # rationals.
    for n in range(1, 5):
        for lam, mu, r, a in all_strata(n):
            assert type(F_formula(a, n).value) is int, (n, str(a))
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert type(complex_coeff(n, lam, mu)) is int, (n, lam, mu)
        for l in range(4):
            for m in range(4):
                assert type(q_real(n, l, m)) is int and type(q_compl(n, l, m)) is int
        for p, pp, q, qp, r in product(range(1, 3), range(2), range(2), range(2), range(2)):
            assert type(F_counts(p, pp, q, qp, r, n)) is int
    assert type(alpha(1, 1, 0, 0, 1)) is Fraction
    x, y = MatrixSpec.from_eigs([1, Fraction(1, 2)]), MatrixSpec.identity(2)
    assert type(moment_real_exact(3, x, y)) is Fraction
    assert type(moment_complex_exact(3, x, y)) is Fraction
    assert type(real_expansion(3).evaluate(x.eigs, y.eigs)) is Fraction


def test_stratum_value_holds_its_count_and_diagnostics():
    assert [f.name for f in fields(StratumValue)] == ["value", "diagnostics"]
    assert StratumValue(3).well_defined
    assert not StratumValue(1, ("negative factorial argument (n-q-2r)! = -1",)).well_defined
    with pytest.raises(AttributeError):
        StratumValue(3).well_defined = False


def test_F_formula_examples():
    a1 = ArrayTuple.from_vertices(1, 0, [("b", False, 1, 0)])
    assert F_formula(a1, 1).value == 1
    a2 = ArrayTuple.from_vertices(2, 0, [("b", False, 2, 0)])
    assert F_formula(a2, 2).value == 2
    bad = ArrayTuple.from_vertices(2, 1, [("b", True, 2, 1)])
    sv = F_formula(bad, 2)
    assert not sv.well_defined
    assert sv.value == lp_by_array(2)[bad] == 1


def test_F_formula_matches_oracle_on_well_defined_strata():
    for n in range(1, 6):
        oracle = lp_by_array(n)
        for lam, mu, r, a in all_strata(n):
            sv = F_formula(a, n)
            if sv.well_defined:
                assert sv.value == oracle.get(a, 0), (n, lam, mu, r, str(a))


# Reference implementations: the one-Fraction-per-factor F_formula (generic
# strata; flagged ones get 0 for each negative-argument factorial), its
# continuation in n (flagged strata), and the enumeration that rebuilds
# every side per stratum.


def _ref_sum_q_root(a, weight):
    return sum((Fraction(weight(i, j)) * c for i, j, c in a.black_root), Fraction(0))


def _ref_sum_white(a, weight):
    return sum((Fraction(weight(i, j)) * c for i, j, c in a.white), Fraction(0))


def _ref_binomial_weight(a):
    prod = Fraction(1)
    for i, j, c in a.white + a.black:
        prod *= multinomial(i - 1, [j, j]) ** c
    for i, j, c in a.white_root + a.black_root:
        prod *= multinomial(i - 1, [j, j - 1]) ** c
    return prod


def _ref_F_formula(a, n):
    r = a.loop_pairs
    p, pp = a.num_white, a.num_white_root
    q, qp = a.num_black, a.num_black_root
    i0, j0 = a.seed_degree, a.seed_loops
    weight = _ref_binomial_weight(a)
    afact = a.factorial_product()
    x = n - p - q - 2 * r
    thorn = Fraction(1, factorial(x)) if x >= 0 else Fraction(0)  # 1/x! is 0 at x < 0

    if r == 0:
        value = (
            Fraction(i0)
            * factorial(n - q)
            * factorial(n - 1 - p)
            * thorn
            / afact
            * weight
        )
        return StratumValue(value)

    diagnostics = []

    def guarded_factorial(arg, name):
        if arg < 0:
            diagnostics.append(f"negative factorial argument {name} = {arg}")
            return Fraction(0)
        return Fraction(factorial(arg))

    s1 = _ref_sum_q_root(a, lambda i, j: j)
    s2 = _ref_sum_q_root(a, lambda i, j: (n - q) * j - i * r)
    s3 = _ref_sum_white(a, lambda i, j: i0 * j - j0 * (i - 1))
    base = multinomial(i0, [j0, j0])
    head = Fraction(i0 - 2 * j0) + s1 * (j0 * (n - p) - r * i0) / r**2

    fact_a = guarded_factorial(n - q - 2 * r, "(n-q-2r)!")
    fact_b = guarded_factorial(n - 1 - p - 2 * r, "(n-1-p-2r)!")
    third = s2 * s3 / r**2
    fact_c = guarded_factorial(n - q - 2 * r - 1, "(n-q-2r-1)!")

    bracket = head * fact_a + third * fact_c
    value = (
        base
        * bracket
        * factorial(r) ** 2
        * fact_b
        * thorn
        * Fraction(2) ** (pp + qp - 2 * r)
        * weight
        / afact
    )
    return StratumValue(value, tuple(diagnostics))


def _ref_factorial_leading(x):
    if x >= 0:
        return 0, Fraction(factorial(x))
    m = -x - 1
    return -1, Fraction((-1) ** m, factorial(m))


def _ref_F_continued(a, n):
    """The limit of ``_ref_F_formula`` at ``n + eps`` (``r > 0``), as the
    product of the leading Laurent terms of its factors."""
    r = a.loop_pairs
    p, pp = a.num_white, a.num_white_root
    q, qp = a.num_black, a.num_black_root
    i0, j0 = a.seed_degree, a.seed_loops
    s1 = _ref_sum_q_root(a, lambda i, j: j)
    s2 = _ref_sum_q_root(a, lambda i, j: (n - q) * j - i * r)
    s3 = _ref_sum_white(a, lambda i, j: i0 * j - j0 * (i - 1))
    head = (i0 - 2 * j0) * r * r + s1 * (j0 * (n - p) - r * i0)
    d, dhead = n - q - 2 * r, s1 * j0
    bracket = [head * d + s2 * s3, head + dhead * d + s1 * s3, dhead]
    if not any(bracket):
        return 0
    order = min(k for k, b in enumerate(bracket) if b)
    limit = Fraction(bracket[order])
    for x, s in ((d - 1, 1), (n - 1 - p - 2 * r, 1), (n - p - q - 2 * r, -1)):
        v, c = _ref_factorial_leading(x)
        order += s * v
        limit *= c**s
    assert order >= 0, "a pole survives"
    if order > 0:
        return 0
    value = (
        limit
        * multinomial(i0, [j0, j0])
        * factorial(r) ** 2
        * Fraction(2) ** (pp + qp - 2 * r)
        * _ref_binomial_weight(a)
        / (a.factorial_product() * r * r)
    )
    assert value.denominator == 1
    return value.numerator


def _ref_enumerate_M(lam, mu, r):
    out = []
    mu_mult = mu.multiplicities()
    lam_mult = lam.multiplicities()
    for black, black_root, wq in _sides(tuple(sorted(mu_mult.items()))):
        if wq != r:
            continue
        for i0 in sorted(lam_mult):
            reduced = dict(lam_mult)
            reduced[i0] -= 1
            if not reduced[i0]:
                del reduced[i0]
            for white, white_root, wp in _sides(tuple(sorted(reduced.items()))):
                j0 = r - wp
                if j0 < 0 or 2 * j0 > i0:
                    continue
                fields = (white, white_root, black, black_root)
                out.append(ArrayTuple(*map(cells_of, fields), i0, j0))
    return out


def test_F_formula_equals_fraction_reference():
    # Every stratum up to n = 8, with its flag and diagnostics: generic ones
    # against the Fraction formula, flagged ones against its continuation.
    flagged = 0
    for n in range(1, 9):
        for lam, mu, r, a in all_strata(n):
            ref = _ref_F_formula(a, n)
            if not ref.well_defined:
                ref = replace(ref, value=_ref_F_continued(a, n))
                flagged += 1
            assert F_formula(a, n) == ref, (n, str(a))
    assert flagged > 0


def test_enumerate_M_equals_uncached_enumeration():
    for n in range(1, 8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for r in range(n // 2 + 2):
                    assert enumerate_M(lam, mu, r) == _ref_enumerate_M(lam, mu, r)


# sha256 of the repr of every enumerate_M(lam, mu, r) list for n <= 8 and
# r <= n//2 + 1, in that loop order, recorded while the sides were still
# enumerated once per loop budget.
ENUMERATE_M_DIGEST_N8 = "30cb76396c2459014c140509ef747de50bcafe9bb51f8f6e2b5f1ec75646ff5c"


def test_enumerate_M_order_is_pinned_by_digest():
    h = hashlib.sha256()
    for n in range(1, 9):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for r in range(n // 2 + 2):
                    h.update(repr(enumerate_M(lam, mu, r)).encode())
    assert h.hexdigest() == ENUMERATE_M_DIGEST_N8


def test_sides_lists_each_distribution_once():
    # Brute force: put every block in one allowed (root?, j) cell, then
    # forget which block went where.
    for n in range(9):
        for lam in partitions_of(n) if n else [Partition([])]:
            options = [
                [(False, i, j) for j in range((i - 1) // 2 + 1)]
                + [(True, i, j) for j in range(1, i // 2 + 1)]
                for i in lam
            ]
            expected = set()
            for choice in product(*options):
                counts = Counter(choice)
                expected.add((
                    tuple(sorted((i, j, c) for (root, i, j), c in counts.items() if not root)),
                    tuple(sorted((i, j, c) for (root, i, j), c in counts.items() if root)),
                    sum(j for _, _, j in choice),
                ))
            listed = _sides(tuple(sorted(lam.multiplicities().items())))
            assert len(listed) == len(set(listed)), lam
            assert set(listed) == expected, lam


def _ref_white_sides(lam, r):
    # The white sides of weight r as a filter of every side of the other
    # blocks, one scan per r.
    lam_mult = lam.multiplicities()
    out = []
    for i0 in sorted(lam_mult):
        reduced = dict(lam_mult)
        reduced[i0] -= 1
        rest = tuple(sorted((i, c) for i, c in reduced.items() if c))
        for white, white_root, wp in _sides(rest):
            j0 = r - wp
            if 0 <= j0 <= i0 // 2:
                out.append((i0, j0, white, white_root))
    return out


def _ref_black_sides(mu, r):
    # The black sides of weight r as a filter of every side, one scan per r.
    return [
        (black, black_root)
        for black, black_root, wq in _sides(tuple(sorted(mu.multiplicities().items())))
        if wq == r
    ]


def test_sides_are_listed_once_at_their_loop_weight():
    for n in range(1, 11):
        for lam in partitions_of(n):
            whites, blacks = white_sides(lam), black_sides(lam)
            assert len(whites) == len(blacks) == n // 2 + 1, lam
            for r in range(n // 2 + 1):
                assert list(whites[r]) == _ref_white_sides(lam, r), (lam, r)
                assert list(blacks[r]) == _ref_black_sides(lam, r), (lam, r)
            # no side lies beyond n//2, and none is listed twice
            assert _ref_white_sides(lam, n // 2 + 1) == [] == _ref_black_sides(lam, n // 2 + 1)
            for listed in whites, blacks:
                every = [side for sides in listed for side in sides]
                assert len(every) == len(set(every)), lam
            for mu in partitions_of(n):
                assert enumerate_M(lam, mu, n // 2 + 1) == []


def test_side_tables_are_shared_and_read_only():
    # One table per partition: every call returns the same object, a tuple
    # of tuples, so no reader can change what the others read.
    for lam in partitions_of(6):
        for table in white_sides, black_sides:
            sides = table(lam)
            assert table(Partition(list(lam))) is sides, (table, lam)
            assert type(sides) is tuple and all(type(by_r) is tuple for by_r in sides)


def test_enumerate_M_result_is_the_callers_own():
    lam, mu = Partition([3, 2, 1]), Partition([4, 2])
    first = enumerate_M(lam, mu, 1)
    expected = list(first)
    first.clear()
    assert enumerate_M(lam, mu, 1) == expected != []


def strict_expansion(n, capsys):
    """``expansion --n n --field real --strict``: its exit code, its terms
    keyed by (lambda, mu) names, and its flagged-pair records."""
    code = main(["expansion", "--n", str(n), "--field", "real", "--strict"])
    data = json.loads(capsys.readouterr().out)
    terms = {(t["lambda"], t["mu"]): Fraction(t["coeff"]) for t in data["terms"]}
    return code, terms, data["degenerate_strata"]


def strict_pairs(strata):
    """The flagged-pair records that strict mode prints for ``strata``:
    one per (lambda, mu) in their order, with its number of strata."""
    pairs = groupby(strata, key=lambda d: (format_partition(d.lam), format_partition(d.mu)))
    return [{"lambda": lam, "mu": mu, "strata": len(list(g))} for (lam, mu), g in pairs]


def test_real_expansion_carries_its_report(capsys):
    # Within the oracle bound the expansion carries the pairs of the strata
    # that strict mode flags, in the same order, and each flagged stratum
    # has its oracle value.
    for n in range(1, 6):
        carried = tuple(iter_degenerate_strata(n))
        code, _, strict = strict_expansion(n, capsys)
        assert code == (2 if carried else 0)
        assert strict_pairs(carried) == strict
        oracle = lp_by_array(n)
        assert all(d.oracle_value == oracle.get(d.array, 0) for d in carried)
    assert len(tuple(iter_degenerate_strata(2))) == 1


def test_alpha_values():
    for p in range(1, 4):
        for q in range(0, 4):
            assert alpha(0, p, q, 0, 0) == 1
            assert alpha(0, p, q, 1, 0) == 0
            assert alpha(0, p, q, 0, 2) == 0
    assert alpha(1, 1, 1, 0, 0) == Fraction(1, 4)


def test_alpha_against_enumeration():
    """alpha is over-determined: each (r,p,q,pp,qp) profile reachable at
    several n must give the same value back when it is solved for from the
    exact profile counts.  This pins down the 2^{pp+qp} normalization."""
    solved = {}
    for n in range(1, 7):
        lp = lp_from_pairings(n)
        profile_counts = {}
        # profile count = sum of LP(A) over strata with that profile; the
        # refinement route cannot give per-A counts, so use the formula on
        # clean strata and the direct oracle elsewhere.
        oracle = lp_by_array(n) if n <= 5 else None
        for lam, mu, r, a in all_strata(n):
            key = (a.num_white + 1, a.num_white_root, a.num_black, a.num_black_root, r)
            sv = F_formula(a, n)
            if sv.well_defined:
                value = sv.value
            elif oracle is not None:
                value = oracle.get(a, 0)
            else:
                profile_counts[key] = None  # unknown stratum poisons the profile
                continue
            if profile_counts.get(key, 0) is not None:
                profile_counts[key] = profile_counts.get(key, 0) + value
            else:
                profile_counts[key] = None
        for (p, pp, q, qp, r), total in profile_counts.items():
            if total is None:
                continue
            denom = (
                Fraction(factorial(n), factorial(p) * factorial(pp) * factorial(q) * factorial(qp))
                * multinomial(n + 2 * r - 1, [p + 2 * r - 1, q + 2 * r - 1])
                / multinomial(n + 2 * r - 1, [r, r])
                * Fraction(2) ** (2 * r - pp - qp)
            )
            if denom == 0:
                continue
            value = total / denom
            key = (r, p, q, pp, qp)
            assert solved.setdefault(key, value) == value, key
            assert alpha(r, p, q, pp, qp) == value, key


def test_F_counts_examples():
    assert F_counts(1, 0, 1, 0, 0, 1) == 1
    assert F_counts(1, 0, 1, 0, 0, 2) == 2
    with pytest.raises(ValueError):
        F_counts(0, 0, 1, 0, 0, 2)


def test_F_counts_matches_stratum_sums():
    for n in range(1, 6):
        oracle = lp_by_array(n)
        groups = {}
        for _, _, r, a in all_strata(n):
            key = (a.num_white + 1, a.num_white_root, a.num_black, a.num_black_root, r)
            groups.setdefault(key, []).append(a)
        for (p, pp, q, qp, r), arrays in groups.items():
            fc = F_counts(p, pp, q, qp, r, n)
            assert fc == sum(F_formula(a, n).value for a in arrays), (n, p, pp, q, qp, r)
            assert fc == sum(oracle.get(a, 0) for a in arrays)


def test_F_counts_orientable_reduction():
    """With no roots and no loops the count collapses to
    n!/(p! q!) * multinomial(n-1; p-1, q-1), the summand of the complex
    projector formula."""
    for n in range(1, 6):
        lp = lp_from_pairings(n)
        by_len = {}
        for (nu, rho, r), c in lp.items():
            if r == 0:
                key = (nu.length, rho.length)
                by_len[key] = by_len.get(key, 0) + c
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                reduced = Fraction(
                    factorial(n), factorial(p) * factorial(q)
                ) * multinomial(n - 1, [p - 1, q - 1])
                assert F_counts(p, 0, q, 0, 0, n) == reduced
                assert reduced == by_len.get((p, q), 0)


def test_real_expansion_small_values():
    e1 = real_expansion(1)
    assert e1.to_records() == [{"lambda": "1", "mu": "1", "coeff": "1"}]
    e2 = real_expansion(2)
    assert e2.coeff(P2, P2) == 3
    assert e2.coeff(P2, P11) == 2
    assert e2.coeff(P11, P2) == 2
    assert e2.coeff(P11, P11) == 0


def test_real_expansion_matches_oracle():
    for n in range(1, 6):
        expansion = real_expansion(n)
        assert expansion == oracle_monomial_expansion(n, "real")
        # symmetry under swapping the alphabets
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert expansion.coeff(lam, mu) == expansion.coeff(mu, lam)


def test_F_formula_matches_oracle_on_flagged_strata():
    flagged = 0
    for n in range(1, 6):
        oracle = lp_by_array(n)
        for lam, mu, r, a in all_strata(n):
            sv = F_formula(a, n)
            if not sv.well_defined:
                flagged += 1
                assert sv.value == oracle.get(a, 0), (n, lam, mu, r, str(a))
    assert flagged == 113


def test_F_formula_raises_outside_its_domain():
    # Strata evaluated below their own order n: a pole survives, or the
    # limit is not an integer.
    seed = ArrayTuple.from_vertices(2, 1, [("b", True, 2, 1)])
    with pytest.raises(ArithmeticError, match="a pole survives"):
        F_formula(seed, 1)
    a = ArrayTuple.from_vertices(2, 1, [("w", False, 1, 0)] * 2 + [("b", True, 4, 1)])
    with pytest.raises(ArithmeticError, match="3/2 .* is not an integer"):
        F_formula(a, 2)


def test_factorial_leading_term_matches_gamma():
    eps = 1e-7
    for x in range(-6, 7):
        v, num, den = _factorial_leading(x)
        assert v == (-1 if x < 0 else 0)
        c = num / den
        approx = gamma(x + 1 + eps) / gamma(1 + eps) * eps**-v
        assert abs(approx - c) <= 1e-5 * abs(c), x


def test_continuation_reference_equals_F_formula_on_generic_strata():
    # At a regular point the continuation is the value itself.
    for n in range(1, 8):
        for lam, mu, r, a in all_strata(n):
            sv = F_formula(a, n)
            if r > 0 and sv.well_defined:
                assert _ref_F_continued(a, n) == sv.value, (n, lam, mu, r, str(a))


def test_real_expansion_n6_n7_match_pairing_oracle():
    # Past the partitioned-hypermap bound: every flagged stratum continued.
    for n in (6, 7):
        expansion = real_expansion(n)
        assert expansion == oracle_monomial_expansion(n, "real")
        strata = tuple(iter_degenerate_strata(n))
        assert strata and all(isinstance(d.oracle_value, int) for d in strata)


def test_real_expansion_n8_n9_match_q_real_at_projectors():
    for n in (8, 9):
        expansion = real_expansion(n)
        for l, m in ((1, 1), (1, 2), (2, 2), (2, 3)):
            xs = [1] * l + [0] * (m - l)
            assert expansion.evaluate(xs, [1] * m) == q_real(n, l, m), (n, l, m)


def test_real_expansion_is_the_sum_of_F_formula_over_strata():
    # The factorized assembly against the per-stratum count, stratum by stratum.
    for n in range(1, 10):
        sums = {}
        for lam, mu, r, a in all_strata(n):
            sums[(lam, mu)] = sums.get((lam, mu), 0) + F_formula(a, n).value
        expected = {key: aut(key[0]) * aut(key[1]) * v for key, v in sums.items() if v}
        assert real_expansion(n).coeffs == expected, n


def test_degenerate_strata_equals_the_per_stratum_reference():
    # The walk over per-side factors against F_formula stratum by stratum:
    # the same strata in the same order, with the same diagnostics and counts.
    for n in range(1, 9):
        reference = []
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for r in range(1, n // 2 + 1):
                    for a in enumerate_M(lam, mu, r):
                        sv = F_formula(a, n)
                        if not sv.well_defined:
                            reference.append(
                                DegenerateStratum(n, lam, mu, r, a, sv.diagnostics, sv.value)
                            )
        listed = tuple(iter_degenerate_strata(n))
        # each names a negative factorial, so its formula_status is never empty
        assert all(d.diagnostics for d in listed), n
        assert [(d.array, d.diagnostics, d.oracle_value) for d in listed] == [
            (d.array, d.diagnostics, d.oracle_value) for d in reference
        ], n
        assert listed == tuple(reference), n
    assert len(tuple(iter_degenerate_strata(6))) == 235


def test_degenerate_strata_checks_that_each_count_is_an_integer(monkeypatch):
    # A prefactor that no longer divides the counts must still be caught.
    exact = cf._prefactor

    def off(p, q, r, n):
        v, num, den = exact(p, q, r, n)
        return v, num, den * 1_000_003

    monkeypatch.setattr(cf, "_prefactor", off)
    with pytest.raises(ArithmeticError, match="is not an integer"):
        tuple(iter_degenerate_strata(6))


def test_F_counts_and_q_real_check_that_each_count_is_an_integer(monkeypatch):
    # A loop-placement denominator that no longer divides the counts must
    # be caught by the one exact division of each aggregated count.
    exact = cf._alpha_parts

    def off(*args):
        num, den = exact(*args)
        return num, den * 1_000_003

    monkeypatch.setattr(cf, "_alpha_parts", off)
    with pytest.raises(ArithmeticError, match="is not an integer"):
        F_counts(1, 0, 1, 0, 0, 2)
    with pytest.raises(ArithmeticError, match="is not an integer"):
        q_real(3, 2, 2)


def test_degenerate_strata_checks_that_no_pole_survives(monkeypatch):
    # A prefactor one order lower makes the count read a bracket row below
    # the one it should: a nonzero row there is a pole that must be caught.
    # Orders -1 and 0 only, so the order stays in -2..1, the bracket's rows.
    exact = cf._prefactor

    def lower(p, q, r, n):
        v, num, den = exact(p, q, r, n)
        return (v - 1 if v in (-1, 0) else v), num, den

    monkeypatch.setattr(cf, "_prefactor", lower)
    with pytest.raises(ArithmeticError, match="a pole survives"):
        tuple(iter_degenerate_strata(6))


def test_real_expansion_checks_that_each_stratum_sum_is_an_integer(monkeypatch):
    # One black vector entry off by 1: the weight of (r, q) = (1, 0) for
    # mu = (2, 2). The white vector of lam = (4), the first partition, has an
    # entry there that the common denominator does not divide, so the first
    # dot product that reads it is not an integer, and the error names the pair.
    exact, target = cf._black_vector, Partition([2, 2])

    def off(mu, n):
        vector = exact(mu, n)
        if mu == target:
            vector[3 * (1 * (n + 1) + 0)] += 1
        return vector

    monkeypatch.setattr(cf, "_black_vector", off)
    with pytest.raises(ArithmeticError) as caught:
        real_expansion.__wrapped__(4)
    lam = Partition([4])
    assert str(caught.value) == f"the stratum sum of ({lam}, {target}) at n = 4 is not an integer"


def test_real_expansion_reaches_past_n10_at_projectors():
    for n in (10, 11):
        expansion = real_expansion(n)
        for l, m in ((1, 2), (2, 2), (3, 2)):
            assert expansion.evaluate([1] * l, [1] * m) == q_real(n, l, m), (n, l, m)


def test_real_expansion_is_cached_and_read_only():
    expansion = real_expansion(6)
    assert real_expansion(6) is expansion
    before = dict(expansion.coeffs)
    key = next(iter(before))
    with pytest.raises(TypeError):
        expansion.coeffs[key] = 0
    with pytest.raises(TypeError):
        del expansion.coeffs[key]
    assert dict(real_expansion(6).coeffs) == before


def test_strict_mode_refuses_flagged_pairs(capsys):
    code, terms, pairs = strict_expansion(6, capsys)
    assert code == 2
    assert sum(d["strata"] for d in pairs) == 235
    full = real_expansion(6)
    assert strict_pairs(iter_degenerate_strata(6)) == pairs
    # the partial expansion keeps exactly the pairs without a flagged stratum
    flagged_pairs = {(d["lambda"], d["mu"]) for d in pairs}
    for lam in partitions_of(6):
        for mu in partitions_of(6):
            key = (format_partition(lam), format_partition(mu))
            expected = 0 if key in flagged_pairs else full.coeff(lam, mu)
            assert terms.get(key, 0) == expected


def test_real_expansion_strict_reports(capsys):
    code, terms, report = strict_expansion(2, capsys)
    assert code == 2
    assert report == [{"lambda": "2", "mu": "2", "strata": 1}]
    # strict mode refuses the tainted coefficient entirely
    assert ("2", "2") not in terms
    assert terms[("2", "1,1")] == 2
    full_report = tuple(iter_degenerate_strata(2))
    assert full_report[0].oracle_value == 1


def test_complex_coeff_values():
    assert complex_coeff(1, P1, P1) == 1
    assert complex_coeff(2, P2, P11) == 2
    assert complex_coeff(2, P11, P11) == 0


def test_complex_expansion_equals_complex_coeff():
    for n in range(1, 13):
        parts = partitions_of(n)
        table = {(lam, mu): complex_coeff(n, lam, mu) for lam in parts for mu in parts}
        assert dict(complex_expansion(n).coeffs) == {key: c for key, c in table.items() if c}


def test_complex_length_coeffs_is_the_nonzero_length_table():
    for n in range(1, 13):
        table = complex_length_coeffs(n)
        assert table is complex_length_coeffs(n) and isinstance(table, MappingProxyType)
        with pytest.raises(TypeError):
            table[1, 1] = 0
        with pytest.raises(TypeError):
            table[n + 1, n + 1] = 1
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                expected = complex_coeff(n, lam, mu)
                assert table.get((len(lam), len(mu)), 0) == expected
        assert all(type(c) is int and c > 0 for c in table.values())
        assert list(table) == sorted(table)
    # lengths 3 + 2 > n + 1: no entry, coefficient 0
    assert (3, 2) not in complex_length_coeffs(3)
    assert complex_coeff(3, Partition([1, 1, 1]), Partition([2, 1])) == 0
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            complex_length_coeffs(n)
        with pytest.raises(ValueError, match="n must be >= 1"):
            complex_expansion(n)


@pytest.mark.parametrize(
    "closed_form, args",
    [
        (q_compl, (0, 2, 2)),
        (q_compl, (-1, 1, 1)),
        (complex_coeff, (0, (), ())),
        (coeff_m_lambda_m_n, (0, ())),
        (coeff_hook, (-3, 0)),
        (q_real, (0, 1, 1)),
        # raised at the call, not when the first stratum is asked for
        (iter_degenerate_strata, (0,)),
        (iter_degenerate_strata, (-1,)),
    ],
)
def test_closed_forms_reject_an_order_below_1(closed_form, args):
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        closed_form(*args)


@pytest.mark.parametrize(
    "closed_form, args, message",
    [
        (complex_coeff, (3, (2,), (3,)), "lam and mu must partition n"),
        (complex_coeff, (3, (2, 1), (2, 2)), "lam and mu must partition n"),
        (coeff_m_lambda_m_n, (3, (2, 2)), "lam must partition n"),
    ],
)
def test_closed_forms_reject_a_partition_of_another_n(closed_form, args, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        closed_form(*args)


def _transposed(expansion):
    return {(mu, lam): c for (lam, mu), c in expansion.coeffs.items()}


@settings(max_examples=12, deadline=None, derandomize=True)
@given(n=st.integers(1, 10))
def test_complex_expansion_is_symmetric_in_lambda_mu(n):
    expansion = complex_expansion(n)
    assert _transposed(expansion) == expansion.coeffs


@settings(max_examples=8, deadline=None, derandomize=True)
@given(n=st.integers(1, 5))
def test_real_expansion_is_symmetric_in_lambda_mu(n):
    expansion = real_expansion(n)
    assert _transposed(expansion) == expansion.coeffs


def test_complex_expansion_against_oracle():
    for n in range(1, 8):
        expansion = complex_expansion(n)
        assert expansion == oracle_monomial_expansion(n, "complex")
        lp = lp_from_pairings(n)
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                expected = aut(lam) * aut(mu) * lp.get((lam, mu, 0), 0)
                assert complex_coeff(n, lam, mu) == expected


def test_q_real_values_and_identities():
    for l in range(0, 5):
        for m in range(0, 5):
            assert q_real(1, l, m) == l * m
            assert q_compl(1, l, m) == l * m
    assert q_compl(2, 2, 2) == 16
    for n in range(1, 6):
        table = L_table(n)
        for l in range(0, 6):
            for m in range(0, 6):
                via_b = sum(
                    Fraction(c) * l**lam.length * m**mu.length
                    for (lam, mu, _), c in table.items()
                )
                assert q_real(n, l, m) == via_b, (n, l, m)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(1, 7), l=st.integers(0, 6), m=st.integers(0, 6))
def test_q_real_is_the_real_expansion_at_identities(n, l, m):
    assert real_expansion(n).evaluate([1] * l, [1] * m) == q_real(n, l, m)


def test_q_real_partitioned_route():
    for n in range(1, 6):
        lp = lp_table(n)
        for l in range(0, 6):
            for m in range(0, 6):
                via_lp = sum(
                    Fraction(c) * falling(l, nu.length) * falling(m, rho.length)
                    for (nu, rho, _), c in lp.items()
                )
                assert q_real(n, l, m) == via_lp


def test_q_compl_against_orientable_slice():
    for n in range(1, 8):
        table = L_table(n)
        for l in range(0, 6):
            for m in range(0, 6):
                via_c = sum(
                    Fraction(c) * l**lam.length * m**mu.length
                    for (lam, mu, r), c in table.items()
                    if r == 0
                )
                assert q_compl(n, l, m) == via_c


def test_special_coefficients():
    assert coeff_m_lambda_m_n(1, P1) == 1
    assert coeff_m_lambda_m_n(2, P2) == 3
    assert coeff_m_lambda_m_n(2, P11) == 2
    assert coeff_hook(2, 0) == 3
    assert coeff_hook(3, 1) == 3
    assert coeff_hook(2, 1) == 0


def test_special_coefficients_against_oracle():
    for n in range(1, 7):
        lp = lp_from_pairings(n)
        totals = {}
        for (nu, rho, _), c in lp.items():
            totals[(nu, rho)] = totals.get((nu, rho), 0) + c
        full = Partition([n])
        for lam in partitions_of(n):
            assert coeff_m_lambda_m_n(n, lam) == aut(lam) * totals.get((lam, full), 0)
        for a in range(0, n + 1):
            if 2 * a <= n - 1:
                hook = Partition([n - a] + [1] * a)
                expected = aut(hook) ** 2 * totals.get((hook, hook), 0)
                assert coeff_hook(n, a) == expected
            else:
                assert coeff_hook(n, a) == 0


def test_special_coefficients_against_real_expansion():
    # The oracle above stops at n = 6; the real expansion reaches past it.
    for n in range(7, 11):
        expansion, full = real_expansion(n), Partition([n])
        for lam in partitions_of(n):
            assert coeff_m_lambda_m_n(n, lam) == expansion.coeff(lam, full), (n, lam)
        for a in range(0, n):  # the zero hooks (2a > n - 1) included
            hook = Partition([n - a] + [1] * a)
            assert coeff_hook(n, a) == expansion.coeff(hook, hook), (n, a)


def test_remark_identity():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert remark_identity_check(lam), lam
