"""Enumeration oracles: pairings, class tables, partitioned hypermaps."""

import hashlib
from collections import Counter
from math import factorial

import pytest

from octamoment.arrays import ArrayTuple
from octamoment.forests import DEFAULT_FOREST_BOUND, enumerate_forests
from octamoment.hypermaps import (
    DEFAULT_CLASS_BOUND,
    DEFAULT_COSET_BOUND,
    DEFAULT_PAIRING_BOUND,
    DEFAULT_PARTITIONED_BOUND,
    BoundExceededError,
    L_table,
    Pairing,
    PartitionedHypermap,
    b_from_L,
    by_pair,
    c_from_L,
    canonical_f1,
    canonical_f2,
    class_connection_table,
    compose,
    cycle_type,
    degree_array,
    double_coset_data,
    double_coset_table,
    expected_coset_size,
    half_cycle_type,
    iter_pairing_images,
    iter_partitioned_hypermaps,
    lp_by_array,
    lp_from_pairings,
    lp_table,
    _half_cycle_lengths,
    oracle_monomial_expansion,
    pairing_power_sum_series,
    parse_element,
)
from octamoment.partitions import (
    Partition,
    coarsening_counts,
    odd_double_factorial,
    partitions_of,
)


def pairing_from_text(n, pairs):
    return Pairing.from_pairs(
        n, [(parse_element(a, n), parse_element(b, n)) for a, b in pairs]
    )


def test_canonical_pairings():
    f1, f2 = canonical_f1(2), canonical_f2(2)
    assert str(f1) == "(1 2^)(2 1^)"
    assert str(f2) == "(1 1^)(2 2^)"
    # product of the walks is one 2n-gon: type (n, n)
    for n in (2, 3, 5):
        t = cycle_type(compose(canonical_f1(n).image, canonical_f2(n).image))
        assert t == Partition([n, n])


@pytest.mark.parametrize("pairs", [[(0, 3), (1, 8)], [(-1, 0), (1, 2)]], ids=["past-2n", "negative"])
def test_pairing_from_pairs_rejects_a_label_outside_the_ground_set(pairs):
    with pytest.raises(ValueError, match="leaves the labels 0..3"):
        Pairing.from_pairs(2, pairs)


@pytest.mark.parametrize("tok", ["0", "3", "3^", "0^", "-1", "x^", "1.0", "", "^"])
def test_parse_element_rejects_a_label_outside_1_to_n(tok):
    with pytest.raises(ValueError, match="is not one of 1..2 or 1\\^..2\\^"):
        parse_element(tok, 2)


def test_half_cycle_type():
    f1, f2 = canonical_f1(2), canonical_f2(2)
    assert half_cycle_type(f2, f1) == Partition([2])
    for n in (1, 2, 3, 4):
        g = canonical_f2(n)
        assert half_cycle_type(g, g) == Partition([1] * n)
    twist = pairing_from_text(2, [("1", "2"), ("1^", "2^")])
    assert half_cycle_type(twist, canonical_f1(2)) == Partition([2])


def test_half_cycle_lengths_rejects_odd_multiplicity():
    # cycles (0 1)(2 3)(4)(5): lengths 2, 2, 1, 1 halve to (2, 1)
    assert _half_cycle_lengths([1, 0, 3, 2, 4, 5]) == (2, 1)
    for perm in ([0, 1, 2], [1, 2, 0], [1, 0, 2, 3, 4, 5]):
        with pytest.raises(ValueError, match="odd multiplicity"):
            _half_cycle_lengths(perm)


def test_r_statistic():
    assert canonical_f2(3).hat_pair_count() == 0
    assert canonical_f1(4).hat_pair_count() == 0
    assert pairing_from_text(2, [("1", "2"), ("1^", "2^")]).hat_pair_count() == 1


def test_L_table_small():
    assert L_table(1) == {(Partition([1]), Partition([1]), 0): 1}
    t2 = L_table(2)
    assert t2 == {
        (Partition([2]), Partition([1, 1]), 0): 1,
        (Partition([1, 1]), Partition([2]), 0): 1,
        (Partition([2]), Partition([2]), 1): 1,
    }
    assert sum(t2.values()) == 3


def test_L_table_totals_and_bound():
    for n in range(1, 8):
        assert sum(L_table(n).values()) == odd_double_factorial(n)
    with pytest.raises(BoundExceededError):
        L_table(DEFAULT_PAIRING_BOUND + 1)  # guards before enumerating
    # coeffs_self_check runs the class-algebra route for every n L_table reaches
    assert DEFAULT_PAIRING_BOUND <= DEFAULT_CLASS_BOUND


def test_L_table_matches_the_composition_route():
    # the pairing-by-pairing reference: compose each f3 with both walks and
    # halve the cycle types, which also checks every multiplicity is even
    for n in range(1, 7):
        f1, f2 = canonical_f1(n), canonical_f2(n)
        ref: dict = {}
        for image in iter_pairing_images(2 * n):
            f3 = Pairing(n, tuple(image))
            key = (half_cycle_type(f3, f1), half_cycle_type(f3, f2), f3.hat_pair_count())
            ref[key] = ref.get(key, 0) + 1
        assert L_table(n) == ref


def test_L_table_7_digest():
    # sha256 of the sorted (lam, mu, r, count) rows of the composition-route table
    rows = sorted((tuple(lam), tuple(mu), r, c) for (lam, mu, r), c in L_table(7).items())
    assert len(rows) == 362
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "a59c474b2aa7298e48b41de6479f6b77f5953d01252c740d057558e5135fab46"
    )


@pytest.mark.parametrize("walk", [canonical_f1, canonical_f2])
def test_canonical_walks_are_memoized_and_reject_nonpositive_n(walk):
    assert walk(4) is walk(4)
    for n in (0, -2, 0):
        with pytest.raises(ValueError, match="n must be >= 1"):
            walk(n)


@pytest.mark.parametrize("kind", ["Complex", "", "orthogonal"])
def test_power_sum_series_rejects_an_unknown_kind(kind):
    for series in (pairing_power_sum_series, oracle_monomial_expansion):
        with pytest.raises(ValueError, match=repr(kind)):
            series(3, kind)


def test_b_and_c_from_L():
    t2 = L_table(2)
    b = b_from_L(t2)
    assert b[(Partition([2]), Partition([1, 1]))] == 8
    c = c_from_L(t2)
    assert c[(Partition([2]), Partition([1, 1]))] == 1
    assert (Partition([2]), Partition([2])) not in c
    assert b_from_L(L_table(1))[(Partition([1]), Partition([1]))] == 2
    for n in range(1, DEFAULT_PAIRING_BOUND + 1):
        table = L_table(n)
        summed = by_pair(table)
        scale = 2**n * factorial(n)
        assert {key: scale * c for key, c in summed.items()} == b_from_L(table)
        assert by_pair(table, 0) == c_from_L(table)
        added: dict = {}
        for r in range(n // 2 + 1):
            for key, c in by_pair(table, r).items():
                added[key] = added.get(key, 0) + c
        assert added == summed


def test_symmetry_of_connection_coefficients():
    for n in range(1, 7):
        table = L_table(n)
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                total = lambda a, b: sum(
                    table.get((a, b, r), 0) for r in range(n + 1)
                )
                assert total(lam, mu) == total(mu, lam)
                assert table.get((lam, mu, 0), 0) == table.get((mu, lam, 0), 0)


def test_class_connection_examples():
    assert class_connection_table(2)[((2,), (1, 1))] == 1
    assert ((2,), (2,)) not in class_connection_table(2)
    assert class_connection_table(3)[((3,), (3,))] == L_table(3)[((3,), (3,), 0)]


def test_class_connection_equals_orientable_slice():
    for n in range(1, DEFAULT_PAIRING_BOUND + 1):
        table = L_table(n)
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert class_connection_table(n).get((lam, mu), 0) == table.get((lam, mu, 0), 0)


@pytest.mark.parametrize("n", range(1, DEFAULT_PAIRING_BOUND + 1))
def test_pairing_and_class_table_keys_are_partitions_of_n(n):
    # Partition subclasses tuple, so the equality tests would also pass
    # on plain-tuple keys
    keys = [key[:2] for key in L_table(n)] + list(class_connection_table(n))
    for lam, mu in keys:
        assert type(lam) is Partition and type(mu) is Partition
        assert lam.n == mu.n == n


def test_double_coset_oracle():
    for n in range(1, 4):
        b = b_from_L(L_table(n))
        _, sizes = double_coset_data(n)
        bn = 2**n * factorial(n)
        assert sum(sizes.values()) == factorial(2 * n)
        for lam in partitions_of(n):
            assert sizes[lam] == expected_coset_size(n, lam)
            for mu in partitions_of(n):
                assert double_coset_table(n).get((lam, mu), 0) == b.get((lam, mu), 0)
    assert double_coset_table(2)[((2,), (1, 1))] == 8
    assert double_coset_table(1)[((1,), (1,))] == 2


def test_partitioned_blocks_are_balanced_and_stable():
    for n in range(1, 5):
        for h in iter_partitioned_hypermaps(n):
            assert h.validate() == []
            for block in h.pi1 + h.pi2:
                hats = sum(1 for x in block if x >= n)
                assert 2 * hats == len(block)


def test_lp_counts_against_refinement_identity():
    for n in range(1, 6):
        table = L_table(n)
        lp = lp_table(n)
        for nu in partitions_of(n):
            for rho in partitions_of(n):
                for r in range(n // 2 + 1):
                    expected = 0
                    for lam in partitions_of(n):
                        c1 = coarsening_counts(lam).get(nu, 0)
                        if not c1:
                            continue
                        for mu in partitions_of(n):
                            c2 = coarsening_counts(mu).get(rho, 0)
                            if c2:
                                expected += c1 * c2 * table.get((lam, mu, r), 0)
                    assert lp.get((nu, rho, r), 0) == expected


@pytest.mark.parametrize("n", range(1, DEFAULT_PARTITIONED_BOUND + 1))
def test_lp_tables_equal_a_per_object_tally(n):
    # The tables combine the two sides by count; every object built and
    # classified one by one must give the same tallies.
    by_types, by_array = Counter(), Counter()
    for h in iter_partitioned_hypermaps(n):
        by_types[h.white_type(), h.black_type(), h.r] += 1
        by_array[degree_array(h)] += 1
    assert dict(lp_table(n)) == dict(by_types)
    assert dict(lp_by_array(n)) == dict(by_array)
    assert sum(lp_table(n).values()) == sum(lp_by_array(n).values()) == sum(by_types.values())


def _all_partitioned_hypermaps(n):
    return list(iter_partitioned_hypermaps(n))


@pytest.mark.parametrize("table", [lp_table, lp_by_array, _all_partitioned_hypermaps])
def test_lp_tables_keep_their_bound(table):
    # The three readers of the one partitioned walk share its bound.
    with pytest.raises(BoundExceededError, match="fixed size bound 5$") as info:
        table(DEFAULT_PARTITIONED_BOUND + 1)
    assert (info.value.n, info.value.bound) == (6, 5)
    with pytest.raises(ValueError, match="n must be >= 1"):
        table(0)


@pytest.mark.parametrize(
    "oracle, bound, what",
    [
        (lambda n: enumerate_forests(ArrayTuple.from_vertices(n, 0, [("b", False, n, 0)])),
         DEFAULT_FOREST_BOUND, "forest enumeration"),
        (class_connection_table, DEFAULT_CLASS_BOUND, "class algebra product"),
        (double_coset_data, DEFAULT_COSET_BOUND, "double coset product"),
    ],
    ids=["enumerate_forests", "class_connection_table", "double_coset_data"],
)
def test_each_oracle_stops_at_its_size_bound(oracle, bound, what):
    # The bound is checked before any enumeration: S_9 has 362880
    # permutations and S_8 40320, so a late check would show as a slow test.
    with pytest.raises(BoundExceededError) as info:
        oracle(bound + 1)
    assert (info.value.n, info.value.bound) == (bound + 1, bound)
    assert str(info.value) == (
        f"{what}: n = {bound + 1} exceeds the oracle's fixed size bound {bound}"
    )


def test_lp_examples_n2():
    lp = lp_table(2)
    two, oneone = Partition([2]), Partition([1, 1])
    assert lp[(two, two, 0)] + lp[(two, two, 1)] == 3
    assert lp[(two, oneone, 0)] == 1
    assert lp[(oneone, two, 0)] == 1


ORACLE_TABLES = [
    L_table,
    lp_table,
    lp_by_array,
    lp_from_pairings,
    class_connection_table,
    double_coset_table,
]


@pytest.mark.parametrize("table", ORACLE_TABLES)
def test_cached_tables_are_read_only(table):
    contents = dict(table(3))
    key = next(iter(contents))
    with pytest.raises(TypeError):
        table(3)[key] = 0
    with pytest.raises(TypeError):
        table(3)[Partition([9])] = 1
    assert dict(table(3)) == contents


def test_oracle_caches_are_read_only():
    class_of, sizes = double_coset_data(1)
    saved = (dict(class_of), dict(sizes))
    lam = Partition([1])
    with pytest.raises(TypeError):
        sizes[lam] = 5
    with pytest.raises(TypeError):
        class_of[(1, 0)] = Partition([2])
    class_of, sizes = double_coset_data(1)
    assert (dict(class_of), dict(sizes)) == saved
    assert sizes == {lam: 2}


@pytest.mark.parametrize("table", ORACLE_TABLES + [double_coset_data])
@pytest.mark.parametrize("n", [0, -1])
def test_oracle_tables_reject_nonpositive_n(table, n):
    with pytest.raises(ValueError, match="n must be >= 1"):
        table(n)


def test_degree_array_small_cases():
    # the unique 1-edge hypermap
    (h1,) = list(iter_partitioned_hypermaps(1))
    assert degree_array(h1) == ArrayTuple.from_vertices(1, 0, [("b", False, 1, 0)])
    # fully merged twisted pairing at n=2
    f3 = pairing_from_text(2, [("1", "2"), ("1^", "2^")])
    h = PartitionedHypermap.make(f3, [set(range(4))], [set(range(4))])
    assert degree_array(h) == ArrayTuple.from_vertices(2, 1, [("b", True, 2, 1)])


def figure_blocks_n12():
    n = 12
    pi1 = [
        {"12^", "1", "3^", "4", "7^", "8", "11^", "12"},
        {"1^", "2", "6^", "7", "8^", "9"},
        {"2^", "3", "10^", "11"},
        {"4^", "5", "5^", "6", "9^", "10"},
    ]
    pi2 = [
        {"1", "1^", "3", "3^", "6", "6^", "10", "10^"},
        {"2", "2^", "7", "7^", "11", "11^"},
        {"4", "4^", "5", "5^", "8", "8^", "9", "9^", "12", "12^"},
    ]
    enc = lambda block: frozenset(parse_element(x, n) for x in block)
    return n, [enc(b) for b in pi1], [enc(b) for b in pi2]


def compatible_pairings(n, pi1, pi2):
    """All pairings stabilizing every block of both partitions."""
    block1 = {}
    block2 = {}
    for b in pi1:
        for x in b:
            block1[x] = b
    for b in pi2:
        for x in b:
            block2[x] = b
    ground = sorted(range(2 * n))
    image = [-1] * (2 * n)

    def rec(lo):
        while lo < 2 * n and image[lo] >= 0:
            lo += 1
        if lo == 2 * n:
            yield Pairing(n, tuple(image))
            return
        for y in sorted(block1[lo] & block2[lo]):
            if y != lo and image[y] < 0:
                image[lo] = y
                image[y] = lo
                yield from rec(lo + 1)
                image[y] = -1
        image[lo] = -1

    yield from rec(0)


def test_worked_12_edge_example_degree_array():
    """The printed 12-edge partitioned hypermap has blocks as given and
    degree arrays P = E(3,1)+E(2,0), P' = E(3,1), Q = E(5,1)+E(4,1),
    Q' = E(3,1); the half types are (4,3,3,2) / (5,4,3) with r = 3.

    Its pairing is shown only in a figure, so this test reconstructs all
    pairings compatible with the blocks and the stated invariants and
    checks the stated degree array arises.
    """
    n, pi1, pi2 = figure_blocks_n12()
    lam = Partition([4, 3, 2, 2, 1])
    mu = Partition([5, 4, 3])
    expected = ArrayTuple.from_vertices(
        4,
        1,
        [
            ("w", False, 3, 1),
            ("w", False, 2, 0),
            ("w", True, 3, 1),
            ("b", False, 5, 1),
            ("b", False, 4, 1),
            ("b", True, 3, 1),
        ],
    )
    arrays = set()
    witnesses = []
    for f3 in compatible_pairings(n, pi1, pi2):
        if f3.hat_pair_count() != 3:
            continue
        if half_cycle_type(f3, canonical_f1(n)) != lam:
            continue
        if half_cycle_type(f3, canonical_f2(n)) != mu:
            continue
        h = PartitionedHypermap.make(f3, pi1, pi2)
        assert h.validate() == []
        a = degree_array(h)
        arrays.add(a)
        if a == expected:
            witnesses.append(h)
    assert witnesses
    assert expected in arrays
    # the forest image of a witness has the same degree profile and the
    # label recovery restores it exactly
    from octamoment.forests import forest_degree, theta_forward, theta_inverse

    h = witnesses[0]
    forest = theta_forward(h)
    assert forest_degree(forest) == expected
    assert theta_inverse(forest) == h
