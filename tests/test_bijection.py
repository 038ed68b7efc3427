"""Forest bijection: round trips, validation, degree preservation,
exhaustive forest enumeration, and the fully printed 11-edge example."""

import dataclasses
import gc
import hashlib
import itertools
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octamoment.arrays import ArrayTuple, enumerate_M
from octamoment.forests import (
    EDGE,
    LOOP,
    THORN,
    Forest,
    MalformedForestError,
    _relabel,
    _structure_keys,
    canonicalize,
    enumerate_forests,
    forest_degree,
    forest_from_json,
    forest_to_dot,
    forest_to_json,
    theta_forward,
    theta_inverse,
    validate_forest,
)
from octamoment.hypermaps import (
    DEFAULT_PARTITIONED_BOUND,
    L_table,
    Pairing,
    PartitionedHypermap,
    _orbits,
    canonical_f1,
    canonical_f2,
    degree_array,
    iter_pairing_images,
    iter_partitioned_hypermaps,
    lp_by_array,
    parse_element,
)
from octamoment.partitions import partitions_of, set_partitions


def pairing_from_text(n, pairs):
    return Pairing.from_pairs(
        n, [(parse_element(a, n), parse_element(b, n)) for a, b in pairs]
    )


def test_single_edge_forest():
    (h,) = list(iter_partitioned_hypermaps(1))
    f = theta_forward(h)
    assert validate_forest(f) == []
    # seed white root with a single child edge to a black leaf
    assert f.colors == ("w", "b")
    assert f.slots == (((EDGE, 1),), ())
    assert f.matching == frozenset() and f.loop_attr == ()
    h2 = theta_inverse(f)
    assert h2 == h
    assert str(h2.f3) == "(1 1^)"


def test_two_loop_forest_structure():
    """Fully merged twisted pairing at n = 2: seed root with one loop
    attributed to the black root, black root with its maximal loop and an
    arrow back to the seed."""
    f3 = pairing_from_text(2, [("1", "2"), ("1^", "2^")])
    h = PartitionedHypermap.make(f3, [set(range(4))], [set(range(4))])
    f = theta_forward(h)
    assert validate_forest(f) == []
    assert f.colors == ("w", "b")
    assert f.slots == (((LOOP, 0), (LOOP, 0)), ((LOOP, 0), (LOOP, 0)))
    assert f.loop_attr == ((0, 0, "greek", 1), (1, 0, "arrow", 0))
    assert theta_inverse(f) == h


def test_round_trip_all_hypermaps():
    for n in range(1, 6):
        for h in iter_partitioned_hypermaps(n):
            f = theta_forward(h)
            assert validate_forest(f) == []
            assert forest_degree(f) == degree_array(h)
            assert theta_inverse(f) == h


def test_monotone_ascent_along_tree():
    """Ascendant chains in the underlying vertex tree: the maximum label
    of a non-seed vertex grows strictly toward the seed among same-colored
    vertices, and the block holding the top hat label hangs off the seed."""
    for n in (3, 4):
        for h in iter_partitioned_hypermaps(n):
            blocks = list(h.pi1) + list(h.pi2)
            colors = ["w"] * len(h.pi1) + ["b"] * len(h.pi2)
            tops = [
                max(x for x in block if (x < n) == (colors[v] == "w"))
                for v, block in enumerate(blocks)
            ]
            seed = next(v for v, block in enumerate(blocks) if 0 in block and colors[v] == "w")
            parent = {}
            for v, block in enumerate(blocks):
                if v == seed:
                    continue
                holder = [
                    u
                    for u, other in enumerate(blocks)
                    if colors[u] != colors[v] and tops[v] in other
                ]
                assert len(holder) == 1
                parent[v] = holder[0]
            top_hat_vertex = next(
                v for v, block in enumerate(blocks)
                if colors[v] == "b" and tops[v] == 2 * n - 1
            )
            assert parent[top_hat_vertex] == seed
            for v in parent:
                grand = parent.get(parent[v])
                # strict increase along same-colored chains; the chain ends
                # at the seed, whose own maximum is unconstrained
                if grand is not None and colors[grand] == colors[v] and grand != seed:
                    assert tops[v] < tops[grand]


def test_forest_counts_match_oracle():
    for n in range(1, 5):
        oracle = lp_by_array(n)
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for r in range(n // 2 + 1):
                    for a in enumerate_M(lam, mu, r):
                        forests = enumerate_forests(a)
                        assert len(forests) == oracle.get(a, 0), str(a)
                        for f in forests:
                            assert theta_forward(theta_inverse(f)) == f


def test_golden_bijection_digest():
    """Pins the canonical labeling byte for byte: the sha256 of the JSON of
    ``theta_forward(h)`` for every ``h`` at n <= 5 and of every stratum's
    ``enumerate_forests`` list at n <= 4, in enumeration order."""
    digest = hashlib.sha256()
    for n in range(1, 6):
        for h in iter_partitioned_hypermaps(n):
            f = theta_forward(h)
            assert theta_inverse(f) == h
            digest.update(json.dumps(forest_to_json(f)).encode())
    for n in range(1, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for r in range(n // 2 + 1):
                    for a in enumerate_M(lam, mu, r):
                        forests = [forest_to_json(f) for f in enumerate_forests(a)]
                        digest.update(json.dumps(forests).encode())
    assert digest.hexdigest() == "1726baa7a5a30d47cb51a433f891789552a0fe77a77f0d853b43c9ee9315b366"


def _non_seed_roots(f):
    below = {slot[1] for row in f.slots for slot in row if slot[0] == EDGE}
    return sum(1 for v in range(f.num_vertices) if v != f.seed and v not in below)


def test_canonicalize_is_invariant_under_renumbering():
    """Every seed-first renumbering of a canonical forest canonicalizes back
    to it: all forests at n <= 4 (at most one candidate order for most), and
    the n = 5 forests with two or three non-seed roots (several candidate
    orders when their trees share a shape).  Those have at most five
    vertices, so every order is tried."""
    forests = [theta_forward(h) for n in range(1, 5) for h in iter_partitioned_hypermaps(n)]
    several = [
        f for f in map(theta_forward, iter_partitioned_hypermaps(5))
        if _non_seed_roots(f) in (2, 3)
    ]
    assert len(several) == 225 and max(f.num_vertices for f in several) == 5
    for f in forests + several:
        for rest in itertools.permutations(range(1, f.num_vertices)):
            assert canonicalize(_relabel(f, (0, *rest))) == f


def test_theta_forward_builds_its_canonical_labeling():
    """theta_forward numbers the vertices canonically as it builds them, so
    canonicalize leaves its output unchanged, byte for byte: every
    hypermap at n <= 4 and every 50th at n = 5, the forests with two or
    more non-seed trees among them (those theta_forward minimizes)."""
    hypermaps = [h for n in range(1, 5) for h in iter_partitioned_hypermaps(n)]
    hypermaps += list(iter_partitioned_hypermaps(5))[::50]
    forests = [theta_forward(h) for h in hypermaps]
    assert len(forests) == 426 + 95
    assert sum(_non_seed_roots(f) >= 2 for f in forests) >= 10
    for f in forests:
        assert canonicalize(f) == f
        assert pickle.dumps(canonicalize(f)) == pickle.dumps(f)


def _ref_set_partitions(items):
    """set_partitions as a closure recursion: the yield order to keep."""
    items = list(items)
    if not items:
        yield ()
        return

    def rec(idx, blocks):
        if idx == len(items):
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(items[idx])
            yield from rec(idx + 1, blocks)
            b.pop()
        blocks.append([items[idx]])
        yield from rec(idx + 1, blocks)
        blocks.pop()

    yield from rec(1, [[items[0]]])


def _ref_pairing_images(m):
    """iter_pairing_images as a closure recursion: the yield order to keep."""
    image = [-1] * m

    def rec(lo):
        while lo < m and image[lo] >= 0:
            lo += 1
        if lo == m:
            yield list(image)
            return
        for j in range(lo + 1, m):
            if image[j] < 0:
                image[lo], image[j] = j, lo
                yield from rec(lo + 1)
                image[j] = -1
        image[lo] = -1

    yield from rec(0)


def test_recursive_enumerations_keep_their_order():
    for size in range(8):
        assert list(set_partitions(range(size))) == list(_ref_set_partitions(range(size))), size
    assert [list(x) for x in iter_pairing_images(0)] == [[]]
    for m in range(2, 11, 2):
        assert [list(x) for x in iter_pairing_images(m)] == list(_ref_pairing_images(m)), m


def test_recursive_enumerations_leave_no_reference_cycle():
    # With the collector off, one call of each recursion, run to the end,
    # leaves nothing for it to free: no call ties its frames, lists or
    # frozensets into a cycle.
    forest = theta_forward(next(iter_partitioned_hypermaps(3)))
    gc.collect()
    gc.disable()
    try:
        assert sum(1 for _ in set_partitions(range(5))) == 52
        assert len(partitions_of.__wrapped__(12)) == 77
        assert sum(1 for _ in iter_pairing_images(8)) == 105
        assert sum(L_table.__wrapped__(4).values()) == 105
        assert len(_structure_keys(forest)) == forest.num_vertices
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_canonicalize_is_idempotent_on_enumerated_forests():
    """enumerate_forests keeps canonicalize's output, and canonicalize
    leaves it unchanged: every forest of every stratum at n <= 4."""
    checked = 0
    for n in range(1, 5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for r in range(n // 2 + 1):
                    for a in enumerate_M(lam, mu, r):
                        for f in enumerate_forests(a):
                            assert canonicalize(f) == f
                            checked += 1
    assert checked == 426


def test_forest_enumeration_examples():
    one = ArrayTuple.from_vertices(1, 0, [("b", False, 1, 0)])
    assert len(enumerate_forests(one)) == 1
    degenerate = ArrayTuple.from_vertices(2, 1, [("b", True, 2, 1)])
    assert len(enumerate_forests(degenerate)) == 1
    plain = ArrayTuple.from_vertices(2, 0, [("b", False, 2, 0)])
    assert len(enumerate_forests(plain)) == 2


def test_forest_enumeration_rejects_an_inconsistent_degree_array():
    # a seed of degree 1 with a loop: the white side has one loop pair,
    # the black side none
    a = ArrayTuple.from_vertices(1, 1, [("b", False, 1, 0)])
    with pytest.raises(ValueError, match="^inconsistent degree array: loop pairs disagree"):
        enumerate_forests(a)


def test_loop_balance_on_constructed_forests():
    for n in range(1, 5):
        for h in iter_partitioned_hypermaps(n):
            f = theta_forward(h)
            arrows_in = {}
            greek_named = {}
            for v, k, kind, target in f.loop_attr:
                bucket = arrows_in if kind == "arrow" else greek_named
                bucket[target] = bucket.get(target, 0) + 1
            for v, row in enumerate(f.slots):
                loops = [slot[0] for slot in row].count(LOOP) // 2
                assert loops == arrows_in.get(v, 0) + greek_named.get(v, 0)


def worked_example_11():
    n = 11
    f3 = pairing_from_text(
        n,
        [
            ("1", "4"), ("1^", "8^"), ("2", "9"), ("2^", "3^"), ("3", "11^"),
            ("4^", "10^"), ("5", "7"), ("5^", "6"), ("6^", "11"), ("7^", "9^"),
            ("8", "10"),
        ],
    )
    pi1 = [
        {"11^", "1", "1^", "2", "2^", "3", "3^", "4", "7^", "8", "8^", "9", "9^", "10"},
        {"4^", "5", "5^", "6", "6^", "7", "10^", "11"},
    ]
    pi2 = [
        {"2", "2^", "3", "3^", "5", "5^", "6", "6^", "7", "7^", "9", "9^", "11", "11^"},
        {"1", "1^", "4", "4^", "8", "8^", "10", "10^"},
    ]
    enc = lambda block: {parse_element(x, n) for x in block}  # noqa: E731
    return PartitionedHypermap.make(f3, [enc(b) for b in pi1], [enc(b) for b in pi2])


def test_worked_11_edge_example():
    """The printed 11-edge triple: its forest has degree arrays
    P = E(4,1), P' = 0, Q = E(7,2), Q' = E(4,2), and the label recovery
    returns exactly the printed pairing and blocks."""
    h = worked_example_11()
    assert h.validate() == []
    expected = ArrayTuple.from_vertices(
        7, 3, [("w", False, 4, 1), ("b", False, 7, 2), ("b", True, 4, 2)]
    )
    assert degree_array(h) == expected
    f = theta_forward(h)
    assert validate_forest(f) == []
    assert forest_degree(f) == expected
    assert theta_inverse(f) == h


def test_validation_catches_missing_root_loop():
    # black root whose rightmost slot is a thorn, not a loop extremity
    f = Forest(
        colors=("w", "b"),
        slots=(((THORN,),), ((LOOP, 0), (LOOP, 0), (THORN,))),
        seed=0,
        loop_attr=((1, 0, "arrow", 0),),
        matching=frozenset({((0, 0), (1, 2))}),
    )
    issues = validate_forest(f)
    assert any("rightmost descending loop" in msg for msg in issues)


def test_validation_catches_arrow_cycle():
    # two non-seed roots pointing arrows at each other
    f = Forest(
        colors=("w", "w", "b"),
        slots=(
            ((THORN,),),
            ((LOOP, 0), (LOOP, 0)),
            ((THORN,), (LOOP, 0), (LOOP, 0)),
        ),
        seed=0,
        loop_attr=((1, 0, "arrow", 2), (2, 0, "arrow", 1)),
        matching=frozenset({((0, 0), (2, 0))}),
    )
    issues = validate_forest(f)
    assert any("cycle" in msg for msg in issues)


def test_an_empty_block_is_a_violation():
    # n = 1: the labels 1 and 1^ are 0 and 1; pi1 holds {1, 1^} and {}.
    f3 = Pairing.from_pairs(1, [(0, 1)])
    full = frozenset({0, 1})
    h = PartitionedHypermap(f3, (full, frozenset()), (full,))
    assert h.validate() == ["pi1 has an empty block"]
    assert PartitionedHypermap.make(f3, [full, set()], [full]).pi1 == (frozenset(), full)
    assert PartitionedHypermap.make(f3, [full], [set(), full]).validate() == [
        "pi2 has an empty block"
    ]
    with pytest.raises(ValueError, match="pi1 has an empty block"):
        theta_forward(h)


@pytest.mark.parametrize("slot", [("x", 1), ("x",), (EDGE,), (LOOP,), ()])
def test_a_slot_of_no_kind_is_reported_before_the_replay(slot):
    """Only (EDGE, child), (THORN,) and (LOOP, id) are slots; any other is
    one violation, and the rules that read slots are not checked."""
    f = Forest(("w", "b"), (((EDGE, 1), slot), ()), 0, (), frozenset())
    message = f"slot 1 of vertex 0 is not an edge, thorn or loop: {slot!r}"
    assert validate_forest(f) == [message]
    with pytest.raises(MalformedForestError, match="invalid forest") as err:
        theta_inverse(f)
    assert err.value.step == 0
    assert message in str(err.value)


@pytest.mark.parametrize(
    "f",
    [
        Forest(("w", "b"), (((EDGE, 1),),), 0, (), frozenset()),
        Forest(("w",), (((THORN,),), ((THORN,),)), 0, (), frozenset({((0, 0), (1, 0))})),
    ],
    ids=["fewer-slot-lists", "more-slot-lists"],
)
def test_slot_lists_and_colors_of_different_lengths_are_one_violation(f):
    """A forest is read by vertex through both tuples, so a length mismatch
    is one violation, and no rule that reads them is checked."""
    message = f"{len(f.slots)} slot lists for {len(f.colors)} vertex colors"
    assert validate_forest(f) == [message]
    with pytest.raises(MalformedForestError, match="invalid forest") as err:
        theta_inverse(f)
    assert err.value.step == 0
    assert message in str(err.value)


@pytest.mark.parametrize("label", [7, 2, -1])
def test_a_label_outside_the_ground_set_is_a_violation(label):
    # n = 1: the labels 1 and 1^ are 0 and 1.
    h = PartitionedHypermap(
        Pairing(1, (1, 0)), (frozenset({0, 1, label}),), (frozenset({0, 1}),)
    )
    block = sorted({0, 1, label})
    assert h.validate() == [f"pi1 block {block} has a label outside 0..1"]
    with pytest.raises(ValueError, match="invalid partitioned hypermap: pi1 block"):
        theta_forward(h)


def test_blocks_come_in_least_label_order():
    """The enumeration and theta_inverse build each block directly; they
    must order the blocks as ``PartitionedHypermap.make`` does."""
    for n in range(1, DEFAULT_PARTITIONED_BOUND + 1):
        for h in iter_partitioned_hypermaps(n):
            assert h == PartitionedHypermap.make(h.f3, h.pi1, h.pi2)
            back = theta_inverse(theta_forward(h))
            assert back == PartitionedHypermap.make(back.f3, back.pi1, back.pi2)


def test_inverse_rejects_invalid_forest():
    f = Forest(
        colors=("w", "b"),
        slots=(((THORN,),), ((LOOP, 0), (LOOP, 0), (THORN,))),
        seed=0,
        loop_attr=((1, 0, "arrow", 0),),
        matching=frozenset({((0, 0), (1, 2))}),
    )
    with pytest.raises(MalformedForestError):
        theta_inverse(f)


# Valid n = 2 forests: an edge and a matched thorn pair, the two-loop forest
# of test_two_loop_forest_structure, a white root with two black leaves, and
# a white-black-white chain.
_THORNS = Forest(
    ("w", "b"), (((EDGE, 1), (THORN,)), ((THORN,),)), 0, (), frozenset({((0, 1), (1, 0))})
)
_LOOPS = Forest(
    ("w", "b"),
    (((LOOP, 0), (LOOP, 0)), ((LOOP, 0), (LOOP, 0))),
    0,
    ((0, 0, "greek", 1), (1, 0, "arrow", 0)),
    frozenset(),
)
_FORK = Forest(("w", "b", "b"), (((EDGE, 1), (EDGE, 2)), (), ()), 0, (), frozenset())
_CHAIN = Forest(("w", "b", "w"), (((EDGE, 1),), ((EDGE, 2),), ()), 0, (), frozenset())


@pytest.mark.parametrize(
    ("base", "change", "message"),
    [
        (_THORNS, {"seed": 5}, "seed index 5 out of range"),
        (_LOOPS, {"colors": ("b", "w")}, "seed root is not white"),
        (_THORNS, {"colors": ("w", "x")}, "vertex with unknown color"),
        (_FORK, {"slots": (((EDGE, 1), (EDGE, 7)), (), ())}, "edge from 0 to unknown vertex 7"),
        (_CHAIN, {"colors": ("w", "b", "b")}, "edge 1 -> 2 joins equal colors"),
        (_FORK, {"slots": (((EDGE, 1), (EDGE, 1)), (), ())}, "vertex 1 has two parents"),
        (_CHAIN, {"slots": (((EDGE, 1),), ((EDGE, 2),), ((EDGE, 1), (EDGE, 0)))},
         "seed root has a parent edge"),
        (_FORK, {"slots": (((EDGE, 1), (THORN,)), (), ())}, "root vertex 2 has degree 0"),
        (_LOOPS, {"slots": (((LOOP, 1), (LOOP, 1)), ((LOOP, 0), (LOOP, 0)))},
         "vertex 0 loop ids not in first-occurrence order"),
        (_LOOPS, {"slots": (((LOOP, 0), (THORN,)), ((LOOP, 0), (LOOP, 0)))},
         "vertex 0 has a loop without exactly two extremities"),
        (_LOOPS, {"slots": (((LOOP, 0), (LOOP, 0)), ((LOOP, 0), (LOOP, 0), (THORN,)))},
         "non-seed root 1 lacks a rightmost descending loop"),
        (_LOOPS, {"loop_attr": _LOOPS.loop_attr + ((1, 0, "greek", 0),)},
         "duplicate loop attribution"),
        (_LOOPS, {"loop_attr": ((1, 0, "arrow", 0),)}, "loop 0 of vertex 0 has no attribution"),
        (_LOOPS, {"loop_attr": ((0, 0, "greek", 0), (1, 0, "arrow", 0))},
         "loop 0 of vertex 0 attributed to a bad vertex"),
        (_LOOPS, {"loop_attr": ((0, 0, "greek", 1), (1, 0, "greek", 0))},
         "maximal loop of non-seed root 1 must carry the arrow"),
        (_LOOPS, {"loop_attr": ((0, 0, "arrow", 1), (1, 0, "arrow", 0))},
         "non-maximal loop 0 of vertex 0 cannot carry an arrow"),
        (_LOOPS, {"loop_attr": _LOOPS.loop_attr + ((0, 1, "greek", 1),)},
         "attributions for nonexistent loops: [(0, 1)]"),
        (_THORNS, {"matching": frozenset({((0, 0), (1, 0))})},
         "matching entry (0, 0) is not a thorn"),
        (_THORNS, {"matching": frozenset({((0, 1), (1, 0)), ((0, 1), (0, 1))})},
         "thorn (0, 1) matched twice"),
        (_THORNS, {"matching": frozenset({((0, 1), (0, 1))})},
         "matched thorns (0, 1), (0, 1) have equal colors"),
        (_THORNS, {"matching": frozenset({((1, 0), (0, 1))})},
         "matching pair ((1, 0), (0, 1)) does not list the white thorn first"),
        (_THORNS, {"matching": frozenset()}, "thorn matching does not cover every thorn"),
        (_LOOPS, {"slots": (((LOOP, 0), (LOOP, 0), (LOOP, 1), (LOOP, 1)), ((LOOP, 0), (LOOP, 0)))},
         "vertex 0 has 2 loops but 1 arrows + 0 named loops"),
        (_CHAIN, {"slots": (((EDGE, 1),), ((EDGE, 2),), ((EDGE, 1),))},
         "edge/arrow structure has a cycle through vertex 1"),
        (_CHAIN, {"slots": (((EDGE, 1),), (), ())}, "vertex 2 is not connected to the seed root"),
        (_THORNS, {"slots": (((EDGE, 1), ("x", 1)), ((THORN,),))},
         "slot 1 of vertex 0 is not an edge, thorn or loop: ('x', 1)"),
    ],
    ids=[
        "seed-out-of-range", "seed-not-white", "unknown-color", "edge-to-unknown-vertex",
        "edge-equal-colors", "two-parents", "seed-parent-edge", "root-degree-0",
        "loop-id-order", "loop-extremities", "root-without-loop", "duplicate-attribution",
        "unattributed-loop", "bad-attribution-target", "maximal-loop-without-arrow",
        "non-maximal-arrow", "nonexistent-loop", "matching-non-thorn", "thorn-matched-twice",
        "matched-equal-colors", "white-thorn-not-first", "uncovered-thorn", "loop-balance",
        "cycle", "disconnected", "slot-of-no-kind",
    ],
)
def test_validation_states_each_rule(base, change, message):
    """One change to a valid forest breaks one rule; some faults bring a
    companion message, so the expected one is looked up among them."""
    assert validate_forest(base) == []
    assert message in validate_forest(dataclasses.replace(base, **change))


# Three non-seed roots whose arrows run 1 -> 2 -> 3 -> 1 (the last to a
# vertex of its own color), with a leaf hanging off the cycle; and a chain
# 2 -> 3 -> 4 hanging off a root that does not reach the seed, beside a
# chain 0 -> 1 -> 5 that does.
_ARROW_CYCLE = Forest(
    ("w", "w", "b", "w", "b"),
    (
        ((THORN,),),
        ((EDGE, 4), (LOOP, 0), (LOOP, 0)),
        ((THORN,), (LOOP, 0), (LOOP, 0)),
        ((LOOP, 0), (LOOP, 0)),
        (),
    ),
    0,
    ((1, 0, "arrow", 2), (2, 0, "arrow", 3), (3, 0, "arrow", 1)),
    frozenset({((0, 0), (2, 0))}),
)
_CUT_CHAIN = Forest(
    ("w", "b", "w", "b", "w", "w"),
    (((EDGE, 1),), ((EDGE, 5),), ((EDGE, 3),), ((EDGE, 4),), (), ()),
    0,
    (),
    frozenset(),
)


@pytest.mark.parametrize(
    ("base", "change", "violations"),
    [
        (_THORNS, {"seed": 5}, ["seed index 5 out of range"]),
        (_LOOPS, {"colors": ("b", "w")}, ["seed root is not white"]),
        (_THORNS, {"colors": ("w", "x")},
         ["vertex with unknown color", "matched thorns (0, 1), (1, 0) have equal colors"]),
        (_FORK, {"slots": (((EDGE, 1), (EDGE, 7)), (), ())},
         ["edge from 0 to unknown vertex 7", "root vertex 2 has degree 0",
          "non-seed root 2 lacks a rightmost descending loop",
          "vertex 2 is not connected to the seed root"]),
        (_CHAIN, {"colors": ("w", "b", "b")}, ["edge 1 -> 2 joins equal colors"]),
        (_FORK, {"slots": (((EDGE, 1), (EDGE, 1)), (), ())},
         ["vertex 1 has two parents", "root vertex 2 has degree 0",
          "non-seed root 2 lacks a rightmost descending loop",
          "vertex 2 is not connected to the seed root"]),
        (_CHAIN, {"slots": (((EDGE, 1),), ((EDGE, 2),), ((EDGE, 1), (EDGE, 0)))},
         ["vertex 1 has two parents", "edge 2 -> 0 joins equal colors",
          "seed root has a parent edge", "edge/arrow structure has a cycle through vertex 1",
          "edge/arrow structure has a cycle through vertex 2"]),
        (_FORK, {"slots": (((EDGE, 1), (THORN,)), (), ())},
         ["root vertex 2 has degree 0", "non-seed root 2 lacks a rightmost descending loop",
          "thorn matching does not cover every thorn",
          "vertex 2 is not connected to the seed root"]),
        (_LOOPS, {"slots": (((LOOP, 1), (LOOP, 1)), ((LOOP, 0), (LOOP, 0)))},
         ["vertex 0 loop ids not in first-occurrence order",
          "loop 1 of vertex 0 has no attribution",
          "attributions for nonexistent loops: [(0, 0)]",
          "vertex 1 has 1 loops but 0 arrows + 0 named loops"]),
        (_LOOPS, {"slots": (((LOOP, 0), (THORN,)), ((LOOP, 0), (LOOP, 0)))},
         ["vertex 0 has a loop without exactly two extremities",
          "thorn matching does not cover every thorn"]),
        (_LOOPS, {"slots": (((LOOP, 0), (LOOP, 0)), ((LOOP, 0), (LOOP, 0), (THORN,)))},
         ["non-seed root 1 lacks a rightmost descending loop",
          "non-maximal loop 0 of vertex 1 cannot carry an arrow",
          "thorn matching does not cover every thorn",
          "vertex 1 is not connected to the seed root"]),
        (_LOOPS, {"loop_attr": _LOOPS.loop_attr + ((1, 0, "greek", 0),)},
         ["duplicate loop attribution", "maximal loop of non-seed root 1 must carry the arrow"]),
        (_LOOPS, {"loop_attr": ((1, 0, "arrow", 0),)},
         ["loop 0 of vertex 0 has no attribution",
          "vertex 1 has 1 loops but 0 arrows + 0 named loops"]),
        (_LOOPS, {"loop_attr": ((0, 0, "greek", 0), (1, 0, "arrow", 0))},
         ["loop 0 of vertex 0 attributed to a bad vertex",
          "vertex 1 has 1 loops but 0 arrows + 0 named loops"]),
        (_LOOPS, {"loop_attr": ((0, 0, "greek", 1), (1, 0, "greek", 0))},
         ["maximal loop of non-seed root 1 must carry the arrow"]),
        (_LOOPS, {"loop_attr": ((0, 0, "arrow", 1), (1, 0, "arrow", 0))},
         ["non-maximal loop 0 of vertex 0 cannot carry an arrow"]),
        (_LOOPS, {"loop_attr": _LOOPS.loop_attr + ((0, 1, "greek", 1),)},
         ["attributions for nonexistent loops: [(0, 1)]"]),
        (_THORNS, {"matching": frozenset({((0, 0), (1, 0))})},
         ["matching entry (0, 0) is not a thorn", "thorn matching does not cover every thorn"]),
        (_THORNS, {"matching": frozenset({((0, 1), (1, 0)), ((0, 1), (0, 1))})},
         ["thorn (0, 1) matched twice", "thorn (0, 1) matched twice",
          "matched thorns (0, 1), (0, 1) have equal colors"]),
        (_THORNS, {"matching": frozenset({((0, 1), (0, 1))})},
         ["thorn (0, 1) matched twice", "matched thorns (0, 1), (0, 1) have equal colors",
          "thorn matching does not cover every thorn"]),
        (_THORNS, {"matching": frozenset({((1, 0), (0, 1))})},
         ["matching pair ((1, 0), (0, 1)) does not list the white thorn first"]),
        (_THORNS, {"matching": frozenset()}, ["thorn matching does not cover every thorn"]),
        (_LOOPS, {"slots": (((LOOP, 0), (LOOP, 0), (LOOP, 1), (LOOP, 1)), ((LOOP, 0), (LOOP, 0)))},
         ["loop 1 of vertex 0 has no attribution",
          "vertex 0 has 2 loops but 1 arrows + 0 named loops"]),
        (_CHAIN, {"slots": (((EDGE, 1),), ((EDGE, 2),), ((EDGE, 1),))},
         ["vertex 1 has two parents", "edge/arrow structure has a cycle through vertex 1",
          "edge/arrow structure has a cycle through vertex 2"]),
        (_CHAIN, {"slots": (((EDGE, 1),), (), ())},
         ["root vertex 2 has degree 0", "non-seed root 2 lacks a rightmost descending loop",
          "vertex 2 is not connected to the seed root"]),
        (_ARROW_CYCLE, {},
         ["loop 0 of vertex 3 attributed to a bad vertex",
          "vertex 1 has 1 loops but 0 arrows + 0 named loops",
          "edge/arrow structure has a cycle through vertex 1",
          "edge/arrow structure has a cycle through vertex 2",
          "edge/arrow structure has a cycle through vertex 3",
          "edge/arrow structure has a cycle through vertex 4"]),
        (_CUT_CHAIN, {},
         ["non-seed root 2 lacks a rightmost descending loop"]
         + ["vertex 2 is not connected to the seed root"] * 3),
    ],
    ids=[
        "seed-out-of-range", "seed-not-white", "unknown-color", "edge-to-unknown-vertex",
        "edge-equal-colors", "two-parents", "seed-parent-edge", "root-degree-0",
        "loop-id-order", "loop-extremities", "root-without-loop", "duplicate-attribution",
        "unattributed-loop", "bad-attribution-target", "maximal-loop-without-arrow",
        "non-maximal-arrow", "nonexistent-loop", "matching-non-thorn", "thorn-matched-twice",
        "matched-equal-colors", "white-thorn-not-first", "uncovered-thorn", "loop-balance",
        "cycle", "disconnected", "three-vertex-arrow-cycle", "chain-off-a-cut-root",
    ],
)
def test_validation_lists_every_violation_in_order(base, change, violations):
    """The whole list, order and repeats included: each walk toward the
    seed that fails reports once for the vertex it started from."""
    assert validate_forest(dataclasses.replace(base, **change)) == violations


def test_json_round_trip():
    for n in (2, 3):
        for h in iter_partitioned_hypermaps(n):
            f = theta_forward(h)
            data = forest_to_json(f)
            back = forest_from_json(data)
            assert back == f
            assert theta_inverse(back) == h


def test_dot_export_mentions_every_vertex():
    h = worked_example_11()
    f = theta_forward(h)
    dot = forest_to_dot(f)
    assert dot.startswith("digraph")
    for v in range(f.num_vertices):
        assert f"v{v}" in dot


@st.composite
def random_hypermaps(draw, low=DEFAULT_PARTITIONED_BOUND + 1, high=9):
    """A partitioned hypermap with ``low`` to ``high`` edges (by default 6
    to 9, past the enumeration bound): a random pairing f3 and random
    unions of its white and black orbits."""
    n = draw(st.integers(low, high))
    order = draw(st.permutations(range(2 * n)))
    f3 = Pairing.from_pairs(n, list(zip(order[::2], order[1::2])))
    partitions = []
    for walk in (canonical_f1(n), canonical_f2(n)):
        orbits = _orbits(f3.image, walk.image)
        label = st.integers(0, len(orbits) - 1)
        labels = draw(st.lists(label, min_size=len(orbits), max_size=len(orbits)))
        blocks = {}
        for orbit, label in zip(orbits, labels):
            blocks[label] = blocks.get(label, frozenset()) | orbit
        partitions.append(list(blocks.values()))
    return PartitionedHypermap.make(f3, *partitions)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(h=random_hypermaps())
def test_round_trip_beyond_the_enumeration_bound(h):
    assert h.validate() == []
    forest = theta_forward(h)
    assert validate_forest(forest) == []
    assert theta_inverse(forest) == h
    assert forest_degree(forest) == degree_array(h)
    assert degree_array(h) in enumerate_M(h.white_type(), h.black_type(), h.r)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(h=random_hypermaps(10, 40))
def test_round_trip_of_large_random_hypermaps(h):
    assert h.validate() == []
    forest = theta_forward(h)
    assert validate_forest(forest) == []
    assert theta_inverse(forest) == h
    assert forest_degree(forest) == degree_array(h)
    assert degree_array(h).validate() == []


def swapped_hypermap(n, walk, seed):
    """A partitioned hypermap whose f3 is ``walk(n)`` with k = 1..3 random
    partner swaps, and that k.  Each swap joins at most two pairs of
    orbits, so the side of ``walk`` (white for f1, black for f2) keeps at
    least n - 2k orbits; each stays a block.  The other side's orbits are
    joined at random."""
    rng = random.Random(seed)
    pairs = walk(n).pairs()
    k = rng.randint(1, 3)
    for _ in range(k):
        i, j = rng.sample(range(n), 2)
        (a, b), (c, d) = pairs[i], pairs[j]
        pairs[i], pairs[j] = rng.choice([((a, c), (b, d)), ((a, d), (b, c))])
    f3 = Pairing.from_pairs(n, pairs)
    partitions = []
    for side in (canonical_f1, canonical_f2):
        orbits = _orbits(f3.image, side(n).image)
        blocks = {}
        for index, orbit in enumerate(orbits):
            label = index if side is walk else rng.randrange(len(orbits))
            blocks[label] = blocks.get(label, frozenset()) | orbit
        partitions.append(list(blocks.values()))
    return PartitionedHypermap.make(f3, *partitions), k


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("walk", [canonical_f1, canonical_f2])
@pytest.mark.parametrize("n", [10, 20, 40])
def test_round_trip_of_hypermaps_with_many_blocks_on_one_side(n, walk, seed):
    h, k = swapped_hypermap(n, walk, seed)
    assert len(h.pi1 if walk is canonical_f1 else h.pi2) >= n - 2 * k
    assert h.validate() == []
    forest = theta_forward(h)
    assert validate_forest(forest) == []
    assert theta_inverse(forest) == h
    assert forest_degree(forest) == degree_array(h)
    assert degree_array(h).validate() == []
