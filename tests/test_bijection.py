"""Forest bijection: round trips, validation, degree preservation,
exhaustive forest enumeration, and the fully printed 11-edge example."""

import dataclasses

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
    Pairing,
    PartitionedHypermap,
    _orbits,
    canonical_f1,
    canonical_f2,
    degree_array,
    iter_partitioned_hypermaps,
    lp_by_array,
    parse_element,
)
from octamoment.partitions import partitions_of


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


def test_forest_enumeration_examples():
    one = ArrayTuple.from_vertices(1, 0, [("b", False, 1, 0)])
    assert len(enumerate_forests(one)) == 1
    degenerate = ArrayTuple.from_vertices(2, 1, [("b", True, 2, 1)])
    assert len(enumerate_forests(degenerate)) == 1
    plain = ArrayTuple.from_vertices(2, 0, [("b", False, 2, 0)])
    assert len(enumerate_forests(plain)) == 2


def test_loop_balance_on_constructed_forests():
    for n in range(1, 5):
        for h in iter_partitioned_hypermaps(n):
            f = theta_forward(h)
            arrows_in = {}
            greek_named = {}
            for v, k, kind, target in f.loop_attr:
                bucket = arrows_in if kind == "arrow" else greek_named
                bucket[target] = bucket.get(target, 0) + 1
            for v in range(f.num_vertices):
                assert f.loops_of(v) == arrows_in.get(v, 0) + greek_named.get(v, 0)


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
    ],
    ids=[
        "seed-out-of-range", "seed-not-white", "unknown-color", "edge-to-unknown-vertex",
        "edge-equal-colors", "two-parents", "seed-parent-edge", "root-degree-0",
        "loop-id-order", "loop-extremities", "root-without-loop", "duplicate-attribution",
        "unattributed-loop", "bad-attribution-target", "maximal-loop-without-arrow",
        "non-maximal-arrow", "nonexistent-loop", "matching-non-thorn", "thorn-matched-twice",
        "matched-equal-colors", "white-thorn-not-first", "uncovered-thorn", "loop-balance",
        "cycle", "disconnected",
    ],
)
def test_validation_states_each_rule(base, change, message):
    """One change to a valid forest breaks one rule; some faults bring a
    companion message, so the expected one is looked up among them."""
    assert validate_forest(base) == []
    assert message in validate_forest(dataclasses.replace(base, **change))


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
def random_hypermaps(draw):
    """A partitioned hypermap with 6 to 9 edges, past the enumeration bound:
    a random pairing f3 and random unions of its white and black orbits."""
    n = draw(st.integers(DEFAULT_PARTITIONED_BOUND + 1, 9))
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
