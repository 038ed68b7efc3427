"""Permuted forests and the bijection with partitioned hypermaps.

A permuted forest is a set of bicolored ordered trees: one *seed tree*
with a white root plus non-seed trees whose roots carry at least one loop
ending in their rightmost descendant slot.  Vertices own an ordered list
of descendant slots, each an edge to a child, a thorn, or a loop
extremity (every loop has both extremities on its vertex).  White and
black thorns are matched by a bijection; every loop is attributed to a
vertex of the opposite color, except the maximal loop of a non-seed root,
which instead sends an arrow to such a vertex.  Tree edges plus arrows
must form a single tree rooted at the seed root.

``theta_forward`` builds the forest of a partitioned hypermap in one walk
over the labels: the white (black) vertices are the blocks of pi1 (pi2)
with their non-hat (hat) labels as slots in increasing order, and the
label structure is then erased.  A pre-pass finds each block's children
in slot order, so the vertices are numbered in canonical order as they
are built.  ``theta_inverse`` recovers the unique preimage by replaying
the labels: each next label sits on the leftmost unrecovered slot of the
vertex that the current slot determines (matched thorn, attributed
vertex, arrow target, or edge endpoint), and each block is built once,
the blocks in least-label order.

``validate_forest`` is the one statement of the rules above; a forest
whose ``slots`` and ``colors`` differ in length is one violation.  Its
one pass over the slots also yields what ``theta_inverse`` replays the
labels from, so a round trip reads each slot once.
``enumerate_forests``, the exhaustive oracle that the bijection is
checked against stratum by stratum, generates candidate forests of a
degree array and keeps those it accepts.

Forests are kept in a canonical labeling (vertices numbered by traversal
order, the least relabeling over reorderings of identical non-seed
trees), so structural equality of :class:`Forest` values is isomorphism.
With at most one non-seed tree the traversal order is the only
candidate, and ``theta_forward`` builds it directly.
One order of forests (``_order_key``) picks that least relabeling and
orders the list ``enumerate_forests`` returns.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from typing import Iterator, Sequence

from .arrays import ArrayTuple
from .hypermaps import (
    BoundExceededError,
    Pairing,
    PartitionedHypermap,
    _inverse,
    canonical_f1,
    canonical_f2,
    iter_pairing_images,
)

__all__ = [
    "EDGE",
    "THORN",
    "LOOP",
    "Forest",
    "MalformedForestError",
    "theta_forward",
    "theta_inverse",
    "validate_forest",
    "forest_degree",
    "enumerate_forests",
    "forest_to_json",
    "forest_from_json",
    "forest_to_dot",
    "DEFAULT_FOREST_BOUND",
]

EDGE, THORN, LOOP = "e", "t", "l"

DEFAULT_FOREST_BOUND = 4

Slot = tuple
SlotRef = tuple[int, int]


class MalformedForestError(ValueError):
    """Label recovery failed at the 1-based label index ``step``, or, with
    ``step`` 0, :func:`validate_forest` rejected the input."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class Forest:
    """Canonical permuted forest.

    ``slots[v]`` lists only the descendants of ``v``, each ``(EDGE,
    child)``, ``(THORN,)`` or ``(LOOP, id)``; the attachment of a non-root
    vertex to its parent is implicit (it is the rightmost slot of the
    vertex, which is how the labeled construction always places it).
    ``loop_attr`` holds one ``(vertex, loop, kind, target)`` per loop with
    ``kind`` either ``"greek"`` or ``"arrow"``, and ``matching`` one
    ``(white thorn, black thorn)`` pair of slot references per matched
    pair; each is a tuple in ascending order, sorted once by the builder
    of the forest, so no reader sorts it again.
    """

    colors: tuple[str, ...]
    slots: tuple[tuple[Slot, ...], ...]
    seed: int
    loop_attr: tuple[tuple[int, int, str, int], ...]
    matching: tuple[tuple[SlotRef, SlotRef], ...]

    @property
    def num_vertices(self) -> int:
        return len(self.colors)


def validate_forest(f: Forest) -> list[str]:
    """All violations of the permuted-forest properties (empty iff valid)."""
    return _read_forest(f)[0]


def _read_forest(f: Forest) -> tuple[list[str], tuple]:
    """The violations of ``f`` and what the one pass over its slots read:
    ``(parent, edges, ends, attr)``, the parent of each child, each edge as
    ``(v, slot, child)``, each vertex's loops as ``{id: slot indices}`` and
    each loop's ``(kind, target)`` keyed ``(v, id)``.  The reading is
    whole when there are no violations; :func:`theta_inverse` replays the
    labels from it."""
    problems: list[str] = []
    V = f.num_vertices
    colors, seed = f.colors, f.seed
    if len(f.slots) != V:
        return [f"{len(f.slots)} slot lists for {V} vertex colors"], ()
    if not 0 <= seed < V:
        return [f"seed index {seed} out of range"], ()
    if colors[seed] != "w":
        problems.append("seed root is not white")
    if colors.count("w") + colors.count("b") != V:
        problems.append("vertex with unknown color")

    # One pass over the slots: parent edges, thorns and loop extremities.
    # The rules after it read the slots, so a slot that is not (EDGE,
    # child), (THORN,) or (LOOP, id) ends the check there.
    unread = False
    parent: dict[int, int] = {}
    edges: list[tuple[int, int, int]] = []
    thorns: set[SlotRef] = set()
    ends: list[dict[int, list[int]]] = []
    for v, slots in enumerate(f.slots):
        mine: dict[int, list[int]] = {}
        for i, slot in enumerate(slots):
            kind = slot[0] if slot else None
            if kind == LOOP and len(slot) == 2:
                if slot[1] in mine:
                    mine[slot[1]].append(i)
                else:
                    mine[slot[1]] = [i]
            elif kind == THORN:
                thorns.add((v, i))
            elif kind == EDGE and len(slot) == 2:
                child = slot[1]
                if not 0 <= child < V:
                    problems.append(f"edge from {v} to unknown vertex {child}")
                    continue
                if colors[child] == colors[v]:
                    problems.append(f"edge {v} -> {child} joins equal colors")
                if child in parent:
                    problems.append(f"vertex {child} has two parents")
                parent[child] = v
                edges.append((v, i, child))
            else:
                problems.append(f"slot {i} of vertex {v} is not an edge, thorn or loop: {slot!r}")
                unread = True
        ends.append(mine)
    if seed in parent:
        problems.append("seed root has a parent edge")
    if unread:
        return problems, ()

    # Loop bookkeeping: ids occur exactly twice, numbered by first extremity.
    for v, mine in enumerate(ends):
        if mine:
            if list(mine) != list(range(len(mine))):
                problems.append(f"vertex {v} loop ids not in first-occurrence order")
            if set(map(len, mine.values())) != {2}:
                problems.append(f"vertex {v} has a loop without exactly two extremities")
        elif not f.slots[v] and v not in parent:
            problems.append(f"root vertex {v} has degree 0")

    # The loop in a non-seed root's rightmost slot carries its arrow.
    arrow: dict[int, int] = {}
    for v in range(V):
        if v == seed or v in parent:
            continue
        slots = f.slots[v]
        if slots and slots[-1][0] == LOOP:
            arrow[v] = slots[-1][1]
        else:
            problems.append(f"non-seed root {v} lacks a rightmost descending loop")

    attr = {(v, k): (kind, target) for v, k, kind, target in f.loop_attr}
    if len(attr) != len(f.loop_attr):
        problems.append("duplicate loop attribution")
    arrows_in = [0] * V
    greek_named = [0] * V
    attributed = 0
    for v, mine in enumerate(ends):
        for k in mine:
            if (v, k) not in attr:
                problems.append(f"loop {k} of vertex {v} has no attribution")
                continue
            attributed += 1
            kind, target = attr[v, k]
            if not 0 <= target < V or colors[target] == colors[v]:
                problems.append(f"loop {k} of vertex {v} attributed to a bad vertex")
                continue
            if arrow.get(v) == k:
                if kind != "arrow":
                    problems.append(f"maximal loop of non-seed root {v} must carry the arrow")
                arrows_in[target] += 1
            else:
                if kind != "greek":
                    problems.append(f"non-maximal loop {k} of vertex {v} cannot carry an arrow")
                greek_named[target] += 1
    if attributed != len(attr):
        extra = set(attr) - {(v, k) for v, mine in enumerate(ends) for k in mine}
        problems.append(f"attributions for nonexistent loops: {sorted(extra)}")

    # Thorn matching is a bijection between the white and black thorns.
    seen: set[SlotRef] = set()
    for a, b in f.matching:
        for ref in (a, b):
            if ref not in thorns:
                problems.append(f"matching entry {ref} is not a thorn")
            if ref in seen:
                problems.append(f"thorn {ref} matched twice")
            seen.add(ref)
        if a in thorns:
            if b in thorns and (colors[a[0]], colors[b[0]]) not in (("w", "b"), ("b", "w")):
                problems.append(f"matched thorns {a}, {b} have equal colors")
            if colors[a[0]] != "w":
                problems.append(f"matching pair {(a, b)} does not list the white thorn first")
    if seen != thorns:
        problems.append("thorn matching does not cover every thorn")

    # Loop balance: loops(v) = incoming arrows + loops named after v.
    for v in range(V):
        loops = len(ends[v])
        if loops != arrows_in[v] + greek_named[v]:
            problems.append(
                f"vertex {v} has {loops} loops but "
                f"{arrows_in[v]} arrows + {greek_named[v]} named loops"
            )

    # Edges plus arrows must form a single tree rooted at the seed; a walk
    # stops at a vertex already known to reach it.
    link: dict[int, int] = dict(parent)
    for v, k in arrow.items():
        if (v, k) in attr:
            link[v] = attr[(v, k)][1]
    reached = {seed}
    for v in range(V):
        if v in reached:
            continue
        trail: list[int] = []
        x = v
        while x not in reached:
            if x in trail:
                problems.append(f"edge/arrow structure has a cycle through vertex {v}")
                break
            trail.append(x)
            if x not in link:
                problems.append(f"vertex {x} is not connected to the seed root")
                break
            x = link[x]
        else:
            reached.update(trail)

    return problems, (parent, edges, ends, attr)


def _structure_key(f: Forest, v: int, keys: dict[int, tuple]) -> tuple:
    """The shape key of the subtree at ``v``, ignoring cross references,
    memoized in ``keys``.  A module-level recursion, so that no call
    leaves a reference cycle behind."""
    if v not in keys:
        row = [(EDGE, _structure_key(f, s[1], keys)) if s[0] == EDGE else s for s in f.slots[v]]
        keys[v] = (f.colors[v], tuple(row))
    return keys[v]


def _order_key(f: Forest) -> tuple:
    """The order of forests: the canonical labeling is the least relabeling
    in it, and :func:`enumerate_forests` lists its forests in it."""
    return (f.colors, f.slots, f.loop_attr, f.matching)


def _relabel(f: Forest, order: Sequence[int]) -> Forest:
    """Renumber vertex ``order[i]`` as ``i``; the seed must come first."""
    rank = _inverse(order)  # rank[order[i]] == i
    rows = f.slots
    slots = [tuple([(EDGE, rank[s[1]]) if s[0] == EDGE else s for s in rows[v]]) for v in order]
    attr = sorted([(rank[v], k, kind, rank[t]) for v, k, kind, t in f.loop_attr])
    match = sorted([((rank[a], i), (rank[b], j)) for (a, i), (b, j) in f.matching])
    colors = tuple([f.colors[v] for v in order])
    return Forest(colors, tuple(slots), 0, tuple(attr), tuple(match))


def _depth_first(seed: int, roots: Sequence[int], children: Sequence[Sequence[int]]) -> list[int]:
    """The canonical vertex order: depth-first, children in slot order,
    over the seed tree and then over the trees of ``roots`` in turn."""
    acc: list[int] = []
    stack = [*reversed(roots), seed]
    while stack:
        v = stack.pop()
        acc.append(v)
        stack += reversed(children[v])
    return acc


def canonicalize(f: Forest) -> Forest:
    """Renumber vertices canonically: depth-first over the seed tree, then
    over the non-seed trees, minimizing over reorderings of trees with
    identical shapes (only cross references can distinguish those).
    The children (in slot order) and the non-seed roots (in vertex order)
    are read from ``f.slots``, so the labeling depends on the forest alone."""
    children = [[s[1] for s in row if s[0] == EDGE] for row in f.slots]
    below = {child for row in children for child in row}
    roots = [v for v in range(f.num_vertices) if v not in below and v != f.seed]
    keys: dict[int, tuple] = {}
    groups: dict[tuple, list[int]] = {}
    for v in roots:
        groups.setdefault(_structure_key(f, v, keys), []).append(v)
    candidates = itertools.product(*(itertools.permutations(groups[k]) for k in sorted(groups)))
    return min(
        (
            _relabel(f, _depth_first(f.seed, [*itertools.chain.from_iterable(perms)], children))
            for perms in candidates
        ),
        key=_order_key,
    )


def theta_forward(h: PartitionedHypermap) -> Forest:
    """Image of a partitioned hypermap: blocks become vertices, the matched
    pair of each non-seed block maximum becomes its parent edge or arrow,
    in-block pairs become loops, and the leftover mixed pairs become
    matched thorns.  Integer labels are erased: vertices are numbered in
    canonical order as they are built, and only a forest with two or more
    non-seed trees is handed to :func:`canonicalize` for its minimum."""
    problems = h.validate()
    if problems:
        raise ValueError("invalid partitioned hypermap: " + "; ".join(problems))
    n = h.f3.n
    f3 = h.f3.image
    W = len(h.pi1)
    V = W + len(h.pi2)

    # Per label: its white and black block, and the block whose slot it
    # names (non-hat labels on white blocks, hat on black).
    white_of = [0] * (2 * n)
    black_of = [0] * (2 * n)
    for v, block in enumerate(h.pi1):
        for x in block:
            white_of[x] = v
    for v, block in enumerate(h.pi2, W):
        for x in block:
            black_of[x] = v
    owner = white_of[:n] + black_of[n:]
    top = [0] * V
    for x, v in enumerate(owner):
        top[v] = x
    seed = white_of[0]
    is_root = [v == seed or (t < n) == (f3[t] < n) for v, t in enumerate(top)]

    # A non-root block hangs from the slot that f3 pairs with its top
    # label, so its parent's children come in slot order when sorted by
    # that label.  Vertex ``rank[v]`` is block ``v`` in canonical order.
    children: list[list[int]] = [[] for _ in range(V)]
    for x, u in sorted([(f3[t], u) for u, t in enumerate(top) if not is_root[u]]):
        v = owner[x]
        if x == top[v] and not is_root[v]:
            raise AssertionError("two vertices claim the same edge upward")
        children[v].append(u)
    roots = [v for v in range(V) if is_root[v] and v != seed]
    order = _depth_first(seed, roots, children)
    if len(order) != V:
        raise AssertionError("tree edges leave a vertex unreachable")
    rank = _inverse(order)  # rank[order[i]] == i

    # Each block's slots are its labels in increasing order, so one walk
    # over the labels appends them in place: loops are numbered by their
    # first extremity and children come in slot order.  A non-root's top
    # label, its last, is the implicit parent link.  ``pending`` holds
    # what the first label of a pair left for the second.
    rows: list[list[Slot]] = [[] for _ in range(V)]
    loops = [0] * V
    loop_attr: list[tuple[int, int, str, int]] = []
    matching: list[tuple[SlotRef, SlotRef]] = []
    pending: list = [None] * (2 * n)
    thorn = (THORN,)
    for x, y in enumerate(f3):
        v = owner[x]
        row = rows[v]
        if (x < n) == (y < n):
            if y < x:
                row.append(pending[x])
                continue
            if owner[y] != v:
                raise AssertionError("in-kind pair crosses blocks despite stability")
            slot = pending[y] = (LOOP, loops[v])
            kind = "arrow" if v != seed and is_root[v] and top[v] in (x, y) else "greek"
            target = (black_of if x < n else white_of)[x]
            loop_attr.append((rank[v], loops[v], kind, rank[target]))
            loops[v] += 1
            row.append(slot)
            continue
        u = owner[y]
        if x == top[v] and not is_root[v]:
            continue
        if y == top[u] and not is_root[u]:
            row.append((EDGE, rank[u]))
        elif y < x:
            ref = (rank[v], len(row))
            matching.append((ref, pending[x]) if x < n else (pending[x], ref))
            row.append(thorn)
        else:
            pending[y] = (rank[v], len(row))
            row.append(thorn)

    loop_attr.sort()
    matching.sort()
    colors = tuple(["w" if v < W else "b" for v in order])
    slots = tuple([tuple(rows[v]) for v in order])
    forest = Forest(colors, slots, 0, tuple(loop_attr), tuple(matching))
    return forest if len(roots) < 2 else canonicalize(forest)


def theta_inverse(f: Forest) -> PartitionedHypermap:
    """Recover the unique partitioned hypermap mapping to ``f``.

    Label 1 sits on the seed root's leftmost slot; from the slot of a
    non-hat label the matching hat label occupies the leftmost unrecovered
    slot of the determined black vertex, and dually back.  An invalid
    forest raises :class:`MalformedForestError` with ``step`` 0; a replay
    failure (``step`` above 0) would mean that :func:`validate_forest`
    accepted a forest the replay cannot read.
    """
    problems, reading = _read_forest(f)
    if problems:
        raise MalformedForestError(0, "invalid forest: " + "; ".join(problems))
    parent, edges, ends, attr = reading
    V = f.num_vertices

    # The vertex each slot determines (None for an unmatched thorn), the
    # implicit parent slot last; and each pair of slots that f3 joins.
    nxt: list[list[int | None]] = [[None] * len(row) for row in f.slots]
    joined: list[tuple[int, int, int, int]] = []
    for v, idx, child in edges:  # an edge, joined to the child's parent slot
        nxt[v][idx] = child
        joined.append((v, idx, child, -1))
    for child, v in parent.items():
        nxt[child].append(v)
    for v, mine in enumerate(ends):
        for k, (i, j) in mine.items():
            nxt[v][i] = nxt[v][j] = attr[v, k][1]
            joined.append((v, i, v, j))
    for a, b in f.matching:
        nxt[a[0]][a[1]] = b[0]
        nxt[b[0]][b[1]] = a[0]
        joined.append((*a, *b))
    colors = f.colors
    n = sum([len(row) for row, color in zip(nxt, colors) if color == "w"])

    # Labels 1, 1^, 2, 2^, ... (0, n, 1, n + 1, ...), each on the leftmost
    # free slot of the vertex the slot before determines, so a vertex is
    # reached first at its least label; a failure is step max(i + hat, 1).
    labels: list[list[int]] = [[] for _ in range(V)]
    reached: list[int] = []
    v, idx = f.seed, -1
    for i in range(n):
        for x in (i, n + i):
            if idx >= 0:
                u = nxt[v][idx]
                if u is None:
                    raise MalformedForestError(
                        max(i + (x >= n), 1), f"unmatched thorn at {(v, idx)}")
                v = u
            row = labels[v]
            idx = len(row)
            if idx == len(nxt[v]):
                raise MalformedForestError(
                    max(i + (x >= n), 1), f"vertex {v} exhausted while placing label {x}")
            if not idx:
                reached.append(v)
            row.append(x)
    if nxt[v][idx] is None:
        raise MalformedForestError(n, f"unmatched thorn at {(v, idx)}")
    if len(reached) != V or list(map(len, labels)) != list(map(len, nxt)):
        raise MalformedForestError(n, "not all labels were recovered")

    image = [-1] * (2 * n)
    for v, i, u, j in joined:
        x, y = labels[v][i], labels[u][j]
        image[x], image[y] = y, x
    # Each block is its labels and their f1 (white) or f2 (black) images;
    # the order of reaching is the least-label order of the blocks.
    f1, f2 = canonical_f1(n).image, canonical_f2(n).image
    pi1: list[frozenset[int]] = []
    pi2: list[frozenset[int]] = []
    for v in reached:
        mine = labels[v]
        if colors[v] == "w":
            pi1.append(frozenset(mine + [f1[x] for x in mine]))
        else:
            pi2.append(frozenset(mine + [f2[x] for x in mine]))
    result = PartitionedHypermap(Pairing(n, tuple(image)), tuple(pi1), tuple(pi2))
    leftover = result.validate()
    if leftover:
        raise MalformedForestError(n, "recovered object invalid: " + "; ".join(leftover))
    return result


def forest_degree(f: Forest) -> ArrayTuple:
    """Tally vertices by (degree, loop count) into the degree arrays; a
    vertex is a root iff it has no parent edge.  One pass per row counts
    its loop extremities and marks its children."""
    below = [False] * f.num_vertices
    ends: list[int] = []
    for row in f.slots:
        k = 0
        for slot in row:
            if slot[0] == LOOP:
                k += 1
            elif slot[0] == EDGE:
                below[slot[1]] = True
        ends.append(k)
    profiles = [
        (color, not up, len(row) + up, k // 2)
        for color, row, up, k in zip(f.colors, f.slots, below, ends, strict=True)
    ]
    _, _, seed_degree, seed_loops = profiles.pop(f.seed)
    return ArrayTuple.from_vertices(seed_degree, seed_loops, profiles)


def enumerate_forests(a: ArrayTuple) -> list[Forest]:
    """Exhaustive list of the non-isomorphic forests with degree array ``a``.

    Brute force over one definition: vertices are generated
    distinguishable, and every candidate is kept iff :func:`validate_forest`
    accepts it.  A candidate pairs loop positions on each vertex (the last
    slot of a non-seed root holds a loop), places each internal vertex on a
    free slot of the other color, makes thorns of the slots left, sends
    each loop to a vertex of the other color (the maximal loop of a
    non-seed root by its arrow) and matches the thorns.  The survivors are
    deduplicated through the canonical labeling.
    """
    n = a.n
    if n > DEFAULT_FOREST_BOUND:
        raise BoundExceededError("forest enumeration", n, DEFAULT_FOREST_BOUND)
    problems = a.validate()
    if problems:
        raise ValueError("inconsistent degree array: " + "; ".join(problems))

    colors, roles, nslots, loops = zip(
        ("w", "seed", a.seed_degree, a.seed_loops),
        *((color, "root" if root else "internal", i - (not root), j)
          for color, root, i, j in a.vertices()),
    )
    V = len(colors)
    of_color = {c: [v for v in range(V) if colors[v] == c] for c in "wb"}
    opposite = [of_color["b" if c == "w" else "w"] for c in colors]
    internal = {c: [v for v in of_color[c] if roles[v] == "internal"] for c in "wb"}

    def layouts(v: int) -> Iterator[list[Slot | None]]:
        """Rows of ``v`` with its loops numbered by first extremity."""
        for pos in itertools.combinations(range(nslots[v]), 2 * loops[v]):
            if roles[v] == "root" and (not pos or pos[-1] != nslots[v] - 1):
                continue
            for image in iter_pairing_images(len(pos)):
                row: list[Slot | None] = [None] * nslots[v]
                ids = itertools.count()
                for i, j in enumerate(image):
                    if i < j:
                        row[pos[i]] = row[pos[j]] = (LOOP, next(ids))
                yield row

    def free(rows, color: str) -> list[SlotRef]:
        return [(v, i) for v in of_color[color] for i, s in enumerate(rows[v]) if s is None]

    found: set[Forest] = set()
    for rows in itertools.product(*(list(layouts(v)) for v in range(V))):
        kinds = [
            (v, k, "arrow" if roles[v] == "root" and k == rows[v][-1][1] else "greek")
            for v in range(V)
            for k in range(loops[v])
        ]
        for wplace in itertools.permutations(free(rows, "b"), len(internal["w"])):
            for bplace in itertools.permutations(free(rows, "w"), len(internal["b"])):
                slots = [list(row) for row in rows]
                for (v, i), child in zip(wplace + bplace, internal["w"] + internal["b"]):
                    slots[v][i] = (EDGE, child)
                white_thorns, black_thorns = free(slots, "w"), free(slots, "b")
                for v, i in white_thorns + black_thorns:
                    slots[v][i] = (THORN,)
                frozen = tuple(tuple(row) for row in slots)
                for targets in itertools.product(*(opposite[v] for v, _, _ in kinds)):
                    attr = tuple((v, k, kind, t) for (v, k, kind), t in zip(kinds, targets))
                    for tperm in itertools.permutations(black_thorns):
                        matching = tuple(zip(white_thorns, tperm))
                        forest = Forest(colors, frozen, 0, attr, matching)
                        if not validate_forest(forest):
                            found.add(canonicalize(forest))

    out = sorted(found, key=_order_key)
    for f in out:
        if forest_degree(f) != a:
            raise AssertionError("enumerated forest has the wrong degree array")
    return out


# ---------------------------------------------------------------------------
# Serialization


def _latin_names(count: int) -> list[str]:
    letters = string.ascii_lowercase
    return [letters[k % 26] + (str(k // 26) if k >= 26 else "") for k in range(count)]


def _thorn_labels(f: Forest) -> dict[SlotRef, str]:
    """Latin label of each thorn, shared within a matched pair, in the
    order of the matching."""
    label_of: dict[SlotRef, str] = {}
    for name, (a, b) in zip(_latin_names(len(f.matching)), f.matching):
        label_of[a] = name
        label_of[b] = name
    return label_of


def forest_to_json(f: Forest) -> dict:
    """JSON form: vertices with slots, loop attributions, thorn matching.

    Thorns carry latin labels (shared within a matched pair) for
    readability; the matching list is the authoritative encoding.
    """
    label_of = _thorn_labels(f)
    vertices = []
    for v in range(f.num_vertices):
        slots_json = []
        for i, slot in enumerate(f.slots[v]):
            if slot[0] == EDGE:
                slots_json.append({"kind": "edge", "child": slot[1]})
            elif slot[0] == LOOP:
                slots_json.append({"kind": "loop", "loop": slot[1]})
            else:
                slots_json.append({"kind": "thorn", "label": label_of[(v, i)]})
        color = "white" if f.colors[v] == "w" else "black"
        vertices.append({"id": v, "color": color, "slots": slots_json})
    return {
        "seed": f.seed,
        "vertices": vertices,
        "loops": [
            {"vertex": v, "loop": k, "kind": kind, "target": t}
            for v, k, kind, t in f.loop_attr
        ],
        "thorn_matching": [[list(a), list(b)] for a, b in f.matching],
    }


def forest_from_json(data) -> Forest:
    """Inverse of :func:`forest_to_json`.

    A record not of that shape raises ``ValueError``; a field that is not
    a JSON list (of objects, for ``vertices``, ``loops`` and each vertex's
    ``slots``) is named, and so is a number that is not an integer (a
    bool or a float compares equal to one), vertex ids included.  A
    record of that shape that breaks the forest
    rules is left to :func:`validate_forest`; the matching is sorted here
    with every entry kept, so a pair listed twice reaches it too.
    """

    def objects(listed, field: str, what: str) -> list:
        if not isinstance(listed, list) or not all(isinstance(x, dict) for x in listed):
            raise ValueError(f"{field} must be a list of {what} objects, got {listed!r}")
        return listed

    if not isinstance(data, dict) or not {"seed", "vertices"} <= data.keys():
        raise ValueError("a forest is a JSON object with 'seed' and 'vertices'")
    records = objects(data["vertices"], "forest 'vertices'", "vertex")
    loops = objects(data.get("loops", []), "forest 'loops'", "loop")
    refs = data.get("thorn_matching", [])
    if not isinstance(refs, list):
        raise ValueError(f"forest 'thorn_matching' must be a list of matched pairs, got {refs!r}")
    try:
        vertices = sorted(records, key=lambda rec: rec["id"])
        if [rec["id"] for rec in vertices] != list(range(len(vertices))):
            raise ValueError("vertex ids must be 0..V-1")
        codes = {"white": "w", "black": "b"}
        bad_color = next((rec for rec in vertices if rec["color"] not in codes), None)
        if bad_color is not None:
            raise ValueError(
                f"vertex {bad_color['id']} has color {bad_color['color']!r}, "
                "not 'white' or 'black'"
            )
        colors = tuple(codes[rec["color"]] for rec in vertices)
        slots = []
        for rec in vertices:
            row = []
            for slot in objects(rec["slots"], f"vertex {rec['id']} 'slots'", "slot"):
                kind = slot["kind"]
                if kind == "edge":
                    row.append((EDGE, slot["child"]))
                elif kind == "loop":
                    row.append((LOOP, slot["loop"]))
                elif kind == "thorn":
                    row.append((THORN,))
                else:
                    raise ValueError(f"unknown slot kind {kind!r}")
            slots.append(tuple(row))
        attr = tuple(
            sorted((rec["vertex"], rec["loop"], rec["kind"], rec["target"]) for rec in loops)
        )
        matching = [tuple(map(tuple, entry)) for entry in refs]
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed forest JSON: {type(err).__name__} {err}") from None
    numbers = [data["seed"], *(rec["id"] for rec in vertices)]
    numbers += [slot[1] for row in slots for slot in row if slot[0] != THORN]
    numbers += [x for v, k, _, t in attr for x in (v, k, t)]
    bad = [x for x in numbers if type(x) is not int]
    if bad:
        raise ValueError(f"malformed forest JSON: {bad[0]!r} is not an integer")
    for k, pair in enumerate(matching):
        if [len(ref) for ref in pair] != [2, 2] or any(type(x) is not int for x in sum(pair, ())):
            raise ValueError(
                f"malformed forest JSON: thorn_matching entry {k} "
                f"is not two [vertex, slot] pairs of integers: {refs[k]!r}"
            )
    return Forest(colors, tuple(slots), data["seed"], attr, tuple(sorted(matching)))


def forest_to_dot(f: Forest) -> str:
    """Graphviz rendering: solid tree edges, dashed arrows, dotted loop
    attributions, thorns as point stubs."""
    label_of = _thorn_labels(f)
    lines = ["digraph forest {", "  rankdir=TB;"]
    for v in range(f.num_vertices):
        fill = "white" if f.colors[v] == "w" else "gray20"
        font = "black" if f.colors[v] == "w" else "white"
        shape = "doublecircle" if v == f.seed else "circle"
        lines.append(
            f'  v{v} [label="{v}", shape={shape}, style=filled, '
            f"fillcolor={fill}, fontcolor={font}];"
        )
    for v in range(f.num_vertices):
        for i, slot in enumerate(f.slots[v]):
            if slot[0] == EDGE:
                lines.append(f"  v{v} -> v{slot[1]} [arrowhead=none];")
            elif slot[0] == THORN:
                name = label_of[(v, i)]
                lines.append(f'  t{v}_{i} [label="{name}", shape=plaintext];')
                lines.append(f"  v{v} -> t{v}_{i} [arrowhead=none, style=solid];")
    for v, k, kind, t in f.loop_attr:
        if kind == "arrow":
            lines.append(f"  v{v} -> v{t} [style=dashed];")
        else:
            lines.append(f'  v{v} -> v{t} [style=dotted, label="loop {k}"];')
    lines.append("}")
    return "\n".join(lines)
