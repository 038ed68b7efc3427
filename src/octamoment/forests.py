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

``theta_forward`` builds the forest of a partitioned hypermap; the white
(black) vertices are the blocks of pi1 (pi2) with their non-hat (hat)
labels laid out in increasing order, and the label structure is then
erased.  ``theta_inverse`` recovers the unique preimage by replaying the
labels: each next label must sit on the leftmost unrecovered slot of a
vertex that the current slot determines (matched thorn, attributed
vertex, arrow target, or edge endpoint).

``validate_forest`` is the one statement of the rules above.
``enumerate_forests``, the exhaustive oracle that the bijection is
checked against stratum by stratum, generates candidate forests of a
degree array and keeps those it accepts.

Forests are kept in a canonical labeling (vertices numbered by traversal
order, minimized over reorderings of identical non-seed trees), so
structural equality of :class:`Forest` values is isomorphism.
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

    ``slots[v]`` lists only the descendants of ``v``; the attachment of a
    non-root vertex to its parent is implicit (it is the rightmost slot of
    the vertex, which is how the labeled construction always places it).
    ``loop_attr`` holds one ``(vertex, loop, kind, target)`` per loop with
    ``kind`` either ``"greek"`` or ``"arrow"``.
    """

    colors: tuple[str, ...]
    slots: tuple[tuple[Slot, ...], ...]
    seed: int
    loop_attr: tuple[tuple[int, int, str, int], ...]
    matching: frozenset[tuple[SlotRef, SlotRef]]

    @property
    def num_vertices(self) -> int:
        return len(self.colors)

    def parent_map(self) -> dict[int, int]:
        parent: dict[int, int] = {}
        for v, slots in enumerate(self.slots):
            for slot in slots:
                if slot[0] == EDGE:
                    parent[slot[1]] = v
        return parent

    def loops_of(self, v: int) -> int:
        return sum(1 for slot in self.slots[v] if slot[0] == LOOP) // 2


def _full_slots(f: Forest) -> list[list[Slot]]:
    """Descendant slots plus the implicit rightmost parent slot."""
    parent = f.parent_map()
    full = [list(slots) for slots in f.slots]
    for child, par in parent.items():
        full[child].append((EDGE, par))
    return full


def validate_forest(f: Forest) -> list[str]:
    """All violations of the permuted-forest properties (empty iff valid)."""
    problems: list[str] = []
    V = f.num_vertices
    if not 0 <= f.seed < V:
        return [f"seed index {f.seed} out of range"]
    if f.colors[f.seed] != "w":
        problems.append("seed root is not white")
    if any(c not in ("w", "b") for c in f.colors):
        problems.append("vertex with unknown color")

    parent: dict[int, int] = {}
    for v, slots in enumerate(f.slots):
        for slot in slots:
            if slot[0] == EDGE:
                child = slot[1]
                if not 0 <= child < V:
                    problems.append(f"edge from {v} to unknown vertex {child}")
                    continue
                if f.colors[child] == f.colors[v]:
                    problems.append(f"edge {v} -> {child} joins equal colors")
                if child in parent:
                    problems.append(f"vertex {child} has two parents")
                parent[child] = v
    if f.seed in parent:
        problems.append("seed root has a parent edge")

    roots = [v for v in range(V) if v not in parent]
    non_seed_roots = [v for v in roots if v != f.seed]

    # Loop bookkeeping: ids occur exactly twice, numbered by first extremity.
    loops_of: dict[int, list[int]] = {}
    for v, slots in enumerate(f.slots):
        if not slots and v in roots:
            problems.append(f"root vertex {v} has degree 0")
        ids: list[int] = []
        count: dict[int, int] = {}
        for slot in slots:
            if slot[0] == LOOP:
                k = slot[1]
                count[k] = count.get(k, 0) + 1
                if k not in ids:
                    ids.append(k)
        if ids != list(range(len(ids))):
            problems.append(f"vertex {v} loop ids not in first-occurrence order")
        if any(c != 2 for c in count.values()):
            problems.append(f"vertex {v} has a loop without exactly two extremities")
        loops_of[v] = ids

    for v in non_seed_roots:
        slots = f.slots[v]
        if not slots or slots[-1][0] != LOOP:
            problems.append(f"non-seed root {v} lacks a rightmost descending loop")

    attr = {(v, k): (kind, target) for v, k, kind, target in f.loop_attr}
    if len(attr) != len(f.loop_attr):
        problems.append("duplicate loop attribution")
    arrows_in: dict[int, int] = {}
    greek_named: dict[int, int] = {}
    for v, ids in loops_of.items():
        maximal = (
            f.slots[v][-1][1]
            if v in non_seed_roots and f.slots[v] and f.slots[v][-1][0] == LOOP
            else None
        )
        for k in ids:
            if (v, k) not in attr:
                problems.append(f"loop {k} of vertex {v} has no attribution")
                continue
            kind, target = attr[(v, k)]
            if not 0 <= target < V or f.colors[target] == f.colors[v]:
                problems.append(f"loop {k} of vertex {v} attributed to a bad vertex")
                continue
            if v in non_seed_roots and k == maximal:
                if kind != "arrow":
                    problems.append(f"maximal loop of non-seed root {v} must carry the arrow")
                arrows_in[target] = arrows_in.get(target, 0) + 1
            else:
                if kind != "greek":
                    problems.append(f"non-maximal loop {k} of vertex {v} cannot carry an arrow")
                greek_named[target] = greek_named.get(target, 0) + 1
    extra = set(attr) - {(v, k) for v, ids in loops_of.items() for k in ids}
    if extra:
        problems.append(f"attributions for nonexistent loops: {sorted(extra)}")

    # Thorn matching is a bijection between the white and black thorns.
    thorns = {
        (v, i)
        for v, slots in enumerate(f.slots)
        for i, slot in enumerate(slots)
        if slot[0] == THORN
    }
    seen: set[SlotRef] = set()
    for a, b in f.matching:
        for ref in (a, b):
            if ref not in thorns:
                problems.append(f"matching entry {ref} is not a thorn")
            if ref in seen:
                problems.append(f"thorn {ref} matched twice")
            seen.add(ref)
        if a in thorns and b in thorns and {f.colors[a[0]], f.colors[b[0]]} != {"w", "b"}:
            problems.append(f"matched thorns {a}, {b} have equal colors")
        if a in thorns and f.colors[a[0]] != "w":
            problems.append(f"matching pair {(a, b)} does not list the white thorn first")
    if seen != thorns:
        problems.append("thorn matching does not cover every thorn")

    # Loop balance: loops(v) = incoming arrows + loops named after v.
    for v in range(V):
        loops = len(loops_of.get(v, []))
        if loops != arrows_in.get(v, 0) + greek_named.get(v, 0):
            problems.append(
                f"vertex {v} has {loops} loops but "
                f"{arrows_in.get(v, 0)} arrows + {greek_named.get(v, 0)} named loops"
            )

    # Edges plus arrows must form a single tree rooted at the seed.
    link: dict[int, int] = dict(parent)
    for v in non_seed_roots:
        slots = f.slots[v]
        if slots and slots[-1][0] == LOOP and (v, slots[-1][1]) in attr:
            link[v] = attr[(v, slots[-1][1])][1]
    for v in range(V):
        trail = set()
        x = v
        while x != f.seed:
            if x in trail:
                problems.append(f"edge/arrow structure has a cycle through vertex {v}")
                break
            trail.add(x)
            if x not in link:
                problems.append(f"vertex {x} is not connected to the seed root")
                break
            x = link[x]

    return problems


def _structure_keys(f: Forest) -> dict[int, tuple]:
    """Shape key of the subtree at each vertex, ignoring cross references."""
    keys: dict[int, tuple] = {}

    def rec(v: int) -> tuple:
        if v in keys:
            return keys[v]
        parts = []
        for slot in f.slots[v]:
            if slot[0] == EDGE:
                parts.append((EDGE, rec(slot[1])))
            else:
                parts.append(slot)
        keys[v] = (f.colors[v], tuple(parts))
        return keys[v]

    for v in range(f.num_vertices):
        rec(v)
    return keys


def _serialize(f: Forest, order: Sequence[int]):
    """Relabel by ``order`` and return (key, relabeled Forest)."""
    mapping = {old: new for new, old in enumerate(order)}
    colors = tuple(f.colors[v] for v in order)
    new_slots = []
    for v in order:
        row = []
        for slot in f.slots[v]:
            if slot[0] == EDGE:
                row.append((EDGE, mapping[slot[1]]))
            else:
                row.append(slot)
        new_slots.append(tuple(row))
    attr = tuple(
        sorted((mapping[v], k, kind, mapping[t]) for v, k, kind, t in f.loop_attr)
    )
    match = tuple(
        sorted(
            ((mapping[a[0]], a[1]), (mapping[b[0]], b[1])) for a, b in f.matching
        )
    )
    key = (colors, tuple(new_slots), attr, match)
    forest = Forest(colors, tuple(new_slots), 0, attr, frozenset(match))
    return key, forest


def canonicalize(f: Forest) -> Forest:
    """Renumber vertices canonically: depth-first over the seed tree, then
    over the non-seed trees, minimizing over reorderings of trees with
    identical shapes (only cross references can distinguish those)."""
    keys = _structure_keys(f)
    parent = f.parent_map()
    roots = [v for v in range(f.num_vertices) if v not in parent]
    non_seed = [v for v in roots if v != f.seed]

    def dfs(v: int, acc: list[int]) -> None:
        acc.append(v)
        for slot in f.slots[v]:
            if slot[0] == EDGE:
                dfs(slot[1], acc)

    groups: dict[tuple, list[int]] = {}
    for v in non_seed:
        groups.setdefault(keys[v], []).append(v)
    group_list = [groups[k] for k in sorted(groups)]

    best = None
    for perms in itertools.product(*(itertools.permutations(g) for g in group_list)):
        order: list[int] = []
        dfs(f.seed, order)
        for group in perms:
            for root in group:
                dfs(root, order)
        key, forest = _serialize(f, order)
        if best is None or key < best[0]:
            best = (key, forest)
    assert best is not None
    return best[1]


def _same_kind(x: int, y: int, n: int) -> bool:
    return (x < n) == (y < n)


def theta_forward(h: PartitionedHypermap) -> Forest:
    """Image of a partitioned hypermap: blocks become vertices, the matched
    pair of each non-seed block maximum becomes its parent edge or arrow,
    in-block pairs become loops, and the leftover mixed pairs become
    matched thorns.  Integer labels are erased at the end."""
    problems = h.validate()
    if problems:
        raise ValueError("invalid partitioned hypermap: " + "; ".join(problems))
    n = h.f3.n
    f3 = h.f3.image
    whites = list(h.pi1)
    blacks = list(h.pi2)
    V = len(whites) + len(blacks)
    colors = ["w"] * len(whites) + ["b"] * len(blacks)

    slot_labels = [sorted(x for x in block if x < n) for block in whites]
    slot_labels += [sorted(x for x in block if x >= n) for block in blacks]
    owner: dict[int, SlotRef] = {}
    for v, labels in enumerate(slot_labels):
        for idx, x in enumerate(labels):
            owner[x] = (v, idx)
    white_block_of: dict[int, int] = {}
    for v, block in enumerate(whites):
        for x in block:
            white_block_of[x] = v
    black_block_of: dict[int, int] = {}
    for v, block in enumerate(blacks):
        for x in block:
            black_block_of[x] = len(whites) + v

    seed = white_block_of[0]
    top = [labels[-1] for labels in slot_labels]
    is_root = [v == seed or _same_kind(top[v], f3[top[v]], n) for v in range(V)]

    full: list[list[Slot | None]] = [[None] * len(labels) for labels in slot_labels]
    loops: list[list[tuple[int, int, int, int]]] = [[] for _ in range(V)]  # pos, pos, elem, elem
    matching: set[tuple[SlotRef, SlotRef]] = set()

    for x, y in h.f3.pairs():
        vx, ix = owner[x]
        vy, iy = owner[y]
        if _same_kind(x, y, n):
            if vx != vy:
                raise AssertionError("in-kind pair crosses blocks despite stability")
            loops[vx].append((min(ix, iy), max(ix, iy), x, y))
            continue
        child = None
        if not is_root[vx] and x == top[vx]:
            child = vx
        if not is_root[vy] and y == top[vy]:
            if child is not None:
                raise AssertionError("two vertices claim the same edge upward")
            child = vy
        if child is vx:
            full[vy][iy] = (EDGE, vx)
            full[vx][ix] = ("parent",)
        elif child is vy:
            full[vx][ix] = (EDGE, vy)
            full[vy][iy] = ("parent",)
        else:
            full[vx][ix] = (THORN,)
            full[vy][iy] = (THORN,)
            white_ref = (vx, ix) if colors[vx] == "w" else (vy, iy)
            black_ref = (vy, iy) if colors[vx] == "w" else (vx, ix)
            matching.add((white_ref, black_ref))

    loop_attr: list[tuple[int, int, str, int]] = []
    for v in range(V):
        loops[v].sort()
        for loop_id, (pos_a, pos_b, x, y) in enumerate(loops[v]):
            full[v][pos_a] = (LOOP, loop_id)
            full[v][pos_b] = (LOOP, loop_id)
            if colors[v] == "w":
                target = black_block_of[x]
            else:
                target = white_block_of[x]
            kind = (
                "arrow"
                if v != seed and is_root[v] and top[v] in (x, y)
                else "greek"
            )
            loop_attr.append((v, loop_id, kind, target))

    slots: list[tuple[Slot, ...]] = []
    for v in range(V):
        row = full[v]
        if not is_root[v]:
            if row[-1] != ("parent",):
                raise AssertionError("parent link is not the rightmost slot")
            row = row[:-1]
        if any(slot is None or slot == ("parent",) for slot in row):
            raise AssertionError("unclassified slot left behind")
        slots.append(tuple(row))

    forest = Forest(
        tuple(colors),
        tuple(slots),
        seed,
        tuple(sorted(loop_attr)),
        frozenset(matching),
    )
    return canonicalize(forest)


def theta_inverse(f: Forest) -> PartitionedHypermap:
    """Recover the unique partitioned hypermap mapping to ``f``.

    Label 1 sits on the seed root's leftmost slot; from the slot of a
    non-hat label the matching hat label occupies the leftmost unrecovered
    slot of the determined black vertex, and dually back.  An invalid
    forest raises :class:`MalformedForestError` with ``step`` 0; a replay
    failure (``step`` above 0) would mean that :func:`validate_forest`
    accepted a forest the replay cannot read.
    """
    problems = validate_forest(f)
    if problems:
        raise MalformedForestError(0, "invalid forest: " + "; ".join(problems))
    V = f.num_vertices
    full = _full_slots(f)
    degree = [len(row) for row in full]
    n = sum(degree[v] for v in range(V) if f.colors[v] == "w")

    partner: dict[SlotRef, SlotRef] = {}
    for a, b in f.matching:
        partner[a] = b
        partner[b] = a
    attr = {(v, k): (kind, t) for v, k, kind, t in f.loop_attr}

    labels: list[list[int | None]] = [[None] * degree[v] for v in range(V)]
    cursor = [0] * V

    def place(v: int, x: int, step: int) -> int:
        idx = cursor[v]
        if idx >= degree[v]:
            raise MalformedForestError(
                step, f"vertex {v} exhausted while placing label {x}"
            )
        labels[v][idx] = x
        cursor[v] += 1
        return idx

    def next_vertex(v: int, idx: int, step: int) -> int:
        slot = full[v][idx]
        if slot[0] == THORN:
            ref = (v, idx)
            if ref not in partner:
                raise MalformedForestError(step, f"unmatched thorn at {ref}")
            return partner[ref][0]
        if slot[0] == LOOP:
            return attr[(v, slot[1])][1]
        return slot[1]

    place(f.seed, 0, 1)
    white_pos: SlotRef = (f.seed, 0)
    for i in range(1, n + 1):
        wv, wi = white_pos
        bv = next_vertex(wv, wi, i)
        bi = place(bv, n + i - 1, i)
        next_white = next_vertex(bv, bi, i)
        if i == n:
            if any(cursor[v] != degree[v] for v in range(V)):
                raise MalformedForestError(i, "not all labels were recovered")
            break
        wi2 = place(next_white, i, i)
        white_pos = (next_white, wi2)

    pairs: list[tuple[int, int]] = []
    for v in range(V):
        by_loop: dict[int, list[int]] = {}
        for idx, slot in enumerate(f.slots[v]):
            if slot[0] == LOOP:
                by_loop.setdefault(slot[1], []).append(idx)
        for positions in by_loop.values():
            pairs.append((labels[v][positions[0]], labels[v][positions[1]]))
    parent = f.parent_map()
    for child, par in parent.items():
        child_label = labels[child][degree[child] - 1]
        idx = next(
            i for i, slot in enumerate(f.slots[par]) if slot == (EDGE, child)
        )
        pairs.append((labels[par][idx], child_label))
    for a, b in f.matching:
        pairs.append((labels[a[0]][a[1]], labels[b[0]][b[1]]))

    f1 = canonical_f1(n).image
    f2 = canonical_f2(n).image
    pi1 = []
    pi2 = []
    for v in range(V):
        mine = [x for x in labels[v] if x is not None]
        if f.colors[v] == "w":
            pi1.append(frozenset(mine) | frozenset(f1[x] for x in mine))
        else:
            pi2.append(frozenset(mine) | frozenset(f2[x] for x in mine))
    result = PartitionedHypermap.make(Pairing.from_pairs(n, pairs), pi1, pi2)
    leftover = result.validate()
    if leftover:
        raise MalformedForestError(n, "recovered object invalid: " + "; ".join(leftover))
    return result


def forest_degree(f: Forest) -> ArrayTuple:
    """Tally vertices by (degree, loop count) into the degree arrays; a
    vertex is a root iff it has no parent edge."""
    parent = f.parent_map()
    profiles = [
        (f.colors[v], v not in parent, len(f.slots[v]) + (v in parent), f.loops_of(v))
        for v in range(f.num_vertices)
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
                        matching = frozenset(zip(white_thorns, tperm))
                        forest = Forest(colors, frozen, 0, attr, matching)
                        if not validate_forest(forest):
                            found.add(canonicalize(forest))

    out = sorted(found, key=lambda f: (f.colors, f.slots, f.loop_attr, sorted(f.matching)))
    for f in out:
        if forest_degree(f) != a:
            raise AssertionError("enumerated forest has the wrong degree array")
    return out


# ---------------------------------------------------------------------------
# Serialization


def _latin_names(count: int) -> list[str]:
    letters = string.ascii_lowercase
    names = []
    k = 0
    while len(names) < count:
        q, r = divmod(k, 26)
        names.append(letters[r] + (str(q) if q else ""))
        k += 1
    return names


def _thorn_labels(f: Forest) -> dict[SlotRef, str]:
    """Latin label of each thorn, shared within a matched pair, in the
    order of the sorted matching."""
    label_of: dict[SlotRef, str] = {}
    for name, (a, b) in zip(_latin_names(len(f.matching)), sorted(f.matching)):
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
        vertices.append(
            {
                "id": v,
                "color": "white" if f.colors[v] == "w" else "black",
                "slots": slots_json,
            }
        )
    return {
        "seed": f.seed,
        "vertices": vertices,
        "loops": [
            {"vertex": v, "loop": k, "kind": kind, "target": t}
            for v, k, kind, t in f.loop_attr
        ],
        "thorn_matching": [[list(a), list(b)] for a, b in sorted(f.matching)],
    }


def forest_from_json(data) -> Forest:
    """Inverse of :func:`forest_to_json`.

    A record not of that shape raises ``ValueError``; a record of that
    shape that breaks the forest rules is left to :func:`validate_forest`.
    """
    if not isinstance(data, dict) or not {"seed", "vertices"} <= data.keys():
        raise ValueError("a forest is a JSON object with 'seed' and 'vertices'")
    try:
        vertices = sorted(data["vertices"], key=lambda rec: rec["id"])
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
            for slot in rec["slots"]:
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
            sorted(
                (rec["vertex"], rec["loop"], rec["kind"], rec["target"])
                for rec in data.get("loops", [])
            )
        )
        matching = frozenset(
            (tuple(a), tuple(b)) for a, b in data.get("thorn_matching", [])
        )
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed forest JSON: {type(err).__name__} {err}") from None
    numbers = [data["seed"], *(slot[1] for row in slots for slot in row if slot[0] != THORN)]
    numbers += [x for v, k, _, t in attr for x in (v, k, t)]
    bad = [x for x in numbers if type(x) is not int]
    if bad:
        raise ValueError(f"malformed forest JSON: {bad[0]!r} is not an integer")
    return Forest(colors, tuple(slots), data["seed"], attr, matching)


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
                lines.append(
                    f'  t{v}_{i} [label="{name}", shape=plaintext];'
                )
                lines.append(f"  v{v} -> t{v}_{i} [arrowhead=none, style=solid];")
    for v, k, kind, t in f.loop_attr:
        if kind == "arrow":
            lines.append(f"  v{v} -> v{t} [style=dashed];")
        else:
            lines.append(f'  v{v} -> v{t} [style=dotted, label="loop {k}"];')
    lines.append("}")
    return "\n".join(lines)
