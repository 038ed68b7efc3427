"""Degree-array tuples indexing the strata of the closed-form sums.

A stratum is a 4-tuple of sparse 2-d arrays together with the seed data
``(i0, j0)``.  Cells are keyed ``(i, j)`` where ``i >= 1`` is a vertex
degree (half block size) and ``j >= 0`` a loop count:

* ``white[i, j]``       non-root white vertices (blocks whose maximum
                        non-hat element is matched to a hat element),
* ``white_root[i, j]``  white roots other than the seed (maximum non-hat
                        matched to a non-hat, so they carry a loop),
* ``black[i, j]``       non-root black vertices (maximum hat -> non-hat),
* ``black_root[i, j]``  black roots (maximum hat -> hat),

with ``j`` counting the same-kind matched pairs inside the block.  The
seed block (the one holding label 1) contributes ``(i0, j0)`` instead of
an array cell.

A cell entry counts the non-seed vertices of one profile ``(color, root,
i, j)``; :meth:`ArrayTuple.vertices` and :meth:`ArrayTuple.from_vertices`
are the one translation between profiles and the four fields.

A stratum is a white side ``(i0, j0, white, white_root)`` paired with a
black side ``(black, black_root)`` of the same loop weight ``r``.
:func:`white_sides` and :func:`black_sides` are the one side table: each
is memoized per partition and returns read-only tuples, one per ``r``, so
every stratum reader (:func:`enumerate_M`, the stratum walk of ``verify``,
the real assembly and the flagged-strata walk of ``closedform``) shares
them, and :meth:`ArrayTuple.from_sides` builds a stratum from its two
sides.  :func:`enumerate_M` lists the strata of each ``(lam, mu, r)``.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import factorial, prod

from .partitions import Partition

__all__ = [
    "Cells",
    "ArrayTuple",
    "cells_of",
    "white_sides",
    "black_sides",
    "enumerate_M",
]

# Sparse nonnegative 2-d array: sorted ((i, j, count), ...) with count >= 1.
Cells = tuple[tuple[int, int, int], ...]

# A non-seed vertex: (color, root, degree i, loop count j).
Profile = tuple[str, bool, int, int]

# The two halves of a stratum: (i0, j0, white, white_root) and (black, black_root).
WhiteSide = tuple[int, int, Cells, Cells]
BlackSide = tuple[Cells, Cells]

# The (color, root) kind of each ArrayTuple field, in field order.
_KINDS = (("w", False), ("w", True), ("b", False), ("b", True))
_FIELD = {kind: k for k, kind in enumerate(_KINDS)}


def cells_of(entries: Iterable[tuple[int, int, int]]) -> Cells:
    """Normalize an (i, j, count) iterable: drop the zero counts and sort."""
    items = [(i, j, c) for (i, j, c) in entries if c]
    for i, j, c in items:
        if i < 1 or j < 0 or c < 0:
            raise ValueError(f"bad cell ({i}, {j}, {c})")
    return tuple(sorted(items))


def _size(cells: Cells) -> int:
    return sum(c for _, _, c in cells)


def _weight(cells: Cells) -> int:
    return sum(j * c for _, j, c in cells)


def _fact(cells: Cells) -> int:
    return prod(factorial(c) for _, _, c in cells)


@dataclass(frozen=True)
class ArrayTuple:
    """One stratum of the closed formula / one degree profile of a forest."""

    white: Cells
    white_root: Cells
    black: Cells
    black_root: Cells
    seed_degree: int
    seed_loops: int

    @classmethod
    def from_vertices(cls, seed_degree: int, seed_loops: int, vertices: Iterable[Profile]):
        """Tally the profiles of the non-seed vertices into the four fields,
        sorted once; a bad cell is reported as :func:`cells_of` reports it."""
        tally: dict[Profile, int] = {}
        for profile in vertices:
            tally[profile] = tally.get(profile, 0) + 1
        fields: tuple[list, ...] = ([], [], [], [])
        for (color, root, i, j), c in sorted(tally.items()):
            if i < 1 or j < 0:
                for kind in _KINDS:
                    cells_of([(i, j, c) for (*k, i, j), c in tally.items() if tuple(k) == kind])
            fields[_FIELD[color, root]].append((i, j, c))
        return cls(*map(tuple, fields), seed_degree, seed_loops)

    @classmethod
    def from_sides(cls, white_side: WhiteSide, black_side: BlackSide):
        """The stratum of a white side and a black side (:func:`white_sides`,
        :func:`black_sides`): the one place a stratum is built from its sides."""
        i0, j0, white, white_root = white_side
        return cls(white, white_root, *black_side, i0, j0)

    def vertices(self) -> Iterator[Profile]:
        """The profile of every non-seed vertex, in field order."""
        fields = (self.white, self.white_root, self.black, self.black_root)
        for (color, root), cells in zip(_KINDS, fields):
            for i, j, c in cells:
                for _ in range(c):
                    yield color, root, i, j

    # Entry sums; these are the p, p', q, q' of the closed formulas.
    @property
    def num_white(self) -> int:
        return _size(self.white)

    @property
    def num_white_root(self) -> int:
        return _size(self.white_root)

    @property
    def num_black(self) -> int:
        return _size(self.black)

    @property
    def num_black_root(self) -> int:
        return _size(self.black_root)

    @property
    def loop_pairs(self) -> int:
        """The r statistic: total same-kind matched pairs on either side."""
        return _weight(self.black) + _weight(self.black_root)

    @property
    def n(self) -> int:
        return sum(i * c for i, _, c in self.black + self.black_root)

    def factorial_product(self) -> int:
        """Product of the factorials of all cell entries."""
        return _fact(self.white + self.white_root + self.black + self.black_root)

    def white_type(self) -> Partition:
        parts = [self.seed_degree]
        for i, _, c in self.white + self.white_root:
            parts.extend([i] * c)
        return Partition(parts)

    def black_type(self) -> Partition:
        parts: list[int] = []
        for i, _, c in self.black + self.black_root:
            parts.extend([i] * c)
        return Partition(parts)

    def validate(self) -> list[str]:
        problems = []
        white_weight = self.seed_loops + _weight(self.white) + _weight(self.white_root)
        if white_weight != self.loop_pairs:
            problems.append(
                f"loop pairs disagree between sides: {white_weight} != {self.loop_pairs}"
            )
        if self.white_type().n != self.black_type().n:
            problems.append("white and black degree sums differ")
        for name, cells in (("white_root", self.white_root), ("black_root", self.black_root)):
            if any(j < 1 for _, j, _ in cells):
                problems.append(f"{name} cell with no loop")
        if 2 * self.seed_loops > self.seed_degree:
            problems.append("seed loops exceed half the seed degree")
        return problems

    def __str__(self) -> str:
        def side(cells: Cells) -> str:
            return "+".join(f"E({i},{j})" + (f"x{c}" if c > 1 else "") for i, j, c in cells) or "0"

        return (
            f"P={side(self.white)} P'={side(self.white_root)} "
            f"Q={side(self.black)} Q'={side(self.black_root)} "
            f"i0={self.seed_degree} j0={self.seed_loops}"
        )

    def to_json(self) -> dict:
        return {
            "white": [list(t) for t in self.white],
            "white_root": [list(t) for t in self.white_root],
            "black": [list(t) for t in self.black],
            "black_root": [list(t) for t in self.black_root],
            "seed_degree": self.seed_degree,
            "seed_loops": self.seed_loops,
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


def _size_sides(i: int, count: int) -> list[tuple[Cells, Cells, int]]:
    """Every distribution of ``count`` blocks of half-size ``i`` over the
    non-root cells ``0 <= j <= (i-1)//2`` (the maximum element needs a
    mixed pair) and the root cells ``1 <= j <= i//2``, as (non-root cells,
    root cells, j-weight), in lexicographic order of the cell counts: the
    reverse of the order of the sorted multisets of cells."""
    cells = [(False, j) for j in range((i - 1) // 2 + 1)]
    cells += [(True, j) for j in range(1, i // 2 + 1)]
    out = []
    for choice in reversed(list(combinations_with_replacement(cells, count))):
        filled = Counter(choice)
        nonroot = tuple((i, j, c) for (root, j), c in filled.items() if not root)
        roots = tuple((i, j, c) for (root, j), c in filled.items() if root)
        out.append((nonroot, roots, sum(j for _, j in choice)))
    return out


@lru_cache(maxsize=None)
def _sides(mult: tuple[tuple[int, int], ...]) -> tuple[tuple[Cells, Cells, int], ...]:
    """Every (non-root cells, root cells, j-weight) distribution of the
    blocks with the sorted multiplicity items ``mult``: the product of the
    per-size distributions, sizes ascending.  Memoized on ``mult`` alone,
    so the black table of a partition and every white table whose other
    blocks are that partition, one order higher or more, read one list."""
    return tuple(
        (sum((s[0] for s in sides), ()), sum((s[1] for s in sides), ()), sum(s[2] for s in sides))
        for sides in product(*(_size_sides(i, c) for i, c in mult))
    )


@lru_cache(maxsize=None)
def white_sides(lam: Partition) -> tuple[tuple[WhiteSide, ...], ...]:
    """The white side table of ``lam``: every white side ``(i0, j0, white,
    white_root)`` of a stratum with white type ``lam``, at its loop weight.
    Tuple ``r <= n//2`` holds the sides with ``r`` same-kind pairs in
    stratum order, seed degree ``i0`` ascending, then the sides of the
    other blocks in :func:`_sides` order.  A side of the other blocks of
    weight ``w`` is listed at every ``w + j0``, ``0 <= j0 <= i0//2``.
    Memoized per partition and read-only, so every stratum reader shares
    one table."""
    mult = sorted(lam.multiplicities().items())
    out: list[list[WhiteSide]] = [[] for _ in range(lam.n // 2 + 1)]
    for i0, _ in mult:
        rest = tuple((i, c - (i == i0)) for i, c in mult if (i, c) != (i0, 1))
        for white, white_root, w in _sides(rest):
            for j0 in range(i0 // 2 + 1):
                out[w + j0].append((i0, j0, white, white_root))
    return tuple(map(tuple, out))


@lru_cache(maxsize=None)
def black_sides(mu: Partition) -> tuple[tuple[BlackSide, ...], ...]:
    """The black side table of ``mu``: every black side ``(black,
    black_root)`` of a stratum with black type ``mu``, at its loop weight.
    Tuple ``r <= n//2`` holds the sides of weight ``r``, in stratum order.
    Memoized per partition and read-only, like :func:`white_sides`."""
    out: list[list[BlackSide]] = [[] for _ in range(mu.n // 2 + 1)]
    for black, black_root, r in _sides(tuple(sorted(mu.multiplicities().items()))):
        out[r].append((black, black_root))
    return tuple(map(tuple, out))


def enumerate_M(lam: Partition, mu: Partition, r: int) -> list[ArrayTuple]:
    """All strata for white type ``lam``, black type ``mu`` and ``r``
    same-kind pairs: every black side with every white side; none if ``r > n//2``.

    Cells whose binomial weight in the counting formula vanishes are never
    generated: ``j <= (i-1)//2`` for non-root cells, ``1 <= j``,
    ``2j-1 <= i-1`` for root cells, and ``2*j0 <= i0`` for the seed.
    """
    if lam.n != mu.n:
        raise ValueError("lam and mu must partition the same n")
    if r < 0:
        raise ValueError("r must be >= 0")
    if r > lam.n // 2:
        return []
    whites, stratum = white_sides(lam)[r], ArrayTuple.from_sides
    return [stratum(white, black) for black in black_sides(mu)[r] for white in whites]
