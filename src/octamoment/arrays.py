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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, Mapping

from .partitions import Partition

__all__ = [
    "Cells",
    "ArrayTuple",
    "elementary",
    "cells_of",
    "white_sides",
    "black_sides",
    "enumerate_M",
]

# Sparse nonnegative 2-d array: sorted ((i, j, count), ...) with count >= 1.
Cells = tuple[tuple[int, int, int], ...]


def cells_of(entries: Mapping[tuple[int, int], int] | Iterable[tuple[int, int, int]]) -> Cells:
    """Normalize a {(i, j): count} mapping or (i, j, count) iterable."""
    if isinstance(entries, Mapping):
        items = [(i, j, c) for (i, j), c in entries.items() if c]
    else:
        items = [(i, j, c) for (i, j, c) in entries if c]
    for i, j, c in items:
        if i < 1 or j < 0 or c < 0:
            raise ValueError(f"bad cell ({i}, {j}, {c})")
    return tuple(sorted(items))


def elementary(i: int, j: int) -> Cells:
    """The elementary array with a single 1 at position (i, j)."""
    return cells_of([(i, j, 1)])


def _size(cells: Cells) -> int:
    return sum(c for _, _, c in cells)


def _weight(cells: Cells) -> int:
    return sum(j * c for _, j, c in cells)


def _fact(cells: Cells) -> int:
    prod = 1
    for _, _, c in cells:
        prod *= factorial(c)
    return prod


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
    def make(cls, white=(), white_root=(), black=(), black_root=(), seed_degree=1, seed_loops=0):
        return cls(
            cells_of(dict(white) if isinstance(white, Mapping) else white),
            cells_of(dict(white_root) if isinstance(white_root, Mapping) else white_root),
            cells_of(dict(black) if isinstance(black, Mapping) else black),
            cells_of(dict(black_root) if isinstance(black_root, Mapping) else black_root),
            seed_degree,
            seed_loops,
        )

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
        return sum(i * c for i, _, c in self.black) + sum(
            i * c for i, _, c in self.black_root
        )

    def factorial_product(self) -> int:
        """Product of the factorials of all cell entries."""
        return (
            _fact(self.white)
            * _fact(self.white_root)
            * _fact(self.black)
            * _fact(self.black_root)
        )

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
            if not cells:
                return "0"
            return "+".join(
                f"E({i},{j})" + (f"x{c}" if c > 1 else "") for i, j, c in cells
            )

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

    @classmethod
    def from_json(cls, data: Mapping) -> "ArrayTuple":
        return cls.make(
            white=[tuple(t) for t in data.get("white", [])],
            white_root=[tuple(t) for t in data.get("white_root", [])],
            black=[tuple(t) for t in data.get("black", [])],
            black_root=[tuple(t) for t in data.get("black_root", [])],
            seed_degree=data["seed_degree"],
            seed_loops=data["seed_loops"],
        )

    def serialize(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


def _side_distributions(mult: Mapping[int, int], budget: int) -> Iterator[tuple[dict, dict, int]]:
    """Distribute block multiplicities over (non-root, root) cells.

    For half-size ``i``, non-root cells allow ``0 <= j <= (i-1)//2`` (the
    maximum element needs a mixed pair) and root cells allow
    ``1 <= j <= i//2``.  Yields (non-root cells, root cells, total j-weight),
    with the weight capped by ``budget``.
    """
    sizes = sorted(mult)

    def rec(idx: int, weight: int, nonroot: dict, root: dict):
        if idx == len(sizes):
            yield dict(nonroot), dict(root), weight
            return
        i = sizes[idx]
        count = mult[i]
        options = [("nr", j) for j in range((i - 1) // 2 + 1)] + [
            ("r", j) for j in range(1, i // 2 + 1)
        ]

        def place(opt_idx: int, left: int, w: int):
            if w > budget:
                return
            if opt_idx == len(options):
                if left == 0:
                    yield from rec(idx + 1, w, nonroot, root)
                return
            kind, j = options[opt_idx]
            target = nonroot if kind == "nr" else root
            for c in range(left + 1):
                if c:
                    target[(i, j)] = c
                yield from place(opt_idx + 1, left - c, w + j * c)
            target.pop((i, j), None)

        yield from place(0, count, weight)

    yield from rec(0, 0, {}, {})


@lru_cache(maxsize=None)
def _sides(mult: tuple[tuple[int, int], ...], budget: int) -> tuple[tuple[Cells, Cells, int], ...]:
    """:func:`_side_distributions` of the sorted multiplicity items ``mult``
    with root cells carrying a loop, as normalized (non-root, root, weight)
    cells.  Memoized: one side serves every stratum it appears in."""
    return tuple(
        (cells_of(nonroot), cells_of(root), weight)
        for nonroot, root, weight in _side_distributions(dict(mult), budget)
    )


def white_sides(lam: Partition, r: int) -> list[tuple[int, int, Cells, Cells]]:
    """Every white side ``(i0, j0, white, white_root)`` of a stratum with
    white type ``lam`` and ``r`` same-kind pairs, in stratum order: seed
    degree ``i0`` ascending, then the cell distributions of the rest."""
    lam_mult = lam.multiplicities()
    out = []
    for i0 in sorted(lam_mult):
        reduced = dict(lam_mult)
        reduced[i0] -= 1
        rest = tuple(sorted((i, c) for i, c in reduced.items() if c))
        for white, white_root, wp in _sides(rest, r):
            j0 = r - wp
            if j0 >= 0 and 2 * j0 <= i0:
                out.append((i0, j0, white, white_root))
    return out


def black_sides(mu: Partition, r: int) -> list[tuple[Cells, Cells]]:
    """Every black side ``(black, black_root)`` of a stratum with black
    type ``mu`` and exactly ``r`` same-kind pairs, in stratum order."""
    return [
        (black, black_root)
        for black, black_root, wq in _sides(tuple(sorted(mu.multiplicities().items())), r)
        if wq == r
    ]


def enumerate_M(lam: Partition, mu: Partition, r: int) -> list[ArrayTuple]:
    """All strata for white type ``lam``, black type ``mu`` and ``r``
    same-kind pairs: every black side with every white side.

    Cells whose binomial weight in the counting formula vanishes are never
    generated: ``j <= (i-1)//2`` for non-root cells, ``1 <= j``,
    ``2j-1 <= i-1`` for root cells, and ``2*j0 <= i0`` for the seed.
    """
    if lam.n != mu.n:
        raise ValueError("lam and mu must partition the same n")
    if r < 0:
        raise ValueError("r must be >= 0")
    whites = white_sides(lam, r)
    return [
        ArrayTuple(white, white_root, black, black_root, i0, j0)
        for black, black_root in black_sides(mu, r)
        for i0, j0, white, white_root in whites
    ]
