"""Ground-truth enumeration oracles for unicellular locally orientable
hypermaps.

A rooted hypermap with ``n`` edges is encoded by three perfect pairings
(fixed-point-free involutions) of the half-edge labels
``{1..n} ∪ {1^..n^}``: ``f1`` walks around white vertices, ``f2`` around
black vertices, and ``f3`` matches the two halves of each edge.  With the
canonical ``f1``, ``f2`` below the face structure is a single 2n-gon, so
every pairing ``f3`` yields a unicellular hypermap.

Internally half edges are the integers ``0..2n-1``: label ``i`` is
``i - 1`` and the hat label ``i^`` is ``n + i - 1``.

Every oracle table is a cached read-only mapping from its key to an
integer count: :func:`L_table` and :func:`lp_table` keyed (white type,
black type, r), :func:`lp_by_array` keyed by degree array, and
:func:`class_connection_table` and :func:`double_coset_table` keyed
(type, type).  :func:`by_pair` is the one sum over r and the one slice at
r = 0; the double-coset coefficients (:func:`b_from_L`), the
class-algebra coefficients (:func:`c_from_L`) and both oracle series are
its views.  The power-sum series (:func:`pairing_power_sum_series`)
reads the pairing table; the monomial series
(:func:`oracle_monomial_expansion`) reads its one p -> m refinement,
:func:`lp_from_pairings`.  :func:`L_table` walks every pairing, keeps
the closed vertices of each side as one integer code and tallies the
last two pairs of each pairing in place; it and
:func:`class_connection_table` build each distinct type once, at the end.

The partitioned tables :func:`lp_table` and :func:`lp_by_array` come from
one walk over every pairing f3: the white blocks are any union of the
orbits of <f1, f3> and the black blocks any union of the orbits of
<f2, f3>, chosen independently, so the walk tallies every grouping of
each side once and combines the two sides by count.
:func:`iter_partitioned_hypermaps` builds the same objects one by one
from the same walk, which alone holds both to their size bound.

Everything here is brute force by design; these are the oracles the
closed formulas are checked against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .arrays import ArrayTuple
from .partitions import (
    Partition,
    aut,
    coarsening_counts,
    odd_double_factorial,
    set_partitions,
    zee,
)
from .symfun import MonomialExpansion, PowerSumExpansion

__all__ = [
    "BoundExceededError",
    "Pairing",
    "canonical_f1",
    "canonical_f2",
    "compose",
    "cycle_type",
    "half_cycle_type",
    "iter_pairing_images",
    "L_table",
    "lp_from_pairings",
    "by_pair",
    "pairing_power_sum_series",
    "oracle_monomial_expansion",
    "hyperoctahedral_order",
    "b_from_L",
    "c_from_L",
    "PartitionedHypermap",
    "iter_partitioned_hypermaps",
    "lp_table",
    "lp_by_array",
    "degree_array",
    "class_connection_table",
    "double_coset_table",
    "double_coset_data",
    "expected_coset_size",
    "element_name",
    "parse_element",
    "DEFAULT_PAIRING_BOUND",
    "DEFAULT_PARTITIONED_BOUND",
    "DEFAULT_CLASS_BOUND",
    "DEFAULT_COSET_BOUND",
]

DEFAULT_PAIRING_BOUND = 7       # (2*7-1)!! = 135135 pairings
DEFAULT_PARTITIONED_BOUND = 5   # 945 pairings, every grouping of each side, combined by count
DEFAULT_CLASS_BOUND = 8         # iterates over S_n
DEFAULT_COSET_BOUND = 3         # iterates over S_{2n}


class BoundExceededError(ValueError):
    """An enumeration oracle was asked for an ``n`` beyond its fixed size
    bound (a ``DEFAULT_*_BOUND`` constant of its module)."""

    def __init__(self, what: str, n: int, bound: int):
        super().__init__(f"{what}: n = {n} exceeds the oracle's fixed size bound {bound}")
        self.n = n
        self.bound = bound


def element_name(x: int, n: int) -> str:
    return f"{x - n + 1}^" if x >= n else f"{x + 1}"


def parse_element(tok: str, n: int) -> int:
    """Inverse of :func:`element_name`; a token that names no label of
    ``1..n`` or ``1^..n^`` raises ``ValueError``."""
    tok = tok.strip()
    hat = tok.endswith("^")
    i = int(tok[:-1] if hat else tok)
    if not 1 <= i <= n:
        raise ValueError(f"label {tok!r} is not one of 1..{n} or 1^..{n}^")
    return n * hat + i - 1


@dataclass(frozen=True)
class Pairing:
    """Fixed-point-free involution on the 2n half-edge labels."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        m = 2 * self.n
        if len(self.image) != m:
            raise ValueError(f"image must have length {m}")
        for x, y in enumerate(self.image):
            if y == x or not 0 <= y < m or self.image[y] != x:
                raise ValueError("image is not a fixed-point-free involution")

    def pairs(self) -> list[tuple[int, int]]:
        return [(x, y) for x, y in enumerate(self.image) if x < y]

    def hat_pair_count(self) -> int:
        """The r statistic: the number of hat/hat pairs, which equals the
        number of non-hat/non-hat pairs."""
        n = self.n
        return sum(1 for x, y in self.pairs() if x >= n and y >= n)

    @classmethod
    def from_pairs(cls, n: int, pairs: Sequence[tuple[int, int]]) -> "Pairing":
        image = [-1] * (2 * n)
        for x, y in pairs:
            if not (0 <= x < 2 * n and 0 <= y < 2 * n):
                raise ValueError(f"pair ({x}, {y}) leaves the labels 0..{2 * n - 1}")
            image[x] = y
            image[y] = x
        return cls(n, tuple(image))

    def __str__(self) -> str:
        return "".join(
            f"({element_name(x, self.n)} {element_name(y, self.n)})"
            for x, y in self.pairs()
        )


@lru_cache(maxsize=None)
def canonical_f1(n: int) -> Pairing:
    """The white-vertex walk: (1 n^)(2 1^)(3 2^)...(n n-1^); memoized."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Pairing(n, (2 * n - 1, *range(n, 2 * n - 1), *range(1, n), 0))


@lru_cache(maxsize=None)
def canonical_f2(n: int) -> Pairing:
    """The black-vertex walk (1 1^)(2 2^)...(n n^); also the involution
    whose centralizer in S_{2n} is the hyperoctahedral group.  Memoized."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Pairing(n, (*range(n, 2 * n), *range(n)))


def compose(g: Sequence[int], h: Sequence[int]) -> tuple[int, ...]:
    """Image of g∘h under the convention (g∘h)(x) = g(h(x))."""
    return tuple(g[h[x]] for x in range(len(h)))


def _inverse(perm: Sequence[int]) -> list[int]:
    """The inverse of a permutation given by its image list."""
    inv = [0] * len(perm)
    for x, y in enumerate(perm):
        inv[y] = x
    return inv


def _cycle_lengths(perm: Sequence[int]) -> list[int]:
    """Cycle lengths of a permutation image list, longest first."""
    m = len(perm)
    seen = bytearray(m)
    lengths: list[int] = []
    for start in range(m):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = perm[x]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return lengths


def _half_cycle_lengths(perm: Sequence[int]) -> tuple[int, ...]:
    """Cycle type of ``perm`` halved, as a sorted tuple.  Raises if a
    cycle length occurs an odd number of times."""
    lengths = _cycle_lengths(perm)
    half = lengths[::2]
    if half != lengths[1::2]:
        raise ValueError(f"cycle type {Partition(lengths)} has an odd multiplicity")
    return tuple(half)


def cycle_type(perm: Sequence[int]) -> Partition:
    return Partition(_cycle_lengths(perm))


def half_cycle_type(g: Pairing, h: Pairing) -> Partition:
    """Cycle type of g∘h halved: the product of two pairings has every
    cycle length occurring an even number of times.  Fails loudly if it
    does not, which would indicate a composition-convention bug."""
    if g.n != h.n:
        raise ValueError("pairings act on different ground sets")
    return Partition(_half_cycle_lengths(compose(g.image, h.image)))


def iter_pairing_images(m: int) -> Iterator[list[int]]:
    """Yield every fixed-point-free involution of ``range(m)`` as an image
    list, ordered by the partner of 0, then by the partner of the next
    unpaired element, and so on.

    The same list object is yielded each time; copy it to keep it.
    """
    if m % 2:
        raise ValueError("need an even ground set")
    image = [-1] * m

    def rec(lo: int) -> Iterator[list[int]]:
        while lo < m and image[lo] >= 0:
            lo += 1
        if lo == m:
            yield image
            return
        for j in range(lo + 1, m):
            if image[j] < 0:
                image[lo] = j
                image[j] = lo
                yield from rec(lo + 1)
                image[j] = -1
        image[lo] = -1

    yield from rec(0)


@lru_cache(maxsize=None)
def L_table(n: int) -> Mapping:
    """Exhaustive classification of all (2n-1)!! pairings f3 by the half
    cycle types of f3∘f1 and f3∘f2 and the hat-pair count r: the counts
    keyed (white type, black type, r); cached and read-only.

    One depth-first walk places the pairs of f3 in the order of
    :func:`iter_pairing_images`.  For each of f1 and f2 it keeps the open
    alternating paths of <f, f3>: ``end[x]`` is the other endpoint of the
    path ending at x and ``size[x]`` its number of f-edges.  A pair
    (lo, b) either closes a path into a vertex of degree k, a part k of
    the half cycle type, or joins two paths; each change is undone on
    backtrack.  The closed vertices of a side are one integer code, to
    which a vertex of degree k adds ``(n+1)**k``.  With two pairs left
    each side has two open paths, of sizes s and t: the one pairing of
    the four free labels that follows them closes both (degrees s and t),
    and the other two join them into one vertex of degree s + t, so the
    three pairings are tallied in place.  Each distinct code becomes a
    :class:`Partition` once, at the end.  Every pairing is still visited,
    so the table stays a brute-force count.
    """
    if n > DEFAULT_PAIRING_BOUND:
        raise BoundExceededError("pairing classification", n, DEFAULT_PAIRING_BOUND)
    m = 2 * n
    end1 = list(canonical_f1(n).image)
    end2 = list(canonical_f2(n).image)
    size1 = [1] * m
    size2 = [1] * m
    free = [True] * m
    pw = [(n + 1) ** k for k in range(n + 1)]
    raw: dict[tuple[int, int, int], int] = {}

    def place(lo: int, left: int, r: int, code1: int, code2: int) -> None:
        while lo < m and not free[lo]:
            lo += 1
        if left < 2:  # n = 1: the single pair closes both paths
            key = (code1 + pw[1], code2 + pw[1], r + (lo >= n))
            raw[key] = raw.get(key, 0) + 1
            return
        if lo >= n:
            r += 1
        if left == 2:
            b, c, d = [x for x in range(lo + 1, m) if free[x]]
            a1, a2 = end1[lo], end2[lo]
            s1, t1 = size1[lo], size1[c if a1 == b else b]
            s2, t2 = size2[lo], size2[c if a2 == b else b]
            for x, rx in ((b, r + (c >= n)), (c, r + (b >= n)), (d, r + (b >= n))):
                key = (
                    code1 + (pw[s1] + pw[t1] if a1 == x else pw[s1 + t1]),
                    code2 + (pw[s2] + pw[t2] if a2 == x else pw[s2 + t2]),
                    rx,
                )
                raw[key] = raw.get(key, 0) + 1
            return
        free[lo] = False
        for b in range(lo + 1, m):
            if not free[b]:
                continue
            free[b] = False
            a1, b1, a2, b2 = end1[lo], end1[b], end2[lo], end2[b]
            if a1 != b:
                end1[a1], end1[b1] = b1, a1
                size1[a1] = size1[b1] = size1[lo] + size1[b]
            if a2 != b:
                end2[a2], end2[b2] = b2, a2
                size2[a2] = size2[b2] = size2[lo] + size2[b]
            code1b = code1 + pw[size1[lo]] if a1 == b else code1
            code2b = code2 + pw[size2[lo]] if a2 == b else code2
            place(lo + 1, left - 1, r, code1b, code2b)
            if a1 != b:
                end1[a1], end1[b1] = lo, b
                size1[a1], size1[b1] = size1[lo], size1[b]
            if a2 != b:
                end2[a2], end2[b2] = lo, b
                size2[a2], size2[b2] = size2[lo], size2[b]
            free[b] = True
        free[lo] = True

    place(0, n, 0, 0, 0)

    types: dict[int, Partition] = {}
    for code in {c for key in raw for c in key[:2]}:
        lam = Partition(k for k in range(n, 0, -1) for _ in range(code // pw[k] % (n + 1)))
        if lam.n != n:
            raise AssertionError(f"vertex degrees {lam} do not sum to {n}")
        types[code] = lam
    entries = {(types[c1], types[c2], r): count for (c1, c2, r), count in raw.items()}
    expected = odd_double_factorial(n)
    if sum(entries.values()) != expected:
        raise AssertionError(f"pairing count mismatch: {sum(entries.values())} != {expected}")
    return MappingProxyType(entries)


@lru_cache(maxsize=None)
def lp_from_pairings(n: int) -> Mapping[tuple[Partition, Partition, int], int]:
    """Partitioned-hypermap counts derived from the pairing classification
    through the one p -> m refinement, :func:`coarsening_counts` in both
    slots.  Reaches n = DEFAULT_PAIRING_BOUND,
    past the partitioned enumeration bound but no further, since it reads
    :func:`L_table`.  Keys are (white type, black type, r).  Memoized and
    read-only."""
    out: dict[tuple[Partition, Partition, int], int] = {}
    for (lam, mu, r), c in L_table(n).items():
        for nu, r1 in coarsening_counts(lam).items():
            for rho, r2 in coarsening_counts(mu).items():
                key = (nu, rho, r)
                out[key] = out.get(key, 0) + r1 * r2 * c
    return MappingProxyType(out)


def by_pair(
    table: Mapping[tuple[Partition, Partition, int], int], r: int | None = None
) -> dict[tuple[Partition, Partition], int]:
    """A table keyed (white type, black type, r), keyed (white type, black
    type) instead: summed over r, or sliced at ``r`` when it is given.
    The one place a table is summed or sliced over r."""
    out: dict[tuple[Partition, Partition], int] = {}
    for (lam, mu, s), c in table.items():
        if r is None or s == r:
            out[(lam, mu)] = out.get((lam, mu), 0) + c
    return out


def _r_slice(kind: str) -> int | None:
    """The r a series reads: 0 if complex, all (None) if real; ``kind`` checked."""
    if kind not in ("real", "complex"):
        raise ValueError(f"kind must be 'real' or 'complex', got {kind!r}")
    return 0 if kind == "complex" else None


def pairing_power_sum_series(n: int, kind: str = "real") -> PowerSumExpansion:
    """The pairing counts of :func:`L_table` (real) or their orientable
    slice r = 0 (complex) as coefficients of p_lam(X) p_mu(Y): the
    power-sum form of the expansions; n <= DEFAULT_PAIRING_BOUND.  A
    ``kind`` other than "real" or "complex" raises ``ValueError``."""
    r = _r_slice(kind)
    return PowerSumExpansion(n, by_pair(L_table(n), r))


def oracle_monomial_expansion(n: int, kind: str = "real") -> MonomialExpansion:
    """The oracle series in the monomial basis, the independent route the
    closed formulas are compared against: p_lam is the sum over its
    coarsenings nu of Aut_nu times their count times m_nu, so the
    coefficient of m_lam(X) m_mu(Y) is Aut_lam Aut_mu times the
    :func:`lp_from_pairings` count, summed over r (real) or at r = 0
    (complex).  n <= DEFAULT_PAIRING_BOUND; ``kind`` is checked as in
    :func:`pairing_power_sum_series`."""
    r = _r_slice(kind)
    counts = by_pair(lp_from_pairings(n), r)
    return MonomialExpansion(
        n, {(lam, mu): aut(lam) * aut(mu) * c for (lam, mu), c in counts.items()}
    )


def hyperoctahedral_order(n: int) -> int:
    """|B_n| = 2^n n!, the order of the hyperoctahedral group."""
    return 2**n * factorial(n)


def b_from_L(table: Mapping) -> dict[tuple[Partition, Partition], int]:
    """Double-coset connection coefficients: |B_n| times the r-summed
    counts of an :func:`L_table`, whose keys give n."""
    scale = hyperoctahedral_order(next(iter(table))[0].n)
    return {key: scale * c for key, c in by_pair(table).items()}


def c_from_L(table: Mapping) -> dict[tuple[Partition, Partition], int]:
    """Class-algebra connection coefficients: the r = 0 slice."""
    return by_pair(table, 0)


@dataclass(frozen=True)
class PartitionedHypermap:
    """Triple (f3, pi1, pi2): a pairing plus block merges of the white and
    black vertices, each block stable under the defining pairings."""

    f3: Pairing
    pi1: tuple[frozenset[int], ...]
    pi2: tuple[frozenset[int], ...]

    @staticmethod
    def _normalize(blocks) -> tuple[frozenset[int], ...]:
        # an empty block sorts first, for validate to report
        return tuple(sorted((frozenset(b) for b in blocks), key=lambda b: min(b, default=-1)))

    @classmethod
    def make(cls, f3: Pairing, pi1, pi2) -> "PartitionedHypermap":
        return cls(f3, cls._normalize(pi1), cls._normalize(pi2))

    def validate(self) -> list[str]:
        n = self.f3.n
        ground = frozenset(range(2 * n))
        hats = frozenset(range(n, 2 * n))
        problems: list[str] = []
        f3 = self.f3.image
        for name, blocks, stab in (
            ("pi1", self.pi1, canonical_f1(n).image),
            ("pi2", self.pi2, canonical_f2(n).image),
        ):
            covered: set[int] = set()
            for block in blocks:
                if not block:
                    problems.append(f"{name} has an empty block")
                    continue
                if covered & block:
                    problems.append(f"{name} blocks overlap")
                covered |= block
                if not block <= ground:
                    problems.append(
                        f"{name} block {sorted(block)} has a label outside 0..{2 * n - 1}")
                    continue
                for x in block:
                    if stab[x] not in block or f3[x] not in block:
                        problems.append(f"{name} block {sorted(block)} is not stable")
                        break
                if 2 * len(block & hats) != len(block):
                    problems.append(f"{name} block {sorted(block)} is hat-unbalanced")
            if not covered >= ground:
                problems.append(f"{name} does not cover the ground set")
        return problems

    def white_type(self) -> Partition:
        return Partition(len(b) // 2 for b in self.pi1)

    def black_type(self) -> Partition:
        return Partition(len(b) // 2 for b in self.pi2)

    @property
    def r(self) -> int:
        return self.f3.hat_pair_count()

    def __str__(self) -> str:
        n = self.f3.n

        def blocks(pi):
            return "; ".join(
                "{" + ", ".join(element_name(x, n) for x in sorted(b)) + "}" for b in pi
            )

        return f"f3 = {self.f3}\npi1 = {blocks(self.pi1)}\npi2 = {blocks(self.pi2)}"


def _orbits(a: Sequence[int], b: Sequence[int]) -> list[frozenset[int]]:
    """Orbits of the group generated by two involutions (as image lists),
    in the order of their least elements."""
    m = len(a)
    seen = bytearray(m)
    orbits: list[frozenset[int]] = []
    for start in range(m):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = 1
        orbit = [start]
        while stack:
            x = stack.pop()
            for y in (a[x], b[x]):
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
                    stack.append(y)
        orbits.append(frozenset(orbit))
    return orbits


def _pairings_with_orbits(n: int) -> Iterator[tuple]:
    """The one walk of the partitioned enumeration, held to its bound here:
    each pairing f3 of order n, as an image tuple, with the orbits of
    <f1, f3> (white vertices) and of <f2, f3> (black vertices).  The orbits
    come least label first and set_partitions keeps that order within and
    across blocks, so a grouping's first block holds label 1 and the blocks
    of a union come as :meth:`PartitionedHypermap.make` orders them."""
    if n > DEFAULT_PARTITIONED_BOUND:
        raise BoundExceededError("partitioned hypermap enumeration", n, DEFAULT_PARTITIONED_BOUND)
    f1 = canonical_f1(n).image
    f2 = canonical_f2(n).image
    for image in iter_pairing_images(2 * n):
        f3 = tuple(image)
        yield f3, _orbits(f3, f1), _orbits(f3, f2)


def iter_partitioned_hypermaps(n: int) -> Iterator[PartitionedHypermap]:
    """Every partitioned hypermap with n edges, each exactly once: the blocks
    of pi1 (pi2) are arbitrary unions of the white (black) orbits of
    :func:`_pairings_with_orbits`, which is exactly the stability constraint."""
    for image, *sides in _pairings_with_orbits(n):
        f3 = Pairing(n, image)
        pis = [[tuple([frozenset().union(*b) for b in g]) for g in set_partitions(orbits)]
               for orbits in sides]
        for pi1, pi2 in itertools.product(*pis):
            yield PartitionedHypermap(f3, pi1, pi2)


def _block_summary(
    block: frozenset[int], f3: Sequence[int], n: int, white: bool
) -> tuple[int, int, tuple[int, bool]]:
    """The rule that makes a block of one side a vertex of a degree array,
    as ``(i, j, (top, root))``: the degree ``i`` is half the block's size,
    the loop count ``j`` its number of same-kind pairs (non-hat/non-hat
    for a white block, hat/hat for a black one), and ``top`` its largest
    non-hat label (white) or its largest label (black).  The block is a
    root iff f3 matches ``top`` to a non-hat (white) or a hat (black)
    label.  For a union of f3-stable blocks ``i`` and ``j`` add up and the
    largest ``(top, root)`` is the union's."""
    j = 0
    if white:
        top = -1
        for x in block:
            if x < n:
                if f3[x] < n:
                    j += 1
                if x > top:
                    top = x
        return len(block) // 2, j // 2, (top, f3[top] < n)
    for x in block:
        if x >= n and f3[x] >= n:
            j += 1
    top = max(block)
    return len(block) // 2, j // 2, (top, f3[top] >= n)


def degree_array(h: PartitionedHypermap) -> ArrayTuple:
    """Classify the blocks of a partitioned hypermap into the degree arrays
    by the rule of :func:`_block_summary`; the block of pi1 containing
    label 1 provides (i0, j0).  ``h`` must be valid (``h.validate()``
    returns no violations, as ``theta_forward`` and ``bijection --input``
    check); an invalid one is not detected and may raise anything."""
    n = h.f3.n
    f3 = h.f3.image
    seed = None
    vertices = []
    for color, blocks in (("w", h.pi1), ("b", h.pi2)):
        for block in blocks:
            i, j, (_, root) = _block_summary(block, f3, n, color == "w")
            if color == "w" and 0 in block:
                seed = (i, j)
            else:
                vertices.append((color, root, i, j))
    if seed is None:
        raise ValueError("no block of pi1 contains label 1")
    return ArrayTuple.from_vertices(*seed, vertices)


def _side_classes(f3: Sequence[int], orbits: list[frozenset[int]], n: int, white: bool) -> dict:
    """Every grouping of one side's orbits into blocks, tallied by the
    sorted profiles ``(color, root, i, j)`` of its blocks; on the white
    side the first block, which holds label 1, is the seed, keyed apart by
    its ``(i, j)``.  Each orbit is summarized once."""
    color = "w" if white else "b"
    summaries = [_block_summary(orbit, f3, n, white) for orbit in orbits]
    classes: dict = {}
    for grouping in set_partitions(summaries):
        profiles = []
        for block in grouping:
            degrees, loops, tops = zip(*block)
            profiles.append((color, max(tops)[1], sum(degrees), sum(loops)))
        if white:
            seed = profiles.pop(0)[2:]
            key = (seed, tuple(sorted(profiles)))
        else:
            key = tuple(sorted(profiles))
        classes[key] = classes.get(key, 0) + 1
    return classes


@lru_cache(maxsize=None)
def _lp_data(n: int):
    """Both partitioned-hypermap tables of order ``n``: (:func:`lp_table`,
    :func:`lp_by_array`).

    For each pairing f3 of :func:`_pairings_with_orbits`, the white blocks
    pi1 are any union of the orbits of <f1, f3> and the black blocks pi2
    any union of the orbits of <f2, f3>, chosen independently, so the walk
    tallies every grouping of each side once (:func:`_side_classes`) and
    counts each pair of a white and a black class by the product of their
    tallies.  Every (f3, pi1, pi2) is counted once, but none is built.  A
    pair of classes is one degree array, so each distinct
    :class:`ArrayTuple` is built once, at the end, and gives its types and r."""
    pairs: dict = {}
    for f3, white_orbits, black_orbits in _pairings_with_orbits(n):
        black = _side_classes(f3, black_orbits, n, False)
        for white, cw in _side_classes(f3, white_orbits, n, True).items():
            for side, cb in black.items():
                key = (white, side)
                pairs[key] = pairs.get(key, 0) + cw * cb
    table: dict[tuple[Partition, Partition, int], int] = {}
    by_array: dict[ArrayTuple, int] = {}
    for ((seed, white), black), count in pairs.items():
        a = ArrayTuple.from_vertices(*seed, white + black)
        by_array[a] = count
        key = (a.white_type(), a.black_type(), a.loop_pairs)
        table[key] = table.get(key, 0) + count
    return MappingProxyType(table), MappingProxyType(by_array)


def lp_table(n: int) -> Mapping:
    """Counts of partitioned hypermaps keyed (white type, black type, r),
    tallied by :func:`_lp_data` over every pairing and every grouping of
    each side, the two sides combined by count; cached and read-only."""
    return _lp_data(n)[0]


def lp_by_array(n: int) -> Mapping[ArrayTuple, int]:
    """Counts of partitioned hypermaps keyed by their degree array, from
    the same walk as :func:`lp_table`; cached and read-only."""
    return _lp_data(n)[1]


@lru_cache(maxsize=None)
def class_connection_table(n: int) -> Mapping:
    """For the fixed n-cycle g = (1 2 ... n), the number of ways to write
    g = a∘b with a, b of prescribed cycle types, keyed (type a, type b);
    cached and read-only.  Every permutation a is visited and tallied by
    its sorted cycle lengths and those of b; each distinct pair becomes
    two :class:`Partition` keys once, at the end."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DEFAULT_CLASS_BOUND:
        raise BoundExceededError("class algebra product", n, DEFAULT_CLASS_BOUND)
    gamma = tuple((x + 1) % n for x in range(n))
    raw: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for alpha in itertools.permutations(range(n)):
        inv = _inverse(alpha)
        beta = [inv[gamma[x]] for x in range(n)]
        key = (tuple(_cycle_lengths(alpha)), tuple(_cycle_lengths(beta)))
        raw[key] = raw.get(key, 0) + 1
    return MappingProxyType({(Partition(a), Partition(b)): c for (a, b), c in raw.items()})


@lru_cache(maxsize=None)
def double_coset_data(n: int):
    """Membership data for the double cosets of the hyperoctahedral group.

    Returns read-only mappings (class_of, sizes): the coset type of each
    permutation of S_{2n} (as an image tuple), grouped by type, and the
    coset sizes.  A permutation w lies in the coset of type lam iff
    fstar∘w∘fstar∘w^{-1} has cycle type lam lam.
    """
    if n > DEFAULT_COSET_BOUND:
        raise BoundExceededError("double coset product", n, DEFAULT_COSET_BOUND)
    m = 2 * n
    fstar = canonical_f2(n).image
    by_type: dict[Partition, list[tuple[int, ...]]] = {}
    for omega in itertools.permutations(range(m)):
        inv = _inverse(omega)
        conj = tuple(fstar[omega[fstar[inv[x]]]] for x in range(m))
        by_type.setdefault(Partition(_half_cycle_lengths(conj)), []).append(omega)
    class_of = {omega: lam for lam, ms in by_type.items() for omega in ms}
    sizes = {lam: len(ms) for lam, ms in by_type.items()}
    return MappingProxyType(class_of), MappingProxyType(sizes)


@lru_cache(maxsize=None)
def double_coset_table(n: int) -> Mapping:
    """Every double-coset connection coefficient of order ``n``, keyed
    (type of sigma, type of sigma^{-1}∘rho) for a fixed representative rho
    of the full-cycle coset: one pass over S_{2n}; cached and read-only.
    The double-coset twin of :func:`class_connection_table`."""
    class_of, _ = double_coset_data(n)
    rho = next(w for w, lam in class_of.items() if lam == (n,))
    m = 2 * n
    counts: dict[tuple[Partition, Partition], int] = {}
    for sigma, lam in class_of.items():
        inv = _inverse(sigma)
        key = (lam, class_of[tuple(inv[rho[x]] for x in range(m))])
        counts[key] = counts.get(key, 0) + 1
    return MappingProxyType(counts)


def expected_coset_size(n: int, lam: Partition) -> int:
    """|B_n|^2 / (2^{len(lam)} z_lam)."""
    bn = hyperoctahedral_order(n)
    size, rem = divmod(bn * bn, 2**lam.length * zee(lam))
    if rem:
        raise AssertionError("coset size formula did not divide evenly")
    return size
