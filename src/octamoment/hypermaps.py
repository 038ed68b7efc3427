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

The pairing tables are keyed (white type, black type, r).
:func:`by_pair` is the one sum over r and the one slice at r = 0; the
double-coset coefficients (:func:`b_from_L`), the class-algebra
coefficients (:func:`c_from_L`) and both power-sum series
(:func:`pairing_power_sum_series`) are its views.

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
    coarsening_counts,
    odd_double_factorial,
    set_partitions,
    zee,
)
from .symfun import MonomialExpansion, PowerSumExpansion, to_monomial

__all__ = [
    "BoundExceededError",
    "Pairing",
    "canonical_f1",
    "canonical_f2",
    "compose",
    "cycle_type",
    "half_cycle_type",
    "iter_pairing_images",
    "ClassTable",
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
    "class_connection",
    "class_connection_table",
    "double_coset_table",
    "double_coset_connection",
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
DEFAULT_PARTITIONED_BOUND = 5   # 945 pairings x block merges
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

    def __call__(self, x: int) -> int:
        return self.image[x]

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
    image = [0] * (2 * n)
    image[0] = 2 * n - 1
    image[2 * n - 1] = 0
    for i in range(1, n):
        image[i] = n + i - 1
        image[n + i - 1] = i
    return Pairing(n, tuple(image))


@lru_cache(maxsize=None)
def canonical_f2(n: int) -> Pairing:
    """The black-vertex walk (1 1^)(2 2^)...(n n^); also the involution
    whose centralizer in S_{2n} is the hyperoctahedral group.  Memoized."""
    if n < 1:
        raise ValueError("n must be >= 1")
    image = [0] * (2 * n)
    for i in range(n):
        image[i] = n + i
        image[n + i] = i
    return Pairing(n, tuple(image))


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


@dataclass(frozen=True)
class ClassTable:
    """Counts of pairings f3 by (white type, black type, hat-pair count);
    ``entries`` is read-only."""

    n: int
    entries: Mapping[tuple[Partition, Partition, int], int]

    def total(self) -> int:
        return sum(self.entries.values())

    def get(self, lam, mu, r) -> int:
        return self.entries.get((Partition(lam), Partition(mu), r), 0)


@lru_cache(maxsize=None)
def L_table(n: int) -> ClassTable:
    """Exhaustive classification of all (2n-1)!! pairings f3 by the half
    cycle types of f3∘f1 and f3∘f2 and the hat-pair count r.

    One depth-first walk places the pairs of f3 in the order of
    :func:`iter_pairing_images`.  For each of f1 and f2 it keeps the open
    alternating paths of <f, f3>: ``end[x]`` is the other endpoint of the
    path ending at x and ``size[x]`` its number of f-edges.  A pair
    (lo, b) either closes a path into a vertex of degree k, a part k of
    the half cycle type (``cnt[k] += 1``), or joins two paths; each change
    is undone on backtrack.  Every pairing is still visited, so the table
    stays a brute-force count.
    """
    if n > DEFAULT_PAIRING_BOUND:
        raise BoundExceededError("pairing classification", n, DEFAULT_PAIRING_BOUND)
    m = 2 * n
    end1 = list(canonical_f1(n).image)
    end2 = list(canonical_f2(n).image)
    size1 = [1] * m
    size2 = [1] * m
    cnt1 = [0] * (n + 1)
    cnt2 = [0] * (n + 1)
    free = [True] * m
    raw: dict[tuple[tuple[int, ...], tuple[int, ...], int], int] = {}

    def place(lo: int, r: int) -> None:
        while lo < m and not free[lo]:
            lo += 1
        if lo == m:
            key = (tuple(cnt1), tuple(cnt2), r)
            raw[key] = raw.get(key, 0) + 1
            return
        free[lo] = False
        if lo >= n:
            r += 1
        for b in range(lo + 1, m):
            if not free[b]:
                continue
            free[b] = False
            a1, b1, a2, b2 = end1[lo], end1[b], end2[lo], end2[b]
            if a1 == b:
                cnt1[size1[lo]] += 1
            else:
                end1[a1], end1[b1] = b1, a1
                size1[a1] = size1[b1] = size1[lo] + size1[b]
            if a2 == b:
                cnt2[size2[lo]] += 1
            else:
                end2[a2], end2[b2] = b2, a2
                size2[a2] = size2[b2] = size2[lo] + size2[b]
            place(lo + 1, r)
            if a1 == b:
                cnt1[size1[lo]] -= 1
            else:
                end1[a1], end1[b1] = lo, b
                size1[a1], size1[b1] = size1[lo], size1[b]
            if a2 == b:
                cnt2[size2[lo]] -= 1
            else:
                end2[a2], end2[b2] = lo, b
                size2[a2], size2[b2] = size2[lo], size2[b]
            free[b] = True
        free[lo] = True

    place(0, 0)

    def partition(cnt: tuple[int, ...]) -> Partition:
        return Partition(k for k in range(n, 0, -1) for _ in range(cnt[k]))

    entries: dict[tuple[Partition, Partition, int], int] = {}
    for (c1, c2, r), count in raw.items():
        lam, mu = partition(c1), partition(c2)
        if lam.n != n or mu.n != n:
            raise AssertionError(f"vertex degrees {lam}, {mu} do not sum to {n}")
        entries[(lam, mu, r)] = count
    expected = odd_double_factorial(n)
    if sum(entries.values()) != expected:
        raise AssertionError(f"pairing count mismatch: {sum(entries.values())} != {expected}")
    return ClassTable(n, MappingProxyType(entries))


def lp_from_pairings(n: int) -> dict[tuple[Partition, Partition, int], int]:
    """Partitioned-hypermap counts derived from the pairing classification
    through the refinement identity.  Reaches n = DEFAULT_PAIRING_BOUND,
    past the partitioned enumeration bound but no further, since it reads
    :func:`L_table`.  Keys are (white type, black type, r)."""
    out: dict[tuple[Partition, Partition, int], int] = {}
    for (lam, mu, r), c in L_table(n).entries.items():
        for nu, r1 in coarsening_counts(lam).items():
            for rho, r2 in coarsening_counts(mu).items():
                key = (nu, rho, r)
                out[key] = out.get(key, 0) + r1 * r2 * c
    return out


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


def pairing_power_sum_series(n: int, kind: str = "real") -> PowerSumExpansion:
    """The power-sum series whose basis change reproduces the expansions:
    pairing counts (real) or their orientable slice (complex) as
    coefficients of p_lam(X) p_mu(Y).  Oracle route; small n only.
    ``kind`` other than "real" or "complex" raises ``ValueError``."""
    if kind not in ("real", "complex"):
        raise ValueError(f"kind must be 'real' or 'complex', got {kind!r}")
    return PowerSumExpansion(n, by_pair(L_table(n).entries, 0 if kind == "complex" else None))


def oracle_monomial_expansion(n: int, kind: str = "real") -> MonomialExpansion:
    """Expansion of the oracle power-sum series in monomials; the
    independent route the closed formulas are compared against."""
    return to_monomial(pairing_power_sum_series(n, kind))


def hyperoctahedral_order(n: int) -> int:
    """|B_n| = 2^n n!, the order of the hyperoctahedral group."""
    return 2**n * factorial(n)


def b_from_L(table: ClassTable) -> dict[tuple[Partition, Partition], int]:
    """Double-coset connection coefficients: |B_n| times the r-summed counts."""
    scale = hyperoctahedral_order(table.n)
    return {key: scale * c for key, c in by_pair(table.entries).items()}


def c_from_L(table: ClassTable) -> dict[tuple[Partition, Partition], int]:
    """Class-algebra connection coefficients: the r = 0 slice."""
    return by_pair(table.entries, 0)


@dataclass(frozen=True)
class PartitionedHypermap:
    """Triple (f3, pi1, pi2): a pairing plus block merges of the white and
    black vertices, each block stable under the defining pairings."""

    f3: Pairing
    pi1: tuple[frozenset[int], ...]
    pi2: tuple[frozenset[int], ...]

    @staticmethod
    def _normalize(blocks) -> tuple[frozenset[int], ...]:
        return tuple(sorted((frozenset(b) for b in blocks), key=min))

    @classmethod
    def make(cls, f3: Pairing, pi1, pi2) -> "PartitionedHypermap":
        return cls(f3, cls._normalize(pi1), cls._normalize(pi2))

    def validate(self) -> list[str]:
        n = self.f3.n
        ground = set(range(2 * n))
        problems: list[str] = []
        f3 = self.f3.image
        for name, blocks, stab in (
            ("pi1", self.pi1, canonical_f1(n).image),
            ("pi2", self.pi2, canonical_f2(n).image),
        ):
            covered: set[int] = set()
            for block in blocks:
                if covered & block:
                    problems.append(f"{name} blocks overlap")
                covered |= block
                for x in block:
                    if stab[x] not in block or f3[x] not in block:
                        problems.append(f"{name} block {sorted(block)} is not stable")
                        break
                hats = sum(1 for x in block if x >= n)
                if 2 * hats != len(block):
                    problems.append(f"{name} block {sorted(block)} is hat-unbalanced")
            if covered != ground:
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
    """Orbits of the group generated by two involutions (as image lists)."""
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


def iter_partitioned_hypermaps(n: int) -> Iterator[PartitionedHypermap]:
    """Every partitioned hypermap with n edges, each exactly once.

    White vertices are the orbits of <f1, f3>, black vertices the orbits of
    <f2, f3>; the blocks of pi1 (pi2) are arbitrary unions of white (black)
    orbits, which is exactly the stability constraint.
    """
    if n > DEFAULT_PARTITIONED_BOUND:
        raise BoundExceededError("partitioned hypermap enumeration", n, DEFAULT_PARTITIONED_BOUND)
    f1 = canonical_f1(n).image
    f2 = canonical_f2(n).image
    for image in iter_pairing_images(2 * n):
        f3 = Pairing(n, tuple(image))
        white_orbits = _orbits(image, f1)
        black_orbits = _orbits(image, f2)
        for grouping1 in set_partitions(white_orbits):
            pi1 = tuple(frozenset().union(*g) for g in grouping1)
            for grouping2 in set_partitions(black_orbits):
                pi2 = tuple(frozenset().union(*g) for g in grouping2)
                yield PartitionedHypermap.make(f3, pi1, pi2)


def degree_array(h: PartitionedHypermap) -> ArrayTuple:
    """Classify the blocks of a partitioned hypermap into the degree arrays.

    A white block not containing label 1 is a root iff its maximum non-hat
    element is matched to a non-hat element; a black block is a root iff
    its maximum is matched to a hat element; the block containing 1
    provides (i0, j0).
    """
    n = h.f3.n
    f3 = h.f3.image
    seed = None
    vertices = []
    for block in h.pi1:
        i = len(block) // 2
        j = sum(1 for x in block if x < n and f3[x] < n) // 2
        if 0 in block:
            seed = (i, j)
            continue
        top = max(x for x in block if x < n)
        vertices.append(("w", f3[top] < n, i, j))
    for block in h.pi2:
        i = len(block) // 2
        j = sum(1 for x in block if x >= n and f3[x] >= n) // 2
        vertices.append(("b", f3[max(block)] >= n, i, j))
    if seed is None:
        raise ValueError("no block of pi1 contains label 1")
    return ArrayTuple.from_vertices(*seed, vertices)


@lru_cache(maxsize=8)
def _lp_data(n: int):
    table: dict[tuple[Partition, Partition, int], int] = {}
    by_array: dict[ArrayTuple, int] = {}
    for h in iter_partitioned_hypermaps(n):
        key = (h.white_type(), h.black_type(), h.r)
        table[key] = table.get(key, 0) + 1
        arr = degree_array(h)
        by_array[arr] = by_array.get(arr, 0) + 1
    return MappingProxyType(table), MappingProxyType(by_array)


def lp_table(n: int) -> Mapping:
    """Counts of partitioned hypermaps keyed (white type, black type, r);
    cached and read-only."""
    return _lp_data(n)[0]


def lp_by_array(n: int) -> Mapping[ArrayTuple, int]:
    """Counts of partitioned hypermaps keyed by their degree array; cached
    and read-only."""
    return _lp_data(n)[1]


@lru_cache(maxsize=None)
def class_connection_table(n: int) -> Mapping:
    """For the fixed n-cycle g = (1 2 ... n), the number of ways to write
    g = a∘b with a, b of prescribed cycle types, keyed (type a, type b);
    cached and read-only."""
    if n > DEFAULT_CLASS_BOUND:
        raise BoundExceededError("class algebra product", n, DEFAULT_CLASS_BOUND)
    gamma = tuple((x + 1) % n for x in range(n))
    table: dict[tuple[Partition, Partition], int] = {}
    for alpha in itertools.permutations(range(n)):
        inv = _inverse(alpha)
        beta = tuple(inv[gamma[x]] for x in range(n))
        key = (cycle_type(alpha), cycle_type(beta))
        table[key] = table.get(key, 0) + 1
    return MappingProxyType(table)


def class_connection(n: int, lam, mu) -> int:
    """Oracle for the class-algebra connection coefficient at the full cycle."""
    return class_connection_table(n).get((Partition(lam), Partition(mu)), 0)


@lru_cache(maxsize=None)
def double_coset_data(n: int):
    """Membership data for the double cosets of the hyperoctahedral group.

    Returns read-only mappings (class_of, members, sizes): the coset type
    of each permutation of S_{2n} (as an image tuple), the members per type
    (a tuple), and the coset sizes.  A permutation w lies in the coset of
    type lam iff fstar∘w∘fstar∘w^{-1} has cycle type lam lam.
    """
    if n > DEFAULT_COSET_BOUND:
        raise BoundExceededError("double coset product", n, DEFAULT_COSET_BOUND)
    m = 2 * n
    fstar = canonical_f2(n).image
    raw: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for omega in itertools.permutations(range(m)):
        inv = _inverse(omega)
        conj = tuple(fstar[omega[fstar[inv[x]]]] for x in range(m))
        raw.setdefault(_half_cycle_lengths(conj), []).append(omega)
    members = {Partition(half): tuple(ms) for half, ms in raw.items()}
    class_of = {omega: lam for lam, ms in members.items() for omega in ms}
    sizes = {lam: len(ms) for lam, ms in members.items()}
    return MappingProxyType(class_of), MappingProxyType(members), MappingProxyType(sizes)


@lru_cache(maxsize=None)
def double_coset_table(n: int) -> Mapping:
    """Every double-coset connection coefficient of order ``n``, keyed
    (type of sigma, type of sigma^{-1}∘rho) for a fixed representative rho
    of the full-cycle coset: one pass over S_{2n}; cached and read-only.
    The double-coset twin of :func:`class_connection_table`."""
    class_of, members, _ = double_coset_data(n)
    rho = members[Partition([n])][0]
    m = 2 * n
    counts: dict[tuple[Partition, Partition], int] = {}
    for sigma, lam in class_of.items():
        inv = _inverse(sigma)
        key = (lam, class_of[tuple(inv[rho[x]] for x in range(m))])
        counts[key] = counts.get(key, 0) + 1
    return MappingProxyType(counts)


def double_coset_connection(n: int, lam, mu) -> int:
    """Coefficient of a fixed representative of the full-cycle coset in the
    product of the coset sums for ``lam`` and ``mu`` (tiny n only)."""
    return double_coset_table(n).get((Partition(lam), Partition(mu)), 0)


def expected_coset_size(n: int, lam: Partition) -> int:
    """|B_n|^2 / (2^{len(lam)} z_lam)."""
    bn = hyperoctahedral_order(n)
    size, rem = divmod(bn * bn, 2**lam.length * zee(lam))
    if rem:
        raise AssertionError("coset size formula did not divide evenly")
    return size
