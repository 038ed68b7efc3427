"""Exact integer/partition combinatorics shared by every other module.

Every count here is an integer; :class:`fractions.Fraction` is kept for
rational values only.  Nothing in this module ever touches floating point.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import index
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Partition",
    "partitions_of",
    "aut",
    "zee",
    "falling",
    "multinomial",
    "odd_double_factorial",
    "coarsening_counts",
    "set_partitions",
    "format_partition",
    "parse_rational",
    "as_rational",
    "format_rational",
]


def _part(p) -> int:
    try:
        return index(p)
    except TypeError:
        raise ValueError(f"partition parts must be integers, got {p!r}") from None


class Partition(tuple):
    """Integer partition stored as a weakly decreasing tuple of positive parts.

    Instances are hashable and behave like plain tuples, so they can be used
    directly as dictionary keys.  ``Partition()`` is the empty partition of 0.
    Parts are read with ``operator.index``, so numpy integers pass and any
    other part, such as ``2.0`` or ``"3"``, raises ``ValueError`` naming it.
    """

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        ps = tuple(map(_part, parts))
        if any(p <= 0 for p in ps):
            raise ValueError(f"partition parts must be positive, got {ps}")
        if any(ps[k] < ps[k + 1] for k in range(len(ps) - 1)):
            ps = tuple(sorted(ps, reverse=True))
        return super().__new__(cls, ps)

    @property
    def n(self) -> int:
        """Sum of the parts."""
        return sum(self)

    @property
    def length(self) -> int:
        """Number of parts."""
        return len(self)

    def multiplicities(self) -> dict[int, int]:
        """Map each part size to the number of times it occurs."""
        mult: dict[int, int] = {}
        for p in self:
            mult[p] = mult.get(p, 0) + 1
        return mult

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Partition{tuple(self)}"


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n``, each exactly once, in reverse lexicographic
    order: ``(n)`` first, ``(1,...,1)`` last.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(_partitions(n, n, ()))


def _partitions(remaining: int, cap: int, prefix: tuple[int, ...]) -> Iterator[Partition]:
    """The partitions that extend ``prefix`` by parts of at most ``cap``
    summing to ``remaining``, largest next part first.  A module-level
    recursion, so that no call leaves a reference cycle behind."""
    if remaining == 0:
        yield Partition(prefix)
        return
    for part in range(min(cap, remaining), 0, -1):
        yield from _partitions(remaining - part, part, prefix + (part,))


def aut(lam: Partition) -> int:
    """Product of the factorials of the part multiplicities."""
    return prod(map(factorial, lam.multiplicities().values()))


def zee(lam: Partition) -> int:
    """Centralizer order ``prod_i i^{n_i} n_i!`` of a permutation of cycle
    type ``lam``; ``n!/zee(lam)`` is the conjugacy class size."""
    return prod(i**m * factorial(m) for i, m in lam.multiplicities().items())


def falling(x: int | Fraction, p: int) -> int | Fraction:
    """Falling factorial ``x (x-1) ... (x-p+1)``; the empty product is 1."""
    if p < 0:
        raise ValueError("length of a falling factorial must be >= 0")
    prod: int | Fraction = 1
    for k in range(p):
        prod *= x - k
    return prod


def multinomial(top: int, ks: Sequence[int]) -> int:
    """Multinomial ``top (top-1) ... (top-sum(ks)+1) / prod ks!``, an
    integer for every integer ``top``, negative ones included.

    Any negative entry in ``ks`` makes the value 0 (the reciprocal
    factorial vanishes at negative integers), which lets formula sums
    range freely over integer indices.  A ``top`` that is not an ``int``
    raises ``TypeError``.
    """
    if not isinstance(top, int):
        raise TypeError(f"the top of a multinomial must be an int, got {top!r}")
    return _multinomial(top, *ks)


@lru_cache(maxsize=None)
def _multinomial(top: int, *ks: int) -> int:
    if min(ks, default=0) < 0:
        return 0
    return falling(top, sum(ks)) // prod(map(factorial, ks))


def odd_double_factorial(k: int) -> int:
    """``(2k-1)!! = (2k-1)(2k-3)...1`` with ``(-1)!! = 1``; counts the
    perfect matchings of ``2k`` points."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    prod = 1
    for t in range(1, k + 1):
        prod *= 2 * t - 1
    return prod


def set_partitions(items: Sequence) -> Iterator[tuple[tuple, ...]]:
    """All set partitions of ``items``, as tuples of blocks (tuples).

    Blocks keep the input order of their elements; the first element of the
    sequence always lies in the first block.
    """
    items = list(items)
    if not items:
        yield ()
        return
    yield from _set_partitions(items, 1, [[items[0]]])


def _set_partitions(items: list, idx: int, blocks: list[list]) -> Iterator[tuple[tuple, ...]]:
    """The set partitions of ``items`` that extend ``blocks``, which hold
    ``items[:idx]``: ``items[idx]`` joins each block in turn, then a block
    of its own.  A module-level recursion, so that no call leaves a
    reference cycle behind."""
    if idx == len(items):
        yield tuple(tuple(b) for b in blocks)
        return
    x = items[idx]
    for b in blocks:
        b.append(x)
        yield from _set_partitions(items, idx + 1, blocks)
        b.pop()
    blocks.append([x])
    yield from _set_partitions(items, idx + 1, blocks)
    blocks.pop()


@lru_cache(maxsize=None)
def coarsening_counts(lam: Partition) -> Mapping[Partition, int]:
    """For each partition ``nu`` obtainable by merging parts of ``lam``, the
    number of unordered set partitions of the part-index set of ``lam``
    whose block sums realize ``nu``.  The table is cached and read-only."""
    counts: dict[Partition, int] = {}
    for sp in set_partitions(range(lam.length)):
        nu = Partition(sum(lam[i] for i in block) for block in sp)
        counts[nu] = counts.get(nu, 0) + 1
    return MappingProxyType(counts)


def format_partition(lam: Partition, style: str = "parts") -> str:
    """Render a partition: ``"parts"`` gives ``"3,2,1"``, ``"mult"`` gives
    ``"[1^1 2^1 3^1]"``."""
    if style == "parts":
        return ",".join(str(p) for p in lam)
    if style == "mult":
        mult = lam.multiplicities()
        terms = " ".join(f"{i}^{mult[i]}" for i in sorted(mult))
        return f"[{terms}]"
    raise ValueError(f"unknown partition style {style!r}")


# The digits of the exponent of a decimal literal such as "1.5e-3", with the
# underscores that ``Fraction`` allows between them.
_EXPONENT = re.compile(r"e[-+]?([\d_]*)\s*\Z", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """Parse ``"num/den"``, a bare integer string or a decimal literal such
    as ``"-0.25"`` or ``"1e400"``; a zero denominator raises ``ValueError``,
    and so does an exponent beyond the int-string digit limit
    (``sys.get_int_max_str_digits()``, else 4300) in magnitude, before
    ``Fraction`` builds its power of 10, as a digit string longer than
    that limit does."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    exponent = _EXPONENT.search(text)
    digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
    if len(digits) > len(str(limit)) or int(digits or 0) > limit:
        raise ValueError(f"rational {text!r} has an exponent beyond {limit} in magnitude")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"rational {text!r} has a zero denominator") from None


def as_rational(value) -> Fraction:
    """One eigenvalue: text read by :func:`parse_rational`, as the command line
    reads it, and any other value by ``Fraction`` (a float stays exact).  Every
    value that does not read raises ``ValueError``, an infinity, ``None`` or a
    complex number too."""
    if isinstance(value, str):
        return parse_rational(value)
    try:
        return Fraction(value)
    except (OverflowError, TypeError) as err:
        raise ValueError(f"cannot read {value!r} as a rational: {err}") from None


def format_rational(x: Fraction | int) -> str:
    """Render a rational as ``"num/den"``, or ``"num"`` when integral."""
    if isinstance(x, Fraction):
        return str(x)  # Fraction.__str__ is exactly this format
    if isinstance(x, int):
        return str(int(x))  # int() renders a bool as 0 or 1
    return str(Fraction(x))
