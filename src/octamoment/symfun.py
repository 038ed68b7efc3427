"""Monomial and power-sum bilinear series in two matrix alphabets, and
their one evaluation kernel.

Both bases evaluate through one integer kernel,
``_BilinearExpansion.evaluate``.  Each basis names only its table: the
values of every basis function of one degree at one alphabet, as
integers over one common denominator.  The letters are scaled to
integers over their common denominator ``den`` once, and each table is
over ``den**n``.  The monomial table is one pass over the letters through
one memoized transition list per degree (the placement table: the states
are the partitions of ``j <= n``, a transition places one exponent on one
letter); the power-sum table multiplies the integer power sums of the
scaled letters per partition.  The kernel evaluates each alphabet once,
sums integer rows over the common denominator of the coefficients, and
divides once at the end; the p -> m basis change is in ``hypermaps``.

Expansions are stored sparsely: a missing ``(lam, mu)`` key means the
coefficient is 0.  Canonical key order everywhere is (reverse-lex ``lam``,
reverse-lex ``mu``), i.e. plain descending tuple order; an expansion
keeps its nonzero coefficients once, in that order, in the read-only
``coeffs``, built at construction and keyed by
:class:`~octamoment.partitions.Partition` pairs whatever tuples the
caller passed; a zero it is handed is dropped there.  Its order ``n``
must be ``>= 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, prod
from operator import mul
from types import MappingProxyType
from typing import ItemsView, Mapping, Sequence

from .partitions import Partition, as_rational, format_partition, format_rational, partitions_of

__all__ = ["MonomialExpansion", "PowerSumExpansion"]

Key = tuple[Partition, Partition]
_Row = tuple[int, tuple[int, ...], tuple[int, ...]]  # lam index, mu indices, numerators


@dataclass(frozen=True)
class _BilinearExpansion:
    """Sparse bilinear series sum coeff(lam, mu) * f_lam(x) f_mu(y)."""

    n: int
    coeffs: Mapping[Key, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        parts = frozenset(partitions_of(self.n) if self.coeffs and self.n >= 0 else ())
        for lam, mu in self.coeffs:
            if lam not in parts or mu not in parts:
                raise ValueError(f"key ({lam}, {mu}) does not index order {self.n}")
        if self.n < 0:  # with no key to name
            raise ValueError(f"order n = {self.n} must be >= 0")
        # A private read-only copy of the nonzero terms in canonical order
        # with Partition keys: the caller's dict is neither converted nor
        # shared, and a cached expansion cannot be changed through its
        # coefficients.
        coeffs = {}
        for key in sorted(self.coeffs, reverse=True):
            c = self.coeffs[key]
            if not c:
                continue
            lam, mu = key
            if type(lam) is not Partition or type(mu) is not Partition:
                key = Partition(lam), Partition(mu)
            coeffs[key] = c if isinstance(c, Fraction) else Fraction(c)
        object.__setattr__(self, "coeffs", MappingProxyType(coeffs))

    def coeff(self, lam: Partition, mu: Partition) -> Fraction:
        return self.coeffs.get((Partition(lam), Partition(mu)), Fraction(0))

    def items(self) -> ItemsView[Key, Fraction]:
        """The nonzero terms ``((lam, mu), coeff)`` in canonical order."""
        return self.coeffs.items()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):  # the same coefficients differ across bases
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):  # pragma: no cover - expansions are not dict keys
        return hash((self.n, tuple(self.items())))

    def to_records(self) -> list[dict[str, str]]:
        """JSON-ready records {lambda, mu, coeff} in canonical order."""
        names = {lam: format_partition(lam) for lam in partitions_of(self.n)}
        return [
            {"lambda": names[lam], "mu": names[mu], "coeff": format_rational(c)}
            for (lam, mu), c in self.items()
        ]

    @cached_property
    def _integer_rows(self) -> tuple[int, tuple[_Row, ...]]:
        """``(den, rows)``: the common denominator of the coefficients, and
        one row ``(lam index, mu indices, numerators over den)`` per
        ``lam``, indices in ``partitions_of(n)`` order.  Built on the first
        evaluation, so an expansion that is only displayed never pays for
        it."""
        den = lcm(*{c.denominator for c in self.coeffs.values()})
        index = {lam: i for i, lam in enumerate(partitions_of(self.n))}
        rows: dict[int, list[tuple[int, int]]] = {}
        for (lam, mu), c in self.items():
            scaled = c.numerator * (den // c.denominator)
            rows.setdefault(index[lam], []).append((index[mu], scaled))
        return den, tuple((i, *zip(*row)) for i, row in rows.items())

    def evaluate(self, xs: Sequence[Fraction], ys: Sequence[Fraction]) -> Fraction:
        """The one evaluation kernel of both bases: integer arithmetic over
        the common denominators of the coefficients and of each alphabet,
        one division at the end.  A basis supplies ``_table(eigs)``, its
        functions of degree ``n`` at the alphabet as integer numerators in
        ``partitions_of(n)`` order and their denominator."""
        fx, den_x = self._table(xs)
        fy, den_y = self._table(ys)
        den, rows = self._integer_rows
        total = 0
        for i, cols, nums in rows:
            if fx[i]:
                total += fx[i] * sum(map(mul, nums, map(fy.__getitem__, cols)))
        return Fraction(total, den * den_x * den_y)


class MonomialExpansion(_BilinearExpansion):
    """Expansion in m_lam(X) m_mu(Y)."""

    def _table(self, eigs: Sequence[Fraction]) -> tuple[list[int], int]:
        return _monomial_numerators(self.n, eigs)


class PowerSumExpansion(_BilinearExpansion):
    """Expansion in p_lam(X) p_mu(Y)."""

    def _table(self, eigs: Sequence[Fraction]) -> tuple[list[int], int]:
        return _power_sum_numerators(self.n, eigs)


@lru_cache(maxsize=None)
def _placements(n: int) -> tuple[int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]]:
    """The placement table of degree ``n``: ``(state count, moves)``.

    The states are the partitions of every ``j <= n``, indexed so that the
    larger ``j`` come first and state ``i < p(n)`` is
    ``partitions_of(n)[i]``; the empty partition is the last state.  The
    moves of a state ``src`` with ``j < n`` are its transitions
    ``(src, k, dst)``, stored as ``(src, ((k, dst), ...))``: one letter
    takes the exponent ``k``.  Sources come in ascending order and every
    transition into a state comes from a later one, so a pass in this
    order reads each state before any move of the same letter writes to
    it.  Memoized; the table is a read-only tuple.
    """
    states = [lam for j in range(n, -1, -1) for lam in partitions_of(j)]
    index = {lam: i for i, lam in enumerate(states)}
    moves = []
    for src, state in enumerate(states):
        targets = tuple(
            (k, index[tuple(sorted(state + (k,), reverse=True))])
            for k in range(1, n - state.n + 1)
        )
        if targets:
            moves.append((src, targets))
    return len(states), tuple(moves)


def _scaled_letters(eigs: Sequence[Fraction]) -> tuple[list[int], int]:
    """The letters, read by ``as_rational`` (a ``Fraction`` is taken as it
    is), as integers over their common denominator: ``(a, den)`` with
    ``eigs[i] = a[i] / den``; a table of degree ``n`` is over ``den**n``."""
    xs = [e if type(e) is Fraction else as_rational(e) for e in eigs]
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _monomial_numerators(n: int, eigs: Sequence[Fraction]) -> tuple[list[int], int]:
    """``m_lam(eigs)`` for every partition ``lam`` of ``n`` over one common
    denominator: ``(numerators in partitions_of(n) order, den**n)``.

    Each nonzero scaled letter (:func:`_scaled_letters`) is one in-place
    pass over the moves of :func:`_placements`, a letter taking no
    exponent or exactly one, so every monomial of degree ``n`` arises from
    exactly one path.  A state still 0 (more parts than letters so far) is
    skipped with all its moves.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    letters, den = _scaled_letters(eigs)
    size, moves = _placements(n)
    values = [0] * size
    values[-1] = 1
    for a in letters:
        if a == 0:  # a zero letter can only take no exponent
            continue
        powers = [a**k for k in range(n + 1)]
        for src, targets in moves:
            v = values[src]
            if v:
                for k, dst in targets:
                    values[dst] += v * powers[k]
    return values[: len(partitions_of(n))], den**n


def _power_sum_numerators(n: int, eigs: Sequence[Fraction]) -> tuple[list[int], int]:
    """``p_lam(eigs)`` for every partition ``lam`` of ``n`` over one common
    denominator: ``(numerators in partitions_of(n) order, den**n)``.

    The power sum ``p_k`` of the scaled letters (:func:`_scaled_letters`)
    is ``den**k p_k(eigs)``, an integer, and ``p_lam`` is the product of
    the ``p_k`` of its parts."""
    letters, den = _scaled_letters(eigs)
    sums = [sum(a**k for a in letters) for k in range(n + 1)]
    return [prod(map(sums.__getitem__, lam)) for lam in partitions_of(n)], den**n

