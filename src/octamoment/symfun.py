"""Monomial / power-sum symmetric function evaluation and the p -> m basis
change for bilinear series in two matrix alphabets.

Evaluation goes through one table per alphabet: :func:`monomial_table`
gives every ``m_lam`` of one degree in a single pass over the letters and
:func:`power_sums` every ``p_k`` up to that degree, so a bilinear series
evaluates each alphabet once, not once per term.

Expansions are stored sparsely: a missing ``(lam, mu)`` key means the
coefficient is 0.  Canonical key order everywhere is (reverse-lex ``lam``,
reverse-lex ``mu``), i.e. plain descending tuple order; an expansion
stores its coefficients in that order once, at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .partitions import (
    Partition,
    aut,
    coarsening_counts,
    falling,
    format_partition,
    format_rational,
    parse_partition,
    parse_rational,
    partitions_of,
)

__all__ = [
    "MonomialExpansion",
    "PowerSumExpansion",
    "p_in_m_basis",
    "to_monomial",
    "monomial_table",
    "power_sums",
    "eval_monomial",
    "eval_monomial_ones",
    "eval_power_sum",
]

Key = tuple[Partition, Partition]


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
        # A private read-only copy in canonical order: the caller's dict is
        # neither converted nor shared, and a cached expansion cannot be
        # changed through its coefficients.
        coeffs = {}
        for key in sorted(self.coeffs, reverse=True):
            c = self.coeffs[key]
            coeffs[key] = c if isinstance(c, Fraction) else Fraction(c)
        object.__setattr__(self, "coeffs", MappingProxyType(coeffs))
        object.__setattr__(self, "_terms", tuple((k, c) for k, c in coeffs.items() if c))

    def coeff(self, lam: Partition, mu: Partition) -> Fraction:
        return self.coeffs.get((Partition(lam), Partition(mu)), Fraction(0))

    def items(self) -> tuple[tuple[Key, Fraction], ...]:
        """Nonzero terms in canonical order, filtered once at construction."""
        return self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, _BilinearExpansion):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self):  # pragma: no cover - expansions are not dict keys
        return hash((self.n, self._terms))

    def to_records(self) -> list[dict[str, str]]:
        """JSON-ready records {lambda, mu, coeff} in canonical order."""
        names = {lam: format_partition(lam) for lam in partitions_of(self.n)}
        return [
            {"lambda": names[lam], "mu": names[mu], "coeff": format_rational(c)}
            for (lam, mu), c in self.items()
        ]

    @classmethod
    def from_records(cls, n: int, records: Iterable[Mapping[str, str]]):
        coeffs = {
            (parse_partition(r["lambda"]), parse_partition(r["mu"])): parse_rational(
                r["coeff"]
            )
            for r in records
        }
        return cls(n, coeffs)


class MonomialExpansion(_BilinearExpansion):
    """Expansion in m_lam(X) m_mu(Y)."""

    def evaluate(self, xs: Sequence[Fraction], ys: Sequence[Fraction]) -> Fraction:
        mx = monomial_table(self.n, xs)
        my = monomial_table(self.n, ys)
        return sum((c * mx[lam] * my[mu] for (lam, mu), c in self.items()), Fraction(0))


class PowerSumExpansion(_BilinearExpansion):
    """Expansion in p_lam(X) p_mu(Y)."""

    def evaluate(self, xs: Sequence[Fraction], ys: Sequence[Fraction]) -> Fraction:
        px = power_sums(self.n, xs)
        py = power_sums(self.n, ys)
        return sum(
            (c * _product(px, lam) * _product(py, mu) for (lam, mu), c in self.items()),
            Fraction(0),
        )


def p_in_m_basis(lam: Partition) -> dict[Partition, int]:
    """Expand the power sum p_lam in monomial symmetric functions.

    The coefficient of m_mu is Aut_mu times the number of ways to merge the
    parts of ``lam`` into the parts of ``mu``; the support consists exactly
    of the coarsenings of ``lam``.
    """
    return {mu: aut(mu) * r for mu, r in coarsening_counts(lam).items()}


def to_monomial(series: PowerSumExpansion) -> MonomialExpansion:
    """Apply the p -> m basis change in both alphabets, exactly."""
    out: dict[Key, Fraction] = {}
    for (lam, mu), c in series.items():
        left = p_in_m_basis(lam)
        right = p_in_m_basis(mu)
        for nu, a in left.items():
            for rho, b in right.items():
                key = (nu, rho)
                out[key] = out.get(key, Fraction(0)) + c * a * b
    return MonomialExpansion(series.n, {k: v for k, v in out.items() if v != 0})


def monomial_table(n: int, eigs: Sequence[Fraction]) -> dict[Partition, Fraction]:
    """``m_lam(eigs)`` for every partition ``lam`` of ``n``, in one pass.

    The state after a prefix of the letters is the multiset of exponents
    placed so far, a partition of some ``j <= n``.  The next letter takes
    no exponent or exactly one exponent ``k <= n - j``, weighted by its
    ``k``-th power, so every monomial of degree ``n`` arises from exactly
    one path.  The cost is ``O(d * n * sum_{j<=n} p(j))`` for ``d``
    letters.  Letters are scaled to integers over their common
    denominator, so the pass is pure integer arithmetic; ``m_lam`` is
    homogeneous of degree ``n`` and takes the denominator ``den**n``.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    xs = [Fraction(e) for e in eigs]
    den = lcm(*(x.denominator for x in xs))
    states: dict[tuple[int, ...], int] = {(): 1}
    for x in xs:
        a = x.numerator * (den // x.denominator)
        if a == 0:  # a zero letter can only take no exponent
            continue
        powers = [a**k for k in range(n + 1)]
        nxt = dict(states)
        for state, value in states.items():
            for k in range(1, n - sum(state) + 1):
                key = tuple(sorted(state + (k,), reverse=True))
                nxt[key] = nxt.get(key, 0) + value * powers[k]
        states = nxt
    scale = den**n
    return {lam: Fraction(states.get(lam, 0), scale) for lam in partitions_of(n)}


def power_sums(n: int, eigs: Sequence[Fraction]) -> list[Fraction]:
    """``[1, p_1, ..., p_n]`` at a finite alphabet: index ``k`` holds ``p_k``."""
    xs = [Fraction(e) for e in eigs]
    sums = [Fraction(1)]
    powers = xs
    for _ in range(n):
        sums.append(sum(powers, Fraction(0)))
        powers = [p * x for p, x in zip(powers, xs)]
    return sums


def _product(values: Sequence[Fraction], lam: Partition) -> Fraction:
    prod = Fraction(1)
    for part in lam:
        prod *= values[part]
    return prod


def eval_monomial(lam: Partition, eigs: Sequence[Fraction]) -> Fraction:
    """m_lam at a finite alphabet: sum of the distinct monomials with
    exponent multiset ``lam``."""
    return monomial_table(lam.n, eigs)[lam]


def eval_monomial_ones(lam: Partition, l: int) -> Fraction:
    """m_lam at ``l`` ones: ``(l)_{len(lam)} / Aut_lam``."""
    if l < 0:
        raise ValueError("alphabet size must be >= 0")
    return Fraction(falling(l, lam.length), aut(lam))


def eval_power_sum(lam: Partition, eigs: Sequence[Fraction]) -> Fraction:
    """p_lam at a finite alphabet: product of the power sums of the parts."""
    return _product(power_sums(max(lam, default=0), eigs), lam)
