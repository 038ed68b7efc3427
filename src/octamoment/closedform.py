"""Closed-form evaluation of the moment expansions and their stratum counts.

The trace moments of ``X U Y U^t`` (real Gaussian ``U``) expand over pairs
of partitions, and each coefficient splits into strata indexed by an
:class:`~octamoment.arrays.ArrayTuple`.  This module evaluates the
per-stratum count ``F_formula``, the aggregated count ``F_counts``, the
full real and complex expansions, the identity-matrix specializations, and
the special coefficient formulas, all in exact rational arithmetic.

Degenerate strata
-----------------
The per-stratum formula is generic: on boundary strata (``q = 0`` with
``r > 0``, or ``n - 1 - p - 2r < 0``) it produces 0*inf / 0/0 shapes.
:func:`F_formula` evaluates every stratum as the limit of the formula at
``n + eps`` as ``eps -> 0``, which on a generic stratum is the formula's
value, and flags the boundary strata: their :class:`StratumValue` has
``well_defined=False`` and diagnostics naming the factorials with a
negative argument, next to the exact count.  :func:`real_expansion` adds
the flagged strata like any other and lists them with their counts; the
strict view that leaves out their (lam, mu) pairs is ``expansion
--strict`` in the command line.  The factor ``1/(n-p-q-2r)!`` vanishes at
negative arguments, which is not a degeneracy: it encodes the vanishing
thorn count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .arrays import ArrayTuple, _sides, enumerate_M
from .partitions import (
    Partition,
    aut,
    falling,
    format_partition,
    inv_factorial,
    multinomial,
    odd_double_factorial,
    partitions_of,
)
from .symfun import MonomialExpansion

__all__ = [
    "StratumValue",
    "DegenerateStratum",
    "F_formula",
    "F_counts",
    "alpha",
    "RealExpansion",
    "real_expansion",
    "complex_coeff",
    "complex_expansion",
    "q_real",
    "q_compl",
    "coeff_m_lambda_m_n",
    "coeff_hook",
    "remark_identity_check",
]


@dataclass(frozen=True)
class StratumValue:
    """A per-stratum count from :func:`F_formula`.

    ``value`` is the exact count.  ``well_defined`` is False iff the
    generic formula is degenerate on the stratum, so that the value is a
    limit in ``n``; ``diagnostics`` then names the factorials with a
    negative argument.
    """

    value: Fraction
    well_defined: bool = True
    diagnostics: tuple[str, ...] = ()


@lru_cache(maxsize=None)
def _multinomial2(top: int, j: int, k: int) -> int:
    """The integer ``top!/(j! k! (top-j-k)!)``, 0 when ``j`` or ``k`` is
    negative; equal to ``multinomial(top, [j, k])`` for integer ``top``."""
    if j < 0 or k < 0:
        return 0
    return falling(top, j + k) // (factorial(j) * factorial(k))


def _factorial_leading(x: int) -> tuple[int, int, int]:
    """The leading Laurent term ``(num/den) eps**v`` of
    ``Gamma(x+1+eps)/Gamma(1+eps)`` as ``(v, num, den)``: ``x!`` for
    ``x >= 0``, and the simple pole ``(-1)**m / (m! eps)`` with ``m = -x-1``
    for ``x < 0``."""
    if x >= 0:
        return 0, factorial(x), 1
    m = -x - 1
    return -1, (-1) ** m, factorial(m)


def F_formula(a: ArrayTuple, n: int) -> StratumValue:
    """Number of forests (equivalently partitioned hypermaps) with degree
    array ``a``, by the closed formula continued in ``n``.

    For ``r > 0`` the removable factor ``(n-q-2r)!/(n-q-2r)`` between the
    seed bracket and the factorial prefactor is simplified to
    ``(n-q-2r-1)!``, and the count is the limit of the formula at
    ``n + eps`` as ``eps -> 0``.  Each ``x!`` becomes
    ``Gamma(x+1+eps)/Gamma(1+eps)``, which has a simple pole at negative
    ``x``, so the thorn factor ``1/(n-p-q-2r)!`` has a simple zero there.
    The seed bracket over ``(n-q-2r-1)!`` is one quadratic in ``eps``,
    because ``head`` and ``s2`` are linear in ``n`` with slopes ``s1 j0``
    and ``s1``.  The count is the product of the leading Laurent terms
    when their orders add up to 0, and 0 when they add up to more; on a
    generic stratum no factorial has a pole, and the count is the
    formula's value.  A negative factorial argument flags the stratum
    (``well_defined=False``, diagnostics naming the factor), but its value
    is still the exact count.  Raises ``ArithmeticError`` if a pole
    survives or the count is not an integer.

    Every factor is an integer placed in the numerator or the denominator,
    and one ``Fraction`` is built at the end.
    """
    r = a.loop_pairs
    p, pp = a.num_white, a.num_white_root
    q, qp = a.num_black, a.num_black_root
    i0, j0 = a.seed_degree, a.seed_loops
    num = 1
    for i, j, c in a.white + a.black:
        num *= _multinomial2(i - 1, j, j) ** c
    for i, j, c in a.white_root + a.black_root:
        num *= _multinomial2(i - 1, j, j - 1) ** c
    den = a.factorial_product()
    thorn = n - p - q - 2 * r

    if r == 0:
        if thorn >= 0:
            den *= factorial(thorn)
        else:
            num = 0
        num *= i0 * factorial(n - q) * factorial(n - 1 - p)
        return StratumValue(Fraction(num, den))

    d, e = n - q - 2 * r, n - 1 - p - 2 * r
    diagnostics = tuple(
        f"negative factorial argument {name} = {x}"
        for name, x in (("(n-q-2r)!", d), ("(n-1-p-2r)!", e), ("(n-q-2r-1)!", d - 1))
        if x < 0
    )
    # r**2 times the seed bracket over (n-q-2r-1)!: r**2 times its head is
    # ``head * d``, its third term ``s2 * s3``.  ``bracket`` holds the
    # coefficients of eps**0, eps**1, eps**2 at n + eps.
    s1 = s2 = 0
    for i, j, c in a.black_root:
        s1 += j * c
        s2 += ((n - q) * j - i * r) * c
    s3 = sum((i0 * j - j0 * (i - 1)) * c for i, j, c in a.white)
    head = (i0 - 2 * j0) * r * r + s1 * (j0 * (n - p) - r * i0)
    bracket = (head * d + s2 * s3, head + s1 * j0 * d + s1 * s3, s1 * j0)
    order = next((k for k, b in enumerate(bracket) if b), None)
    if order is None:
        return StratumValue(Fraction(0), not diagnostics, diagnostics)
    num *= bracket[order] * _multinomial2(i0, j0, j0) * factorial(r) ** 2 * 2 ** (pp + qp)
    den *= r * r * 4**r
    for x, top in ((d - 1, True), (e, True), (thorn, False)):
        v, c_num, c_den = _factorial_leading(x)
        if not top:
            v, c_num, c_den = -v, c_den, c_num
        order += v
        num *= c_num
        den *= c_den
    if order < 0:
        raise ArithmeticError(f"a pole survives the continuation of {a} at n = {n}")
    value = Fraction(num, den) if order == 0 else Fraction(0)
    if value.denominator != 1:
        raise ArithmeticError(f"count {value} of {a} at n = {n} is not an integer")
    return StratumValue(value, not diagnostics, diagnostics)


@lru_cache(maxsize=None)
def alpha(r: int, p: int, q: int, pp: int, qp: int) -> Fraction:
    """Loop-placement coefficient of the aggregated forest count.

    ``alpha(0, p, q, pp, qp)`` is 1 iff ``pp = qp = 0``.  For ``r > 0`` it
    is a double sum over half-integer-argument binomials.  The published
    display of this sum is too small by a factor ``2^{pp+qp}``: it is
    inconsistent with the per-stratum count (desk check: at
    ``(r,p,q,pp,qp) = (1,1,0,0,1)``, n = 3, the forests number 6, not 3).
    The corrected value used here is validated exhaustively against the
    enumeration oracle in the test suite.
    """
    if min(r, p, q, pp, qp) < 0:
        raise ValueError("alpha arguments must be nonnegative")
    if r == 0:
        return Fraction(1) if pp == 0 and qp == 0 else Fraction(0)
    total = Fraction(0)
    for a in range(pp + 1):
        for b in range(qp + 1):
            sign = -1 if (pp + qp - a - b) % 2 else 1
            inner = Fraction(p, p + a)
            if a * q:
                inner *= 1 + Fraction(a * q, (p + 2 * r) * (q + b))
            term = (
                sign
                * inner
                * multinomial(Fraction(-(p + a), 2), [r])
                * multinomial(Fraction(-(q + b), 2), [r])
                * multinomial(pp, [a])
                * multinomial(qp, [b])
            )
            total += term
    return Fraction(2) ** (pp + qp) * total


def F_counts(p: int, pp: int, q: int, qp: int, r: int, n: int) -> Fraction:
    """Total number of forests with ``p`` internal white vertices (the seed
    root counted as internal, so ``p >= 1``), ``pp`` white roots, ``q``
    internal black vertices, ``qp`` black roots and ``r`` loops per side."""
    if p < 1:
        raise ValueError("p counts the seed root, so p >= 1")
    if min(pp, q, qp, r) < 0 or n < 1:
        raise ValueError("arguments out of range")
    return (
        Fraction(factorial(n), factorial(p) * factorial(pp) * factorial(q) * factorial(qp))
        * multinomial(n + 2 * r - 1, [p + 2 * r - 1, q + 2 * r - 1])
        / multinomial(n + 2 * r - 1, [r, r])
        * Fraction(2) ** (2 * r - pp - qp)
        * alpha(r, p, q, pp, qp)
    )


@dataclass(frozen=True)
class DegenerateStratum:
    """One flagged stratum of an expansion assembly; ``oracle_value`` is its
    count (:func:`F_formula`)."""

    n: int
    lam: Partition
    mu: Partition
    r: int
    array: ArrayTuple
    diagnostics: tuple[str, ...]
    oracle_value: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "lambda": format_partition(self.lam),
            "mu": format_partition(self.mu),
            "r": self.r,
            "A": self.array.to_json(),
            "formula_status": "; ".join(self.diagnostics) or "degenerate",
            "oracle_value": self.oracle_value,
        }


@dataclass(frozen=True, eq=False)
class RealExpansion(MonomialExpansion):
    """A real-moment expansion together with the flagged strata of its
    assembly, in assembly order."""

    degenerate_strata: tuple[DegenerateStratum, ...] = ()


def real_expansion(n: int) -> RealExpansion:
    """Monomial expansion of the order-n real moment.

    Flagged strata count like the others and come with the expansion.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs: dict[tuple[Partition, Partition], Fraction] = {}
    report: list[DegenerateStratum] = []
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            total = Fraction(0)
            for r in range(n // 2 + 1):
                for a in enumerate_M(lam, mu, r):
                    sv = F_formula(a, n)
                    total += sv.value
                    if not sv.well_defined:
                        report.append(
                            DegenerateStratum(n, lam, mu, r, a, sv.diagnostics, int(sv.value))
                        )
            if total:
                coeffs[(lam, mu)] = aut(lam) * aut(mu) * total
    return RealExpansion(n, coeffs, tuple(report))


def _complex_length_coeff(n: int, k: int, l: int) -> Fraction:
    return n * factorial(n - k) * factorial(n - l) * inv_factorial(n + 1 - k - l)


def complex_coeff(n: int, lam, mu) -> Fraction:
    """Coefficient of m_lam(X) m_mu(Y) in the order-n complex moment:
    ``n (n-len(lam))! (n-len(mu))! / (n+1-len(lam)-len(mu))!``, which is 0
    when the lengths exceed n+1 in total."""
    lam, mu = Partition(lam), Partition(mu)
    if lam.n != n or mu.n != n:
        raise ValueError("lam and mu must partition n")
    return _complex_length_coeff(n, lam.length, mu.length)


def complex_expansion(n: int) -> MonomialExpansion:
    """Monomial expansion of the order-n complex moment.

    The coefficient depends on the two lengths alone, so it is computed
    once per pair of lengths and looked up for each pair of partitions.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    by_length = [[_complex_length_coeff(n, k, l) for l in range(n + 1)] for k in range(n + 1)]
    coeffs = {}
    for lam in partitions_of(n):
        row = by_length[len(lam)]
        for mu in partitions_of(n):
            c = row[len(mu)]
            if c:
                coeffs[(lam, mu)] = c
    return MonomialExpansion(n, coeffs)


def q_real(n: int, l: int, m: int) -> Fraction:
    """Order-n real moment of the pair of projectors (I_l, I_m).

    The projector sum of the aggregated counts: :func:`F_counts` weighted
    by ``falling(l, p+pp) falling(m, q+qp)``, the number of injective
    labelings of the white vertices by ``l`` indices and of the black
    vertices by ``m``, over ``(r, p, q, pp, qp)`` with ``p >= 1`` and
    ``q + qp >= 1``.  All ranges close on their own because the falling
    factorials vanish beyond ``p + pp <= l`` and ``q + qp <= m``, and the
    central multinomial of ``F_counts`` vanishes once ``p + q + 2r > n + 1``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if l < 0 or m < 0:
        raise ValueError("matrix ranks must be >= 0")
    total = Fraction(0)
    for p in range(1, l + 1):
        for pp in range(0, l - p + 1):
            white = falling(l, p + pp)
            for q in range(0, m + 1):
                for qp in range(max(0, 1 - q), m - q + 1):
                    weight = white * falling(m, q + qp)
                    for r in range(0, max(0, (n + 1 - p - q) // 2 + 1)):
                        total += weight * F_counts(p, pp, q, qp, r, n)
    return total


def q_compl(n: int, l: int, m: int) -> Fraction:
    """Order-n complex moment of (I_l, I_m):
    ``n! sum_{p,q>=1} C(l;p) C(m;q) C(n-1; p-1, q-1)``."""
    if l < 0 or m < 0:
        raise ValueError("matrix ranks must be >= 0")
    total = Fraction(0)
    for p in range(1, l + 1):
        for q in range(1, m + 1):
            total += (
                multinomial(l, [p])
                * multinomial(m, [q])
                * multinomial(n - 1, [p - 1, q - 1])
            )
    return factorial(n) * total


def coeff_m_lambda_m_n(n: int, lam) -> int:
    """Coefficient of m_lam(X) m_(n)(Y) in the real expansion:
    the multinomial of the parts times the product of odd double
    factorials of the parts."""
    lam = Partition(lam)
    if lam.n != n:
        raise ValueError("lam must partition n")
    value = multinomial(n, list(lam))
    for part in lam:
        value *= odd_double_factorial(part)
    if value.denominator != 1:
        raise AssertionError("coefficient must be integral")
    return value.numerator


def coeff_hook(n: int, a: int) -> int:
    """Coefficient of m_(n-a,1^a)(X) m_(n-a,1^a)(Y) in the real expansion;
    0 unless ``2a <= n - 1``."""
    if a < 0:
        raise ValueError("a must be >= 0")
    if 2 * a > n - 1:
        return 0
    ratio = Fraction(factorial(n - a - 1), factorial(n - 2 * a))
    value = n * (n - 2 * a) * ratio**2 * odd_double_factorial(n - 2 * a)
    if value.denominator != 1:
        raise AssertionError("coefficient must be integral")
    return value.numerator


def remark_identity_check(lam) -> bool:
    """Check that the black-side cell sum collapses to
    ``(2 lam - 1)!! / (lam! Aut_lam)``.

    The left side sums, over all fillings of the black arrays with row
    sums the multiplicities of ``lam``, the product of
    ``2^{root - 2 j (cells)}`` and the cell binomials divided by the cell
    factorials.
    """
    lam = Partition(lam)
    lhs = Fraction(0)
    mult = tuple(sorted(lam.multiplicities().items()))
    for black, black_root, _ in _sides(mult, sum(part // 2 for part in lam)):
        term = Fraction(1)
        for i, j, c in black:
            term *= (
                Fraction(2) ** (-2 * j * c)
                * multinomial(i - 1, [j, j]) ** c
                * inv_factorial(c)
            )
        for i, j, c in black_root:
            term *= (
                Fraction(2) ** ((1 - 2 * j) * c)
                * multinomial(i - 1, [j, j - 1]) ** c
                * inv_factorial(c)
            )
        lhs += term
    rhs_num = 1
    rhs_den = aut(lam)
    for part in lam:
        rhs_num *= odd_double_factorial(part)
        rhs_den *= factorial(part)
    return lhs == Fraction(rhs_num, rhs_den)
