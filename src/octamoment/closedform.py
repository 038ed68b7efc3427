"""Closed-form evaluation of the moment expansions and their stratum counts.

The trace moments of ``X U Y U^t`` (real Gaussian ``U``) expand over pairs
of partitions, and each coefficient splits into strata indexed by an
:class:`~octamoment.arrays.ArrayTuple`.  This module evaluates the
per-stratum count ``F_formula``, the aggregated count ``F_counts``, the
full real and complex expansions, the identity-matrix specializations, and
the special coefficient formulas.  Every count is an integer, taken as one
numerator over one denominator with a single exact division.

Degenerate strata
-----------------
The per-stratum formula is generic: on boundary strata (``r > 0`` and
``p >= n - 2r`` or ``q >= n - 2r``, where ``(n-1-p-2r)!`` or
``(n-q-2r-1)!`` has a negative argument) it produces 0*inf / 0/0 shapes.
:func:`F_formula` evaluates every stratum as the limit of the formula at
``n + eps`` as ``eps -> 0``, which on a generic stratum is the formula's
value, and flags the boundary strata: their :class:`StratumValue` holds
diagnostics naming the factorials with a negative argument, next to the
exact count.
One walk finds the flagged strata of one order and counts each, and it
has two readers: :func:`iter_degenerate_strata` yields the strata with
their counts, one at a time, building only those (the per-stratum list
that ``report`` prints), and :func:`iter_degenerate_pairs` sums them per
``(lam, mu)`` pair and builds no stratum (the summary that ``expansion
--field real`` prints).  Each side is listed once, at its loop weight
``r``, in the side table of :mod:`~octamoment.arrays`, and its factor is
computed once per process, in a table aligned with that one; one count
core (``_stratum_count``) turns a white and a black factor into the
count of their stratum.  The order ``v`` of the prefactor of ``(p, q,
r, n)`` picks the row ``eps**(-v)`` of the seed bracket that the count
core and the real assembly read; where
the thorn factor's zero is not cancelled the prefactor itself is 0.
:func:`F_formula` derives the two factors from one array and calls the
same core; it is the per-stratum route that ``verify --suite strata`` and
the tests use.  The factor ``1/(n-p-q-2r)!`` vanishes at negative
arguments, which is not a degeneracy: it encodes the vanishing thorn
count.

Real assembly
-------------
:func:`real_expansion` does not evaluate strata one by one.  Apart from a
prefactor of ``(p, q, r, n)`` and the seed bracket, every factor of the
count belongs to the white or to the black side of a stratum, and the
bracket is bilinear in white and black sums.  So each ``lam`` gets one
white vector and each ``mu`` one black vector, and a coefficient is their
dot product, flagged strata included.  The result is memoized and
read-only; the strict view that leaves out the (lam, mu) pairs with a
flagged stratum is ``expansion --strict`` in the command line.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from math import comb, factorial, prod
from operator import itemgetter, mul
from types import MappingProxyType

from .arrays import ArrayTuple, Cells, _size, black_sides, white_sides
from .partitions import (
    Partition,
    aut,
    falling,
    format_partition,
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
    "iter_degenerate_strata",
    "iter_degenerate_pairs",
    "real_expansion",
    "complex_coeff",
    "complex_length_coeffs",
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

    ``value`` is the exact count.  ``diagnostics`` names the factorials
    with a negative argument, and is empty unless the generic formula is
    degenerate on the stratum, so that the value is a limit in ``n``.
    """

    value: int
    diagnostics: tuple[str, ...] = ()

    @property
    def well_defined(self) -> bool:
        """False iff the stratum is flagged (its diagnostics are not empty)."""
        return not self.diagnostics


def _factorial_leading(x: int) -> tuple[int, int, int]:
    """The leading Laurent term ``(num/den) eps**v`` of
    ``Gamma(x+1+eps)/Gamma(1+eps)`` as ``(v, num, den)``: ``x!`` for
    ``x >= 0``, and the simple pole ``(-1)**m / (m! eps)`` with ``m = -x-1``
    for ``x < 0``."""
    if x >= 0:
        return 0, factorial(x), 1
    m = -x - 1
    return -1, (-1) ** m, factorial(m)


def _denominator(n: int) -> int:
    """``n!**3 4**(n//2)``: every stratum of order ``n`` has a
    :func:`_prefactor` whose denominator divides it."""
    return factorial(n) ** 3 * 4 ** (n // 2)


@lru_cache(maxsize=None)
def _prefactor(p: int, q: int, r: int, n: int) -> tuple[int, int, int]:
    """The factor of a stratum that depends on ``(p, q, r, n)`` alone, at
    ``n + eps``: ``(n-q-2r-1)! (n-1-p-2r)! / (n-p-q-2r)!`` times
    ``(r-1)!**2 / 4**r`` (1 at ``r = 0``), each ``x!`` continued as
    ``Gamma(x+1+eps)/Gamma(1+eps)``.  Returns its leading term
    ``(num/den) eps**v`` as ``(v, num, den)``, with ``v`` in ``-2..0``:
    where the orders add up to more than 0 (the thorn factor vanishes and
    no pole cancels it) the limit is 0, returned as ``(0, 0, 1)``.  This
    is the one statement of the thorn zero."""
    v, num, den = 0, factorial(max(r - 1, 0)) ** 2, 4**r
    d, e, thorn = n - q - 2 * r, n - 1 - p - 2 * r, n - p - q - 2 * r
    for x, top in ((d - 1, True), (e, True), (thorn, False)):
        x_v, x_num, x_den = _factorial_leading(x)
        if not top:
            x_v, x_num, x_den = -x_v, x_den, x_num
        v += x_v
        num *= x_num
        den *= x_den
    return (0, 0, 1) if v > 0 else (v, num, den)


def _side_weight(cells: Cells, roots: Cells) -> tuple[int, int]:
    """The cell factor of one side as ``(num, den)``: ``C(i-1; j, j)**c /
    c!`` over the non-root cells and ``2**c C(i-1; j, j-1)**c / c!`` over
    the root cells."""
    num, den = 1, 1
    for i, j, c in cells:
        num *= multinomial(i - 1, (j, j)) ** c
        den *= factorial(c)
    for i, j, c in roots:
        num *= (2 * multinomial(i - 1, (j, j - 1))) ** c
        den *= factorial(c)
    return num, den


def _white_factor(i0: int, j0: int, cells: Cells, roots: Cells, r: int, n: int):
    """The factor of one white side as ``(p, num, den, (A, B, s3, j0))``:
    its ``p`` non-root vertices, its cell weight (:func:`_side_weight`)
    times the seed's ``C(i0; j0, j0)`` as ``num/den``, and its bracket
    terms: ``r**2`` times the seed bracket at ``n`` is ``(A + s1 B) d + s2
    s3`` with ``d = n-q-2r`` and the black sums ``(s1, s2)`` of
    :func:`_black_factor`.  At ``r = 0``, where there is no black root,
    the bracket is ``i0 d``."""
    p = _size(cells)
    num, den = _side_weight(cells, roots)
    a = (i0 - 2 * j0) * r * r if r else i0
    s3 = sum((i0 * j - j0 * (i - 1)) * c for i, j, c in cells)
    return p, num * multinomial(i0, (j0, j0)), den, (a, j0 * (n - p) - r * i0, s3, j0)


def _black_factor(cells: Cells, roots: Cells, r: int, n: int):
    """The factor of one black side as ``(q, num, den, (s1, s2))``: its
    ``q`` non-root vertices, its cell weight as ``num/den`` and the black
    sums of its root cells."""
    q = _size(cells)
    num, den = _side_weight(cells, roots)
    s1 = sum(j * c for _, j, c in roots)
    s2 = sum(((n - q) * j - i * r) * c for i, j, c in roots)
    return q, num, den, (s1, s2)


@lru_cache(maxsize=None)
def _white_factors(lam: Partition) -> tuple[tuple, ...]:
    """The factor (:func:`_white_factor`) of every white side of ``lam`` at
    the order of ``lam``, aligned by position with the side table
    :func:`~octamoment.arrays.white_sides`: entry ``[r][k]`` is the factor
    of side ``[r][k]``.  The real assembly and the flagged-strata walk both
    read it, so each factor is computed once per process."""
    by_r = enumerate(white_sides(lam))
    return tuple(tuple([_white_factor(*s, r, lam.n) for s in sides]) for r, sides in by_r)


@lru_cache(maxsize=None)
def _black_factors(mu: Partition) -> tuple[tuple, ...]:
    """:func:`_white_factors` for the black sides of ``mu``
    (:func:`_black_factor`, :func:`~octamoment.arrays.black_sides`)."""
    by_r = enumerate(black_sides(mu))
    return tuple(tuple([_black_factor(*s, r, mu.n) for s in sides]) for r, sides in by_r)


def _bracket_rows(a: int, b: int, s3: int, j0: int, d: int):
    """``r**2`` times the seed bracket at ``n + eps`` over ``(n-q-2r-1)!``,
    one row per power ``eps**0, eps**1, eps**2``.  ``d = n-q-2r`` becomes
    ``d + eps``; ``B`` and ``s2`` have the slopes ``j0`` and ``s1`` in
    ``n``.  Each row holds the coefficients of the black sums ``(1, s1,
    s2)``, so each power is bilinear in a white and a black vector."""
    return ((d * a, d * b, s3), (a, b + j0 * d + s3, 0), (0, j0, 0))


@lru_cache(maxsize=None)
def _diagnostics(p: int, q: int, r: int, n: int) -> tuple[str, ...]:
    """The factorials with a negative argument of a stratum with ``p`` white
    and ``q`` black non-root vertices and ``r`` loop pairs, one string each,
    where :func:`F_formula` flags it (``r > 0`` and ``p >= n-2r`` or ``q >=
    n-2r``); ``()`` on any other stratum."""
    if not (r > 0 and (p >= n - 2 * r or q >= n - 2 * r)):
        return ()
    d = n - q - 2 * r
    named = (("(n-q-2r)!", d), ("(n-1-p-2r)!", n - 1 - p - 2 * r), ("(n-q-2r-1)!", d - 1))
    return tuple(f"negative factorial argument {name} = {x}" for name, x in named if x < 0)


def _stratum_count(white_side, black_side, n: int, r: int, white, black) -> int:
    """The count at order ``n`` of the stratum of ``white_side`` and
    ``black_side`` from the factors of its sides (:func:`_white_factor`,
    :func:`_black_factor`).  The order ``v`` of the prefactor
    (:func:`_prefactor`) picks the row ``eps**(-v)`` of the seed bracket
    (:func:`_bracket_rows`), and the count is that row times the
    prefactor and both side weights, in integers; a thorn zero is a
    prefactor of 0.  Raises ``ArithmeticError``, naming the stratum, if a
    row below ``-v`` is nonzero (a pole survives) or the count is not an
    integer."""
    p, w_num, w_den, terms = white
    q, b_num, b_den, (s1, s2) = black
    v, c_num, c_den = _prefactor(p, q, r, n)
    rows = _bracket_rows(*terms, n - q - 2 * r)[: 1 - v]
    *below, bracket = [c0 + c1 * s1 + c2 * s2 for c0, c1, c2 in rows]
    if any(below):
        a = ArrayTuple.from_sides(white_side, black_side)
        raise ArithmeticError(f"a pole survives the continuation of {a} at n = {n}")
    num, den = w_num * b_num * bracket * c_num, w_den * b_den * c_den
    count, rest = divmod(num, den)
    if rest:
        a = ArrayTuple.from_sides(white_side, black_side)
        raise ArithmeticError(f"count {Fraction(num, den)} of {a} at n = {n} is not an integer")
    return count


def F_formula(a: ArrayTuple, n: int) -> StratumValue:
    """Number of forests (equivalently partitioned hypermaps) with degree
    array ``a``, by the closed formula continued in ``n``.

    The removable factor ``(n-q-2r)!/(n-q-2r)`` between the seed bracket
    and the factorial prefactor is simplified to ``(n-q-2r-1)!``, and the
    count is the limit of the formula at ``n + eps`` as ``eps -> 0``.
    Each ``x!`` becomes ``Gamma(x+1+eps)/Gamma(1+eps)``, which has a
    simple pole at negative ``x``, so the thorn factor ``1/(n-p-q-2r)!``
    has a simple zero there.  The seed bracket over ``(n-q-2r-1)!`` is one
    quadratic in ``eps`` (:func:`_bracket_rows`).  The count is the
    product of the leading Laurent terms when their orders add up to 0,
    and 0 when they add up to more, a limit that :func:`_prefactor`
    returns as its value; on a generic stratum no factorial has a pole,
    and the count is the formula's value.  A negative factorial
    argument flags the stratum (its diagnostics name the factor), but its
    value is still the exact count.  Raises
    ``ArithmeticError`` if a pole survives or the count is not an integer.

    This is the per-stratum route: it derives the two side factors from
    ``a`` and hands them to the count core (:func:`_stratum_count`) that
    :func:`iter_degenerate_strata` calls with factors computed once per
    side.
    """
    r = a.loop_pairs
    white_side = (a.seed_degree, a.seed_loops, a.white, a.white_root)
    black_side = (a.black, a.black_root)
    white = _white_factor(*white_side, r, n)
    black = _black_factor(*black_side, r, n)
    count = _stratum_count(white_side, black_side, n, r, white, black)
    return StratumValue(count, _diagnostics(white[0], black[0], r, n))


@lru_cache(maxsize=None)
def _alpha_parts(r: int, p: int, q: int, pp: int, qp: int) -> tuple[int, int]:
    """:func:`alpha` as an integer ``(num, den)``.

    With ``G(x) = C(-x/2; r) = (-1)**r x (x+2) ... (x+2r-2) / (2**r r!)``
    each term of the double sum is ``p/(p+a) (1 + a q / ((p+2r)(q+b)))
    G(p+a) G(q+b)``.  The first factor of ``G(p+a)`` cancels ``p+a`` and
    the first factor of ``G(q+b)`` cancels ``q+b`` (when ``a q > 0``), so
    the sum is an integer over ``4**r r!**2 (p+2r)``.
    """
    if r == 0:
        return (1 if pp == 0 and qp == 0 else 0), 1

    def rising(x: int, start: int) -> int:  # x+2*start ... x+2r-2
        prod = 1
        for t in range(start, r):
            prod *= x + 2 * t
        return prod

    total = 0
    for a in range(pp + 1):
        white = p * rising(p + a, 1) * comb(pp, a)
        for b in range(qp + 1):
            black = (p + 2 * r) * rising(q + b, 0) + a * q * rising(q + b, 1)
            sign = -1 if (pp + qp - a - b) % 2 else 1
            total += sign * white * black * comb(qp, b)
    return 2 ** (pp + qp) * total, 4**r * factorial(r) ** 2 * (p + 2 * r)


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
    return Fraction(*_alpha_parts(r, p, q, pp, qp))


def _F_count(p: int, pp: int, q: int, qp: int, r: int, n: int) -> int:
    """:func:`F_counts` as one integer numerator over one integer
    denominator, with one exact division.  Raises ``ArithmeticError`` if
    the count is not an integer."""
    a_num, a_den = _alpha_parts(r, p, q, pp, qp)
    top = n + 2 * r - 1
    num = factorial(n) * multinomial(top, (p + 2 * r - 1, q + 2 * r - 1)) * 4**r * a_num
    den = factorial(p) * factorial(pp) * factorial(q) * factorial(qp)
    den *= multinomial(top, (r, r)) * 2 ** (pp + qp) * a_den
    count, rest = divmod(num, den)
    if rest:
        args = (p, pp, q, qp, r, n)
        raise ArithmeticError(f"F_counts{args} = {Fraction(num, den)} is not an integer")
    return count


def F_counts(p: int, pp: int, q: int, qp: int, r: int, n: int) -> int:
    """Total number of forests with ``p`` internal white vertices (the seed
    root counted as internal, so ``p >= 1``), ``pp`` white roots, ``q``
    internal black vertices, ``qp`` black roots and ``r`` loops per side:
    ``n!/(p! pp! q! qp!) C(n+2r-1; p+2r-1, q+2r-1) / C(n+2r-1; r, r)
    2**(2r-pp-qp) alpha``, from one integer numerator and denominator
    with one exact division.  Raises ``ArithmeticError`` if the count is
    not an integer."""
    if p < 1:
        raise ValueError("p counts the seed root, so p >= 1")
    if min(pp, q, qp, r) < 0 or n < 1:
        raise ValueError("arguments out of range")
    return _F_count(p, pp, q, qp, r, n)


@dataclass(frozen=True)
class DegenerateStratum:
    """One flagged stratum of a real moment (:func:`iter_degenerate_strata`);
    ``diagnostics`` names at least one negative factorial (:func:`_diagnostics`
    of a flagged stratum) and is its ``formula_status``, and
    ``oracle_value`` is its exact count, the limit in ``n`` of the
    formula."""

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
            "formula_status": "; ".join(self.diagnostics),
            "oracle_value": self.oracle_value,
        }


def iter_degenerate_strata(n: int) -> Iterator[DegenerateStratum]:
    """The strata of the order-n real moment that :func:`F_formula` flags,
    each with its count, one at a time in assembly order: ``lam``, then
    ``mu`` (both from :func:`~octamoment.partitions.partitions_of`), then
    ``r``, then the order of :func:`~octamoment.arrays.enumerate_M`.  Only
    the flagged strata are built, and none is kept.  The factor of each
    side is computed once, at its own loop weight ``r > 0`` (``r = 0``
    flags nothing), so a flagged stratum costs one call of the count core
    (:func:`_stratum_count`).  This is the list that ``report`` prints.
    ``n < 1`` raises ``ValueError`` at the call, before the first stratum
    is asked for."""
    if n < 1:
        raise ValueError("n must be >= 1")
    stratum = ArrayTuple.from_sides
    return (
        DegenerateStratum(n, lam, mu, r, stratum(white, black), _diagnostics(p, q, r, n), count)
        for lam, mu, r, white, black, p, q, count in _flagged_strata(n)
    )


def iter_degenerate_pairs(n: int) -> Iterator[tuple[Partition, Partition, int, int]]:
    """The ``(lam, mu)`` pairs of the order-n real moment with a flagged
    stratum, in the order of :func:`iter_degenerate_strata`, each as
    ``(lam, mu, strata, total)``: the number of its flagged strata and the
    sum of their counts.  The same walk, each count checked by the count
    core, but no stratum is built.  This is the summary that ``expansion
    --field real`` prints.  ``n < 1`` raises ``ValueError`` at the call."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _flagged_pairs(n)


def _flagged_pairs(n: int) -> Iterator[tuple[Partition, Partition, int, int]]:
    for (lam, mu), strata in groupby(_flagged_strata(n), key=itemgetter(0, 1)):
        counts = [stratum[-1] for stratum in strata]
        yield lam, mu, len(counts), sum(counts)


def _flagged_strata(n: int) -> Iterator[tuple]:
    """Every flagged stratum of order ``n`` in assembly order, as ``(lam,
    mu, r, white side, black side, p, q, count)``: the one walk over the
    strata that :func:`_diagnostics` flags, read by both
    :func:`iter_degenerate_strata` and :func:`iter_degenerate_pairs`."""
    parts, rs = partitions_of(n), range(1, n // 2 + 1)  # r = 0 flags nothing
    blacks = [(mu, black_sides(mu), _black_factors(mu)) for mu in parts]
    for lam in parts:
        whites, white_factors = white_sides(lam), _white_factors(lam)
        # Flagged when p >= n-2r or q >= n-2r (_diagnostics): a black side whose q
        # flags it meets every white side, any other only the white sides whose p does.
        owns = [[k for k, w in enumerate(white_factors[r]) if w[0] >= n - 2 * r] for r in rs]
        for mu, black_sides_mu, black_factors in blacks:
            for r, own in zip(rs, owns):
                if not black_factors[r]:  # many (mu, r) have no side: skip their zip
                    continue
                sides, factors = whites[r], white_factors[r]
                for black, b in zip(black_sides_mu[r], black_factors[r]):
                    q = b[0]
                    for k in range(len(sides)) if q >= n - 2 * r else own:
                        white, w = sides[k], factors[k]
                        count = _stratum_count(white, black, n, r, w, b)
                        yield lam, mu, r, white, black, w[0], q, count


def _white_vector(lam: Partition, n: int) -> list[int]:
    """The white factor of every stratum with white type ``lam``, summed
    per ``(r, q)`` and paired with the bracket row that its prefactor
    picks: three entries per ``(r, q)`` (the coefficients of the black
    sums ``(1, s1, s2)``), over ``n! _denominator(n)``, in one pass over
    the white factors of ``lam`` (:func:`_white_factors`), each at its
    loop weight ``r``.  Every ``(p,
    q, r)`` reads row ``-v``; a thorn zero adds 0, its prefactor being 0."""
    out, scale = [], _denominator(n)
    for r, factors in enumerate(_white_factors(lam)):
        by_p: dict[int, list[int]] = {}  # p -> weighted sums of (A, B, s3, j0)
        for p, num, den, terms in factors:
            w = num * (factorial(n) // den)
            sums = by_p.setdefault(p, [0, 0, 0, 0])
            for k, x in enumerate(terms):
                sums[k] += w * x
        for q in range(n + 1):
            entry = [0, 0, 0]
            for p, sums in by_p.items():
                v, c_num, c_den = _prefactor(p, q, r, n)
                c = c_num * scale // c_den
                row = _bracket_rows(*sums, n - q - 2 * r)[-v]
                for k in range(3):
                    entry[k] += c * row[k]
            out += entry
    return out


def _black_vector(mu: Partition, n: int) -> list[int]:
    """The black factor of every stratum with black type ``mu``, summed per
    ``(r, q)``: the weighted sums of ``(1, s1, s2)``, over ``n!``, at
    slots ``3 (r (n+1) + q)`` onwards.  One pass over the black factors of
    ``mu`` (:func:`_black_factors`), each at its own loop weight ``r``."""
    out = [0] * (3 * (n // 2 + 1) * (n + 1))
    for r, factors in enumerate(_black_factors(mu)):
        for q, num, den, (s1, s2) in factors:
            w, k = num * (factorial(n) // den), 3 * (r * (n + 1) + q)
            out[k] += w
            out[k + 1] += w * s1
            out[k + 2] += w * s2
    return out


@lru_cache(maxsize=None)
def real_expansion(n: int) -> MonomialExpansion:
    """Monomial expansion of the order-n real moment, flagged strata
    included (their counts are limits in ``n``).

    The stratum sum of each coefficient factorizes: apart from the seed
    bracket and the prefactor (:func:`_prefactor`, a function of ``(p, q,
    r, n)``), every factor of :func:`F_formula` belongs to the white or to
    the black side, and each power of ``eps`` in the bracket is bilinear
    in white and black sums.  So the white sides of each ``lam`` and the
    black sides of each ``mu`` are summed once (:func:`_white_vector`,
    :func:`_black_vector`), and the coefficient of ``m_lam m_mu`` is
    ``aut(lam) aut(mu)`` times their dot product.  Raises
    ``ArithmeticError`` if a stratum sum is not an integer.  Memoized: the
    result and its coefficients are read-only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    parts = partitions_of(n)
    blacks = [(mu, aut(mu), _black_vector(mu, n)) for mu in parts]
    den = factorial(n) ** 2 * _denominator(n)
    coeffs: dict[tuple[Partition, Partition], int] = {}
    for lam in parts:
        white, aut_lam = _white_vector(lam, n), aut(lam)
        for mu, aut_mu, black in blacks:
            total, rest = divmod(sum(map(mul, white, black)), den)
            if rest:
                raise ArithmeticError(
                    f"the stratum sum of ({lam}, {mu}) at n = {n} is not an integer"
                )
            coeffs[(lam, mu)] = aut_lam * aut_mu * total
    return MonomialExpansion(n, coeffs)


@lru_cache(maxsize=None)
def complex_length_coeffs(n: int) -> MappingProxyType:
    """The one statement of the order-n complex coefficient by lengths:
    ``(k, l) -> c(n, k, l) = n (n-k)! (n-l)! / (n+1-k-l)!``, a positive
    integer (``(n-l)!/(n+1-k-l)!`` is a falling factorial), for ``1 <= k,
    l <= n`` with ``k + l <= n + 1``, keyed by ``k`` then ``l``; every
    other pair of lengths has coefficient 0.  The coefficient of ``m_lam
    m_mu`` is the entry of ``(len(lam), len(mu))``.  Memoized and
    read-only."""
    if n < 1:
        raise ValueError("n must be >= 1")
    table = {
        (k, l): n * factorial(n - k) * (factorial(n - l) // factorial(n + 1 - k - l))
        for k in range(1, n + 1)
        for l in range(1, n + 2 - k)
    }
    return MappingProxyType(table)


def complex_coeff(n: int, lam, mu) -> int:
    """Coefficient of m_lam(X) m_mu(Y) in the order-n complex moment: the
    entry of ``(len(lam), len(mu))`` in :func:`complex_length_coeffs`
    (which rejects n < 1), 0 when the lengths exceed n+1 in total."""
    table = complex_length_coeffs(n)
    lam, mu = Partition(lam), Partition(mu)
    if lam.n != n or mu.n != n:
        raise ValueError("lam and mu must partition n")
    return table.get((lam.length, mu.length), 0)


def complex_expansion(n: int) -> MonomialExpansion:
    """Monomial expansion of the order-n complex moment, filled from the
    length table :func:`complex_length_coeffs`: the coefficient of ``m_lam
    m_mu`` is the entry of ``(len(lam), len(mu))``."""
    table, parts = complex_length_coeffs(n), partitions_of(n)
    coeffs = {(lam, mu): table.get((len(lam), len(mu)), 0) for lam in parts for mu in parts}
    return MonomialExpansion(n, coeffs)


def q_real(n: int, l: int, m: int) -> int:
    """Order-n real moment of the pair of projectors (I_l, I_m).

    The projector sum of the aggregated counts: :func:`F_counts` weighted
    by ``falling(l, p+pp) falling(m, q+qp)``, the number of injective
    labelings of the white vertices by ``l`` indices and of the black
    vertices by ``m``, over ``(r, p, q, pp, qp)`` with ``p >= 1`` and
    ``q + qp >= 1``.  All ranges close on their own because the falling
    factorials vanish beyond ``p + pp <= l`` and ``q + qp <= m``, and the
    central multinomial of ``F_counts`` vanishes once ``p + q + 2r > n + 1``.
    The sum is taken in integers; raises ``ArithmeticError`` if an
    aggregated count is not an integer.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if l < 0 or m < 0:
        raise ValueError("matrix ranks must be >= 0")
    total = 0
    for p in range(1, l + 1):
        for pp in range(0, l - p + 1):
            white = falling(l, p + pp)
            for q in range(0, m + 1):
                for qp in range(max(0, 1 - q), m - q + 1):
                    weight = white * falling(m, q + qp)
                    for r in range(0, max(0, (n + 1 - p - q) // 2 + 1)):
                        total += weight * _F_count(p, pp, q, qp, r, n)
    return total


def q_compl(n: int, l: int, m: int) -> int:
    """Order-n complex moment of (I_l, I_m):
    ``n! sum_{p,q>=1} C(l;p) C(m;q) C(n-1; p-1, q-1)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if l < 0 or m < 0:
        raise ValueError("matrix ranks must be >= 0")
    total = 0
    for p in range(1, l + 1):
        for q in range(1, m + 1):
            total += comb(l, p) * comb(m, q) * multinomial(n - 1, (p - 1, q - 1))
    return factorial(n) * total


def coeff_m_lambda_m_n(n: int, lam) -> int:
    """Coefficient of m_lam(X) m_(n)(Y) in the real expansion:
    the multinomial of the parts times the product of odd double
    factorials of the parts."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = Partition(lam)
    if lam.n != n:
        raise ValueError("lam must partition n")
    return multinomial(n, lam) * prod(map(odd_double_factorial, lam))


def coeff_hook(n: int, a: int) -> int:
    """Coefficient of m_(n-a,1^a)(X) m_(n-a,1^a)(Y) in the real expansion:
    ``n (n-2a) ((n-a-1)!/(n-2a)!)**2 (2(n-2a)-1)!!``, which is ``(2n-1)!!``
    at ``a = 0``; 0 unless ``2a <= n - 1``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if a < 0:
        raise ValueError("a must be >= 0")
    if 2 * a > n - 1:
        return 0
    if a == 0:
        return odd_double_factorial(n)
    ratio = falling(n - a - 1, a - 1)  # (n-a-1)!/(n-2a)!
    return n * (n - 2 * a) * ratio**2 * odd_double_factorial(n - 2 * a)


def remark_identity_check(lam) -> bool:
    """Check that the black-side cell sum collapses to
    ``(2 lam - 1)!! / (lam! Aut_lam)``.

    The left side sums, over all fillings of the black arrays with row
    sums the multiplicities of ``lam``, the cell factor
    :func:`_side_weight` times ``4^{-j}`` for the filling's j-weight.
    """
    lam = Partition(lam)
    by_weight = enumerate(black_sides(lam))
    lhs = sum(Fraction(*_side_weight(*s)) / 4**w for w, sides in by_weight for s in sides)
    rhs_den = aut(lam) * prod(map(factorial, lam))
    return lhs == Fraction(prod(map(odd_double_factorial, lam)), rhs_den)
