"""Trace moments of X U Y U^t (real Gaussian U) and X U Y U^* (complex
Gaussian U): exact evaluation of the expansions at eigenvalue lists, and
Monte Carlo estimation on dense matrices.

The exact layer works in integer and rational arithmetic only:
``moment_real_exact`` evaluates the real expansion through the one
integer evaluation kernel of :mod:`~octamoment.symfun`, and
``moment_complex_exact`` sums that kernel's monomial table by length;
each divides once at the end.  The Monte Carlo layer is double
precision.  They meet where an estimate is set against the exact value:
:meth:`MCEstimate.to_json` and :meth:`MCEstimate.z_score` take the exact
moment as a float, and the test harnesses compare estimates against exact
values with explicit statistical tolerances.

Complex normalization: the entries of the complex U have independent
N(0, 1/2) real and imaginary parts, so E|u|^2 = 1.  This is the
convention under which the order-1 moment equals tr(X) tr(Y); the
alternative E|u|^2 = 2 scales the order-n moment by 2^n.

Sampling is reproducible and bit-stable: samples are drawn in shards of
``SHARD_SIZE`` (the last one partial), shard k of a run with seed s uses
the counter-based Philox generator keyed by ``s + (k << 64)``, and the
shards are drawn and reduced one after another, in shard order.  Each
shard is drawn whole (real parts, then imaginary parts) and its traces
are computed in fixed blocks of ``_BLOCK`` samples, as
``T = (X U)(U Y^H)^H`` and ``tr T^n = tr(T^(n - h) T^h)`` with
``h = n // 2``; the complex traces are scaled by the exact ``2^-n``
instead of scaling U.  Estimates are bit-identical from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, sqrt
from typing import Sequence

import numpy as np

from .closedform import complex_length_coeffs, real_expansion
from .partitions import parse_rational, partitions_of
from .symfun import _monomial_numerators

__all__ = [
    "MatrixSpec",
    "MCEstimate",
    "moment_real_exact",
    "moment_complex_exact",
    "mc_moment_real",
    "mc_moment_complex",
    "SHARD_SIZE",
]

SHARD_SIZE = 1 << 14
_BLOCK = 1 << 10  # samples per block of trace computation within a shard
HERMITIAN_TOL = 1e-12


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _dense_entry(x, i: int, j: int) -> float | complex:
    """Entry (i, j) of a JSON matrix: a number, or ``[re, im]`` for a
    complex one; anything else raises ``ValueError`` naming the entry."""
    if _is_number(x):
        return x
    if isinstance(x, list) and len(x) == 2 and all(map(_is_number, x)):
        return complex(x[0], x[1])
    raise ValueError(f"entry ({i}, {j}) must be a number or an [re, im] pair, got {x!r}")


@dataclass(frozen=True)
class MatrixSpec:
    """A real symmetric or hermitian matrix, given by its eigenvalue list
    (exact rationals) or by dense entries (floats)."""

    dim: int
    eigs: tuple[Fraction, ...] | None = None
    entries: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.eigs is None) == (self.entries is None):
            raise ValueError("exactly one of eigs/entries must be given")
        if self.dim < 1:
            raise ValueError("matrix dimension must be >= 1")
        if self.eigs is not None and len(self.eigs) != self.dim:
            raise ValueError("need one eigenvalue per dimension")
        if self.entries is not None:
            m = self.entries
            if m.shape != (self.dim, self.dim):
                raise ValueError("entries must be a dim x dim matrix")
            if not np.isfinite(m).all():
                raise ValueError("matrix entries must be finite")
            if np.abs(m - m.conj().T).max() > HERMITIAN_TOL:
                raise ValueError("matrix is not symmetric/hermitian within 1e-12")

    @classmethod
    def from_eigs(cls, eigs: Sequence) -> "MatrixSpec":
        vals = tuple(Fraction(e) for e in eigs)
        return cls(len(vals), eigs=vals)

    @classmethod
    def identity(cls, m: int) -> "MatrixSpec":
        return cls.from_eigs([1] * m)

    @classmethod
    def projector(cls, l: int, m: int) -> "MatrixSpec":
        """Diagonal matrix with l ones then m - l zeros; ``m >= 1`` and
        ``0 <= l <= m``, else ``ValueError``."""
        if not 0 <= l <= m or m < 1:
            raise ValueError(f"projector needs m >= 1 and 0 <= l <= m, got l = {l}, m = {m}")
        return cls.from_eigs([1] * l + [0] * (m - l))

    @classmethod
    def from_dense(cls, entries) -> "MatrixSpec":
        arr = np.asarray(entries)
        if np.iscomplexobj(arr):
            arr = arr.astype(np.complex128)
        else:
            arr = arr.astype(np.float64)
        return cls(arr.shape[0], entries=arr)

    @classmethod
    def from_json(cls, data: dict) -> "MatrixSpec":
        """Read ``{dim?, eigs | entries}``, each entry a number or an
        ``[re, im]`` pair; a record without either key, or with any other
        kind of entry, raises ``ValueError``."""
        if not isinstance(data, dict) or not data.keys() & {"eigs", "entries"}:
            raise ValueError("a matrix is a JSON object with 'eigs' or 'entries'")
        key = "eigs" if "eigs" in data else "entries"
        if not isinstance(data[key], list):
            raise ValueError(f"'{key}' must be a JSON list")
        if key == "eigs":
            spec = cls.from_eigs([parse_rational(str(e)) for e in data["eigs"]])
        else:
            if not all(isinstance(row, list) for row in data["entries"]):
                raise ValueError("'entries' must be a JSON list of rows")
            rows = [
                [_dense_entry(x, i, j) for j, x in enumerate(row)]
                for i, row in enumerate(data["entries"])
            ]
            spec = cls.from_dense(np.array(rows))
        if spec.dim != data.get("dim", spec.dim):
            raise ValueError("declared dim does not match the matrix")
        return spec

    def dense(self) -> np.ndarray:
        if self.entries is not None:
            return self.entries
        return np.diag(np.array([float(e) for e in self.eigs], dtype=np.float64))

    def exact_eigs(self) -> tuple[Fraction, ...]:
        if self.eigs is None:
            raise ValueError("dense matrices have no exact eigenvalue list")
        return self.eigs


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate with its standard error; reproducible given
    (seed, samples, n, matrices)."""

    mean: float
    std_error: float
    samples: int
    seed: int
    n: int
    dim: int

    def z_score(self, exact: float) -> float:
        if self.mean == exact:
            return 0.0
        return (self.mean - exact) / self.std_error if self.std_error else float("inf")

    def to_json(self, exact: Fraction | None = None) -> dict:
        """JSON-ready record; ``z_score`` is ``None`` (JSON ``null``) when the
        standard error is 0, because JSON has no infinity.  An exact moment
        or an estimate beyond the float range raises ``ValueError``."""
        record = {
            "mean": self.mean,
            "std_error": self.std_error,
            "samples": self.samples,
            "seed": self.seed,
            "n": self.n,
            "dim": self.dim,
        }
        if exact is not None:
            try:
                approx = float(exact)
            except OverflowError:
                raise ValueError(
                    f"the exact order-{self.n} moment does not fit in a float"
                ) from None
            record["exact"] = approx
            record["z_score"] = self.z_score(approx) if self.std_error else None
        if not (isfinite(self.mean) and isfinite(self.std_error)):
            raise ValueError(
                f"the Monte Carlo estimate of the order-{self.n} moment overflows a float"
            )
        return record


def moment_real_exact(n: int, x: MatrixSpec, y: MatrixSpec) -> Fraction:
    """Exact order-n moment of X U Y U^t for real Gaussian U, from the
    closed-form expansion, for every ``n >= 1`` (flagged strata resolved
    by continuation in ``n``).  The expansion is memoized per ``n``, so
    only the first call at an order assembles it."""
    return real_expansion(n).evaluate(x.exact_eigs(), y.exact_eigs())


def moment_complex_exact(n: int, x: MatrixSpec, y: MatrixSpec) -> Fraction:
    """Exact order-n moment of X U Y U^* for complex Gaussian U.

    The coefficient of ``m_lam(X) m_mu(Y)`` depends on the two lengths
    alone (:func:`~octamoment.closedform.complex_length_coeffs`), so the
    moment is ``sum_{k,l} c(n, k, l) M_k(X) M_l(Y)`` with ``M_k`` the sum
    of the ``m_lam`` of length ``k``: at most ``n^2`` terms over one
    monomial table per matrix, in integer arithmetic, without building
    ``complex_expansion(n)``."""
    coeffs = complex_length_coeffs(n)
    sx, den_x = _length_sums(n, x.exact_eigs())
    sy, den_y = _length_sums(n, y.exact_eigs())
    total = sum(c * sx[k] * sy[l] for k, l, c in coeffs)
    return Fraction(total, den_x * den_y)


def _length_sums(n: int, eigs: Sequence[Fraction]) -> tuple[list[int], int]:
    """``M_k = sum_{len(lam) = k} m_lam(eigs)`` for ``k = 0..n`` over the
    common denominator of :func:`~octamoment.symfun._monomial_numerators`."""
    nums, den = _monomial_numerators(n, eigs)
    sums = [0] * (n + 1)
    for lam, v in zip(partitions_of(n), nums):
        sums[len(lam)] += v
    return sums, den


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed % (1 << 64)) + (shard << 64)))


def _block_traces(u: np.ndarray, xd: np.ndarray, yh: np.ndarray, n: int) -> np.ndarray:
    """``tr T^n`` for each ``T = X U Y U^H`` of a block ``u`` of shape
    ``(b, m, m)``, given ``yh = Y^H``."""
    b, m, _ = u.shape
    # T = (X U)(U Y^H)^H: one broadcast product, one flat gemm, one batched product.
    uyh = (u.reshape(b * m, m) @ yh).reshape(b, m, m)
    t = (xd @ u) @ uyh.conj().transpose(0, 2, 1)
    if n == 1:
        return np.einsum("bii->b", t)
    half = t
    for _ in range(n // 2 - 1):
        half = half @ t
    other = half @ t if n % 2 else half
    return np.einsum("bij,bji->b", other, half)


def _mc_moment(
    n: int, x: MatrixSpec, y: MatrixSpec, samples: int, seed: int, complex_field: bool
) -> MCEstimate:
    if n < 1:
        raise ValueError("moment order n must be >= 1")
    if samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    if x.dim != y.dim:
        raise ValueError("X and Y must have equal dimension")
    m = x.dim
    xd, yd = x.dense(), y.dense()
    if not complex_field and (xd.imag.any() or yd.imag.any()):
        raise ValueError("the real moment needs real matrices: X or Y has an imaginary part")
    if complex_field:
        xd = xd.astype(np.complex128)
        yd = yd.astype(np.complex128)
    yh = yd.conj().T

    # One call per shard, so each shard's arrays are freed before the next is drawn.
    def shard_sums(k: int, count: int) -> tuple[float, float]:
        rng = _shard_rng(seed, k)
        re = rng.standard_normal((count, m, m))
        im = rng.standard_normal((count, m, m)) if complex_field else None
        values = np.empty(count)
        for s in range(0, count, _BLOCK):
            e = min(s + _BLOCK, count)
            u = re[s:e] + 1j * im[s:e] if complex_field else re[s:e]
            values[s:e] = _block_traces(u, xd, yh, n).real
        if complex_field:
            # U is drawn with unit-variance parts, not N(0, 1/2): scale tr T^n by 2^-n.
            values *= 0.5**n
        return float(values.sum()), float(np.square(values).sum())

    total = 0.0
    total_sq = 0.0
    # An overflow leaves a non-finite estimate, which to_json rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, start in enumerate(range(0, samples, SHARD_SIZE)):
            s, sq = shard_sums(k, min(SHARD_SIZE, samples - start))
            total += s
            total_sq += sq
    mean = total / samples
    variance = (total_sq - samples * mean * mean) / (samples - 1)
    std_error = sqrt(max(variance, 0.0) / samples)
    return MCEstimate(mean, std_error, samples, seed, n, m)


def mc_moment_real(
    n: int, x: MatrixSpec, y: MatrixSpec, samples: int, seed: int
) -> MCEstimate:
    """Monte Carlo estimate of the order-n real moment: U has i.i.d.
    standard normal entries.  A matrix with a nonzero imaginary entry
    raises ``ValueError``."""
    return _mc_moment(n, x, y, samples, seed, complex_field=False)


def mc_moment_complex(
    n: int, x: MatrixSpec, y: MatrixSpec, samples: int, seed: int
) -> MCEstimate:
    """Monte Carlo estimate of the order-n complex moment; per-sample
    traces are real for hermitian inputs so only the real part is kept."""
    return _mc_moment(n, x, y, samples, seed, complex_field=True)
