"""Trace moments of X U Y U^t (real Gaussian U) and X U Y U^* (complex
Gaussian U): exact evaluation of the expansions at eigenvalue lists, and
Monte Carlo estimation on dense matrices.

An eigenvalue list has one reader, :meth:`MatrixSpec.from_eigs`.
The exact layer works in integer and rational arithmetic only:
``moment_real_exact`` evaluates the real expansion through the one
integer evaluation kernel of :mod:`~octamoment.symfun`, and
``moment_complex_exact`` needs only each list's ``e_j`` and ``h_j``;
each divides once at the end.  The Monte Carlo layer is double
precision.  They meet where an estimate is set against the exact value:
:meth:`MCEstimate.to_json` and :meth:`MCEstimate.z_score` take the exact
moment as a float, and the test harnesses compare estimates against exact
values with explicit statistical tolerances.

Complex normalization: the entries of the complex U have independent
N(0, 1/2) real and imaginary parts, so E|u|^2 = 1.  This is the
convention under which the order-1 moment equals tr(X) tr(Y); the
alternative E|u|^2 = 2 scales the order-n moment by 2^n.

Sampling is reproducible and bit-stable: an estimate with seed s draws
one stream from the counter-based Philox generator keyed by s itself, so
any ``0 <= s < 2**128`` is its own stream and any other seed raises
numpy's ``ValueError``.  Each sample reads its ``m^2`` real parts, then,
for the complex field, its ``m^2`` imaginary parts, so the draws do not
depend on how the samples are blocked.  Samples are drawn and traced in
blocks, through buffers allocated once per estimate, and each block adds
its sum and its sum of squares to the totals, so an estimate holds one
block of samples at a time.  A block has at most ``_BLOCK`` (1024)
samples and at most ``_BLOCK_BYTES`` (256 KiB) of U, but at least one
sample (:func:`_block_size`).  The draws, U and the three work buffers
each hold one block's U, so an estimate holds at most about 1.25 MiB of
buffers while one sample's U fits in the cap (``m`` up to 181 in the
real field and 128 in the complex field), and five samples' worth
beyond.  The blocks are walked lazily, so a run in 1-sample blocks keeps
no list of them.  While a block is traced, one helper thread draws the
next block, one fill at a time in block order, so the stream is read as
one thread would read it; the helper is joined before the estimate
returns or raises.  Each block's traces are
``T = (X U)(U Y^H)^H``, with ``U Y^H`` and ``X U = (U^T X^T)^T`` each one
flat gemm over the block, and ``tr T^n = tr(T^(n - h) T^h)`` with
``h = n // 2``; the complex traces are scaled by the exact ``2^-n``
instead of scaling U.  Estimates are bit-identical from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isfinite, sqrt
from typing import Sequence

import numpy as np

from .closedform import complex_length_coeffs, real_expansion
from .partitions import as_rational, format_rational
from .symfun import _scaled_letters

__all__ = [
    "MatrixSpec",
    "MCEstimate",
    "moment_real_exact",
    "moment_complex_exact",
    "mc_moment_real",
    "mc_moment_complex",
]

# A block is at most _BLOCK samples and, above one sample, at most
# _BLOCK_BYTES of U; the draws do not depend on it.
_BLOCK = 1 << 10
_BLOCK_BYTES = 1 << 18
HERMITIAN_TOL = 1e-12
_MC_SAMPLES, _MC_SEED = 200_000, 20240801  # defaults of the mc command and the mc suite


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
                raise ValueError(f"matrix is not symmetric/hermitian within {HERMITIAN_TOL}")

    @classmethod
    def from_eigs(cls, eigs: Sequence, source: str = "eigs") -> "MatrixSpec":
        """Each entry read by ``as_rational``; an entry that it rejects
        raises ``ValueError`` naming ``source`` and its 0-based index."""
        vals = []
        for i, entry in enumerate(eigs):
            try:
                vals.append(as_rational(entry))
            except ValueError as err:
                raise ValueError(f"{source} entry {i}: {err}") from None
        return cls(len(vals), eigs=tuple(vals))

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
        ``[re, im]`` pair; a record with neither key or with both, with rows
        of unequal length, with any other kind of entry, or with a ``dim``
        that is not an integer, raises ``ValueError``."""
        if not isinstance(data, dict) or not data.keys() & {"eigs", "entries"}:
            raise ValueError("a matrix is a JSON object with 'eigs' or 'entries'")
        if data.keys() >= {"eigs", "entries"}:
            raise ValueError("a matrix gives 'eigs' or 'entries', not both")
        key = "eigs" if "eigs" in data else "entries"
        if not isinstance(data[key], list):
            raise ValueError(f"'{key}' must be a JSON list")
        if key == "eigs":
            spec = cls.from_eigs([str(e) for e in data["eigs"]], "'eigs'")
        else:
            if not all(isinstance(row, list) for row in data["entries"]):
                raise ValueError("'entries' must be a JSON list of rows")
            width = len(data["entries"][0]) if data["entries"] else 0
            for i, row in enumerate(data["entries"]):
                if len(row) != width:
                    raise ValueError(f"'entries' row {i} has {len(row)} entries, expected {width}")
            rows = [
                [_dense_entry(x, i, j) for j, x in enumerate(row)]
                for i, row in enumerate(data["entries"])
            ]
            spec = cls.from_dense(np.array(rows))
        dim = data.get("dim", spec.dim)
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise ValueError(f"declared dim must be an integer, got {dim!r}")
        if spec.dim != dim:
            raise ValueError("declared dim does not match the matrix")
        return spec

    def dense(self) -> np.ndarray:
        """The matrix as floats; an eigenvalue beyond the float range raises
        ``ValueError`` (the exact moments take it as it is)."""
        if self.entries is not None:
            return self.entries
        try:
            floats = [float(e) for e in self.eigs]
        except OverflowError:
            raise ValueError("an eigenvalue lies beyond the float range of Monte Carlo") from None
        return np.diag(np.array(floats, dtype=np.float64))

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
        """JSON-ready record; an exact moment adds ``exact``, ``z_score`` and
        ``exact_rational``.  ``z_score`` is ``None`` (JSON ``null``) when the
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
            record["exact_rational"] = format_rational(exact)
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
    moment is ``sum c(n, k, l) M_k(X) M_l(Y)`` over the keys ``(k, l)``
    of that table, with ``M_k`` the sum of the ``m_lam`` of length ``k``
    (:func:`_length_sums`): at most ``n^2`` terms in integer arithmetic,
    without building ``complex_expansion(n)``."""
    table = complex_length_coeffs(n)
    sx, den_x = _length_sums(n, x.exact_eigs())
    sy, den_y = _length_sums(n, y.exact_eigs())
    total = sum(c * sx[k] * sy[l] for (k, l), c in table.items())
    return Fraction(total, den_x * den_y)


def _length_sums(n: int, eigs: Sequence[Fraction]) -> tuple[list[int], int]:
    """``M_k = sum_{len(lam) = k} m_lam(eigs)`` for ``k = 0..n`` over the
    letters' ``den**n``: as ``sum_k M_k u^k = sum_j (u - 1)^j e_j h_{n-j}``
    (Macdonald, I §2), ``M_k = sum_{j >= k} (-1)^(j-k) C(j, k) e_j h_{n-j}``,
    each nonzero scaled letter one pass over the ``e_j`` and one over the ``h_j``."""
    letters, den = _scaled_letters(eigs)
    e, h = [1] + [0] * n, [1] + [0] * n
    for a in filter(None, letters):  # a zero letter changes no e_j or h_j
        for j in range(n, 0, -1):
            e[j] += a * e[j - 1]
        for j in range(1, n + 1):
            h[j] += a * h[j - 1]
    terms = [e[j] * h[n - j] for j in range(n + 1)]
    return [
        sum((-1) ** (j - k) * comb(j, k) * terms[j] for j in range(k, n + 1)) for k in range(n + 1)
    ], den**n


def _block_traces(
    u: np.ndarray, xd: np.ndarray, yh: np.ndarray, n: int, work: Sequence[np.ndarray]
) -> np.ndarray:
    """``tr T^n`` for each ``T = X U Y U^H`` of a block ``u`` of shape
    ``(b, m, m)``, given ``yh = Y^H``.  Every product is written into
    ``work``, three buffers of at least ``b`` samples in the products'
    dtype, so a block allocates nothing of size ``m^2``."""
    b, m, _ = u.shape
    uyh, xu, t = (w[:b] for w in work)
    # T = (X U)(U Y^H)^H from two flat gemms and one batched product:
    # U Y^H directly, X U as (U^T X^T)^T through U^T copied into t, and the
    # batched product reads xu transposed.
    np.matmul(u.reshape(b * m, m), yh, out=uyh.reshape(b * m, m))
    if np.iscomplexobj(uyh):
        np.conjugate(uyh, out=uyh)
    np.copyto(t, u.transpose(0, 2, 1))
    np.matmul(t.reshape(b * m, m), xd.T, out=xu.reshape(b * m, m))
    np.matmul(xu.transpose(0, 2, 1), uyh.transpose(0, 2, 1), out=t)
    if n == 1:
        return np.einsum("bii->b", t)
    # T is read by every power, so the powers alternate between the other two buffers.
    powers = (uyh, xu)
    half = t
    for i in range(n // 2 - 1):
        half = np.matmul(half, t, out=powers[i % 2])
    other = np.matmul(half, t, out=powers[(n // 2 - 1) % 2]) if n % 2 else half
    return np.einsum("bij,bji->b", other, half)


def _block_size(m: int, complex_field: bool) -> int:
    """Samples per block at dimension ``m``: at most ``_BLOCK``, and at most
    ``_BLOCK_BYTES`` of U unless one sample alone is larger."""
    u_bytes = (16 if complex_field else 8) * m * m
    return min(_BLOCK, max(1, _BLOCK_BYTES // u_bytes))


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
    else:  # entries written as [x, 0] pairs come in complex; trace them as floats
        xd, yd = xd.real, yd.real
    yh = yd.conj().T

    # One set of block buffers serves every block; draw[i] holds sample i's
    # real parts, then its imaginary parts.  U is copied out of the draws,
    # so a helper thread can fill the next block's draws while this block
    # is traced.
    block = min(_block_size(m, complex_field), samples)
    draw = np.empty((block, 2 if complex_field else 1, m, m))
    u = np.empty((block, m, m), np.complex128 if complex_field else np.float64)
    work = [np.empty((block, m, m), np.result_type(xd, yh)) for _ in range(3)]
    rng = np.random.Generator(np.random.Philox(key=seed))
    total = 0.0
    total_sq = 0.0
    from concurrent.futures import ThreadPoolExecutor

    # The helper makes one fill at a time, in block order, so the stream is
    # read as by one thread; leaving the pool joins it, also on an error.
    # An overflow leaves a non-finite estimate, which to_json rejects.
    with ThreadPoolExecutor(max_workers=1) as helper, np.errstate(over="ignore", invalid="ignore"):
        fill = helper.submit(rng.standard_normal, out=draw)
        for start in range(0, samples, block):
            b = min(block, samples - start)
            after = min(block, samples - start - b)
            fill.result()
            u.real[:b] = draw[:b, 0]
            if complex_field:
                u.imag[:b] = draw[:b, 1]
            if after:
                fill = helper.submit(rng.standard_normal, out=draw[:after])
            values = _block_traces(u[:b], xd, yh, n, work).real
            if complex_field:
                # U is drawn with unit-variance parts, not N(0, 1/2): scale tr T^n by 2^-n.
                values *= 0.5**n
            total += float(values.sum())
            total_sq += float(np.square(values).sum())
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
