"""Named verification suites: each cross-checks a closed formula against an
independent oracle and reports one pass/fail line per check.

The command-line ``verify`` subcommand runs them through :func:`run_suite`,
and ``coeffs`` runs :func:`coeffs_self_check` before it prints a table.
The ``complex``, ``corollaries`` and ``special`` suites compare against
the oracle series of :mod:`~octamoment.hypermaps`
(``oracle_monomial_expansion``, ``pairing_power_sum_series``), by
coefficient or evaluated at identity matrices.  ``strata`` and the forest
half of ``bijection`` walk each order's strata once (:func:`_strata`);
``strata`` reads its per-stratum checks from one table of stratum values,
and its whole-expansion check reads :func:`~octamoment.hypermaps.lp_table`.
The self-check compares whole tables, and every (lambda, mu) view of a
table keyed (lambda, mu, r) comes from :func:`~octamoment.hypermaps.by_pair`.
The acceptance tests in ``tests/test_acceptance.py`` do not import this
module: they repeat the checks in their own code.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import closedform as cf
from . import forests as fo
from . import hypermaps as hm
from . import moments as mo
from .arrays import enumerate_M
from .partitions import Partition, aut, format_partition, odd_double_factorial, partitions_of

__all__ = ["CheckResult", "run_suite", "SUITES", "coeffs_self_check"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}" + (
            f": {self.detail}" if self.detail else ""
        )


def _strata(n: int):
    """The strata of order ``n`` as ``(lam, mu, r, a)``: for each ``lam``,
    each ``mu`` and each ``r``, the arrays ``a`` of :func:`enumerate_M`."""
    parts = partitions_of(n)
    for lam in parts:
        for mu in parts:
            for r in range(n // 2 + 1):
                for a in enumerate_M(lam, mu, r):
                    yield lam, mu, r, a


def suite_bijection(n_max: int = hm.DEFAULT_PARTITIONED_BOUND) -> list[CheckResult]:
    """Round trips both ways plus forest validity and degree preservation;
    the forest side stops at the forest enumeration bound.  Each half
    reports its first failure."""
    results = []
    for n in range(1, n_max + 1):
        count = 0
        bad = None
        for h in hm.iter_partitioned_hypermaps(n):
            forest = fo.theta_forward(h)
            try:  # theta_inverse validates the forest first (step 0)
                back = fo.theta_inverse(forest)
            except fo.MalformedForestError as err:
                if err.step:
                    raise
                bad = f"invalid forest for {h}"
                break
            if fo.forest_degree(forest) != hm.degree_array(h):
                bad = f"degree mismatch for {h}"
                break
            if back != h:
                bad = f"round trip failed for {h}"
                break
            count += 1
        results.append(
            CheckResult(
                f"bijection/hypermap-round-trip n={n}",
                bad is None,
                bad or f"{count} objects",
            )
        )
    for n in range(1, min(fo.DEFAULT_FOREST_BOUND, n_max) + 1):
        oracle = hm.lp_by_array(n)
        checked = 0
        bad = None
        for *_, a in _strata(n):
            forests = fo.enumerate_forests(a)
            if len(forests) != oracle.get(a, 0):
                bad = f"count mismatch at {a}"
                break
            if any(fo.theta_forward(fo.theta_inverse(f)) != f for f in forests):
                bad = f"reverse round trip failed at {a}"
                break
            checked += len(forests)
        results.append(
            CheckResult(
                f"bijection/forest-round-trip n={n}",
                bad is None,
                bad or f"{checked} forests",
            )
        )
    return results


def suite_strata(n_max: int = hm.DEFAULT_PARTITIONED_BOUND) -> list[CheckResult]:
    """Per-stratum count, generic and continued, against the enumeration
    oracle, the full expansion assembly, the aggregated counts, and, once
    ``n_max`` reaches its boundary case at n = 2, the flagged-set sanity.
    Each order's strata are walked once, into one table of their values."""
    results = []
    flagged = 0
    documented = False
    for n in range(1, n_max + 1):
        oracle = hm.lp_by_array(n)
        values = {s: cf.F_formula(s[-1], n) for s in _strata(n)}
        mismatches = sum(sv.value != oracle.get(a, 0) for (*_, a), sv in values.items())
        results.append(
            CheckResult(
                f"strata/per-stratum-count n={n}",
                mismatches == 0,
                f"{len(values)} strata, {mismatches} mismatches",
            )
        )
        sums: dict[tuple[int, int, int, int, int], tuple[int, int]] = {}
        for (lam, mu, r, a), sv in values.items():
            key = (a.num_white + 1, a.num_white_root, a.num_black, a.num_black_root, r)
            formula, counted = sums.get(key, (0, 0))
            sums[key] = (formula + sv.value, counted + oracle.get(a, 0))
            if not sv.well_defined:
                flagged += 1
                documented |= (
                    n == 2 and lam == mu == Partition([2]) and r == 1 and oracle.get(a, 0) == 1
                )
        results.append(
            CheckResult(
                f"strata/aggregated-count n={n}",
                all(
                    formula == counted == cf.F_counts(*key, n)
                    for key, (formula, counted) in sums.items()
                ),
                f"{len(sums)} profiles",
            )
        )
        lp = hm.by_pair(hm.lp_table(n))
        expansion = cf.real_expansion(n)
        exp_bad = sum(
            expansion.coeff(lam, mu) != aut(lam) * aut(mu) * lp.get((lam, mu), 0)
            for lam in partitions_of(n)
            for mu in partitions_of(n)
        )
        symmetric = all(
            expansion.coeff(lam, mu) == expansion.coeff(mu, lam)
            for lam in partitions_of(n)
            for mu in partitions_of(n)
        )
        results.append(
            CheckResult(
                f"strata/real-expansion n={n}",
                exp_bad == 0 and symmetric,
                f"{exp_bad} coefficient mismatches",
            )
        )
    if n_max >= 2:
        results.append(
            CheckResult(
                "strata/flagged-set",
                documented,
                f"{flagged} flagged strata, documented boundary case "
                + ("present" if documented else "MISSING"),
            )
        )
    return results


def suite_complex(n_max: int = hm.DEFAULT_PAIRING_BOUND) -> list[CheckResult]:
    """Complex coefficients against the complex oracle series, the
    orientable slice of the pairing counts."""
    results = []
    for n in range(1, n_max + 1):
        oracle = hm.oracle_monomial_expansion(n, "complex")
        bad = 0
        zero_cases = 0
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                coeff = cf.complex_coeff(n, lam, mu)
                if coeff != oracle.coeff(lam, mu):
                    bad += 1
                if lam.length + mu.length > n + 1:
                    zero_cases += 1
                    if coeff != 0:
                        bad += 1
        results.append(
            CheckResult(
                f"complex/coefficients n={n}",
                bad == 0 and cf.complex_expansion(n) == oracle,
                f"{zero_cases} zero cases included",
            )
        )
    return results


def suite_corollaries(n_max: int | None = None) -> list[CheckResult]:
    """Identity-matrix specializations at ranks ``l, m <= 5`` against the
    oracle series at ``1^l, 1^m`` (``p_lam(1^l) = l^len(lam)``, ``m_lam(1^l)
    = (l)_len(lam) / Aut_lam``) for ``n <= n_max``: real against both bases,
    complex against power sums.  Without ``n_max`` the real half runs to
    n = 5 and the complex half to n = 7."""
    real_top, complex_top = (5, 7) if n_max is None else (n_max, n_max)
    ranks = [(l, m) for l in range(6) for m in range(6)]
    results = []
    for n in range(1, real_top + 1):
        power_sums, monomials = hm.pairing_power_sum_series(n), hm.oracle_monomial_expansion(n)
        ok = all(
            cf.q_real(n, l, m)
            == power_sums.evaluate([1] * l, [1] * m)
            == monomials.evaluate([1] * l, [1] * m)
            for l, m in ranks
        )
        results.append(CheckResult(f"corollaries/real n={n}", ok, "l,m <= 5"))
    for n in range(1, complex_top + 1):
        series = hm.pairing_power_sum_series(n, "complex")
        ok = all(cf.q_compl(n, l, m) == series.evaluate([1] * l, [1] * m) for l, m in ranks)
        results.append(CheckResult(f"corollaries/complex n={n}", ok, "l,m <= 5"))
    return results


def suite_special(n_max: int = 6) -> list[CheckResult]:
    """Single-black-vertex and hook coefficients against the real oracle
    series, plus the cell-sum identity."""
    results = []
    for n in range(1, n_max + 1):
        oracle = hm.oracle_monomial_expansion(n)
        bad = []
        for lam in partitions_of(n):
            if cf.coeff_m_lambda_m_n(n, lam) != oracle.coeff(lam, Partition([n])):
                bad.append(f"m_{format_partition(lam)} x m_n")
        for a in range(0, n + 1):
            value = cf.coeff_hook(n, a)
            if 2 * a <= n - 1:
                hook = Partition([n - a] + [1] * a)
                if value != oracle.coeff(hook, hook):
                    bad.append(f"hook a={a}")
            elif value != 0:
                bad.append(f"hook a={a} should vanish")
        for lam in partitions_of(n):
            if not cf.remark_identity_check(lam):
                bad.append(f"cell-sum identity at {format_partition(lam)}")
        results.append(
            CheckResult(f"special/coefficients n={n}", not bad, "; ".join(bad))
        )
    return results


def suite_mc(samples: int = mo._MC_SAMPLES, seed: int = mo._MC_SEED) -> list[CheckResult]:
    """Monte Carlo estimates against exact values, |z| <= 5.  The cases
    draw from ``seed``, ``seed + 1`` and ``seed + 2``, each a Philox key,
    so a ``seed`` from ``2**128 - 2`` on raises ``ValueError``."""
    if seed >= (1 << 128) - 2:
        raise ValueError(
            "the mc suite draws from seed, seed + 1 and seed + 2, so --seed must be below 2**128 - 2"
        )
    results = []
    fields = (
        ("real", mo.moment_real_exact, mo.mc_moment_real),
        ("complex", mo.moment_complex_exact, mo.mc_moment_complex),
    )
    ident = {m: mo.MatrixSpec.identity(m) for m in (2, 3)}
    # (label, n, X, Y, seed per field)
    cases = [
        (f"n={n} m={m}", n, ident[m], ident[m], (seed, seed + 1))
        for n, m in ((1, 2), (2, 2), (2, 3), (3, 2))
    ]
    # one non-trivial rational-eigenvalue pair
    x = mo.MatrixSpec.from_eigs([Fraction(3, 2), Fraction(-1, 2)])
    y = mo.MatrixSpec.from_eigs([Fraction(1, 3), 2])
    cases.append(("rational eigenvalues n=2", 2, x, y, (seed + 2, seed + 2)))
    again = cases[1]  # the reproducibility check draws its real estimate again
    for case in cases:
        label, n, x, y, seeds = case
        for (field, exact_moment, estimator), field_seed in zip(fields, seeds):
            exact = float(exact_moment(n, x, y))
            est = estimator(n, x, y, samples, field_seed)
            z = est.z_score(exact)
            if case is again and field == "real":
                kept = est
            name = f"mc/{field} {label}"
            results.append(
                CheckResult(name, abs(z) <= 5, f"mean={est.mean:.4f} exact={exact:.4f} z={z:+.2f}")
            )
    _, n, x, y, seeds = again
    rerun = mo.mc_moment_real(n, x, y, samples, seeds[0])
    results.append(
        CheckResult(
            "mc/fixed-seed-reproducible",
            (rerun.mean, rerun.std_error) == (kept.mean, kept.std_error),
        )
    )
    return results


def coeffs_self_check(n: int) -> list[CheckResult]:
    """Internal cross-checks behind the coefficient tables, each a
    comparison of whole tables: pairing totals, the class-algebra route,
    the double-coset route and coset sizes (n <= 3), and the symmetry of
    the r-summed table and of its r = 0 slice.  Reachable for n <= 7,
    the pairing bound: past it :func:`hm.L_table` raises before any
    check runs, so the class-algebra route (bound 8) runs for every
    reachable n."""
    results = []
    table = hm.L_table(n)
    total, expected = sum(table.values()), odd_double_factorial(n)
    results.append(
        CheckResult(
            f"coeffs/pairing-total n={n}",
            total == expected,
            f"{total} == (2n-1)!! = {expected}",
        )
    )
    orientable = hm.c_from_L(table)
    results.append(
        CheckResult(
            f"coeffs/class-algebra n={n}",
            dict(hm.class_connection_table(n)) == orientable,
        )
    )
    if n <= hm.DEFAULT_COSET_BOUND:
        _, sizes = hm.double_coset_data(n)
        expected_sizes = {lam: hm.expected_coset_size(n, lam) for lam in partitions_of(n)}
        results.append(
            CheckResult(
                f"coeffs/double-coset n={n}",
                dict(hm.double_coset_table(n)) == hm.b_from_L(table)
                and dict(sizes) == expected_sizes,
                f"coset sizes verified for {len(expected_sizes)} types",
            )
        )
    # commutativity of both algebras
    symmetric = all(
        pairs == {(mu, lam): c for (lam, mu), c in pairs.items()}
        for pairs in (hm.by_pair(table), orientable)
    )
    results.append(CheckResult(f"coeffs/symmetry n={n}", symmetric))
    return results


SUITES = {
    "bijection": suite_bijection,
    "strata": suite_strata,
    "complex": suite_complex,
    "corollaries": suite_corollaries,
    "mc": suite_mc,
    "special": suite_special,
}


# The enumeration oracle each suite reads, and its size bound.
_ORACLE_BOUNDS = {
    "bijection": ("partitioned-hypermap", hm.DEFAULT_PARTITIONED_BOUND),
    "strata": ("partitioned-hypermap", hm.DEFAULT_PARTITIONED_BOUND),
    "complex": ("pairing", hm.DEFAULT_PAIRING_BOUND),
    "corollaries": ("pairing", hm.DEFAULT_PAIRING_BOUND),
    "special": ("pairing", hm.DEFAULT_PAIRING_BOUND),
}


def run_suite(name: str, **options) -> list[CheckResult]:
    """Run one suite with the options the caller set; an option set to
    ``None`` is unset.  An option the suite does not take and an ``n_max``
    below 1 raise ``ValueError``; an ``n_max`` beyond the size bound of the
    suite's enumeration oracle is clamped to that bound, and the clamp is
    noted on stderr."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    options = {key: value for key, value in options.items() if value is not None}
    takes = inspect.signature(SUITES[name]).parameters
    for option in options:
        if option not in takes:
            raise ValueError(f"the {name} suite takes no {option}")
    n_max = options.get("n_max")
    if n_max is not None:
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        oracle, bound = _ORACLE_BOUNDS[name]
        if n_max > bound:
            print(
                f"note: {name} suite clamps n_max={n_max} to the {oracle} oracle bound {bound}",
                file=sys.stderr,
            )
            options["n_max"] = bound
    return SUITES[name](**options)
