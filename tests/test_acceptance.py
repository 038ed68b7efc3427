"""Acceptance suite: every exit criterion, exact at desk scale.

Each test prints one pass/fail line; run ``pytest -s tests/test_acceptance.py``
to see them, or ``octamoment verify --suite ...`` for the CLI equivalents.
"""

import time
from fractions import Fraction

from octamoment.arrays import enumerate_M
from octamoment.closedform import (
    F_counts,
    F_formula,
    complex_coeff,
    coeff_hook,
    coeff_m_lambda_m_n,
    iter_degenerate_strata,
    q_compl,
    q_real,
    real_expansion,
    remark_identity_check,
)
from octamoment.forests import (
    enumerate_forests,
    forest_degree,
    theta_forward,
    theta_inverse,
    validate_forest,
)
from octamoment.hypermaps import (
    L_table,
    b_from_L,
    c_from_L,
    class_connection_table,
    degree_array,
    double_coset_data,
    double_coset_table,
    expected_coset_size,
    iter_partitioned_hypermaps,
    lp_by_array,
    lp_from_pairings,
    lp_table,
)
from octamoment.moments import (
    MatrixSpec,
    mc_moment_complex,
    mc_moment_real,
    moment_complex_exact,
    moment_real_exact,
)
from octamoment.partitions import (
    Partition,
    aut,
    falling,
    odd_double_factorial,
    partitions_of,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_01_pairing_totals():
    start = time.monotonic()
    ok = all(sum(L_table(n).values()) == odd_double_factorial(n) for n in range(1, 8))
    elapsed = time.monotonic() - start
    report("1 pairing totals n<=7", ok and elapsed < 60, f"{elapsed:.1f}s")


def test_02_class_algebra_cross_check():
    ok = True
    for n in range(1, 7):
        c = c_from_L(L_table(n))
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if class_connection_table(n).get((lam, mu), 0) != c.get((lam, mu), 0):
                    ok = False
    report("2 class algebra n<=6", ok)


def test_03_double_coset_cross_check():
    start = time.monotonic()
    ok = True
    for n in range(1, 4):
        b = b_from_L(L_table(n))
        _, sizes = double_coset_data(n)
        for lam in partitions_of(n):
            if sizes[lam] != expected_coset_size(n, lam):
                ok = False
            for mu in partitions_of(n):
                if double_coset_table(n).get((lam, mu), 0) != b.get((lam, mu), 0):
                    ok = False
    elapsed = time.monotonic() - start
    report("3 double cosets n<=3", ok and elapsed < 120, f"{elapsed:.1f}s")


def test_04_bijection_soundness():
    failures = 0
    count = 0
    for n in range(1, 6):
        for h in iter_partitioned_hypermaps(n):
            forest = theta_forward(h)
            if (
                validate_forest(forest)
                or forest_degree(forest) != degree_array(h)
                or theta_inverse(forest) != h
            ):
                failures += 1
            count += 1
    for n in range(1, 5):
        oracle = lp_by_array(n)
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for r in range(n // 2 + 1):
                    for a in enumerate_M(lam, mu, r):
                        for forest in enumerate_forests(a):
                            if theta_forward(theta_inverse(forest)) != forest:
                                failures += 1
                            count += 1
    report("4 bijection round trips", failures == 0, f"{count} objects")


def test_05_stratum_counting():
    failures = 0
    flagged = []
    for n in range(1, 6):
        oracle = lp_by_array(n)
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for r in range(n // 2 + 1):
                    for a in enumerate_M(lam, mu, r):
                        sv = F_formula(a, n)
                        if sv.value != oracle.get(a, 0):
                            failures += 1
                        if not sv.well_defined:
                            flagged.append((n, lam, mu, r, oracle.get(a, 0)))
                        if n <= 4 and len(enumerate_forests(a)) != oracle.get(a, 0):
                            failures += 1
    documented = (2, Partition([2]), Partition([2]), 1, 1) in flagged
    report(
        "5 stratum counts",
        failures == 0 and documented,
        f"{len(flagged)} flagged strata incl. documented case",
    )


def test_06_real_expansion():
    failures = 0
    for n in range(1, 6):
        expansion = real_expansion(n)
        totals = {}
        for (nu, rho, _), c in lp_table(n).items():
            totals[(nu, rho)] = totals.get((nu, rho), 0) + c
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                expected = aut(lam) * aut(mu) * totals.get((lam, mu), 0)
                if expansion.coeff(lam, mu) != expected:
                    failures += 1
    flagged = tuple(iter_degenerate_strata(2))
    report(
        "6 real expansion n<=5",
        failures == 0 and [d.oracle_value for d in flagged] == [1],
        "flagged strata reported, continued in n",
    )


def test_07_complex_coefficients():
    failures = 0
    zero_cases = 0
    for n in range(1, 8):
        lp = lp_from_pairings(n)
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                expected = aut(lam) * aut(mu) * lp.get((lam, mu, 0), 0)
                if complex_coeff(n, lam, mu) != expected:
                    failures += 1
                if lam.length + mu.length > n + 1:
                    zero_cases += 1
                    if complex_coeff(n, lam, mu) != 0:
                        failures += 1
    report("7 complex coefficients n<=7", failures == 0, f"{zero_cases} zero cases")


def test_08_corollaries():
    failures = 0
    for n in range(1, 6):
        table = L_table(n)
        lp = lp_table(n)
        for l in range(0, 6):
            for m in range(0, 6):
                via_b = sum(
                    Fraction(c) * l**lam.length * m**mu.length
                    for (lam, mu, _), c in table.items()
                )
                via_lp = sum(
                    Fraction(c) * falling(l, nu.length) * falling(m, rho.length)
                    for (nu, rho, _), c in lp.items()
                )
                if not (q_real(n, l, m) == via_b == via_lp):
                    failures += 1
    for n in range(1, 8):
        table = L_table(n)
        for l in range(0, 6):
            for m in range(0, 6):
                via_c = sum(
                    Fraction(c) * l**lam.length * m**mu.length
                    for (lam, mu, r), c in table.items()
                    if r == 0
                )
                if q_compl(n, l, m) != via_c:
                    failures += 1
    report("8 projector corollaries", failures == 0)


def test_09_special_coefficients():
    failures = 0
    for n in range(1, 7):
        lp = lp_from_pairings(n)
        totals = {}
        for (nu, rho, _), c in lp.items():
            totals[(nu, rho)] = totals.get((nu, rho), 0) + c
        for lam in partitions_of(n):
            if coeff_m_lambda_m_n(n, lam) != aut(lam) * totals.get(
                (lam, Partition([n])), 0
            ):
                failures += 1
            if not remark_identity_check(lam):
                failures += 1
        for a in range(0, n + 1):
            if 2 * a <= n - 1:
                hook = Partition([n - a] + [1] * a)
                expected = aut(hook) ** 2 * totals.get((hook, hook), 0)
                if coeff_hook(n, a) != expected:
                    failures += 1
            elif coeff_hook(n, a) != 0:
                failures += 1
    checks = coeff_m_lambda_m_n(2, Partition([2])) == 3 and coeff_m_lambda_m_n(
        2, Partition([1, 1])
    ) == 2
    report("9 special coefficients n<=6", failures == 0 and checks)


def test_10_monte_carlo():
    start = time.monotonic()
    samples = 200_000
    failures = []
    for n, m in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        ident = MatrixSpec.identity(m)
        exact_r = float(moment_real_exact(n, ident, ident))
        est_r = mc_moment_real(n, ident, ident, samples, seed=2024)
        if abs(est_r.z_score(exact_r)) > 5:
            failures.append(f"real n={n} m={m}")
        exact_c = float(moment_complex_exact(n, ident, ident))
        est_c = mc_moment_complex(n, ident, ident, samples, seed=2025)
        if abs(est_c.z_score(exact_c)) > 5:
            failures.append(f"complex n={n} m={m}")
    x = MatrixSpec.from_eigs([Fraction(3, 2), Fraction(-1, 2)])
    y = MatrixSpec.from_eigs([Fraction(1, 3), 2])
    for field, exact, estimator in (
        ("real", moment_real_exact(2, x, y), mc_moment_real),
        ("complex", moment_complex_exact(2, x, y), mc_moment_complex),
    ):
        est = estimator(2, x, y, samples, seed=2026)
        if abs(est.z_score(float(exact))) > 5:
            failures.append(f"{field} rational pair")
    first = mc_moment_real(2, MatrixSpec.identity(2), MatrixSpec.identity(2), samples, 2024)
    second = mc_moment_real(2, MatrixSpec.identity(2), MatrixSpec.identity(2), samples, 2024)
    if (first.mean, first.std_error) != (second.mean, second.std_error):
        failures.append("rerun not bit-identical")
    elapsed = time.monotonic() - start
    checks_n2 = moment_real_exact(2, MatrixSpec.identity(2), MatrixSpec.identity(2)) == 20
    checks_n1 = moment_real_exact(1, MatrixSpec.identity(2), MatrixSpec.identity(2)) == 4
    report(
        "10 Monte Carlo",
        not failures and elapsed < 30 and checks_n1 and checks_n2,
        f"{elapsed:.1f}s" + ("; " + ", ".join(failures) if failures else ""),
    )


def test_11_aggregated_counts():
    failures = 0
    for n in range(1, 6):
        groups = {}
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for r in range(n // 2 + 1):
                    for a in enumerate_M(lam, mu, r):
                        key = (
                            a.num_white + 1,
                            a.num_white_root,
                            a.num_black,
                            a.num_black_root,
                            r,
                        )
                        groups.setdefault(key, []).append(a)
        for (p, pp, q, qp, r), arrays in groups.items():
            if F_counts(p, pp, q, qp, r, n) != sum(F_formula(a, n).value for a in arrays):
                failures += 1
    report("11 aggregated forest counts n<=5", failures == 0)
