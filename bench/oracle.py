"""Per-op references and checks.

:func:`reference` runs in its own interpreter, once per run, and computes
for each op the values an independent route gives:

* real expansions for n <= 7 and complex ones for n <= 7: the monomial
  form of the pairing-enumeration power-sum series
  (``oracle_monomial_expansion``);
* real expansions beyond that: ``coeff_m_lambda_m_n`` and ``coeff_hook``;
* complex expansions beyond that: ``q_compl(n, l, m)`` for every
  l, m <= n, which fixes the coefficient sums per pair of lengths;
* the degenerate-stratum report: per (lambda, mu), the oracle expansion
  minus the closed form of the unflagged strata, which the reported
  oracle values must add up to;
* coefficient tables: the pairing total (2n-1)!!, ``q_real``/``q_compl``
  at identity projectors, and the closed complex and real coefficients;
* exact moments: ``pairing_power_sum_series(n, field).evaluate``;
* Monte Carlo: that series evaluated in floating point at ``tr X^k``.

:func:`check` compares one op's output with its reference.  It parses
the JSON the CLI prints and compares exact coefficients and values,
never the layout of the diagnostics, so a report that gains fields
still passes.  Verification suites are checked by their own verdict:
exit code 0 and no FAIL line.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import factorial, prod

from workloads import build_matrix


def _parts(text: str) -> list[int]:
    return [int(p) for p in text.split(",")] if text else []


def _aut(text: str) -> int:
    parts = _parts(text)
    return prod(factorial(parts.count(p)) for p in set(parts))


def _falling(x: int, k: int) -> int:
    return prod(x - i for i in range(k))


def _key(lam, mu) -> str:
    fmt = lambda p: ",".join(str(x) for x in p)  # noqa: E731
    return f"{fmt(lam)}|{fmt(mu)}"


def _records(expansion) -> dict[str, str]:
    return {_key(lam, mu): str(c) for (lam, mu), c in expansion.coeffs.items() if c}


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


# ----------------------------------------------------------------- references


def reference(op: dict, om) -> dict:
    """Reference record for ``op``; ``om`` is the imported package."""
    if op["kind"] == "exact":
        field = "real" if op["fn"] == "moment_real_exact" else "complex"
        xs = [Fraction(v) for v in op["x"]]
        ys = [Fraction(v) for v in op["y"]]
        return {"value": str(om.pairing_power_sum_series(op["n"], field).evaluate(xs, ys))}
    if op["kind"] == "mc":
        return {"exact": _mc_exact(op, om)}
    argv = op["argv"]
    cmd = argv[0]
    if cmd == "expansion":
        return _expansion_ref(int(_arg(argv, "--n")), _arg(argv, "--field"), om)
    if cmd == "report":
        return _report_ref(int(_arg(argv, "--n")), om)
    if cmd == "coeffs":
        return _coeffs_ref(int(_arg(argv, "--n")), _arg(argv, "--kind"), om)
    return {}


def _expansion_ref(n: int, field: str, om) -> dict:
    if n <= 7:
        return {"known": _records(om.oracle_monomial_expansion(n, field)), "complete": True}
    if field == "real":
        full = (n,)
        known = {}
        for lam in om.partitions_of(n):
            value = str(om.coeff_m_lambda_m_n(n, lam))
            known[_key(lam, full)] = known[_key(full, lam)] = value
        for a in range(n):
            hook = (n - a,) + (1,) * a
            known[_key(hook, hook)] = str(om.coeff_hook(n, a))
        return {"known": known, "complete": False}
    lengths = {
        f"{l},{m}": str(om.q_compl(n, l, m)) for l in range(n + 1) for m in range(n + 1)
    }
    return {"lengths": lengths}


def _closed_strata(n: int, om):
    """Per (lam, mu): the closed-form sum over the unflagged strata and
    whether any stratum was flagged."""
    out = {}
    for lam in om.partitions_of(n):
        for mu in om.partitions_of(n):
            total, flagged = Fraction(0), False
            for r in range(n // 2 + 1):
                for a in om.enumerate_M(lam, mu, r):
                    sv = om.F_formula(a, n)
                    if sv.well_defined:
                        total += sv.value
                    else:
                        flagged = True
            out[(lam, mu)] = (total, flagged)
    return out


def _report_ref(n: int, om) -> dict:
    oracle = om.oracle_monomial_expansion(n, "real")
    return {
        "flagged_sum": {
            _key(lam, mu): str(oracle.coeff(lam, mu) / (om.aut(lam) * om.aut(mu)) - total)
            for (lam, mu), (total, _) in _closed_strata(n, om).items()
        }
    }


def _coeffs_ref(n: int, kind: str, om) -> dict:
    if kind == "L":
        grid = [(l, m) for l in range(4) for m in range(4)]
        return {
            "total": om.odd_double_factorial(n),
            "scale": 2**n * factorial(n),
            "q_real": {f"{l},{m}": str(om.q_real(n, l, m)) for l, m in grid},
            "q_compl": {f"{l},{m}": str(om.q_compl(n, l, m)) for l, m in grid},
        }
    closed = _closed_strata(n, om)
    return {
        "complex": {_key(lam, mu): str(om.complex_coeff(n, lam, mu)) for lam, mu in closed},
        "real": {
            _key(lam, mu): str(om.aut(lam) * om.aut(mu) * total)
            for (lam, mu), (total, flagged) in closed.items()
            if not flagged
        },
    }


def _mc_exact(op: dict, om) -> float:
    import numpy as np

    x, y = build_matrix(op, "x"), build_matrix(op, "y")
    n = op["n"]
    px = [1.0] + [float(np.trace(np.linalg.matrix_power(x, k)).real) for k in range(1, n + 1)]
    py = [1.0] + [float(np.trace(np.linalg.matrix_power(y, k)).real) for k in range(1, n + 1)]
    total = 0.0
    for (lam, mu), c in om.pairing_power_sum_series(n, op["field"]).coeffs.items():
        total += float(c) * prod(px[p] for p in lam) * prod(py[p] for p in mu)
    return total


# --------------------------------------------------------------------- checks


def check(op: dict, out: dict, ref: dict) -> str | None:
    """None if the op's output ``out`` agrees with ``ref``, else why not."""
    if out.get("error"):
        return f"raised {out['error']}"
    if op["kind"] == "exact":
        return None if out["value"] == ref["value"] else f"{out['value']} != {ref['value']}"
    expect_rc = op.get("expect_rc", 0)
    if out["rc"] != expect_rc:
        return f"exit code {out['rc']}, expected {expect_rc}"
    if op["kind"] == "mc":
        return _check_mc(op, json.loads(out["stdout"]), ref)
    cmd = op["argv"][0]
    if cmd == "verify":
        return _check_verify(out["stdout"])
    data = json.loads(out["stdout"])
    if cmd == "expansion":
        return _check_expansion(op, data, ref)
    if cmd == "report":
        return _check_report(data, ref)
    if cmd == "coeffs":
        if _arg(op["argv"], "--kind") == "L":
            return _check_L(data, ref)
        return _check_LP(data, ref)
    return f"no check for {cmd}"


_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def _check_verify(text: str) -> str | None:
    lines = text.splitlines()
    match = _SUMMARY.match(lines[-1]) if lines else None
    if not match or match.group(1) != match.group(2) or int(match.group(2)) < 1:
        return "missing or failing summary line"
    failing = [line for line in lines[:-1] if not line.startswith("PASS")]
    return f"{len(failing)} failing checks" if failing else None


def _check_expansion(op: dict, data: dict, ref: dict) -> str | None:
    terms = {
        f"{t['lambda']}|{t['mu']}": Fraction(t["coeff"]) for t in data["terms"]
    }
    if "lengths" in ref:
        return _check_lengths(terms, ref["lengths"])
    strict = "--strict" in op["argv"]
    flagged = (
        {f"{d['lambda']}|{d['mu']}" for d in data["degenerate_strata"]} if strict else set()
    )
    if strict and not flagged:
        return "strict expansion reported no flagged strata"
    known = ref["known"]
    for key, value in known.items():
        if key not in flagged and terms.get(key, 0) != Fraction(value):
            return f"coefficient {key}: {terms.get(key, 0)} != {value}"
    for key in terms:
        if key in flagged:
            return f"flagged pair {key} emitted in strict mode"
        if ref["complete"] and key not in known:
            return f"unexpected term {key}"
    return None


def _check_lengths(terms: dict[str, Fraction], lengths: dict[str, str]) -> str | None:
    """Compare sum c m_lam(1^l) m_mu(1^m) with q_compl(n, l, m) at every
    (l, m); m_lam(1^l) = (l)_len(lam) / Aut(lam)."""
    shape = {}
    agg: dict[tuple[int, int], Fraction] = {}
    for key, c in terms.items():
        for part in key.split("|"):
            if part not in shape:
                shape[part] = (len(_parts(part)), _aut(part))
        (i, a), (j, b) = (shape[p] for p in key.split("|"))
        agg[(i, j)] = agg.get((i, j), 0) + c / (a * b)
    for lm, expect in lengths.items():
        l, m = map(int, lm.split(","))
        got = sum(a * _falling(l, i) * _falling(m, j) for (i, j), a in agg.items())
        if got != Fraction(expect):
            return f"q_compl(n, {l}, {m}) = {expect}, expansion gives {got}"
    return None


def _check_report(data: list, ref: dict) -> str | None:
    sums: dict[str, int] = {}
    for record in data:
        if not isinstance(record.get("oracle_value"), int):
            return "flagged stratum without an oracle value"
        key = f"{record['lambda']}|{record['mu']}"
        sums[key] = sums.get(key, 0) + record["oracle_value"]
    for key, expect in ref["flagged_sum"].items():
        if sums.get(key, 0) != Fraction(expect):
            return f"flagged strata of {key} sum to {sums.get(key, 0)}, expected {expect}"
    extra = set(sums) - set(ref["flagged_sum"])
    return f"unknown pairs {sorted(extra)}" if extra else None


def _check_L(rows: list, ref: dict) -> str | None:
    if sum(row["L"] for row in rows) != ref["total"]:
        return "pairing total differs from (2n-1)!!"
    for row in rows:
        if row["b"] != ref["scale"] * row["L"] or row["c"] != (row["L"] if row["r"] == 0 else 0):
            return f"b/c columns inconsistent at {row['lambda']}|{row['mu']}"
    for lm, expect in ref["q_real"].items():
        l, m = map(int, lm.split(","))
        got_r = sum(row["L"] * l ** len(_parts(row["lambda"])) * m ** len(_parts(row["mu"])) for row in rows)
        got_c = sum(
            row["L"] * l ** len(_parts(row["lambda"])) * m ** len(_parts(row["mu"]))
            for row in rows
            if row["r"] == 0
        )
        if got_r != Fraction(expect) or got_c != Fraction(ref["q_compl"][lm]):
            return f"projector moments differ at l,m = {lm}"
    return None


def _check_LP(rows: list, ref: dict) -> str | None:
    slice0: dict[str, int] = {}
    summed: dict[str, int] = {}
    for row in rows:
        key = f"{row['lambda']}|{row['mu']}"
        scale = _aut(row["lambda"]) * _aut(row["mu"])
        summed[key] = summed.get(key, 0) + scale * row["LP"]
        if row["r"] == 0:
            slice0[key] = slice0.get(key, 0) + scale * row["LP"]
    for key, expect in ref["complex"].items():
        if slice0.get(key, 0) != Fraction(expect):
            return f"r = 0 slice at {key} differs from the complex coefficient"
    for key, expect in ref["real"].items():
        if summed.get(key, 0) != Fraction(expect):
            return f"r-summed counts at {key} differ from the real coefficient"
    return None


def _check_mc(op: dict, data: dict, ref: dict) -> str | None:
    if data["samples"] != op["samples"]:
        return f"{data['samples']} samples, expected {op['samples']}"
    z = (data["mean"] - ref["exact"]) / data["std_error"]
    return None if abs(z) <= 5 else f"|z| = {abs(z):.2f} > 5"
