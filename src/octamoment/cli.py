"""Command-line surface: coefficient tables, expansions, verification
suites, the bijection, Monte Carlo runs, and the degenerate-stratum
report.

Every subcommand is deterministic given its arguments (seeds included);
identical invocations produce byte-identical output.  JSON output is
``json.dumps(data, indent=2, sort_keys=True)`` plus a newline, and strict:
a non-finite float raises ``ValueError`` instead of printing ``NaN`` or
``Infinity``, and ``mc`` reports a ``z_score`` of ``null`` at zero
standard error.  ``expansion`` and ``report`` write the same bytes
without calling ``json.dumps``: :func:`_expansion_json`, the real
writer, fills one fixed template for the head (``degenerate_strata``,
``field``, ``n``) and one per term (canonical order), and
:func:`_strata_json` one per flagged stratum.  ``expansion --field
complex`` builds no expansion: :func:`_complex_expansion_json` writes the
same head and term templates per length block, rendering the terms of
each length of ``lam`` once from the cached integer length table
(:func:`~octamoment.closedform.complex_length_coeffs`) and joining their
pieces with the name of each ``lam``.  ``expansion --field real`` prints
:func:`~octamoment.closedform.real_expansion`, which includes the flagged
strata (resolved by continuation in ``n`` for every ``n``: the order of
each stratum's prefactor picks the one row of the seed bracket that its
count reads), and lists them from
:func:`~octamoment.closedform.degenerate_strata`; ``report`` prints
that list alone and assembles no coefficient.  ``expansion --strict``
hands the same two results to the same writer, which leaves out the
(lam, mu) pairs that have a flagged stratum and the counts of the flagged
strata as it writes; no second expansion is built.  A
``bijection --input`` record with any of ``f3``, ``pi1`` or ``pi2`` is
read as a hypermap, so a missing key is named, and its ``f3`` must list
exactly ``n`` pairs.  Exit codes: 0 success, 1
verification/validation failure, 2 flagged strata under ``--strict``, 3 a
usage error (including a ``verify`` option the suite does not take), an
argument outside the domain of the computation (such as ``n < 1``, an
enumeration beyond its size bound, an ``mc --dim`` below 1, or a matrix
with a nonzero imaginary entry under ``mc --field real``) or an
unreadable input (a missing file, or a file or ``--x-eigs``/``--y-eigs``
value that its reader rejects with ``ValueError``, such as a matrix entry
other than a number or an ``[re, im]`` pair, a non-finite matrix entry or
a matrix of dimension 0), reported as one ``octamoment: error:`` line on
stderr.  The argument parser is built once per process, on the first
:func:`main` call.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache, partial
from json.encoder import encode_basestring_ascii

from . import closedform as cf
from . import forests as fo
from . import hypermaps as hm
from . import moments as mo
from .partitions import format_partition, format_rational, partitions_of
from .verify import SUITES, coeffs_self_check, run_suite


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _name(lam) -> str:
    return encode_basestring_ascii(format_partition(lam))


# One term of ``"terms"`` exactly as ``_json_dumps`` lays out a
# {coeff, lambda, mu} record at depth 2, with its leading separator.
_TERM = '\n    {\n      "coeff": "%s",\n      "lambda": %s,\n      "mu": %s\n    }'

# The head of ``expansion`` exactly as ``_json_dumps`` lays out its keys
# before ``"terms"``, which sorts last.
_HEAD = '{\n  "degenerate_strata": %s,\n  "field": %s,\n  "n": %d,\n  "terms": '


def _strata_json(strata, depth: int, counts: bool = True) -> str:
    """``json.dumps([d.to_json() for d in strata], indent=2,
    sort_keys=True)`` as it is laid out at nesting ``depth`` (1 for a
    top-level list, 2 for the value of a top-level key), leaving out
    ``"oracle_value"`` unless ``counts``.

    Each :class:`~octamoment.closedform.DegenerateStratum` fills one fixed
    template; each cell list, status and partition name is encoded once
    per call.  No record is built and the indenting encoder is not used.
    """
    if not strata:
        return "[]"
    pad, key, cell = ("  " * (depth + k) for k in (0, 2, 3))
    record = (
        f'\n{pad}{{\n{pad}  "A": {{\n'
        f'{key}"black": %s,\n{key}"black_root": %s,\n'
        f'{key}"seed_degree": %d,\n{key}"seed_loops": %d,\n'
        f'{key}"white": %s,\n{key}"white_root": %s\n{pad}  }},\n'
        f'{pad}  "formula_status": %s,\n{pad}  "lambda": %s,\n{pad}  "mu": %s,\n'
        f'{pad}  "n": %d,\n%s{pad}  "r": %d\n{pad}}}'
    )
    count = f'{pad}  "oracle_value": %d,\n'
    entry = f"{cell}[\n{cell}  %d,\n{cell}  %d,\n{cell}  %d\n{cell}]"

    @cache
    def cells_json(cells) -> str:
        if not cells:
            return "[]"
        return "[\n" + ",\n".join([entry % c for c in cells]) + f"\n{key}]"

    @cache
    def status(diagnostics) -> str:
        return encode_basestring_ascii("; ".join(diagnostics) or "degenerate")

    name = cache(_name)
    body = ",".join(
        [
            record
            % (
                cells_json(a.black),
                cells_json(a.black_root),
                a.seed_degree,
                a.seed_loops,
                cells_json(a.white),
                cells_json(a.white_root),
                status(d.diagnostics),
                name(d.lam),
                name(d.mu),
                d.n,
                count % d.oracle_value if counts else "",
                d.r,
            )
            for d in strata
            for a in (d.array,)
        ]
    )
    return "[" + body + "\n" + "  " * (depth - 1) + "]"


def _document(head: str, terms: str) -> str:
    """The ``expansion`` record from its head and its joined terms."""
    if not terms:
        return head + "[]\n}\n"
    return head + "[" + terms + "\n  ]\n}\n"


def _expansion_json(expansion, strata=(), strict: bool = False) -> str:
    """``_json_dumps`` of the real ``expansion`` record: ``n``, ``field``,
    the ``degenerate_strata`` (:func:`_strata_json`) and the ``"terms"``
    (``expansion.to_records()``), written from fixed templates without a
    record per term or stratum and without the indenting encoder.  A
    coefficient is a ``Fraction``, whose ``str`` is ``format_rational``.
    The ``strict`` view leaves out the counts of the flagged strata and the
    terms of their (lam, mu) pairs.
    """
    n = expansion.n
    head = _HEAD % (_strata_json(strata, 2, not strict), '"real"', n)
    flagged = {(d.lam, d.mu) for d in strata} if strict else ()
    names = {lam: _name(lam) for lam in partitions_of(n)}
    terms = ",".join(
        [
            _TERM % (c, names[lam], names[mu])
            for (lam, mu), c in expansion.items()
            if (lam, mu) not in flagged
        ]
    )
    return _document(head, terms)


def _complex_expansion_json(n: int) -> str:
    """The ``expansion`` record of ``complex_expansion(n)`` without the
    expansion: the terms of every ``lam`` of one length ``k`` differ only
    in ``lam``, so the row of ``k`` in
    :func:`~octamoment.closedform.complex_length_coeffs` (``{l: c}``) is
    rendered once, its integers over the ``mu`` in canonical order, and cut
    into the pieces between the places of ``lam``; the block of each
    ``lam`` is its name joining those pieces."""
    rows: dict[int, dict[int, int]] = {}
    for k, l, c in cf.complex_length_coeffs(n):
        rows.setdefault(k, {})[l] = c
    parts = partitions_of(n)
    names = {lam: _name(lam) for lam in parts}
    # An encoded name is printable ASCII, so "\0" marks only the places of lam.
    pieces = {
        k: ",".join(
            [_TERM % (row[len(mu)], "\0", names[mu]) for mu in parts if len(mu) in row]
        ).split("\0")
        for k, row in rows.items()
    }
    terms = ",".join([names[lam].join(pieces[len(lam)]) for lam in parts])
    return _document(_HEAD % ("[]", '"complex"', n), terms)


def cmd_coeffs(args) -> int:
    if args.per_array and args.kind != "LP":
        raise ValueError("--per-array needs --kind LP")
    n = args.n
    for check in coeffs_self_check(n):
        if not check.ok:
            print(check.line(), file=sys.stderr)
            return 1
    if args.per_array:
        tallies = hm.lp_by_array(n)
        _emit(_json_dumps({a.serialize(): c for a, c in tallies.items()}), args.out)
        return 0
    # One keyed table: (lam, mu, r) for L and LP, (lam, mu) for b and c.
    if args.kind == "LP":
        table = hm.lp_from_pairings(n)
    elif args.kind == "L":
        table = hm.L_table(n).entries
    elif args.kind == "b":
        table = hm.b_from_L(hm.L_table(n))
    else:
        table = hm.c_from_L(hm.L_table(n))
    scale = hm.hyperoctahedral_order(n)
    rows = []
    for key, value in sorted(table.items(), reverse=True):
        row = dict(zip(("lambda", "mu", "r"), key))
        row[args.kind] = value
        if args.kind == "L":
            row["b"] = scale * value
            row["c"] = value if row["r"] == 0 else 0
        rows.append(row)
    _emit(_format_rows(rows, args.format), args.out)
    return 0


def _format_rows(rows: list[dict], fmt: str) -> str:
    """Write the coefficient rows (never empty for n >= 1), whose
    ``lambda`` and ``mu`` are partitions, each name rendered once: json and
    csv name them by parts, pretty by multiplicities in aligned columns."""
    name = cache(partial(format_partition, style="mult" if fmt == "pretty" else "parts"))
    rows = [{**row, "lambda": name(row["lambda"]), "mu": name(row["mu"])} for row in rows]
    if fmt == "json":
        return _json_dumps(rows)
    headers = list(rows[0])
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=headers)
        writer.writeheader()
        writer.writerows(rows)
        return buffer.getvalue()
    widths = {
        h: max(len(h), *(len(str(r[h])) for r in rows)) for h in headers
    }
    lines = ["  ".join(h.ljust(widths[h]) for h in headers)]
    for row in rows:
        lines.append("  ".join(str(row[h]).ljust(widths[h]) for h in headers))
    return "\n".join(lines) + "\n"


def cmd_expansion(args) -> int:
    n = args.n
    if args.field == "complex":
        _emit(_complex_expansion_json(n), args.out)
        return 0
    expansion, strata = cf.real_expansion(n), cf.degenerate_strata(n)
    _emit(_expansion_json(expansion, strata, args.strict), args.out)
    if args.strict and strata:
        return 2
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite, n_max=args.n_max, samples=args.samples, seed=args.seed)
    failures = 0
    for check in results:
        print(check.line())
        failures += 0 if check.ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def _hypermap_from_json(data: dict) -> hm.PartitionedHypermap:
    """Read the ``_hypermap_to_json`` form; a malformed record raises
    ``ValueError``.  ``f3`` must list exactly ``n`` pairs, which is checked
    before the pairing of ``2n`` labels is built."""
    try:
        n = data["n"]
        if type(n) is not int or n < 1:
            raise ValueError(f"hypermap 'n' must be a positive integer, got {n!r}")
        f3 = data["f3"]
        if len(f3) != n:
            raise ValueError(f"hypermap 'f3' must list n = {n} pairs, got {len(f3)}")
        label = lambda x: hm.parse_element(str(x), n)  # noqa: E731
        pairs = [(label(a), label(b)) for a, b in f3]
        blocks1, blocks2 = (
            [{label(x) for x in block} for block in data[key]] for key in ("pi1", "pi2")
        )
    except (KeyError, TypeError) as err:
        raise ValueError(f"malformed hypermap JSON: {type(err).__name__} {err}") from None
    return hm.PartitionedHypermap.make(hm.Pairing.from_pairs(n, pairs), blocks1, blocks2)


def _hypermap_to_json(h: hm.PartitionedHypermap) -> dict:
    n = h.f3.n
    name = lambda x: hm.element_name(x, n)  # noqa: E731
    return {
        "n": n,
        "f3": [[name(a), name(b)] for a, b in h.f3.pairs()],
        "pi1": [[name(x) for x in sorted(block)] for block in h.pi1],
        "pi2": [[name(x) for x in sorted(block)] for block in h.pi2],
    }


def cmd_bijection(args) -> int:
    with open(args.input, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    forward = isinstance(data, dict) and data.keys() & {"f3", "pi1", "pi2"}
    if forward:
        h = _hypermap_from_json(data)
        problems = h.validate()
    else:
        forest = fo.forest_from_json(data)
        problems = fo.validate_forest(forest)
    if problems:
        print(_json_dumps({"valid": False, "violations": problems}), end="")
        return 1
    if forward:
        forest = fo.theta_forward(h)
        payload = {
            "direction": "hypermap->forest",
            "degree_array": hm.degree_array(h).to_json(),
            "forest": fo.forest_to_json(forest),
        }
    else:
        h = fo.theta_inverse(forest)
        payload = {
            "direction": "forest->hypermap",
            "degree_array": fo.forest_degree(forest).to_json(),
            "hypermap": _hypermap_to_json(h),
            "pretty": str(h),
        }
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(fo.forest_to_dot(forest))
    _emit(_json_dumps(payload), args.out)
    return 0


def _matrix_from_args(path: str | None, eigs: str | None, dim_hint: int | None):
    if path:
        with open(path, "r", encoding="utf-8") as handle:
            return mo.MatrixSpec.from_json(json.load(handle))
    if eigs:
        return mo.MatrixSpec.from_json({"eigs": eigs.split(",")})
    if dim_hint:
        return mo.MatrixSpec.identity(dim_hint)
    raise ValueError("need --x-eigs/--y-eigs, matrix files, or --dim")


def cmd_mc(args) -> int:
    if args.dim is not None and args.dim < 1:
        raise ValueError("--dim must be >= 1")
    x = _matrix_from_args(args.matrix_x, args.x_eigs, args.dim)
    y = _matrix_from_args(args.matrix_y, args.y_eigs, args.dim)
    if args.field == "real":
        sample, exact_moment = mo.mc_moment_real, mo.moment_real_exact
    else:
        sample, exact_moment = mo.mc_moment_complex, mo.moment_complex_exact
    estimate = sample(args.n, x, y, args.samples, args.seed)
    exact = None
    if x.eigs is not None and y.eigs is not None:
        exact = exact_moment(args.n, x, y)
    payload = estimate.to_json(exact)
    if exact is not None:
        payload["exact_rational"] = format_rational(exact)
    _emit(_json_dumps(payload), args.out)
    return 0


def cmd_report(args) -> int:
    strata = cf.degenerate_strata(args.n)
    _emit(_strata_json(strata, 1) + "\n", args.out)
    if args.strict and strata:
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line and exit code 3."""

    def error(self, message: str):
        self.exit(3, f"octamoment: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``octamoment`` parser, built on first use and then shared by
    every :func:`main` call of the process; callers must not change it."""
    parser = _Parser(
        prog="octamoment",
        description=(
            "Exact moments of XUYU^t / XUYU^* for Gaussian U: closed formulas "
            "with enumeration oracles, the hypermap<->forest bijection, and "
            "Monte Carlo checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="connection coefficient tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=["b", "c", "L", "LP"], required=True)
    p.add_argument("--format", choices=["json", "csv", "pretty"], default="pretty")
    p.add_argument("--per-array", action="store_true",
                   help="with --kind LP: JSON tallies keyed by serialized degree array")
    p.add_argument("--out")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("expansion", help="monomial expansion of a moment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", choices=["real", "complex"], required=True)
    p.add_argument("--strict", action="store_true",
                   help="leave out the pairs with flagged strata and exit 2")
    p.add_argument("--out")
    p.set_defaults(func=cmd_expansion)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--n-max", type=int, help="enumerating suites only")
    p.add_argument("--samples", type=int, help="mc suite only (default 200000)")
    p.add_argument("--seed", type=int, help="mc suite only (default 20240801)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bijection", help="map a hypermap JSON to its forest or back")
    p.add_argument("--input", required=True)
    p.add_argument("--dot", help="also write a Graphviz rendering here")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("mc", help="Monte Carlo moment estimate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", choices=["real", "complex"], default="real")
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--dim", type=int, help="use identity matrices of this size")
    p.add_argument("--x-eigs", help="comma list of rational eigenvalues for X")
    p.add_argument("--y-eigs", help="comma list of rational eigenvalues for Y")
    p.add_argument("--matrix-x", help="JSON file {dim, eigs|entries}")
    p.add_argument("--matrix-y", help="JSON file {dim, eigs|entries}")
    p.add_argument("--out")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("report", help="degenerate-stratum report for the real expansion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"octamoment: error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
