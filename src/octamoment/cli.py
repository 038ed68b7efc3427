"""Command-line surface: coefficient tables, expansions, verification
suites, the bijection, Monte Carlo runs, and the degenerate-stratum
report.

Every subcommand is deterministic given its arguments (seeds included);
identical invocations produce byte-identical output.  JSON output is
``json.dumps(data, indent=2, sort_keys=True)`` plus a newline, and strict:
a non-finite float raises ``ValueError`` instead of printing ``NaN`` or
``Infinity``, and ``mc`` reports a ``z_score`` of ``null`` at zero
standard error.  ``expansion`` and ``report`` write the same bytes
without calling ``json.dumps``, and write them as they are generated:
each writer yields chunks that :func:`_emit` writes at once, so a
command holds one record at a time next to the cached expansion.
``coeffs --format json`` writes the same bytes without calling
``json.dumps`` as well: each row of its one sorted row list fills the
fixed template of its kind (``_ROW``), and ``--per-array`` writes one
``"key": count`` line per degree array, keys sorted, where ``json.dumps``
is called only for the compact ``ArrayTuple.serialize`` of each key; the
csv and pretty tables read the same rows.  An
error before the first chunk (``n < 1``) writes nothing and creates no
``--out`` file; an error after it (a broken pipe, say) leaves the output
written until then.
:func:`_expansion_chunks` is the one writer of the ``expansion`` record
for both fields: it fills one fixed template for the head
(``degenerate_strata``, ``field``, ``n``) around the chunks of that value
it is handed and writes the term blocks it is handed, one chunk per
``lam`` (canonical order).  ``expansion --field real`` hands it the
per-pair summary, one chunk per flagged (lam, mu) pair as
:func:`~octamoment.closedform.iter_degenerate_pairs` yields it
(:func:`_pair_chunks`: its number of flagged strata and the sum of their
counts), and the rows of :func:`~octamoment.closedform.real_expansion`
(:func:`_real_blocks`), which includes the flagged strata (resolved by
continuation in ``n`` for every ``n``: the order of each stratum's
prefactor picks the one row of the seed bracket that its count reads).
``report`` prints the per-stratum list instead, one chunk per flagged
stratum as :func:`~octamoment.closedform.iter_degenerate_strata` yields
it (:func:`_strata_chunks`), and assembles no coefficient; ``report
--strict`` exits 2 if and only if that list is not empty.  Under
``expansion --strict`` the pairs go out without their counts, each
noted as it is written, and the real blocks leave out the terms of
those pairs; no second expansion is built, and the command exits 2 if
and only if it wrote a pair.  ``expansion --field complex`` hands the
writer no strata and builds no expansion: :func:`_complex_blocks`
renders the terms of each length of ``lam`` once by indexing the cached
``(k, l)`` coefficient table (:func:`~octamoment.closedform.complex_length_coeffs`)
and joins their pieces with the name of each ``lam``.  A
``bijection --input`` record with any of ``f3``, ``pi1`` or ``pi2`` is
read as a hypermap; a missing key, an ``f3`` without exactly ``n`` pairs,
a label used twice and a ``pi1``/``pi2`` block not a list are named.
Exit codes: 0 success, 1 verification/validation failure, 2 flagged
strata under ``--strict``, 3 a
usage error (including a ``verify`` option the suite does not take,
``coeffs --per-array`` with a ``--format`` other than json, an ``mc``
side given both an eigenvalue list and a matrix file, and a ``--seed``
outside ``0 <= seed < 2**128``, the keys of a Philox stream), an
argument outside the domain of the computation (such as ``n < 1``, an
enumeration beyond its size bound, an ``mc --dim`` below 1 or other
than the dimension of a matrix given with it, an ``mc`` eigenvalue beyond
the float range, such as ``1e400``, or a matrix with a nonzero
imaginary entry under ``mc --field real``) or an
unreadable input (a missing file, or a file or ``--x-eigs``/``--y-eigs``
value that its reader rejects with ``ValueError``, such as a matrix entry
other than a number or an ``[re, im]`` pair, a non-finite matrix entry, a
matrix record with both ``eigs`` and ``entries``, or a matrix of
dimension 0), reported as one ``octamoment: error:`` line on
stderr.  The JSON numbers of a matrix file are read exactly: an
``eigs`` entry from its literal text (:class:`_JSONNumber`), a dense
entry as the float that the literal rounds to.  The argument parser is
built once per process, on the first :func:`main` call.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections.abc import Iterable, Iterator
from functools import cache, partial
from itertools import chain, groupby, starmap
from json.encoder import encode_basestring_ascii

from . import closedform as cf
from . import forests as fo
from . import hypermaps as hm
from . import moments as mo
from .partitions import format_partition, partitions_of
from .verify import SUITES, coeffs_self_check, run_suite


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write ``chunks`` to ``out_path``, or else to ``sys.stdout`` as it is
    at the call.  The first chunk is taken before the file is opened, so an
    error raised before any output (such as ``n < 1``) creates no file; an
    error raised later leaves the chunks written until then."""
    chunks = iter(chunks)
    first = next(chunks, "")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(first)
            handle.writelines(chunks)
    else:
        sys.stdout.write(first)
        sys.stdout.writelines(chunks)


def _json_dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


@cache
def _name(lam) -> str:
    """The JSON string of the partition ``lam``, rendered once per process."""
    return encode_basestring_ascii(format_partition(lam))


# One term of ``"terms"`` exactly as ``_json_dumps`` lays out a
# {coeff, lambda, mu} record at depth 2, with its leading newline.
_TERM = '\n    {\n      "coeff": "%s",\n      "lambda": %s,\n      "mu": %s\n    }'

# The head of ``expansion`` exactly as ``_json_dumps`` lays out its keys,
# around the value of ``"degenerate_strata"``: ``"terms"`` sorts last.
_HEAD = '{\n  "degenerate_strata": '
_FIELD = ',\n  "field": "%s",\n  "n": %d,\n  "terms": '


def _list_chunks(items: Iterable[str], close: str) -> Iterator[str]:
    """A JSON list laid out by ``_json_dumps``, one chunk per item: each
    item is the text of one or more elements, every element led by its
    newline and indent, and goes out after its separator; ``close`` ends
    the list, and an empty one is ``[]``.  No item is held while the next
    one is made."""
    items = iter(items)
    first = next(items, None)
    if first is None:
        yield "[]"
        return
    yield "[" + first
    del first
    yield from map(",".__add__, items)
    yield close


def _strata_chunks(strata: Iterable[cf.DegenerateStratum]) -> Iterator[str]:
    """``json.dumps([d.to_json() for d in strata], indent=2,
    sort_keys=True)``, the ``report`` list, one chunk per stratum.

    Each :class:`~octamoment.closedform.DegenerateStratum` fills one fixed
    template; each cell list and status is encoded once per call, and its
    diagnostics are its status.  No record is built and the indenting
    encoder is not used.
    """
    record = (
        '\n  {\n    "A": {\n'
        '      "black": %s,\n      "black_root": %s,\n'
        '      "seed_degree": %d,\n      "seed_loops": %d,\n'
        '      "white": %s,\n      "white_root": %s\n    },\n'
        '    "formula_status": %s,\n    "lambda": %s,\n    "mu": %s,\n'
        '    "n": %d,\n    "oracle_value": %d,\n    "r": %d\n  }'
    )
    entry = "        [\n          %d,\n          %d,\n          %d\n        ]"

    @cache
    def cells_json(cells) -> str:
        if not cells:
            return "[]"
        return "[\n" + ",\n".join([entry % c for c in cells]) + "\n      ]"

    @cache
    def status(diagnostics) -> str:
        return encode_basestring_ascii("; ".join(diagnostics))

    def records() -> Iterator[str]:
        for d in strata:
            a = d.array
            yield record % (
                cells_json(a.black),
                cells_json(a.black_root),
                a.seed_degree,
                a.seed_loops,
                cells_json(a.white),
                cells_json(a.white_root),
                status(d.diagnostics),
                _name(d.lam),
                _name(d.mu),
                d.n,
                d.oracle_value,
                d.r,
            )

    return _list_chunks(records(), "\n]")


# One ``degenerate_strata`` entry of ``expansion`` exactly as ``_json_dumps``
# lays out a {lambda, mu, oracle_value, strata} record at depth 2; _COUNT is
# the ``oracle_value`` line, which ``--strict`` leaves out.
_PAIR = '\n    {\n      "lambda": %s,\n      "mu": %s,\n%s      "strata": %d\n    }'
_COUNT = '      "oracle_value": %d,\n'


class _PairSet:
    """A set of (lam, mu) pairs of partitions of ``n`` in one bit per pair
    of ``partitions_of(n)``.  ``expansion --strict`` keeps its flagged pairs
    here until their terms are left out: most pairs are flagged, and a set
    of tuples would outweigh the records written from it."""

    def __init__(self, n: int) -> None:
        self._index = {lam: i for i, lam in enumerate(partitions_of(n))}
        self._bits = 0

    def _slot(self, pair) -> int:
        lam, mu = pair
        return self._index[lam] * len(self._index) + self._index[mu]

    def add(self, pair) -> None:
        self._bits |= 1 << self._slot(pair)

    def __contains__(self, pair) -> bool:
        return self._bits >> self._slot(pair) & 1 == 1

    def __bool__(self) -> bool:
        return self._bits != 0


def _pair_chunks(pairs, flagged: _PairSet | None = None) -> Iterator[str]:
    """The value of ``degenerate_strata``: one chunk per flagged (lam, mu)
    pair of :func:`~octamoment.closedform.iter_degenerate_pairs`, with its
    number of strata and, unless ``flagged`` is given (``--strict``), the
    sum of their counts.  Each pair is added to ``flagged``, if given, as
    it is written."""

    def records() -> Iterator[str]:
        for lam, mu, strata, total in pairs:
            if flagged is not None:
                flagged.add((lam, mu))
            count = "" if flagged is not None else _COUNT % total
            yield _PAIR % (_name(lam), _name(mu), count, strata)

    return _list_chunks(records(), "\n  ]")


def _expansion_chunks(
    n: int, field: str, strata: Iterable[str], blocks: Iterable[str]
) -> Iterator[str]:
    """``_json_dumps`` of the ``expansion`` record of either field, written
    from fixed templates without a record per term and without the
    indenting encoder: the head, the ``degenerate_strata`` chunks
    ``strata``, ``field`` and ``n``, then ``"terms"``, which sorts last,
    one chunk per ``lam`` from ``blocks`` (the ``_TERM`` text of its terms,
    or ``""`` if it has none), and the tail."""
    yield _HEAD
    yield from strata
    yield _FIELD % (field, n)
    yield from _list_chunks(filter(None, blocks), "\n  ]")
    yield "\n}\n"


def _real_blocks(expansion, skip=()) -> Iterator[str]:
    """The term block of each ``lam`` of ``expansion.items()`` (canonical
    order), leaving out the (lam, mu) pairs in ``skip``, which is read as
    each block is written.  A coefficient is a ``Fraction``, whose ``str``
    is ``format_rational``."""
    for lam, row in groupby(expansion.items(), key=lambda term: term[0][0]):
        name = _name(lam)
        yield ",".join([_TERM % (c, name, _name(k[1])) for k, c in row if k not in skip])


def _complex_blocks(n: int) -> Iterator[str]:
    """The term block of each ``lam`` of ``complex_expansion(n)`` without
    the expansion: the terms of every ``lam`` of one length ``k`` differ
    only in ``lam``, so they are rendered once per ``k``, from the entries
    ``(k, len(mu))`` of :func:`~octamoment.closedform.complex_length_coeffs`
    over the ``mu`` in canonical order, and cut into the pieces between the
    places of ``lam``; the block of each ``lam`` is its name joining those
    pieces.  They are rendered at the call, so ``n < 1`` raises there."""
    table, parts = cf.complex_length_coeffs(n), partitions_of(n)
    columns = [(len(mu), _name(mu)) for mu in parts]
    # An encoded name is printable ASCII, so "\0" marks only the places of lam.
    pieces = {
        k: ",".join(
            [_TERM % (c, "\0", name) for l, name in columns if (c := table.get((k, l)))]
        ).split("\0")
        for k in range(1, n + 1)
    }
    return (_name(lam).join(pieces[len(lam)]) for lam in parts)


# The columns of each coefficient table, in the order csv and pretty
# print them: the keys of its rows, then the coefficient (and, for L, the
# b and c that it gives).
_COLUMNS = {
    "L": ("lambda", "mu", "r", "L", "b", "c"),
    "LP": ("lambda", "mu", "r", "LP"),
    "b": ("lambda", "mu", "b"),
    "c": ("lambda", "mu", "c"),
}

# One row of each table exactly as ``_json_dumps`` lays out its record at
# depth 1, keys sorted, each field the index of its column in ``_COLUMNS``.
_ROW = {
    "L": '\n  {{\n    "L": {3},\n    "b": {4},\n    "c": {5},\n'
    '    "lambda": {0},\n    "mu": {1},\n    "r": {2}\n  }}',
    "LP": '\n  {{\n    "LP": {3},\n    "lambda": {0},\n    "mu": {1},\n    "r": {2}\n  }}',
    "b": '\n  {{\n    "b": {2},\n    "lambda": {0},\n    "mu": {1}\n  }}',
    "c": '\n  {{\n    "c": {2},\n    "lambda": {0},\n    "mu": {1}\n  }}',
}


def cmd_coeffs(args) -> int:
    if args.per_array and args.kind != "LP":
        raise ValueError("--per-array needs --kind LP")
    if args.per_array and args.format not in (None, "json"):
        raise ValueError("--per-array writes JSON only")
    n = args.n
    for check in coeffs_self_check(n):
        if not check.ok:
            print(check.line(), file=sys.stderr)
            return 1
    if args.per_array:
        # ``_json_dumps`` of {a.serialize(): count}, one line per array.
        tallies = sorted((a.serialize(), c) for a, c in hm.lp_by_array(n).items())
        lines = ['\n  %s: %d' % (encode_basestring_ascii(key), c) for key, c in tallies]
        _emit(["{" + ",".join(lines) + "\n}\n"], args.out)
        return 0
    # One keyed table: (lam, mu, r) for L and LP, (lam, mu) for b and c.
    if args.kind == "LP":
        table = hm.lp_from_pairings(n)
    elif args.kind == "L":
        table = hm.L_table(n)
    elif args.kind == "b":
        table = hm.b_from_L(hm.L_table(n))
    else:
        table = hm.c_from_L(hm.L_table(n))
    scale = hm.hyperoctahedral_order(n)
    fmt = args.format or "pretty"
    # json names a partition as its JSON string, csv by parts, pretty by
    # multiplicities; each name is rendered once.
    if fmt == "json":
        name = _name
    else:
        name = cache(partial(format_partition, style="mult" if fmt == "pretty" else "parts"))
    rows = []
    for (lam, mu, *r), value in sorted(table.items(), reverse=True):
        row = (name(lam), name(mu), *r, value)
        if args.kind == "L":
            row += (scale * value, value if r[0] == 0 else 0)
        rows.append(row)
    if fmt == "json":
        text = "[" + ",".join(starmap(_ROW[args.kind].format, rows)) + "\n]\n"
    else:
        text = _format_rows(_COLUMNS[args.kind], rows, fmt)
    _emit([text], args.out)
    return 0


def _format_rows(headers: tuple[str, ...], rows: list[tuple], fmt: str) -> str:
    """Write the named coefficient rows (never empty for n >= 1), one
    entry per header: csv as it is, pretty in aligned columns."""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(headers)
        writer.writerows(rows)
        return buffer.getvalue()
    widths = [max(len(h), *(len(str(row[i])) for row in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def cmd_expansion(args) -> int:
    n, flagged = args.n, None
    if args.field == "complex":
        strata, blocks = ["[]"], _complex_blocks(n)
    else:
        pairs = cf.iter_degenerate_pairs(n)  # rejects n < 1 before anything is built
        flagged = _PairSet(n) if args.strict else None
        strata = _pair_chunks(pairs, flagged)
        blocks = _real_blocks(cf.real_expansion(n), flagged if args.strict else ())
    _emit(_expansion_chunks(n, args.field, strata, blocks), args.out)
    return 2 if flagged else 0


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
    ``ValueError``.  ``f3`` must list exactly ``n`` pairs of two labels
    each, checked before the pairing is built; ``pi1``, ``pi2`` and their
    blocks must be lists, never read through a string.  One rule reads
    every label list, the f3 pairs and each block alike: all its labels
    are parsed, and a label listed twice is named with its list."""
    try:
        n = data["n"]
        if type(n) is not int or n < 1:
            raise ValueError(f"hypermap 'n' must be a positive integer, got {n!r}")
        f3 = data["f3"]
        if len(f3) != n:
            raise ValueError(f"hypermap 'f3' must list n = {n} pairs, got {len(f3)}")
        for i, pair in enumerate(f3):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"hypermap 'f3' pair {i} must hold two labels, got {pair!r}")

        def labels(listed, where: str) -> list[int]:
            read = [hm.parse_element(str(x), n) for x in listed]
            seen: set[int] = set()
            for x in read:
                if x in seen:
                    raise ValueError(f"hypermap {where} uses label {hm.element_name(x, n)!r} twice")
                seen.add(x)
            return read

        ends = labels(chain.from_iterable(f3), "'f3'")
        pairs = list(zip(ends[::2], ends[1::2]))
        blocks1, blocks2 = [], []
        for key, blocks in (("pi1", blocks1), ("pi2", blocks2)):
            if not isinstance(data[key], list):
                raise ValueError(f"hypermap {key!r} must be a list of blocks, got {data[key]!r}")
            for i, block in enumerate(data[key]):
                if not isinstance(block, list):
                    raise ValueError(
                        f"hypermap {key!r} block {i} must be a list of labels, got {block!r}"
                    )
                blocks.append(labels(block, f"{key!r} block {i}"))
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
        _emit([_json_dumps({"valid": False, "violations": problems})], args.out)
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
    _emit([_json_dumps(payload)], args.out)
    return 0


class _JSONNumber(float):
    """A JSON number with a fraction or an exponent: the float that ``json``
    reads, whose ``str`` is its literal text.  So ``MatrixSpec.from_json``
    reads an eigenvalue exactly from that text, while a dense entry, a
    declared ``dim`` and every message see the float."""

    __slots__ = ("text",)

    def __new__(cls, text: str) -> "_JSONNumber":
        number = super().__new__(cls, text)
        number.text = text
        return number

    def __str__(self) -> str:
        return self.text


def _matrix_from_args(path: str | None, eigs: str | None, dim: int | None, option: str):
    """One side's matrix: a JSON file, whose numbers are read as
    :class:`_JSONNumber`, the eigenvalue list of ``option``, or else the
    identity of size ``dim``; an entry of the list that does not parse, or
    a file or list whose dimension is not a given ``dim``, raises
    ``ValueError``."""
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            spec = mo.MatrixSpec.from_json(json.load(handle, parse_float=_JSONNumber))
    elif eigs is not None:
        spec = mo.MatrixSpec.from_eigs(eigs.split(","), option)
    elif dim is not None:
        return mo.MatrixSpec.identity(dim)
    else:
        raise ValueError("need --x-eigs/--y-eigs, matrix files, or --dim")
    if dim is not None and spec.dim != dim:
        raise ValueError(f"--dim {dim} disagrees with the matrix's dimension {spec.dim}")
    return spec


def cmd_mc(args) -> int:
    if args.dim is not None and args.dim < 1:
        raise ValueError("--dim must be >= 1")
    x = _matrix_from_args(args.matrix_x, args.x_eigs, args.dim, "--x-eigs")
    y = _matrix_from_args(args.matrix_y, args.y_eigs, args.dim, "--y-eigs")
    if args.field == "real":
        sample, exact_moment = mo.mc_moment_real, mo.moment_real_exact
    else:
        sample, exact_moment = mo.mc_moment_complex, mo.moment_complex_exact
    estimate = sample(args.n, x, y, args.samples, args.seed)
    exact = None
    if x.eigs is not None and y.eigs is not None:
        exact = exact_moment(args.n, x, y)
    _emit([_json_dumps(estimate.to_json(exact))], args.out)
    return 0


def cmd_report(args) -> int:
    chunks = _strata_chunks(cf.iter_degenerate_strata(args.n))
    first = next(chunks)  # "[]" if and only if no stratum is flagged
    _emit(chain([first], chunks, ["\n"]), args.out)
    return 2 if args.strict and first != "[]" else 0


def _seed(text: str) -> int:
    """A ``--seed``: the key of a Philox stream, so ``0 <= seed < 2**128``."""
    seed = int(text)
    if not 0 <= seed < 1 << 128:
        raise argparse.ArgumentTypeError(f"must satisfy 0 <= seed < 2**128, got {seed}")
    return seed


_seed.__name__ = "int"  # a seed that is no integer reads "invalid int value"


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
    p.add_argument("--format", choices=["json", "csv", "pretty"], help="default: pretty")
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
    p.add_argument("--samples", type=int, help=f"mc suite only (default {mo._MC_SAMPLES})")
    p.add_argument("--seed", type=_seed, help=f"mc suite only (default {mo._MC_SEED})")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bijection", help="map a hypermap JSON to its forest or back")
    p.add_argument("--input", required=True)
    p.add_argument("--dot", help="also write a Graphviz rendering here")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bijection)

    p = sub.add_parser("mc", help="Monte Carlo moment estimate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--field", choices=["real", "complex"], default="real")
    p.add_argument("--samples", type=int, default=mo._MC_SAMPLES)
    p.add_argument("--seed", type=_seed, default=mo._MC_SEED)
    p.add_argument("--dim", type=int, help="use identity matrices of this size")
    x = p.add_mutually_exclusive_group()  # a list or a file per side, not both
    x.add_argument("--x-eigs", help="comma list of rational eigenvalues for X")
    x.add_argument("--matrix-x", help="JSON file {dim, eigs|entries}")
    y = p.add_mutually_exclusive_group()
    y.add_argument("--y-eigs", help="comma list of rational eigenvalues for Y")
    y.add_argument("--matrix-y", help="JSON file {dim, eigs|entries}")
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
