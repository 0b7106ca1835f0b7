"""Command-line front end.

One binary, subcommand style.  Machine output goes to stdout and is
byte-deterministic for fixed flags and seeds; diagnostics go to stderr.
Exit codes: 0 solved/verified, 1 usage error, 2 graph parse error,
3 state budget exceeded, 4 certificate invalid.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys
from pathlib import Path

from . import __version__, width
from .arena import GameVariant
from .certificates import Certificate, verify_certificate
from .digraph import Digraph, fingerprint, parse_edge_list
from .errors import (
    CertificateError,
    EdgeListParseError,
    SizeLimitError,
    StateBudgetExceededError,
    UnsupportedVariantError,
)
from .lab import (
    GAP_FIELDS,
    enumerate_digraphs,
    gap_scan,
    graph_id_of,
    random_digraph,
)
from .hardproblems import (
    REPORT_FIELDS,
    hamiltonian_cycle,
    min_equivalent_subgraph,
    min_feedback_arc_set,
    min_feedback_vertex_set,
    width_annotated_report,
)
from .reports import csv_line, rows_to_csv, rows_to_jsonl
from .solver import DEFAULT_STATE_BUDGET, cop_number, gap, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_CERT = 4

STDOUT = "<stdout>"  # the name an OutputError gives standard output

DEFAULT_SEED = 0
DEFAULT_P = 0.3

VARIANT_HELP = "game variant: visible | inert | invisible-fast | visible-fast-scc (default visible)"


class UsageError(Exception):
    pass


class OutputError(Exception):
    """An output path could not be written."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _non_negative_int(text):
    """argparse type of budgets and counts: an int of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


@functools.lru_cache(maxsize=None)  # built on first use; parse_args leaves it unchanged
def _build_parser():
    parser = _Parser(prog="copwin", description=__doc__)
    parser.add_argument("--version", action="version", version=f"copwin {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add_common(p, monotone=True):
        p.add_argument("--variant", default="visible", help=VARIANT_HELP)
        if monotone:
            p.add_argument("--monotone", action="store_true",
                           help="restrict the cops to monotone strategies")
        p.add_argument("--state-budget", type=_non_negative_int, default=DEFAULT_STATE_BUDGET,
                       help=f"arena-transition budget (default {DEFAULT_STATE_BUDGET})")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("solve", help="decide the winner for a fixed cop count")
    add_common(p)
    p.add_argument("--cops", type=int, required=True, help="number of cops k")
    p.add_argument("graph", help="edge-list file")

    p = sub.add_parser("copnum", help="minimal winning cop count")
    add_common(p)
    p.add_argument("--emit-cert", metavar="PATH", default=None,
                   help="write the winning strategy certificate to PATH")
    p.add_argument("graph")

    p = sub.add_parser("gap", help="plain vs monotone cop number")
    add_common(p, monotone=False)
    p.add_argument("graph")

    p = sub.add_parser("width", help="game-characterized width measures")
    p.add_argument("--measure", required=True, choices=width.WIDTHS)
    p.add_argument("--state-budget", type=_non_negative_int, default=DEFAULT_STATE_BUDGET)
    p.add_argument("--json", action="store_true")
    p.add_argument("graph")

    p = sub.add_parser("gapscan", help="scan instances for monotonicity gaps")
    p.add_argument("--variant", default="visible", help=VARIANT_HELP)
    p.add_argument("--n", type=int, default=None, help="vertex count for generated sources")
    p.add_argument("--exhaustive", action="store_true", help="all labeled digraphs on n vertices")
    p.add_argument("--random", type=_non_negative_int, default=None, metavar="COUNT",
                   help="COUNT random digraphs on n vertices")
    p.add_argument("--p", type=float, default=DEFAULT_P, help=f"arc probability (default {DEFAULT_P})")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"base seed (default {DEFAULT_SEED})")
    p.add_argument("--state-budget", type=_non_negative_int, default=DEFAULT_STATE_BUDGET)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per CPU, fed graphs in windows")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--cert-dir", default=None,
                   help="directory to write per-record strategy certificates")
    p.add_argument("--timings", action="store_true",
                   help="fill runtime_ms (breaks byte-for-byte reproducibility)")
    p.add_argument("graphs", nargs="*", help="edge-list files (file-list source)")

    p = sub.add_parser("certify", help="verify a strategy certificate against a graph")
    p.add_argument("graph")
    p.add_argument("certificate")

    p = sub.add_parser("hard", help="exact hard-problem solvers")
    p.add_argument("problem", choices=["ham", "fvs", "fas", "mes", "report"])
    p.add_argument("--json", action="store_true")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv",
                   help="report output format (report subcommand)")
    p.add_argument("--state-budget", type=_non_negative_int, default=DEFAULT_STATE_BUDGET)
    p.add_argument("graphs", nargs="+", help="edge-list files")
    return parser


def _read_text(path, error, name):
    """The UTF-8 text of ``path``, its line ends untranslated; a failure
    raises ``error``, and an undecodable file is called ``name`` in its
    message."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{name} is not UTF-8 text: {exc}") from None


def _load_graph(path) -> Digraph:
    return parse_edge_list(_read_text(path, EdgeListParseError, path))


@contextlib.contextmanager
def _writing(path):
    """Turn an OSError raised while writing ``path`` into an OutputError."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _print(*args, **kwargs):
    """``print`` to stdout; a failed write is an OutputError."""
    with _writing(STDOUT):
        print(*args, **kwargs)


@contextlib.contextmanager
def _output(path):
    """A write function for stdout, or for ``path`` opened for writing
    before any work is done.

    A write that fails, or the close of ``path``, is an OutputError
    naming the stream (``main`` flushes stdout the same way).
    """
    if not path:
        yield lambda text: _print(text, end="")
        return
    with _writing(path):
        f = open(path, "w", encoding="utf-8")

    def write(text):
        with _writing(path):
            f.write(text)

    try:
        yield write
    except BaseException:
        with contextlib.suppress(OSError):  # the first error is the one to report
            f.close()
        raise
    with _writing(path):
        f.close()


def _write_certificate(path, cert):
    with _writing(path):
        Path(path).write_text(cert.to_json_text(), encoding="utf-8")


def _emit(args, d, doc, text):
    """Print ``doc`` and the graph's fingerprint as one sorted JSON line
    under ``--json``, else the text line."""
    if args.json:
        text = json.dumps({**doc, "graph_sha256": fingerprint(d)}, sort_keys=True)
    _print(text)


def _cmd_solve(args):
    d = _load_graph(args.graph)
    variant = GameVariant.from_name(args.variant)
    outcome = solve(d, args.cops, variant, args.monotone, args.state_budget)
    _emit(args, d, {
        "winner": outcome.winner.value,
        "variant": variant.name,
        "k": args.cops,
        "monotone": args.monotone,
        "states_explored": outcome.states_explored,
    }, outcome.winner.value.upper())
    return EXIT_OK


def _cmd_copnum(args):
    d = _load_graph(args.graph)
    variant = GameVariant.from_name(args.variant)
    res = cop_number(d, variant, args.monotone, args.state_budget)
    if args.emit_cert:
        _write_certificate(args.emit_cert, res.outcome.certificate)
    _emit(args, d, {
        "cop_number": res.value,
        "variant": variant.name,
        "monotone": args.monotone,
        "states_explored": res.outcome.states_explored,
    }, res.value)
    return EXIT_OK


def _cmd_gap(args):
    d = _load_graph(args.graph)
    variant = GameVariant.from_name(args.variant)
    res = gap(d, variant, args.state_budget)
    _emit(args, d, {
        "variant": variant.name,
        "cop_number": res.cop_number,
        "monotone_cop_number": res.monotone_cop_number,
        "gap": res.gap,
        "ratio": res.ratio,
    }, f"cop_number={res.cop_number} monotone_cop_number={res.monotone_cop_number} "
       f"gap={res.gap} ratio={res.ratio!r}")
    return EXIT_OK


def _cmd_width(args):
    d = _load_graph(args.graph)
    report = getattr(width, width.WIDTHS[args.measure])(d, args.state_budget)
    _emit(args, d, {
        "measure": report.measure,
        "value": report.value,
        "variant": report.variant,
        "monotone": report.monotone,
        "offset": report.offset,
        "cop_number": report.cop_number,
    }, report.value)
    return EXIT_OK


def _gapscan_source(args):
    """Graphs to scan; generated sources are produced lazily."""
    given = [name for name, on in (("--exhaustive", args.exhaustive),
                                   ("--random", args.random is not None),
                                   ("graph files", bool(args.graphs))) if on]
    if len(given) > 1:
        raise UsageError(f"gapscan takes one source, got {' and '.join(given)}")
    if args.exhaustive:
        if args.n is None:
            raise UsageError("--exhaustive requires --n")
        return enumerate_digraphs(args.n)
    if args.random is not None:
        if args.n is None:
            raise UsageError("--random requires --n")
        return (
            random_digraph(args.n, args.p, args.seed + i) for i in range(args.random)
        )
    if args.graphs:
        return [_load_graph(path) for path in args.graphs]
    raise UsageError("gapscan needs --exhaustive, --random COUNT, or graph files")


def _cmd_gapscan(args):
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    variant = GameVariant.from_name(args.variant)
    graphs = _gapscan_source(args)
    cert_dir = Path(args.cert_dir) if args.cert_dir else None
    if cert_dir is not None:
        with _writing(cert_dir):
            cert_dir.mkdir(parents=True, exist_ok=True)

    with _output(args.out) as write:
        def write_record(rec):
            # the certificates first, then the row that names them
            row = rec.to_row()
            for which, outcome in (("plain", rec.plain_outcome),
                                   ("monotone", rec.monotone_outcome)):
                path = None
                if cert_dir is not None and outcome is not None:
                    # read here, so a scan without --cert-dir builds no certificate
                    path = str(cert_dir / f"{rec.graph_id}.{rec.variant}.{which}.cert.json")
                    _write_certificate(path, outcome.certificate)
                row[f"certificate_{which}"] = path
            if args.format == "csv":
                write(csv_line(row.get(f) for f in GAP_FIELDS))
            else:
                row["attestation"] = rec.attestation
                write(rows_to_jsonl([row]))

        # a source that rejects its parameters does so on its first graph:
        # draw it before the header, so such a run writes no report
        graphs = iter(graphs)
        first = list(itertools.islice(graphs, 1))
        if args.format == "csv":
            write(csv_line(GAP_FIELDS))
        s = gap_scan(
            itertools.chain(first, graphs),
            variant,
            state_budget=args.state_budget,
            jobs=args.jobs,
            measure_runtime=args.timings,
            sink=write_record,
        )
    print(
        f"scanned {s.instances} instances: {s.gaps_positive} gaps > 0, "
        f"max gap {s.max_gap}, max ratio {s.max_ratio!r}, {s.errors} errors",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_certify(args):
    d = _load_graph(args.graph)
    text = _read_text(args.certificate, CertificateError, "certificate")
    cert = Certificate.from_json_text(text)
    result = verify_certificate(d, cert)
    if result.valid:
        _print("VALID")
        return EXIT_OK
    _print("INVALID")
    print(f"certificate invalid: {result.reason}", file=sys.stderr)
    return EXIT_CERT


def _cmd_hard(args):
    if args.problem == "report":
        graphs = [_load_graph(p) for p in args.graphs]
        instances = [(graph_id_of(d), d) for d in graphs]
        rows = width_annotated_report(instances, args.state_budget)
        if args.format == "csv":
            _print(rows_to_csv(REPORT_FIELDS, rows), end="")
        else:
            _print(rows_to_jsonl(rows), end="")
        return EXIT_OK
    solvers = {
        "ham": hamiltonian_cycle,
        "fvs": min_feedback_vertex_set,
        "fas": min_feedback_arc_set,
        "mes": min_equivalent_subgraph,
    }
    for path in args.graphs:
        d = _load_graph(path)
        sol = solvers[args.problem](d)
        _emit(args, d, {
            "problem": sol.problem,
            "value": sol.value,
            "witness": sol.witness,
            "optimal": sol.optimal,
        }, _format_solution(sol))
    return EXIT_OK


def _format_solution(sol):
    if sol.witness is None:
        return f"{sol.problem} value={sol.value} witness=none"
    if sol.problem == "hamiltonian_cycle":
        witness = "->".join(map(str, sol.witness))
    elif sol.problem == "feedback_vertex_set":
        witness = ",".join(map(str, sol.witness)) or "{}"
    else:
        witness = ",".join(f"{u}->{v}" for u, v in sol.witness) or "{}"
    return f"{sol.problem} value={sol.value} witness={witness}"


_COMMANDS = {
    "solve": _cmd_solve,
    "copnum": _cmd_copnum,
    "gap": _cmd_gap,
    "width": _cmd_width,
    "gapscan": _cmd_gapscan,
    "certify": _cmd_certify,
    "hard": _cmd_hard,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (see --help)")
        code = _COMMANDS[args.command](args)
        with _writing(STDOUT):
            sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EdgeListParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StateBudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CertificateError as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return EXIT_CERT
    except (UnsupportedVariantError, SizeLimitError, ValueError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
