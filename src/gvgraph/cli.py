"""Command-line interface: bounds, spectrum, construct, verify, sweep.

``main`` hands a command's argv straight to that command's own parser, the
subparser ``build_parser`` made for it, so one call parses its argv once.
The full parser reads only an argv that starts with no command name (empty,
``-h``, or an unknown command), which it answers with its usage, help or
command list.

Exit codes: 0 success, 1 verification failed, 2 usage or parse error,
3 budget refusal.  All rationals are serialized as exact "p/q" strings
(plain integers when the denominator is 1) and re-parse to the identical
value; output files are written atomically (temp file + rename), into a
directory checked before the command's work starts (``_check_output``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import functools
import io
import json
import logging
import os
import stat
import sys
import time
from fractions import Fraction
from math import ceil, floor

from .bounds import BoundReport, build_bound_report
from .codes import INFINITE_DISTANCE, LinearCode, _atomic_write_text, min_distance, read_pchk, write_pchk
from .combinat import GraphParams
from .descent import descend, run_algorithm1
from .errors import BudgetError
from .spectrum import build_spectrum_level0

__all__ = ["main"]

log = logging.getLogger("gvgraph")


class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is when the record is emitted,
    so a caller that redirects stderr around one ``main`` call gets that
    call's warnings."""

    def __init__(self) -> None:
        super().__init__()
        self.setFormatter(logging.Formatter("%(name)s: %(levelname)s: %(message)s"))

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value) -> None:
        pass


_STDERR_HANDLER = _StderrHandler()

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

SWEEP_FIELDS = [
    "q",
    "n",
    "d",
    "status",
    "degenerate",
    "lambda_min",
    "gv",
    "gv_ceil",
    "wilf_cor27",
    "wilf_cor27_ceil",
    "hoffman_upper",
    "hoffman_upper_floor",
    "hoffman_paper_literal",
    "descent_bounds",
    "descent_final",
    "descent_final_ceil",
    "constructed_code_size",
    "s",
    "asymptotic_rate",
    "runtime_seconds",
]


@contextlib.contextmanager
def _all_digits():
    """Lift the interpreter's int-to-str digit limit (4,300 digits by default)
    while computed values are formatted, and restore it after; parsing input
    keeps the limit.  The limit is process-wide, so two threads must not
    format at once."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before Python 3.10.7: no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _frac_str(value: Fraction | None) -> str | None:
    return None if value is None else str(value)


def _check_output(path: str | None) -> None:
    """Refuse ``path``, before any work, if its directory is missing or is
    not a directory, with the error ``_atomic_write_text`` raises there,
    which names ``path``, or if ``path`` is itself a directory, which the
    rename would refuse only after the work.  That write keeps its own
    handling, since the directory can vanish in between; None (stdout)
    passes."""
    if path is None:
        return
    try:
        is_dir = stat.S_ISDIR(os.stat(os.path.dirname(os.path.abspath(path))).st_mode)
    except OSError as exc:
        exc.filename = path
        raise
    if not is_dir:
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        _atomic_write_text(output, text)


def _report_dict(report: BoundReport) -> dict:
    params = report.params
    descent = report.descent_bounds
    final = descent[-1] if descent else None
    return {
        "q": params.q,
        "n": params.n,
        "d": params.d,
        "degenerate": report.degenerate,
        "lambda_min": report.lambda_min,
        "gv": _frac_str(report.gv),
        "gv_ceil": ceil(report.gv),
        "wilf_cor27": _frac_str(report.wilf_cor27),
        "wilf_cor27_ceil": None if report.wilf_cor27 is None else ceil(report.wilf_cor27),
        "hoffman_upper": _frac_str(report.hoffman_upper),
        "hoffman_upper_floor": None if report.hoffman_upper is None else floor(report.hoffman_upper),
        "hoffman_paper_literal": _frac_str(report.hoffman_paper_literal),
        "descent_bounds": None if descent is None else [_frac_str(b) for b in descent],
        "descent_final": _frac_str(final),
        "descent_final_ceil": None if final is None else ceil(final),
        "constructed_code_size": report.constructed_code_size,
        "s": report.s,
        "asymptotic_rate": None if report.asymptotic_rate is None else str(report.asymptotic_rate),
    }


def _csv_text(fieldnames: list[str], rows: list[dict]) -> str:
    """A header of ``fieldnames``, then each row's values in that order:
    None as an empty field, a list of descent bounds joined by ";"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        values = [row.get(k) for k in fieldnames]
        writer.writerow(["" if v is None else ";".join(v) if isinstance(v, list) else v for v in values])
    return buf.getvalue()


def _bound_report(params: GraphParams, budget: int | None) -> tuple[BoundReport, str]:
    """The report and status "ok", or, over the budget, the report without the descent and "skipped"."""
    try:
        trace = run_algorithm1(params, budget=budget)
    except BudgetError as exc:
        log.warning("descent skipped for (q=%d, n=%d, d=%d): %s", params.q, params.n, params.d, exc)
        return build_bound_report(params), "skipped"
    return build_bound_report(params, trace=trace), "ok"


def cmd_bounds(args: argparse.Namespace) -> int:
    params = GraphParams(args.q, args.n, args.d)
    _check_output(args.output)
    report, _ = _bound_report(params, args.budget)
    with _all_digits():
        payload = _report_dict(report)
        if args.json:
            text = json.dumps(payload, indent=2) + "\n"
        else:
            fields = [k for k in SWEEP_FIELDS if k not in ("status", "runtime_seconds")]
            text = _csv_text(fields, [payload])
    _emit(text, args.output)
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    params = GraphParams(args.q, args.n, args.d)
    level = args.level
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    _check_output(args.output)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if level == 0:
        table = build_spectrum_level0(params)
        writer.writerow(["weight", "eigenvalue", "multiplicity"])
        with _all_digits():
            writer.writerows(table.weight_rows())
    else:
        for table, _ in descend(params, budget=args.budget):
            if table.level == level:
                break
        else:
            print(
                f"level {level} is beyond termination: the descent for "
                f"(q={params.q}, n={params.n}, d={params.d}) stops at s = {table.level}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        writer.writerow(["vector", "eigenvalue"])
        for vec, lam in table.densify(args.budget).entries():
            writer.writerow([str(vec), lam])
    _emit(buf.getvalue(), args.output)
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    params = GraphParams(args.q, args.n, args.d)
    _check_output(args.output)
    trace = run_algorithm1(params, budget=args.budget)
    code = LinearCode(params.q, params.n, trace.parity_rows)
    write_pchk(args.output, code)
    payload = [
        {
            "t": rec.t,
            "pivot": str(rec.pivot),
            "lambda_min": rec.lambda_min,
            "degree": rec.degree,
            "bound_numerator": rec.bound.numerator,
            "bound_denominator": rec.bound.denominator,
        }
        for rec in trace.levels
    ]
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    code = read_pchk(args.pchk)
    distance = min_distance(code, budget=args.budget)
    shown = "infinity" if distance == INFINITE_DISTANCE else str(distance)
    with _all_digits():
        text = f"q: {code.q}\nn: {code.n}\ndimension: {code.dimension}\ncodewords: {code.size}\nmin_distance: {shown}\n"
    sys.stdout.write(text)
    return EXIT_OK if distance >= args.d else EXIT_VERIFY_FAILED


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from None


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"expected an inclusive range 'lo:hi' or a single integer, got {text!r}") from None
    return lo, hi


def _sweep_cell(cell: tuple[int, int, int, int | None]) -> dict:
    q, n, d, budget = cell
    params = GraphParams(q, n, d)
    start = time.perf_counter()
    report, status = _bound_report(params, budget)
    with _all_digits():
        row = _report_dict(report)
    row["status"] = status
    row["runtime_seconds"] = f"{time.perf_counter() - start:.3f}"
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    q_list = _parse_int_list(args.q)
    n_lo, n_hi = _parse_range(args.n)
    d_lo, d_hi = _parse_range(args.d)
    cells = []
    for q in sorted(set(q_list)):
        for n in range(n_lo, n_hi + 1):
            for d in range(d_lo, d_hi + 1):
                try:
                    GraphParams(q, n, d)
                except ValueError as exc:
                    log.warning("skipping invalid cell (q=%d, n=%d, d=%d): %s", q, n, d, exc)
                    continue
                cells.append((q, n, d, args.budget))
    _check_output(args.output)
    # The pool starts all its workers at the first task.
    workers = min(args.jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: it pulls in multiprocessing, which no other command needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell) for cell in cells]
    with _all_digits():
        if args.format == "json":
            ordered = [{k: row.get(k) for k in SWEEP_FIELDS} for row in rows]
            text = json.dumps(ordered, indent=2) + "\n"
        else:
            text = _csv_text(SWEEP_FIELDS, rows)
    _atomic_write_text(args.output, text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gvgraph",
        description=(
            "Exact Gilbert-graph spectra, spectral bounds on A_q(n, d), and "
            "spectral-descent construction of linear codes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command's parser by name, for ``main``; ``sub.choices`` fills as
    # the commands are added below.
    parser.commands = sub.choices

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("-q", type=int, required=True, help="prime alphabet size")
        p.add_argument("-n", type=int, required=True, help="code length")
        p.add_argument("-d", type=int, required=True, help="target minimum distance")

    def budget(text: str) -> int:
        """A ``--budget`` value: an int of at least 0 (0 refuses every table)."""
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
        return value

    def add_budget(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget", type=budget, default=None, help="table-entry cap override")

    p_bounds = sub.add_parser("bounds", help="report all bound values for one (q, n, d)")
    add_params(p_bounds)
    add_budget(p_bounds)
    p_bounds.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    p_bounds.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")
    p_bounds.set_defaults(func=cmd_bounds)

    p_spec = sub.add_parser("spectrum", help="emit a spectrum table as CSV")
    add_params(p_spec)
    add_budget(p_spec)
    p_spec.add_argument("--level", type=int, default=0, help="descent level (default 0)")
    p_spec.add_argument("-o", "--output", default=None)
    p_spec.set_defaults(func=cmd_spectrum)

    p_con = sub.add_parser("construct", help="run the descent and write a parity-check file")
    add_params(p_con)
    add_budget(p_con)
    p_con.add_argument("-o", "--output", required=True, help="gvpchk output path")
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="exhaustively verify a parity-check file")
    p_ver.add_argument("pchk", help="gvpchk file to verify")
    p_ver.add_argument("-d", type=int, required=True, help="expected minimum distance")
    add_budget(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="tabulate bound reports over a parameter grid")
    p_sweep.add_argument("-q", required=True, help="comma-separated prime list, e.g. 2,3")
    p_sweep.add_argument("-n", required=True, help="inclusive length range lo:hi")
    p_sweep.add_argument("-d", required=True, help="inclusive distance range lo:hi")
    p_sweep.add_argument("-o", "--output", required=True)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    add_budget(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and shared by every later call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    log.addHandler(_STDERR_HANDLER)  # a no-op once added
    argv = sys.argv[1:] if argv is None else argv
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    args = parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:  # PchkFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
