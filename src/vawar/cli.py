"""Command-line surface: validate, stats, acorr, xcorr, density, simulate,
contrast.

All numeric output uses 17 significant digits, so repeated identical
invocations produce byte-identical reports.  Exit status: 0 on success,
1 on validation/data failure, 2 on usage errors.

Each subcommand imports the modules it runs when it runs, so ``--help``
and usage errors start without NumPy: importing this module loads only
``vawar.errors`` besides itself.  ``validate`` loads ``tape`` and
``reportio``; ``stats`` adds ``moments`` to those, ``acorr``/``xcorr``
``moments`` and ``correlations``, ``density`` ``moments`` and ``charfn``,
and ``simulate``/``contrast`` ``moments`` and ``synth``.

A subcommand that reads a tape hands ``tape.ingest`` the lines of the open
input file (or standard input), which ingest reads a block at a time as it
parses them; only the header and the first two data rows are read ahead,
a line at a time, for ``--values auto`` and the inferred spacing.  The rest
is read ``tape._BLOCK`` lines at a time, each block joined and split by
``str.splitlines`` as one string, so the lines break exactly where
``str.splitlines`` breaks the whole text.

Reports go to ``--out``, or standard output for none or ``-``.  Every CSV
report streams there through ``reportio.write_csv_rows``, each run of at
most 256 rows written as it is formatted: ``stats`` hands the writer the
kernel's blocks of windows (``moments.moment_blocks``), ``acorr`` and
``xcorr`` their rows as each block of shifts is computed, and ``density``
its grid, so no CSV report is held as a row list or as text.  Every check
(window, lag, order, stride, every shift) runs before ``--out`` is opened,
so a report that fails one exits 1 and creates no file; a write that fails
midway, on a full disk say, leaves the rows already written, as one write
of the whole text could.  A JSON report is built whole by
``reportio.dumps_json``, which the benchmark's per-layer timing reads, and
written once built, so a report that fails while it is built leaves no
file; JSON ``stats`` builds it from the same kernel blocks as CSV.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from itertools import chain, islice

from .errors import VawarError

JSON = "json"
CSV = "csv"

# The layouts of the reports, which vawar.schemas also publishes.  A
# (name, width) field is a list of width cells (reportio.Records).

#: The window a sweep or contrast report is about, after its envelope.
WINDOW_HEAD = ("window_start", "window_count")
#: The columns of an acorr/xcorr sweep row.
SWEEP_COLUMNS = ("j", "l1", "l2", "n", "m", "statistic", "value_form", "price_form",
                 "definitional")
#: The fields of a contrast report, one row.
CONTRAST_FIELDS = (*WINDOW_HEAD, "lag", "freq_mean_return", "vawar", "gap")
#: The fields of a validate report.
VALIDATE_FIELDS = ("valid", "ticks", "epsilon", "error")


def _int_at_least(lo):
    # argparse type: an integer >= lo, else a usage error (exit 2)
    def parse(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    parse.__name__ = "int"  # named in argparse's "invalid int value" message
    return parse


_POSITIVE = _int_at_least(1)
_NON_NEGATIVE = _int_at_least(0)


@contextmanager
def _input(path):
    # the text stream of an input path: standard input for "-", else the file
    if path == "-":
        yield sys.stdin
    else:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh


def _read_text(path):
    with _input(path) as fh:
        return fh.read()


@contextmanager
def _output(path):
    # the stream of --out: standard output for None or "-", else the file
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write_text(path, text):
    with _output(path) as fh:
        fh.write(text)


def _value_format(args, header):
    # --values, with auto decided by a "value" column in the header line
    from .tape import DERIVE_VALUE, WITH_VALUE

    if args.values == "auto":
        return WITH_VALUE if "value" in header.lower() else DERIVE_VALUE
    return WITH_VALUE if args.values == "supplied" else DERIVE_VALUE


@contextmanager
def _tape_lines(args):
    """The lines of the input tape as ``ingest`` takes them, its value
    format and its spacing: --epsilon, else inferred from the first rows.
    The file is read a line at a time up to the second data row, then
    ``tape._BLOCK`` lines at a time, each block joined and split as one
    string; it is closed when the block ends."""
    from .tape import _BLOCK, infer_epsilon

    with _input(args.input) as fh:
        # Every line of fh but the last ends at "\n", so the lines of each
        # line, or of each block of lines joined, are those that
        # fh.read().splitlines() breaks there.
        head, rows = [], 0
        for raw in fh:  # up to the header and the first two data rows
            split = raw.splitlines()
            head += split
            rows += sum(1 for line in split if line.strip())
            if rows >= 3:
                break
        blocks = iter(lambda: "".join(islice(fh, _BLOCK)), "")
        lines = chain(head, chain.from_iterable(map(str.splitlines, blocks)))
        epsilon = args.epsilon if args.epsilon is not None else infer_epsilon(head)
        yield lines, _value_format(args, head[0] if head else ""), epsilon


def _load_tape(args):
    from .tape import ingest

    with _tape_lines(args) as (lines, value_format, epsilon):
        return ingest(lines, value_format=value_format, epsilon=epsilon)


def _add_input_args(sub):
    sub.add_argument("input", help="CSV tape path, or - for standard input")
    sub.add_argument(
        "--epsilon", type=float, default=None,
        help="tick spacing; default: inferred from the first two rows",
    )
    sub.add_argument(
        "--values", choices=("auto", "derive", "supplied"), default="auto",
        help="derive values as price*volume or read a value column "
             "(auto: by header)",
    )


def _add_window_args(sub, lag_required=True):
    sub.add_argument("--window", type=int, required=True, metavar="N",
                     help="ticks per window (the 'trading day' size)")
    sub.add_argument("--start", type=int, required=True,
                     help="first tick index of the window")
    sub.add_argument("--lag", type=_POSITIVE, required=lag_required, default=1,
                     metavar="L", help="return lag in ticks (tau = epsilon*L)")


def _add_output_args(sub, formats=(JSON, CSV)):
    if formats:
        sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--out", default=None,
                     help="output path; default: standard output")


def _document(subcommand, items):
    # JSON text of a report: its schema_version/subcommand envelope, then items
    from .reportio import SCHEMA_VERSION, dumps_json

    return dumps_json({"schema_version": SCHEMA_VERSION, "subcommand": subcommand,
                       **dict(items)})


def _write_csv(path, fields, rows):
    # rows laid out by fields to --out as they come: their columns, then the rows
    from .reportio import columns, write_csv_rows

    with _output(path) as fh:
        write_csv_rows(fh, columns(fields), rows)


def _emit(args, subcommand, key, fields, rows, head=()):
    """Write a report of rows laid out by ``fields`` in ``--format``.  CSV:
    the columns, then the rows, each run written as it is formatted.  JSON:
    the envelope and the (key, value) pairs ``head``, then the rows as a
    list of objects under ``key``, written once the whole text is built."""
    from .reportio import Records

    if args.format == CSV:
        _write_csv(args.out, fields, rows)
    else:
        _write_text(args.out, _document(subcommand, [*head, (key, Records(fields, rows))]))


def _cmd_validate(args):
    from .tape import ingest

    ticks, error = 0, None
    with _tape_lines(args) as (lines, value_format, epsilon):
        try:
            ticks = len(ingest(lines, value_format=value_format, epsilon=epsilon))
        except VawarError as exc:
            error = {"kind": type(exc).__name__, "message": str(exc)}
    cells = (error is None, ticks, epsilon, error)
    _write_text(args.out, _document("validate", zip(VALIDATE_FIELDS, cells)))
    return 0 if error is None else 1


def _cmd_stats(args):
    from .moments import MomentReport, moment_blocks
    from .tape import WindowSpec

    rows = moment_blocks(_load_tape(args), WindowSpec(args.start, args.window), args.lag,
                         args.order, args.stride)
    _emit(args, "stats", "reports", MomentReport.json_fields(args.order), rows)
    return 0


def _emit_sweep(args, subcommand, rows):
    _emit(args, subcommand, "rows", SWEEP_COLUMNS, rows,
          head=zip(WINDOW_HEAD, (args.start, args.window)))


def _shift_rows(args, stats, rows, degrees=(1, 1)):
    """Sweep rows for pair shifts j = 0..--max-shift from one
    :func:`vawar.correlations.pair_sweep` call over ``stats`` (window1's
    series cached once, window2's batched over blocks of shifts), as an
    iterator: every shift is checked before this returns, and each block
    of shifts is computed as its rows are taken.  ``rows(*results)`` lists
    (n, m, statistic, value_form, price_form, definitional) per statistic
    of one shift; each sweep row is a tuple of the ``SWEEP_COLUMNS``
    cells."""
    from .correlations import pair_sweep
    from .tape import WindowSpec

    tape = _load_tape(args)
    lag2 = args.lag2 if args.lag2 is not None else args.lag
    sweep = pair_sweep(tape, WindowSpec(args.start, args.window), args.lag, lag2,
                       args.max_shift, stats, degrees)
    return ((j, args.lag, lag2, *stat) for j, results in enumerate(sweep)
            for stat in rows(*results))


def _cmd_acorr(args):
    from .correlations import CORR_R

    def rows(ac):
        return [(1, 1, "corr_r", ac.value_form, ac.price_form, ac.definitional)]

    _emit_sweep(args, "acorr", _shift_rows(args, (CORR_R,), rows))
    return 0


def _cmd_xcorr(args):
    from .correlations import CORR_RP, CORR_RU

    def rows(ru, rp):
        return [(1, 1, "corr_rU", ru.closed_form, ru.closed_form_prices, ru.definitional),
                (rp.degree_n, rp.degree_m, "corr_rp", rp.closed_form, None, rp.definitional)]

    degrees = (args.degree_n, args.degree_m)
    _emit_sweep(args, "xcorr", _shift_rows(args, (CORR_RU, CORR_RP), rows, degrees))
    return 0


def _cmd_density(args):
    from . import charfn
    from .moments import moment_reports
    from .tape import WindowSpec

    [report] = moment_reports(_load_tape(args), WindowSpec(args.start, args.window), args.lag,
                              args.order)
    approx = charfn.fit_charfn(report.return_moments, b=args.damping_b, q=args.damping_q)
    points = charfn.R_POINTS if args.grid_points is None else args.grid_points
    if args.grid_min is None:
        grid = charfn.GridSpec.for_approx(approx, points=points)
    else:
        grid = charfn.GridSpec(args.grid_min, args.grid_max, points)
    dens = charfn.invert_density(approx, grid)

    with _output(args.out) as fh:
        charfn.write_density_csv(dens, fh)

    sidecar_path = args.sidecar
    if sidecar_path is None and args.out not in (None, "-"):
        sidecar_path = args.out + ".json"
    if sidecar_path is not None:
        _write_text(sidecar_path, _document("density", dens.sidecar_dict().items()))
    return 0


def _cmd_simulate(args):
    from .synth import GenConfig, generate
    from .tape import write_csv

    config = GenConfig.from_json(_read_text(args.config))
    tape = generate(config)
    # written a block of rows at a time, never held whole
    with _output(args.out) as fh:
        write_csv(tape, fh)
    return 0


def _cmd_contrast(args):
    from .synth import weighting_contrast
    from .tape import LagSpec, WindowSpec

    result = weighting_contrast(
        _load_tape(args), WindowSpec(args.start, args.window), LagSpec(lag_l=args.lag)
    )
    row = (args.start, args.window, args.lag, result.freq_mean_return, result.vawar, result.gap)
    if args.format == CSV:
        _write_csv(args.out, CONTRAST_FIELDS, [row])
    else:
        _write_text(args.out, _document("contrast", zip(CONTRAST_FIELDS, row)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vawar",
        description="Market-based statistics of stock returns from trade tapes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check a tape and report row errors")
    _add_input_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("stats", help="per-window moment report")
    _add_input_args(p)
    _add_window_args(p)
    p.add_argument("--stride", type=_NON_NEGATIVE, default=0,
                   help="sweep window start by this stride (0: single window)")
    p.add_argument("--order", type=_POSITIVE, default=2, metavar="M",
                   help="highest moment order (default 2)")
    _add_output_args(p)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("acorr", help="return autocorrelation vs pair shift")
    _add_input_args(p)
    _add_window_args(p)
    p.add_argument("--lag2", type=_POSITIVE, default=None,
                   help="second window's return lag (default: --lag)")
    p.add_argument("--max-shift", type=_NON_NEGATIVE, default=0, metavar="J",
                   help="sweep pair shift j = 0..J")
    _add_output_args(p)
    p.set_defaults(fn=_cmd_acorr)

    p = sub.add_parser("xcorr",
                       help="return-volume and return-price correlations")
    _add_input_args(p)
    _add_window_args(p)
    p.add_argument("--lag2", type=_POSITIVE, default=None)
    p.add_argument("--max-shift", type=_NON_NEGATIVE, default=0, metavar="J")
    p.add_argument("--degree-n", type=_POSITIVE, default=1,
                   help="return degree n for corr_rp")
    p.add_argument("--degree-m", type=_POSITIVE, default=1,
                   help="price degree m for corr_rp")
    _add_output_args(p)
    p.set_defaults(fn=_cmd_xcorr)

    p = sub.add_parser("density",
                       help="fit Q_m to window return moments and invert")
    _add_input_args(p)
    _add_window_args(p)
    p.add_argument("--order", type=_POSITIVE, default=2, metavar="M")
    p.add_argument("--damping-b", type=float, default=None)
    p.add_argument("--damping-q", type=int, default=None)
    p.add_argument("--grid-min", type=float, default=None)
    p.add_argument("--grid-max", type=float, default=None)
    p.add_argument("--grid-points", type=_int_at_least(9), default=None)
    p.add_argument("--sidecar", default=None,
                   help="sidecar JSON path (default: <out>.json when --out)")
    _add_output_args(p, formats=())
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("simulate", help="write a synthetic tape")
    p.add_argument("--config", required=True,
                   help="generator config JSON path, or - for stdin")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("contrast",
                       help="frequency mean return vs VaWAR on one window")
    _add_input_args(p)
    _add_window_args(p)
    _add_output_args(p)
    p.set_defaults(fn=_cmd_contrast)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "density" and (args.grid_min is None) != (args.grid_max is None):
        parser.error("--grid-min and --grid-max must be given together")
    try:
        return args.fn(args)
    except (VawarError, OSError, UnicodeDecodeError) as exc:
        print(f"vawar {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
