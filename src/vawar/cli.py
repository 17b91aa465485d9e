"""Command-line surface: validate, stats, acorr, xcorr, density, simulate,
contrast.

All numeric output uses 17 significant digits, so repeated identical
invocations produce byte-identical reports.  Exit status: 0 on success,
1 on validation/data failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import io
import sys

from . import charfn
from .correlations import CORR_R, CORR_RP, CORR_RU, pair_sweep
from .errors import VawarError
from .moments import (
    DEFAULT_ORDER_CAP,
    MomentReport,
    moment_reports,
    return_moment,
)
from .reportio import SCHEMA_VERSION, Records, columns, dumps_json, write_csv_rows
from .synth import GenConfig, generate, weighting_contrast
from .tape import (
    DERIVE_VALUE,
    WITH_VALUE,
    LagSpec,
    WindowSpec,
    infer_epsilon,
    ingest,
    resolve,
    write_csv,
)

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


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _value_format(args, text):
    # --values, with auto decided by a "value" column in the header
    if args.values == "auto":
        header = text.splitlines()[0] if text else ""
        return WITH_VALUE if "value" in header.lower() else DERIVE_VALUE
    return WITH_VALUE if args.values == "supplied" else DERIVE_VALUE


def _tape_text(args):
    # the tape's CSV text and its spacing: --epsilon, else inferred from the text
    text = _read_text(args.input)
    return text, args.epsilon if args.epsilon is not None else infer_epsilon(text)


def _load_tape(args):
    text, epsilon = _tape_text(args)
    return ingest(text, value_format=_value_format(args, text), epsilon=epsilon)


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
    return dumps_json({"schema_version": SCHEMA_VERSION, "subcommand": subcommand,
                       **dict(items)})


def _csv(fields, rows):
    # CSV text of rows laid out by fields: their columns, then the rows
    sink = io.StringIO()
    write_csv_rows(sink, columns(fields), rows)
    return sink.getvalue()


def _emit(args, subcommand, key, fields, rows, head=()):
    """Write a report of rows laid out by ``fields`` in ``--format``.  CSV:
    the columns, then the rows.  JSON: the envelope and the (key, value)
    pairs ``head``, then the rows as a list of objects under ``key``."""
    if args.format == CSV:
        text = _csv(fields, rows)
    else:
        text = _document(subcommand, [*head, (key, Records(fields, rows))])
    _write_text(args.out, text)


def _cmd_validate(args):
    text, epsilon = _tape_text(args)
    ticks, error = 0, None
    try:
        ticks = len(ingest(text, value_format=_value_format(args, text), epsilon=epsilon))
    except VawarError as exc:
        error = {"kind": type(exc).__name__, "message": str(exc)}
    cells = (error is None, ticks, epsilon, error)
    _write_text(args.out, _document("validate", zip(VALIDATE_FIELDS, cells)))
    return 0 if error is None else 1


def _cmd_stats(args):
    reports = moment_reports(_load_tape(args), WindowSpec(args.start, args.window), args.lag,
                             args.order, args.stride, args.order_cap)
    _emit(args, "stats", "reports", MomentReport.json_fields(args.order),
          [r.csv_row() for r in reports])
    return 0


def _emit_sweep(args, subcommand, rows):
    _emit(args, subcommand, "rows", SWEEP_COLUMNS, rows,
          head=zip(WINDOW_HEAD, (args.start, args.window)))


def _shift_rows(args, stats, rows, degrees=(1, 1)):
    """Sweep rows for pair shifts j = 0..--max-shift from one
    :func:`vawar.correlations.pair_sweep` call over ``stats`` (window1's
    series cached once, window2's batched over blocks of shifts).
    ``rows(*results)`` lists (n, m, statistic, value_form, price_form,
    definitional) per statistic of one shift; each sweep row is a tuple of
    the ``SWEEP_COLUMNS`` cells."""
    tape = _load_tape(args)
    lag2 = args.lag2 if args.lag2 is not None else args.lag
    sweep = pair_sweep(tape, WindowSpec(args.start, args.window), args.lag, lag2,
                       args.max_shift, stats, degrees)
    return [(j, args.lag, lag2, *stat) for j, results in enumerate(sweep)
            for stat in rows(*results)]


def _cmd_acorr(args):
    def rows(ac):
        return [(1, 1, "corr_r", ac.value_form, ac.price_form, ac.definitional)]

    _emit_sweep(args, "acorr", _shift_rows(args, (CORR_R,), rows))
    return 0


def _cmd_xcorr(args):
    def rows(ru, rp):
        return [(1, 1, "corr_rU", ru.closed_form, ru.closed_form_prices, ru.definitional),
                (rp.degree_n, rp.degree_m, "corr_rp", rp.closed_form, None, rp.definitional)]

    degrees = (args.degree_n, args.degree_m)
    _emit_sweep(args, "xcorr", _shift_rows(args, (CORR_RU, CORR_RP), rows, degrees))
    return 0


def _cmd_density(args):
    tape = _load_tape(args)
    window = resolve(tape, WindowSpec(args.start, args.window),
                     LagSpec(lag_l=args.lag))
    moments = [return_moment(window, args.lag, n) for n in
               range(1, args.order + 1)]
    approx = charfn.fit_charfn(moments, b=args.damping_b, q=args.damping_q)
    grid = None
    if args.grid_min is not None or args.grid_max is not None:
        if args.grid_min is None or args.grid_max is None:
            raise VawarError("--grid-min and --grid-max must be given together")
        grid = charfn.GridSpec(args.grid_min, args.grid_max, args.grid_points)
    elif args.grid_points != charfn.R_POINTS:
        grid = charfn.GridSpec.for_approx(approx, points=args.grid_points)
    dens = charfn.invert_density(approx, grid)

    sink = io.StringIO()
    charfn.write_density_csv(dens, sink)
    _write_text(args.out, sink.getvalue())

    sidecar_path = args.sidecar
    if sidecar_path is None and args.out not in (None, "-"):
        sidecar_path = args.out + ".json"
    if sidecar_path is not None:
        _write_text(sidecar_path, _document("density", dens.sidecar_dict().items()))
    return 0


def _cmd_simulate(args):
    config = GenConfig.from_json(_read_text(args.config))
    tape = generate(config)
    sink = io.StringIO()
    write_csv(tape, sink)
    _write_text(args.out, sink.getvalue())
    return 0


def _cmd_contrast(args):
    result = weighting_contrast(
        _load_tape(args), WindowSpec(args.start, args.window), LagSpec(lag_l=args.lag)
    )
    row = (args.start, args.window, args.lag, result.freq_mean_return, result.vawar, result.gap)
    if args.format == CSV:
        text = _csv(CONTRAST_FIELDS, [row])
    else:
        text = _document("contrast", zip(CONTRAST_FIELDS, row))
    _write_text(args.out, text)
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
    p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP,
                   help="warn when an order exceeds this cap (default 8)")
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
    p.add_argument("--grid-points", type=_int_at_least(9), default=charfn.R_POINTS)
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
    try:
        return args.fn(args)
    except VawarError as exc:
        print(f"vawar {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"vawar {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
