import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import vawar
from vawar import schemas
from vawar.charfn import fit_charfn, invert_density, write_density_csv
from vawar.cli import build_parser, main
from vawar.correlations import ADJPRICE_ADJPRICE, pair_windows, paired_expectation
from vawar.errors import (MalformedRow, NonFinite, NonPositiveField, NonUniformSpacing,
                          OrderExceedsWindow, VawarError)
from vawar.moments import (BLOCK_ELEMENTS, MomentReport, adjusted_moments, moment_report,
                           moment_reports, return_moment)
from vawar.reportio import SCHEMA_VERSION, dumps_json
from vawar.synth import GenConfig, HeavyTailVolume, WalkPrice, WhaleVolume, generate
from vawar.tape import (LagSpec, TradeTape, WindowSpec, infer_epsilon, ingest, resolve,
                        write_csv)

from conftest import FIXTURE_CSV
from helpers import OLD_SCHEMAS, SMALL_PRICES, old_dumps_json, old_write_csv_rows


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _report_texts(out):
    """The serialized text of each report in a stats JSON document."""
    lines = out.splitlines()
    opens = [k for k, line in enumerate(lines) if line == "    {"]
    closes = [k for k, line in enumerate(lines) if line in ("    }", "    },")]
    return ["\n".join(lines[a + 1:b]) for a, b in zip(opens, closes)]


class TestValidate:
    def test_good_tape(self, capsys, fixture_csv):
        status, out, _ = run(capsys, "validate", str(fixture_csv))
        assert status == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.VALIDATE_SCHEMA)
        assert doc["valid"] is True
        assert doc["ticks"] == 4

    def test_zero_volume_names_row(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,price,volume\n0,2,10\n1,2,0\n", encoding="utf-8")
        status, out, _ = run(capsys, "validate", str(path))
        assert status == 1
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.VALIDATE_SCHEMA)
        assert doc["valid"] is False
        assert doc["error"]["kind"] == "NonPositiveField"
        assert "row 3" in doc["error"]["message"]

    def test_value_column_autodetected(self, capsys, tmp_path):
        path = tmp_path / "val.csv"
        path.write_text(
            "time,price,volume,value\n0,2,10,20\n1,2,5,10.1\n", encoding="utf-8"
        )
        status, out, _ = run(capsys, "validate", str(path))
        assert status == 1
        assert json.loads(out)["error"]["kind"] == "ValueMismatch"


class TestStats:
    def test_fixture_end_to_end(self, capsys, fixture_csv):
        status, out, _ = run(
            capsys, "stats", str(fixture_csv),
            "--window", "3", "--start", "1", "--lag", "1", "--order", "2",
        )
        assert status == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.STATS_SCHEMA)
        rep = doc["reports"][0]
        assert rep["r_n"][0] == pytest.approx(1.2, rel=1e-12)
        assert rep["r_n"][1] == pytest.approx(2.0, rel=1e-12)
        assert rep["sigma_r2"] == pytest.approx(0.56, rel=1e-11)
        assert rep["p_n"][0] == pytest.approx(3.0, rel=1e-12)
        assert rep["sigma_pa2"] == pytest.approx(-0.25, rel=1e-12)

    def test_csv_format_and_sweep(self, capsys, tmp_path):
        path = tmp_path / "tape.csv"
        rng = np.random.default_rng(0)
        prices = np.exp(rng.normal(0, 0.02, 20)).cumprod() * 50
        lines = ["time,price,volume"]
        lines += [f"{i},{p:.17g},{10 + i}" for i, p in enumerate(prices)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        status, out, _ = run(
            capsys, "stats", str(path), "--window", "6", "--start", "2",
            "--lag", "2", "--stride", "4", "--format", "csv",
        )
        assert status == 0
        rows = out.strip().splitlines()
        assert rows[0].startswith("window_start,window_count,lag,order_max,C_1")
        assert len(rows) == 1 + 4  # starts 2, 6, 10, 14

    def test_insufficient_history_is_data_error(self, capsys, fixture_csv):
        status, _, err = run(
            capsys, "stats", str(fixture_csv),
            "--window", "3", "--start", "0", "--lag", "1",
        )
        assert status == 1
        assert "history" in err

    def test_usage_error_exit_2(self, fixture_csv):
        with pytest.raises(SystemExit) as exc:
            main(["stats", str(fixture_csv), "--window", "three",
                  "--start", "1", "--lag", "1"])
        assert exc.value.code == 2

    def test_missing_file(self, capsys):
        status, _, err = run(
            capsys, "stats", "/nonexistent/tape.csv",
            "--window", "3", "--start", "1", "--lag", "1",
        )
        assert status == 1
        assert err


class TestDeterminism:
    @pytest.mark.filterwarnings("ignore::vawar.errors.OrderExceedsWindow")
    def test_stats_byte_identical(self, capsys, fixture_csv):
        argv = ("stats", str(fixture_csv), "--window", "3", "--start", "1",
                "--lag", "1", "--order", "4")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1.splitlines(True) == out2.splitlines(True)

    @pytest.mark.parametrize("stride", [1, 13])
    def test_sweep_reports_match_single_window_runs(self, capsys, tmp_path,
                                                    stride):
        # each report of a swept run has the bytes of a run on its window alone
        path = tmp_path / "tape.csv"
        tape = generate(GenConfig(
            ticks=60, seed=11, price=WalkPrice(start=80.0, log_vol=0.05),
            volume=HeavyTailVolume(base=20.0, shape=1.8),
        ))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_csv(tape, fh)
        common = ("--window", "12", "--lag", "2", "--order", "5")
        _, out, _ = run(capsys, "stats", str(path), "--start", "2",
                        "--stride", str(stride), *common)
        starts = range(2, 60 - 12 + 1, stride)
        sweep = _report_texts(out)
        assert len(sweep) == len(starts) > 1
        for start, text in zip(starts, sweep):
            _, single, _ = run(capsys, "stats", str(path), "--start", str(start),
                               *common)
            assert _report_texts(single) == [text]

    def test_simulate_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({
            "ticks": 16, "seed": 9, "epsilon": 1.0,
            "price": {"model": "walk", "start": 100.0, "log_vol": 0.03},
            "volume": {"model": "heavy_tail", "base": 10.0, "shape": 2.0},
        }), encoding="utf-8")
        _, out1, _ = run(capsys, "simulate", "--config", str(cfg))
        _, out2, _ = run(capsys, "simulate", "--config", str(cfg))
        assert out1.splitlines(True) == out2.splitlines(True)


# (subcommand, option, value) pairs that argparse must reject
BAD_INTEGERS = [
    ("stats", "--stride", "-1"),  # looped forever before parse-time checks
    ("stats", "--stride", "x"),
    ("stats", "--order", "0"),
    ("stats", "--lag", "0"),
    ("acorr", "--max-shift", "-3"),
    ("acorr", "--lag2", "0"),
    ("xcorr", "--max-shift", "-1"),
    ("xcorr", "--lag2", "0"),
    ("xcorr", "--degree-n", "0"),
    ("xcorr", "--degree-m", "0"),
    ("density", "--order", "0"),
    ("contrast", "--lag", "-2"),
]


class TestIntegerArguments:
    @pytest.mark.parametrize("subcommand,option,value", BAD_INTEGERS)
    def test_rejected_at_parse_time(self, capsys, subcommand, option, value):
        # the parser alone, so a value that would hang a run cannot hang here
        argv = [subcommand, "tape.csv", "--window", "3", "--start", "1",
                "--lag", "1", option, value]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {option}" in err

    @pytest.mark.parametrize("value", ["9", "0", "-3"])
    def test_order_cap_is_not_an_option(self, capsys, value):
        # warning filters on OrderTooLarge silence or move the cap
        argv = ["stats", "tape.csv", "--window", "3", "--start", "1", "--lag", "1",
                "--order-cap", value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert (f"unrecognized arguments: --order-cap {value}"
                in capsys.readouterr().err)

    def test_bounds_are_accepted(self):
        args = build_parser().parse_args(
            ["stats", "tape.csv", "--window", "3", "--start", "1", "--lag", "1",
             "--stride", "0", "--order", "1"])
        assert (args.lag, args.stride, args.order) == (1, 0, 1)
        args = build_parser().parse_args(
            ["xcorr", "tape.csv", "--window", "3", "--start", "1", "--lag", "1",
             "--lag2", "1", "--max-shift", "0", "--degree-n", "1",
             "--degree-m", "1"])
        assert (args.lag2, args.max_shift, args.degree_n, args.degree_m) == (
            1, 0, 1, 1)

    def test_main_exits_2_without_traceback(self, capsys, fixture_csv):
        with pytest.raises(SystemExit) as exc:
            main(["stats", str(fixture_csv), "--window", "3", "--start", "1",
                  "--lag", "1", "--order", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "must be >= 1, got 0" in err
        assert "Traceback" not in err


class TestSweeps:
    def test_acorr_json_schema(self, capsys, fixture_csv):
        status, out, _ = run(
            capsys, "acorr", str(fixture_csv), "--window", "2", "--start", "2",
            "--lag", "1", "--max-shift", "1",
        )
        assert status == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.SWEEP_SCHEMA)
        assert [row["j"] for row in doc["rows"]] == [0, 1]
        assert doc["rows"][0]["statistic"] == "corr_r"

    def test_acorr_self_pair_equals_sigma_r2(self, capsys, fixture_csv):
        _, out, _ = run(
            capsys, "acorr", str(fixture_csv), "--window", "3", "--start", "1",
            "--lag", "1",
        )
        row = json.loads(out)["rows"][0]
        assert row["definitional"] == pytest.approx(0.56, rel=1e-11)
        assert row["value_form"] == pytest.approx(0.56, rel=1e-11)
        assert row["price_form"] == pytest.approx(0.56, rel=1e-11)

    def test_acorr_infeasible_shift(self, capsys, fixture_csv):
        status, _, err = run(
            capsys, "acorr", str(fixture_csv), "--window", "2", "--start", "1",
            "--lag", "1", "--max-shift", "3",
        )
        assert status == 1
        assert "history" in err or "window" in err

    def test_xcorr_rows(self, capsys, fixture_csv):
        status, out, _ = run(
            capsys, "xcorr", str(fixture_csv), "--window", "3", "--start", "1",
            "--lag", "1", "--degree-n", "1", "--degree-m", "1",
        )
        assert status == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.SWEEP_SCHEMA)
        by_stat = {row["statistic"]: row for row in doc["rows"]}
        assert by_stat["corr_rU"]["definitional"] == pytest.approx(2.0, rel=1e-11)
        assert by_stat["corr_rp"]["definitional"] == pytest.approx(
            54 / 35, rel=1e-11
        )
        assert by_stat["corr_rp"]["price_form"] is None

    def test_xcorr_csv_empty_cell_for_missing(self, capsys, fixture_csv):
        _, out, _ = run(
            capsys, "xcorr", str(fixture_csv), "--window", "3", "--start", "1",
            "--lag", "1", "--format", "csv",
        )
        rp_row = [ln for ln in out.splitlines() if ",corr_rp," in ln][0]
        cells = rp_row.split(",")
        assert cells[-2] == ""  # price_form column


class TestDensity:
    def test_fixture_peak_row(self, capsys, fixture_csv, tmp_path):
        out_path = tmp_path / "density.csv"
        status, _, _ = run(
            capsys, "density", str(fixture_csv), "--window", "3", "--start", "1",
            "--lag", "1", "--order", "2", "--out", str(out_path),
        )
        assert status == 0
        data = np.genfromtxt(out_path, delimiter=",", names=True)
        peak = np.argmax(data["density"])
        assert data["r"][peak] == pytest.approx(1.2, abs=1e-9)
        assert data["density"][peak] == pytest.approx(0.5331090465, rel=1e-6)
        sidecar = json.loads((tmp_path / "density.csv.json").read_text())
        jsonschema.validate(sidecar, schemas.DENSITY_SIDECAR_SCHEMA)
        assert sidecar["order"] == 2
        assert abs(sidecar["normalization_residual"]) < 1e-6

    def test_not_integrable_reported(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        rows = ["time,price,volume"] + [f"{i},3,{5 + (i % 3)}" for i in range(8)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        status, _, err = run(
            capsys, "density", str(path), "--window", "4", "--start", "2",
            "--lag", "2", "--order", "2",
        )
        assert status == 1  # constant price: sigma_r2 = 0, not integrable
        assert "integrable" in err or "b > 0" in err

    def test_order_above_window_warns_once(self, capsys, tmp_path):
        # orders 5 and 6 exceed the 4-tick window: one warning for the
        # command, and the bytes of one return_moment call per order
        cfg = GenConfig(ticks=40, seed=11, price=WalkPrice(start=100.0, log_vol=0.02),
                        volume=HeavyTailVolume(base=50.0, shape=2.5))
        path = _tape_file(tmp_path, "walk", generate(cfg))
        out = tmp_path / "density.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status, _, _ = run(capsys, "density", str(path), "--window", "4", "--start", "5",
                               "--lag", "1", "--order", "6", "--out", str(out))
        assert status == 0
        [warning] = [w for w in caught if issubclass(w.category, OrderExceedsWindow)]
        assert str(warning.message).startswith("moment order 6 exceeds window size 4")
        window = resolve(ingest(path.read_text(encoding="utf-8")), WindowSpec(5, 4), LagSpec(1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OrderExceedsWindow)
            dens = invert_density(fit_charfn([return_moment(window, 1, n) for n in range(1, 7)]))
        want = io.StringIO()
        write_density_csv(dens, want)
        assert out.read_text(encoding="utf-8").splitlines(True) == want.getvalue().splitlines(True)
        sidecar = {"schema_version": SCHEMA_VERSION, "subcommand": "density",
                   **dens.sidecar_dict()}
        assert ((tmp_path / "density.csv.json").read_text(encoding="utf-8").splitlines(True)
                == dumps_json(sidecar).splitlines(True))


# (arguments, exit status, text of the error line)
BAD_DENSITY_ARGUMENTS = [
    (["--grid-points", "8"], 2, "argument --grid-points: must be >= 9, got 8"),
    (["--grid-min", "1.5", "--grid-max", "1.0"], 1, "grid needs finite r_min < r_max"),
    (["--grid-min", "1.2", "--grid-max", "1.2"], 1, "grid needs finite r_min < r_max"),
    (["--damping-b", "-0.5"], 1, "damping b must be finite and >= 0, got -0.5"),
    (["--damping-q", "1"], 1, "damping needs 2q > m, got q=1, m=2"),
]


class TestDensityArguments:
    @pytest.mark.parametrize("extra,status,message", BAD_DENSITY_ARGUMENTS)
    def test_one_line_error(self, capsys, fixture_csv, tmp_path, extra, status, message):
        out = tmp_path / "density.csv"
        argv = ["density", str(fixture_csv), "--window", "3", "--start", "1", "--lag", "1",
                "--order", "2", "--out", str(out), *extra]
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            got = exc.code
        assert got == status
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"vawar density: error: {message}")
        if status == 1:
            assert len(err.splitlines()) == 1
        assert not out.exists()
        assert not (tmp_path / "density.csv.json").exists()

    @pytest.mark.parametrize("half", [["--grid-min", "0.9"], ["--grid-max", "1.1"]])
    def test_half_grid_is_a_usage_error(self, capsys, tmp_path, half):
        # rejected before the input is read: the tape does not exist
        out = tmp_path / "density.csv"
        with pytest.raises(SystemExit) as exc:
            main(["density", str(tmp_path / "missing.csv"), "--window", "3", "--start", "1",
                  "--lag", "1", "--out", str(out), *half])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "Traceback" not in err
        assert err.splitlines()[-1] == ("vawar: error: --grid-min and --grid-max must be "
                                        "given together")
        assert list(tmp_path.iterdir()) == []


def _tape_file(tmp_path, name, tape):
    path = tmp_path / f"{name}.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(tape, fh)
    return path


# Tapes whose reports hold extreme numbers: a whale trade, and prices
# spanning many decades.
HOSTILE = {
    "whale": GenConfig(ticks=120, seed=5, price=WalkPrice(start=40.0, log_vol=0.05),
                       volume=WhaleVolume(base=2.0, whale_volume=1e9, position=60)),
    "decades": GenConfig(ticks=120, seed=6, price=WalkPrice(start=1.0, log_vol=0.6),
                         volume=HeavyTailVolume(base=10.0, shape=1.2)),
}


class TestOutputBytes:
    """Reports as the recursive writer wrote them from the per-row dicts
    (``to_dict`` and the sweep row dicts), byte for byte, including rows
    whose shape differs from their neighbours'.  Compared as lists of
    lines, which pytest explains at once where a long string takes a
    quadratic diff."""

    @staticmethod
    def stats_reference(path, order, stride):
        tape = ingest(path.read_text(encoding="utf-8"))
        reports = moment_reports(tape, WindowSpec(3, 12), 1, order, stride)
        doc = {"schema_version": 1, "subcommand": "stats",
               "reports": [r.to_dict() for r in reports]}
        table = io.StringIO()
        old_write_csv_rows(table, MomentReport.csv_header(order), [r.csv_row() for r in reports])
        return old_dumps_json(doc), table.getvalue()

    @pytest.mark.filterwarnings("ignore::vawar.errors.OrderExceedsWindow")
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    @pytest.mark.parametrize("order", [1, 8])
    def test_stats(self, capsys, tmp_path, name, order):
        path = _tape_file(tmp_path, name, generate(HOSTILE[name]))
        want_json, want_csv = self.stats_reference(path, order, 1)
        argv = ["stats", str(path), "--window", "12", "--start", "3", "--lag", "1",
                "--order", str(order), "--stride", "1"]
        assert run(capsys, *argv)[1].splitlines(True) == want_json.splitlines(True)
        assert (run(capsys, *argv, "--format", "csv")[1].splitlines(True)
                == want_csv.splitlines(True))

    def test_stats_non_finite_report(self, capsys, tmp_path):
        # tick 40 alone carries a value of 3e154: the order-2 value moment of
        # the one window holding it overflows to inf, which is null in that
        # report and an empty cell in that row only
        rng = np.random.default_rng(3)
        prices = 10.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 90)))
        volumes = rng.uniform(1.0, 5.0, 90)
        prices[40] = 3e154 / volumes[40]
        path = _tape_file(tmp_path, "big", TradeTape.from_arrays(prices, volumes))
        argv = ["stats", str(path), "--window", "3", "--start", "1", "--lag", "1",
                "--order", "2", "--stride", "3"]
        out, table = run(capsys, *argv)[1], run(capsys, *argv, "--format", "csv")[1]
        tape = ingest(path.read_text(encoding="utf-8"))
        reports = moment_reports(tape, WindowSpec(1, 3), 1, 2, 3)
        doc = {"schema_version": 1, "subcommand": "stats",
               "reports": [r.to_dict() for r in reports]}
        assert out.splitlines(True) == old_dumps_json(doc).splitlines(True)
        k = 13  # the window of ticks 40..42
        assert [("null" in text) for text in out.split("\n    },\n")] == [
            j == k for j in range(len(reports))]
        want = io.StringIO()
        old_write_csv_rows(want, MomentReport.csv_header(2), [r.csv_row() for r in reports])
        assert table.splitlines(True) == want.getvalue().splitlines(True)
        rows = table.splitlines()[1:]
        assert [",," in row or row.endswith(",") for row in rows] == [
            j == k for j in range(len(reports))]

    @pytest.mark.parametrize("subcommand,extra", [
        ("acorr", []), ("acorr", ["--lag2", "3"]),
        ("xcorr", []), ("xcorr", ["--degree-n", "2", "--degree-m", "3"]),
    ])
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_sweeps(self, capsys, tmp_path, subcommand, extra, name):
        # the recursive writer wrote the CSV from the same row dicts as the JSON
        path = _tape_file(tmp_path, name, generate(HOSTILE[name]))
        argv = [subcommand, str(path), "--window", "20", "--start", "60", "--lag", "1",
                "--max-shift", "50", *extra]
        out = run(capsys, *argv)[1]
        table = run(capsys, *argv, "--format", "csv")[1]
        doc = json.loads(out, parse_int=float)  # "-0" stays a float
        assert out.splitlines(True) == old_dumps_json(doc).splitlines(True)
        columns = table.splitlines()[0].split(",")
        want = io.StringIO()
        old_write_csv_rows(want, columns, [[row[c] for c in columns] for row in doc["rows"]])
        assert table.splitlines(True) == want.getvalue().splitlines(True)
        if subcommand == "xcorr":  # corr_rp rows have no price form
            shapes = [(row["statistic"], row["price_form"] is None) for row in doc["rows"]]
            assert shapes == [("corr_rU", False), ("corr_rp", True)] * 51


# sweeps of 2000-tick tapes over more than one kernel block
STATS_SWEEP = ["stats", "--window", "20", "--start", "1", "--lag", "1", "--order", "4",
               "--stride", "1"]
ACORR_SWEEP = ["acorr", "--window", "20", "--start", "1700", "--lag", "1", "--lag2", "2",
               "--max-shift", "1600"]


class TestStreamedOutput:
    """CSV reports stream to --out as they are formatted: every check runs
    before the file is opened, standard output takes the same bytes as a
    file, and a sweep holds a few blocks of windows, not its table or its
    text."""

    WALK = GenConfig(ticks=2000, seed=20, price=WalkPrice(start=100.0, log_vol=0.02),
                     volume=HeavyTailVolume(base=50.0, shape=2.5))

    @pytest.mark.parametrize("subcommand,extra", [
        ("stats", ["--start", "0"]),
        ("stats", ["--start", "0", "--stride", "1"]),
        ("acorr", ["--start", "0"]),
        ("acorr", ["--start", "2", "--max-shift", "5"]),  # shift 2 runs out of history
    ])
    def test_failed_check_creates_no_file(self, capsys, fixture_csv, tmp_path, subcommand,
                                          extra):
        out = tmp_path / "report.csv"
        status, stdout, err = run(capsys, subcommand, str(fixture_csv), "--window", "2",
                                  "--lag", "1", *extra, "--format", "csv", "--out", str(out))
        assert (status, stdout) == (1, "")
        assert err == f"vawar {subcommand}: error: window starting at 0 needs 1 ticks of history\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        [*STATS_SWEEP, "--format", "csv"],
        [*ACORR_SWEEP, "--format", "csv"],
        [*STATS_SWEEP, "--format", "json"],
        [*ACORR_SWEEP, "--format", "json"],
    ])
    def test_standard_output_takes_the_file_bytes(self, capsys, tmp_path, argv):
        # more than one kernel block, and many writer runs
        path = _tape_file(tmp_path, "walk", generate(self.WALK))
        argv = [argv[0], str(path), *argv[1:]]
        out = tmp_path / "report.txt"
        assert run(capsys, *argv, "--out", str(out)) == (0, "", "")
        want = out.read_bytes()
        assert want.count(b"\n") > BLOCK_ELEMENTS // 20
        for to_stdout in ([], ["--out", "-"]):
            status, text, _ = run(capsys, *argv, *to_stdout)
            assert status == 0
            assert text.encode("utf-8").splitlines(True) == want.splitlines(True)

    def test_csv_sweep_holds_the_tape_and_a_few_blocks(self, tmp_path):
        # 20k windows of 20 ticks: their table is 3.4 MiB and its text 7 MiB,
        # a block of windows BLOCK_ELEMENTS ticks per field
        tape = generate(GenConfig(ticks=20_020, seed=4,
                                  price=WalkPrice(start=100.0, log_vol=0.02),
                                  volume=HeavyTailVolume(base=50.0, shape=2.5)))
        path = _tape_file(tmp_path, "long", tape)
        tape_bytes = sum(x.nbytes for x in (tape.times, tape.prices, tape.volumes, tape.values))
        del tape
        out = tmp_path / "stats.csv"
        tracemalloc.start()
        try:
            status = main(["stats", str(path), "--window", "20", "--start", "1", "--lag", "1",
                           "--stride", "1", "--format", "csv", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert status == 0
        with open(out, encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 1 + 20_000
        assert peak < tape_bytes + 32 * (BLOCK_ELEMENTS * 8)


def _walk_with_big_tick(tmp_path, name, price=None, value=None):
    # test_stats_non_finite_report's 90-tick walk with tick 40's price set to
    # price, or set so that its value is value; neither: the walk as drawn
    rng = np.random.default_rng(3)
    prices = 10.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 90)))
    volumes = rng.uniform(1.0, 5.0, 90)
    if value is not None:
        price = value / volumes[40]
    if price is not None:
        prices[40] = price
    return _tape_file(tmp_path, name, TradeTape.from_arrays(prices, volumes))


def _widened(schema):
    # schema with every unconstrained {"type": "number"} widened to number-or-null
    if schema == {"type": "number"}:
        return {"type": ["number", "null"]}
    if isinstance(schema, dict):
        return {k: _widened(v) for k, v in schema.items()}
    if isinstance(schema, list):
        return [_widened(v) for v in schema]
    return schema


class TestSchemas:
    """The published schemas, built from the report layouts, against the
    hand-written literals they replace and the documents the CLI writes."""

    def test_seven_schemas_are_published(self):
        assert sorted(k for k in vars(schemas) if k.endswith("_SCHEMA")) == sorted(OLD_SCHEMAS)

    @pytest.mark.parametrize("name", sorted(OLD_SCHEMAS))
    def test_is_a_draft_2020_12_schema(self, name):
        jsonschema.Draft202012Validator.check_schema(getattr(schemas, name))

    @pytest.mark.parametrize("name", sorted(OLD_SCHEMAS))
    def test_equals_the_old_literal_widened(self, name):
        old = OLD_SCHEMAS[name]
        assert getattr(schemas, name) == _widened(old) != old

    @pytest.mark.filterwarnings("ignore::vawar.errors.OrderExceedsWindow")
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    @pytest.mark.parametrize("order", [1, 8])
    def test_stats_documents(self, capsys, tmp_path, name, order):
        # TestOutputBytes.test_stats's documents
        path = _tape_file(tmp_path, name, generate(HOSTILE[name]))
        status, out, _ = run(capsys, "stats", str(path), "--window", "12", "--start", "3",
                             "--lag", "1", "--order", str(order), "--stride", "1")
        assert status == 0
        jsonschema.validate(json.loads(out), schemas.STATS_SCHEMA)

    @pytest.mark.parametrize("subcommand,extra", [
        ("acorr", []), ("acorr", ["--lag2", "3"]),
        ("xcorr", []), ("xcorr", ["--degree-n", "2", "--degree-m", "3"]),
    ])
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_sweep_documents(self, capsys, tmp_path, subcommand, extra, name):
        # TestOutputBytes.test_sweeps's documents
        path = _tape_file(tmp_path, name, generate(HOSTILE[name]))
        status, out, _ = run(capsys, subcommand, str(path), "--window", "20", "--start", "60",
                             "--lag", "1", "--max-shift", "50", *extra)
        assert status == 0
        jsonschema.validate(json.loads(out), schemas.SWEEP_SCHEMA)

    def test_non_finite_report(self, capsys, tmp_path):
        # test_stats_non_finite_report's document: report 13 holds nulls
        path = _walk_with_big_tick(tmp_path, "big", value=3e154)
        status, out, _ = run(capsys, "stats", str(path), "--window", "3", "--start", "1",
                             "--lag", "1", "--order", "2", "--stride", "3")
        assert status == 0
        doc = json.loads(out)
        assert None in doc["reports"][13].values()
        jsonschema.validate(doc, schemas.STATS_SCHEMA)

    def test_validate_infinite_epsilon(self, capsys, fixture_csv):
        status, out, _ = run(capsys, "validate", str(fixture_csv), "--epsilon", "inf")
        assert status == 1
        doc = json.loads(out)
        assert doc["epsilon"] is None and doc["valid"] is False
        jsonschema.validate(doc, schemas.VALIDATE_SCHEMA)


class TestScaleOverflow:
    """A tick priced 3e154 overflows the scale restore s**n of every window
    that holds it: those moments are inf (null in JSON, an empty CSV cell),
    and every other row keeps the bytes it has without that price."""

    def test_stats(self, capsys, tmp_path):
        big = _walk_with_big_tick(tmp_path, "big", price=3e154)
        walk = _walk_with_big_tick(tmp_path, "walk")
        argv = ["--window", "3", "--start", "1", "--lag", "1", "--order", "2", "--stride", "3"]
        status, out, err = run(capsys, "stats", str(big), *argv)
        assert status == 0 and "Traceback" not in err
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.STATS_SCHEMA)
        k = 13  # the window of ticks 40..42, the only one that holds tick 40
        assert [None in r.values() or None in r["C_n"] for r in doc["reports"]] == [
            j == k for j in range(len(doc["reports"]))]
        reports = _report_texts(out)
        clean = _report_texts(run(capsys, "stats", str(walk), *argv)[1])
        assert [a == b for a, b in zip(reports, clean)] == [j != k for j in range(len(clean))]
        rows = run(capsys, "stats", str(big), *argv, "--format", "csv")[1].splitlines()
        clean = run(capsys, "stats", str(walk), *argv, "--format", "csv")[1].splitlines()
        assert [a == b for a, b in zip(rows, clean)] == [j != k + 1 for j in range(len(clean))]

    def test_stats_sweep_across_chunks(self, capsys, tmp_path):
        # 391 windows of 10 ticks at stride 1; ticks 111 and 261 priced 1e160
        # overflow the order-2 moments of the windows that hold them (as a
        # tick or as a lagged price): report rows 101..111, inside the
        # writer's first 256-row chunk, and 251..261, across its edge.  Each
        # row is written as the reference writer writes its window's report
        # computed alone, and no numpy warning is raised.
        rng = np.random.default_rng(11)
        prices = 10.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, 401)))
        prices[[111, 261]] = 1e160
        tape = TradeTape.from_arrays(prices, rng.uniform(1.0, 5.0, 401))
        path = _tape_file(tmp_path, "big", tape)
        reports = [moment_report(resolve(tape, WindowSpec(s, 10), LagSpec(1)), 1, 2)
                   for s in range(1, 392)]
        want_json = old_dumps_json({"schema_version": 1, "subcommand": "stats",
                                    "reports": [r.to_dict() for r in reports]})
        want_csv = io.StringIO()
        old_write_csv_rows(want_csv, MomentReport.csv_header(2), [r.csv_row() for r in reports])
        argv = ["stats", str(path), "--window", "10", "--start", "1", "--lag", "1",
                "--stride", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run(capsys, *argv)[1]
            table = run(capsys, *argv, "--format", "csv")[1]
        # compared as lines: pytest explains a long string mismatch slowly
        assert out.splitlines(True) == want_json.splitlines(True)
        assert table.splitlines(True) == want_csv.getvalue().splitlines(True)
        nulls = [j for j, row in enumerate(table.splitlines()[1:])
                 if ",," in row or row.endswith(",")]
        assert nulls == [*range(101, 112), *range(251, 262)]

    def test_xcorr(self, capsys, tmp_path):
        # window 1's lagged price is tick 40, so every row holds it; every
        # corr_rp reads an overflowed adjusted moment of window 1
        big = _walk_with_big_tick(tmp_path, "big", price=3e154)
        status, out, err = run(capsys, "xcorr", str(big), "--window", "3", "--start", "41",
                               "--lag", "1", "--max-shift", "2", "--degree-n", "3",
                               "--degree-m", "4")
        assert status == 0 and "Traceback" not in err
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.SWEEP_SCHEMA)
        assert [r["value_form"] is None for r in doc["rows"]] == [False, True] * 3
        assert [r["definitional"] is None for r in doc["rows"]] == [False, True] * 3

    def test_xcorr_warns_nothing_of_the_overflow(self, capsys, tmp_path):
        # an overflowed moment is inf by contract: numpy must not warn of
        # window 1's (p_l / VWAP)**3 overflowing on stderr
        big = _walk_with_big_tick(tmp_path, "big", price=3e154)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status, _, _ = run(capsys, "xcorr", str(big), "--window", "3", "--start", "41",
                               "--lag", "1", "--max-shift", "2", "--degree-n", "3",
                               "--degree-m", "4")
        assert status == 0
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_acorr_reading_an_overflowed_cross_is_null(self, capsys, tmp_path):
        # E[Ca Ca2] overflows at every shift: no form is a number, where
        # dividing by the inf would leave -E[r] E[r2] as the definitional
        big = _walk_with_big_tick(tmp_path, "big", price=3e154)
        status, out, _ = run(capsys, "acorr", str(big), "--window", "3", "--start", "41",
                             "--lag", "1", "--max-shift", "2")
        assert status == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.SWEEP_SCHEMA)
        assert [(r["value_form"], r["price_form"], r["definitional"]) for r in doc["rows"]] == [
            (None, None, None)] * 3

    def test_xcorr_rows_apart_from_the_tick(self, capsys, tmp_path):
        # of window 2 (ticks 46-j..48-j) corr_rU reads only the volumes, and
        # corr_rp the values too, which hold tick 40's price for j = 6..8
        big = _walk_with_big_tick(tmp_path, "big", price=3e154)
        walk = _walk_with_big_tick(tmp_path, "walk")
        argv = ["--window", "3", "--start", "46", "--lag", "1", "--max-shift", "8",
                "--degree-n", "3", "--degree-m", "4"]
        status, out, _ = run(capsys, "xcorr", str(big), *argv)
        assert status == 0
        jsonschema.validate(json.loads(out), schemas.SWEEP_SCHEMA)
        rows, clean = _report_texts(out), _report_texts(run(capsys, "xcorr", str(walk), *argv)[1])
        same = [stat == "U" or j < 6 for j in range(9) for stat in "Up"]
        assert [a == b for a, b in zip(rows, clean)] == same
        table = run(capsys, "xcorr", str(big), *argv, "--format", "csv")[1].splitlines()
        clean = run(capsys, "xcorr", str(walk), *argv, "--format", "csv")[1].splitlines()
        assert [a == b for a, b in zip(table[1:], clean[1:])] == same


class TestSmallPrices:
    """A denominator that underflows to 0 makes its form null, and the run
    exits 0 with nothing on stderr."""

    @pytest.fixture
    def path(self, tmp_path):
        return _tape_file(tmp_path, "small", generate(GenConfig.from_json(SMALL_PRICES)))

    def test_acorr(self, capsys, path):
        argv = ["--window", "20", "--start", "10", "--lag", "1", "--max-shift", "3"]
        status, out, err = run(capsys, "acorr", str(path), *argv)
        assert (status, err) == (0, "")
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.SWEEP_SCHEMA)
        tape = ingest(path.read_text(encoding="utf-8").splitlines())
        for row in doc["rows"]:
            pair = pair_windows(tape, WindowSpec(10, 20), 1, shift_j=row["j"])
            (_, pa1), (_, pa2) = (adjusted_moments(w, 1, 1) for w in (pair.window1, pair.window2))
            # the price form's denominator
            assert paired_expectation(ADJPRICE_ADJPRICE, pair) * pa1 * pa2 == 0.0, row["j"]
            assert row["price_form"] is None, row["j"]
            assert None not in (row["definitional"], row["value_form"]), row["j"]

    def test_xcorr(self, capsys, path):
        status, out, err = run(capsys, "xcorr", str(path), "--window", "20", "--start", "10",
                               "--lag", "1", "--max-shift", "3")
        assert (status, err) == (0, "")
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.SWEEP_SCHEMA)
        assert all(r["definitional"] is not None for r in doc["rows"])


class TestContrast:
    def test_overflowed_return_is_null(self, capsys, tmp_path):
        # tick 2's return 1e300 / 1e-300 overflows: stats writes r_1 null, and
        # contrast writes the frequency mean, VaWAR and their gap null
        path = tmp_path / "t.csv"
        path.write_text("time,price,volume\n0,1e300,1\n1,1e-300,1\n2,1e300,1\n3,1,1\n",
                        encoding="utf-8")
        argv = [str(path), "--window", "2", "--start", "1", "--lag", "1"]
        status, out, err = run(capsys, "contrast", *argv)
        assert (status, err) == (0, "")
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.CONTRAST_SCHEMA)
        assert (doc["freq_mean_return"], doc["vawar"], doc["gap"]) == (None, None, None)
        status, out, _ = run(capsys, "stats", *argv)
        assert status == 0 and json.loads(out)["reports"][0]["r_n"][0] is None

    def test_json(self, capsys, fixture_csv):
        status, out, _ = run(
            capsys, "contrast", str(fixture_csv), "--window", "3", "--start",
            "1", "--lag", "1",
        )
        assert status == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.CONTRAST_SCHEMA)
        assert doc["vawar"] == pytest.approx(1.2, rel=1e-12)
        assert doc["freq_mean_return"] == pytest.approx(7 / 6, rel=1e-12)
        assert doc["gap"] == pytest.approx(1.2 - 7 / 6, rel=1e-9)

    def test_csv(self, capsys, fixture_csv):
        status, out, _ = run(
            capsys, "contrast", str(fixture_csv), "--window", "3", "--start",
            "1", "--lag", "1", "--format", "csv",
        )
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("window_start,window_count,lag,"
                            "freq_mean_return,vawar,gap")
        assert len(lines) == 2


class TestSimulate:
    def test_output_reingestable(self, capsys, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({
            "ticks": 12, "seed": 4, "epsilon": 0.5,
            "price": {"model": "cycle", "base": 20.0,
                      "log_amplitude": 0.2, "period": 5},
            "volume": {"model": "constant", "level": 7.0},
        }), encoding="utf-8")
        out_path = tmp_path / "sim.csv"
        status, _, _ = run(capsys, "simulate", "--config", str(cfg),
                           "--out", str(out_path))
        assert status == 0
        status, out, _ = run(capsys, "validate", str(out_path))
        assert status == 0
        assert json.loads(out)["ticks"] == 12
        assert json.loads(out)["epsilon"] == 0.5

    def test_bad_config(self, capsys, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text("{\"ticks\": -1}", encoding="utf-8")
        status, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert status == 1
        assert "config" in err

    @pytest.mark.parametrize("model, message", [
        ({"price": {"model": "constant", "level": "x"}},
         "price level must be a real number, got 'x'"),
        ({"price": {"model": "walk", "start": 100.0, "log_vol": None}},
         "walk log_vol must be a real number, got None"),
        ({"volume": {"model": "heavy_tail", "base": 50.0, "shape": [2]}},
         "heavy-tail shape must be a real number, got [2]"),
        ({"volume": {"model": "constant", "level": True}},
         "volume level must be a real number, got True"),
        # epsilon and coupling are not coerced, and an unknown key (a typo of
        # "coupling") is not ignored
        ({"epsilon": "2"}, "epsilon must be a real number, got '2'"),
        ({"coupling": True}, "coupling must be a real number, got True"),
        ({"coupeling": 0.5}, "unknown generator config keys ['coupeling']"),
    ])
    def test_non_numeric_field_is_one_error_line(self, capsys, tmp_path, model, message):
        doc = {"ticks": 20, "seed": 7, "price": {"model": "constant", "level": 2.0},
               "volume": {"model": "constant", "level": 1.0}, **model}
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "sim.csv"
        status, stdout, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert (status, stdout) == (1, "")
        assert err.splitlines() == [f"vawar simulate: error: {message}"]
        assert not out.exists()

    def test_overflow_past_the_first_block_is_one_error_line_and_no_file(self, tmp_path):
        # a value that overflows at tick 150000, far past the first block, is
        # found by the check before --out is opened, and numpy warns nothing
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({
            "ticks": 150_001, "seed": 7, "price": {"model": "constant", "level": 100.0},
            "volume": {"model": "whale", "base": 50.0, "whale_volume": 1e308,
                       "position": 150_000}}), encoding="utf-8")
        out = tmp_path / "sim.csv"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(vawar.__file__).parents[1]),
                                             env.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-m", "vawar.cli", "simulate", "--config", str(cfg),
                               "--out", str(out)], capture_output=True, text=True, env=env,
                              timeout=120)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "vawar simulate: error: tick 150000: value is not finite\n"
        assert not out.exists()

    def test_int_epsilon_round_trips(self, capsys, tmp_path):
        doc = {"ticks": 3, "seed": 1, "epsilon": 2,
               "price": {"model": "constant", "level": 1.0},
               "volume": {"model": "constant", "level": 1.0}}
        config = GenConfig.from_json(doc)
        assert config.epsilon == 2 and type(config.epsilon) is int
        assert GenConfig.from_json(json.dumps(config.to_json_dict())) == config
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        status, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert (status, err) == (0, "")
        assert out == "time,price,volume,value\n0,1,1,1\n2,1,1,1\n4,1,1,1\n"


# A tape whose last volume cell is the byte 0xff, which is not UTF-8.
NOT_UTF8 = b"time,price,volume\n0,1,1\n1,2,\xff\n"


class TestNotUtf8:
    @staticmethod
    def fails_cleanly(capsys, argv, out):
        status, stdout, err = run(capsys, *argv, "--out", str(out))
        assert (status, stdout) == (1, "")
        [line] = err.splitlines()
        assert line.startswith(f"vawar {argv[0]}: error: 'utf-8' codec can't decode byte 0xff")
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, extra", [
        ("validate", []),
        ("stats", ["--window", "2", "--start", "1", "--lag", "1"]),
        ("acorr", ["--window", "2", "--start", "1", "--lag", "1"]),
        ("density", ["--window", "2", "--start", "1", "--lag", "1"]),
        ("contrast", ["--window", "2", "--start", "1", "--lag", "1"]),
    ])
    def test_file(self, capsys, tmp_path, subcommand, extra):
        path = tmp_path / "bad.csv"
        path.write_bytes(NOT_UTF8)
        self.fails_cleanly(capsys, [subcommand, str(path), *extra], tmp_path / "out")

    def test_stdin(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8"))
        self.fails_cleanly(capsys, ["validate", "-"], tmp_path / "out")

    @pytest.mark.parametrize("subcommand, extra", [
        ("validate", []),
        ("stats", ["--window", "2", "--start", "1", "--lag", "1"]),
    ])
    def test_byte_far_into_the_file(self, capsys, tmp_path, subcommand, extra):
        # decoded in the middle of the parse, blocks after the first
        rows = "".join(f"{i},1,1\n" for i in range(1, 12000)).encode("ascii")
        path = tmp_path / "bad.csv"
        path.write_bytes(b"time,price,volume\n0,1,1\n" + rows + b"12000,1,\xff\n")
        assert path.stat().st_size > 65536
        out = tmp_path / "out"
        out.write_text("kept\n", encoding="utf-8")
        status, stdout, err = run(capsys, subcommand, str(path), *extra, "--out", str(out))
        assert (status, stdout) == (1, "")
        [line] = err.splitlines()
        assert line.startswith(f"vawar {subcommand}: error: 'utf-8' codec can't decode byte 0xff")
        assert out.read_text(encoding="utf-8") == "kept\n"

    def test_simulate_config(self, capsys, tmp_path):
        path = tmp_path / "gen.json"
        path.write_bytes(b'{"ticks": 5, "seed": "\xff"}')
        self.fails_cleanly(capsys, ["simulate", "--config", str(path)], tmp_path / "out")


class TestStdin:
    def test_dash_reads_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(FIXTURE_CSV))
        status, out, _ = run(capsys, "validate", "-")
        assert status == 0
        assert json.loads(out)["ticks"] == 4


def _streamed_text(eol="\n", bom=False, final_eol=True, blanks=(), cells=()):
    """CSV text of a 700-tick tape (three ingest blocks), with ``eol`` line
    ends, blank lines inserted before the data rows at the indices
    ``blanks`` and the cells ``(data row, column, text)`` replaced."""
    tape = TradeTape.from_arrays(1.0 + np.arange(700) % 13, 2.0 + np.arange(700) % 5,
                                 epsilon=0.5, start_time=3.0)
    sink = io.StringIO()
    write_csv(tape, sink)
    lines = [line.split(",") for line in sink.getvalue().splitlines()]
    for row, column, text in cells:
        lines[row + 1][column] = text
    lines = [",".join(cells) for cells in lines]
    for at in sorted(blanks, reverse=True):
        lines.insert(at + 1, " ")
    return ("\ufeff" if bom else "") + eol.join(lines) + (eol if final_eol else "")


# CSV row 257 is the last line of the first 256-line block after the header,
# row 258 the first of the second block.
STREAMED = {
    "lf": _streamed_text(),
    "crlf": _streamed_text("\r\n"),
    "cr": _streamed_text("\r"),
    "form_feed": _streamed_text("\x0c"),
    "line_separator": _streamed_text("\u2028"),
    "bom_crlf": _streamed_text("\r\n", bom=True),
    "no_final_eol": _streamed_text(final_eol=False),
    "no_final_crlf": _streamed_text("\r\n", final_eol=False),
    "blanks_at_block_edge": _streamed_text("\r\n", blanks=(0, 254, 255, 256, 257, 500)),
    "parse_fault_later_block": _streamed_text(blanks=(3, 255, 256), cells=((600, 2, "x"),)),
    "columns_fault_later_block": _streamed_text(blanks=(255,), cells=((300, 3, "1,2"),)),
    "tick_fault_later_block": _streamed_text("\r\n", blanks=(1, 256, 300),
                                             cells=((400, 2, "0"),)),
    "spacing_fault_later_block": _streamed_text(blanks=(256,), cells=((650, 0, "1e9"),)),
}


FIELDS = ("times", "prices", "volumes", "values")


def _tape_outcome(read):
    # the tape's arrays as bytes and its spacing, or what the read raised
    try:
        tape = read()
    except VawarError as exc:
        return type(exc), str(exc)
    return tuple(getattr(tape, f).tobytes() for f in FIELDS) + (tape.epsilon,)


def _cli_tape(argv):
    # the tape the CLI reads for the input arguments argv
    from vawar.cli import _load_tape

    return _load_tape(build_parser().parse_args(["validate", *argv]))


class TestStreamedIngest:
    """The CLI reads its tape from the open file as lines, a block at a
    time; that reads as ``ingest`` reads the whole text."""

    @pytest.mark.parametrize("name", sorted(STREAMED))
    def test_file_and_stdin_read_as_text(self, tmp_path, monkeypatch, name):
        text = STREAMED[name]
        expected = _tape_outcome(lambda: ingest(text, "with_value", infer_epsilon(text)))
        assert _tape_outcome(lambda: ingest(text.splitlines(), "with_value",
                                            infer_epsilon(text))) == expected
        path = tmp_path / "tape.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _tape_outcome(lambda: _cli_tape([str(path)])) == expected
        # standard input translates no line ends, as sys.stdin does on POSIX
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode("utf-8")),
                                                          encoding="utf-8", newline="\n"))
        assert _tape_outcome(lambda: _cli_tape(["-"])) == expected

    def test_faults_name_their_rows(self):
        # header, one blank before data row 3, three more before data row 600
        assert _tape_outcome(lambda: ingest(STREAMED["parse_fault_later_block"])) == (
            NonFinite, "row 605: volume 'x' is not a number")
        assert _tape_outcome(lambda: ingest(STREAMED["columns_fault_later_block"])) == (
            MalformedRow, "row 303: expected 4 columns, got 5")
        assert _tape_outcome(lambda: ingest(STREAMED["tick_fault_later_block"], epsilon=0.5)) == (
            NonPositiveField, "row 405: volume must be > 0, got 0.0")
        assert _tape_outcome(lambda: ingest(STREAMED["spacing_fault_later_block"],
                                            epsilon=0.5)) == (
            NonUniformSpacing, "row 653: spacing 999999672.5 != epsilon 0.5")

    @pytest.mark.parametrize("name", ["crlf", "blanks_at_block_edge", "tick_fault_later_block"])
    def test_validate_report_of_file_and_stdin(self, capsys, tmp_path, monkeypatch, name):
        path = tmp_path / "tape.csv"
        path.write_bytes(STREAMED[name].encode("utf-8"))
        lf = tmp_path / "lf.csv"
        lf.write_text(STREAMED[name].replace("\r\n", "\n"), encoding="utf-8", newline="")
        reports = [run(capsys, "validate", str(p)) for p in (path, lf)]
        monkeypatch.setattr("sys.stdin", open(path, encoding="utf-8", newline="\n"))
        reports.append(run(capsys, "validate", "-"))
        sys.stdin.close()
        assert reports[0] == reports[1] == reports[2]

    LINE_PIECES = ["a", "1,2", " ", "\r\n", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                   "\x85", "\u2028", "\u2029", "\r\r\n", "\n\r"]

    @staticmethod
    def _lines_read(text, path, monkeypatch):
        # the lines _tape_lines yields for text from a file and from standard input
        from vawar.cli import _tape_lines

        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode("utf-8")),
                                                          encoding="utf-8", newline="\n"))
        read = []
        for source in (str(path), "-"):
            args = build_parser().parse_args(["validate", source, "--epsilon", "1"])
            with _tape_lines(args) as (lines, _, _):
                read.append(list(lines))
        return read

    def test_lines_break_where_splitlines_breaks(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(18)
        for _ in range(300):
            text = "".join(rng.choice(self.LINE_PIECES, rng.integers(0, 40)))
            for lines in self._lines_read(text, tmp_path / "lines.txt", monkeypatch):
                assert lines == text.splitlines(), repr(text)

    def test_lines_of_many_blocks_break_where_splitlines_breaks(self, tmp_path, monkeypatch):
        # texts of more than two joined blocks of lines after the three read
        # ahead, one with a "\r\n" ending the last line of each block
        from vawar.reportio import _CHUNK

        rng = np.random.default_rng(19)
        texts = ["".join(rng.choice(self.LINE_PIECES, rng.integers(10 * _CHUNK, 16 * _CHUNK)))
                 for _ in range(8)]
        raw = [f"{i},1,1\n" for i in range(3 * _CHUNK)]
        for last in (2 + _CHUNK, 2 + 2 * _CHUNK):
            raw[last] = raw[last].replace("\n", "\r\n")
        texts.append("".join(raw))
        for text in texts:
            assert text.count("\n") > 2 * _CHUNK + 3
            for lines in self._lines_read(text, tmp_path / "lines.txt", monkeypatch):
                assert lines == text.splitlines()

    def test_reads_ahead_only_to_the_second_data_row(self, monkeypatch):
        from vawar.cli import _tape_lines

        read = []

        def stdin():
            for line in ("time,price,volume\n", "\n", "0,1,1\n", " \n", "0.25,1,1\n", "x\n"):
                read.append(line)
                yield line

        monkeypatch.setattr("sys.stdin", stdin())
        args = build_parser().parse_args(["validate", "-"])
        with _tape_lines(args) as (lines, value_format, epsilon):
            assert (len(read), value_format, epsilon) == (5, "derive_value", 0.25)
            assert list(lines) == [line[:-1] for line in read]

    @pytest.mark.parametrize("fault", ["tape", "decode", "crash"])
    def test_file_closed_when_ingest_raises(self, capsys, tmp_path, monkeypatch, fault):
        import vawar.cli
        import vawar.tape

        opened = []

        def spy(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        path = tmp_path / "tape.csv"
        if fault == "decode":
            path.write_bytes(STREAMED["lf"].encode("utf-8") + b"9,\xff,1,1\n")
        else:
            path.write_text(STREAMED["tick_fault_later_block"], encoding="utf-8")
        if fault == "crash":
            def crash(lines, **kwargs):
                next(lines)
                raise RuntimeError("ingest crashed")

            monkeypatch.setattr(vawar.tape, "ingest", crash)
        monkeypatch.setattr(vawar.cli, "open", spy, raising=False)
        for subcommand in ("validate", "stats"):
            argv = [subcommand, str(path)]
            if subcommand == "stats":
                argv += ["--window", "2", "--start", "1", "--lag", "1"]
            if fault == "crash":
                with pytest.raises(RuntimeError, match="ingest crashed"):
                    main(argv)
            else:
                assert main(argv) == 1
            capsys.readouterr()
        assert len(opened) == 2 and all(fh.closed for fh in opened)
