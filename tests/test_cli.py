import io
import json

import jsonschema
import numpy as np
import pytest

from vawar import schemas
from vawar.cli import build_parser, main
from vawar.moments import MomentReport, moment_reports
from vawar.synth import GenConfig, HeavyTailVolume, WalkPrice, WhaleVolume, generate
from vawar.tape import TradeTape, WindowSpec, ingest, write_csv

from conftest import FIXTURE_CSV
from helpers import OLD_SCHEMAS, old_dumps_json, old_write_csv_rows


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
        assert out1 == out2

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
        assert out1 == out2


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
    whose shape differs from their neighbours'."""

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
        assert run(capsys, *argv)[1] == want_json
        assert run(capsys, *argv, "--format", "csv")[1] == want_csv

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
        assert out == old_dumps_json(doc)
        k = 13  # the window of ticks 40..42
        assert [("null" in text) for text in out.split("\n    },\n")] == [
            j == k for j in range(len(reports))]
        want = io.StringIO()
        old_write_csv_rows(want, MomentReport.csv_header(2), [r.csv_row() for r in reports])
        assert table == want.getvalue()
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
        assert out == old_dumps_json(doc)
        columns = table.splitlines()[0].split(",")
        want = io.StringIO()
        old_write_csv_rows(want, columns, [[row[c] for c in columns] for row in doc["rows"]])
        assert table == want.getvalue()
        if subcommand == "xcorr":  # corr_rp rows have no price form
            shapes = [(row["statistic"], row["price_form"] is None) for row in doc["rows"]]
            assert shapes == [("corr_rU", False), ("corr_rp", True)] * 51


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


class TestContrast:
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


class TestStdin:
    def test_dash_reads_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(FIXTURE_CSV))
        status, out, _ = run(capsys, "validate", "-")
        assert status == 0
        assert json.loads(out)["ticks"] == 4
