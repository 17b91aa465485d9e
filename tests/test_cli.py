import json

import jsonschema
import numpy as np
import pytest

from vawar import schemas
from vawar.cli import build_parser, main
from vawar.synth import GenConfig, HeavyTailVolume, WalkPrice, generate
from vawar.tape import write_csv

from conftest import FIXTURE_CSV


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
