"""What each entry point imports.

``import vawar.cli`` loads no NumPy and no compute module; each subcommand
loads only the modules it runs; the package's lazy exports are the
submodules' own objects.  Import graphs are taken in a fresh interpreter
that imports the same ``vawar`` as this process.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import vawar
from vawar.charfn import R_POINTS
from vawar.cli import main
from vawar.errors import OrderTooLarge
from vawar.moments import ORDER_CAP

from conftest import FIXTURE_CSV

#: The public names ``from vawar import *`` bound when the package imported
#: every submodule eagerly: each submodule's exports and the submodules.
EAGER_STAR_NAMES = {
    "AdjPriceVolumeSqCorr", "CharFnApprox", "CorrelationReport", "DensityGrid", "Dispersions",
    "EmptySeries", "EmptyTape", "Gaussian2", "GenConfig", "GridSpec", "InsufficientHistory",
    "InvalidConfig", "LagSpec", "MalformedRow", "MismatchedWindows", "MomentReport",
    "NonFinite", "NonPositiveField", "NonPositiveVariance", "NonUniformSpacing",
    "NotIntegrable", "OrderExceedsWindow", "OrderTooLarge", "OrderZero", "PairedWindows",
    "QuadratureDivergence", "ResolvedWindow", "ReturnAutocorr", "ReturnPriceCorr",
    "ReturnVolatility", "ReturnVolumeCorr", "TapeError", "TradeTape", "TradeTick",
    "TwoLagAutocorr", "ValueMismatch", "VawarError", "WeightingContrast", "WindowOutOfRange",
    "WindowSpec", "adjprice_volume_sq_corr", "adjusted_moments", "adjusted_value_series",
    "coeffs_to_moments", "correlation_report", "dispersions", "eval_charfn", "fit_charfn",
    "freq_moment", "gaussian2_density", "generate", "ingest", "invert_density",
    "moment_report", "moment_reports", "moments_to_coeffs", "pair_windows",
    "paired_expectation", "price_moment", "resolve", "return_autocorr", "return_moment",
    "return_price_corr", "return_series", "return_volatility", "return_volume_corr",
    "same_day_two_lag_autocorr", "self_pair", "weighting_contrast", "whale_tape", "write_csv",
    "charfn", "correlations", "errors", "moments", "reportio", "synth", "tape",
}

# Runs the argv of sys.argv[1] through main (if any), then prints the exit
# status and which of numpy and the vawar modules are loaded.
_CHILD = """\
import json, sys
import vawar.cli
argv = json.loads(sys.argv[1])
status = vawar.cli.main(argv) if argv else None
print(json.dumps([status, "numpy" in sys.modules,
                  sorted(m for m in sys.modules if m.split(".")[0] == "vawar")]))
"""

BASE = ["vawar", "vawar.cli", "vawar.errors"]
WINDOW = ["--window", "3", "--start", "1", "--lag", "1"]
CONFIG = {"ticks": 20, "seed": 1, "price": {"model": "walk", "start": 100.0, "log_vol": 0.02},
          "volume": {"model": "heavy_tail", "base": 50.0, "shape": 2.5}}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(vawar.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    return env


def _loaded(argv=()):
    """(exit status, numpy loaded, vawar modules loaded) of a fresh interpreter
    that imports vawar.cli and runs ``argv`` through main."""
    done = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(list(argv))],
                          capture_output=True, text=True, env=_env(), timeout=120, check=True)
    status, numpy, modules = json.loads(done.stdout.splitlines()[-1])
    return status, numpy, set(modules)


def test_cli_import_loads_no_numpy_and_no_compute_module():
    assert _loaded() == (None, False, set(BASE))


@pytest.mark.parametrize("subcommand,extra,modules", [
    ("validate", [], ["tape", "reportio"]),
    ("stats", WINDOW, ["tape", "reportio", "moments"]),
    ("acorr", WINDOW, ["tape", "reportio", "moments", "correlations"]),
    ("xcorr", WINDOW, ["tape", "reportio", "moments", "correlations"]),
    ("density", WINDOW, ["tape", "reportio", "moments", "charfn"]),
    ("contrast", WINDOW, ["tape", "reportio", "moments", "synth"]),
    ("simulate", None, ["tape", "reportio", "moments", "synth"]),
])
def test_each_subcommand_loads_only_its_modules(tmp_path, subcommand, extra, modules):
    if extra is None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CONFIG), encoding="utf-8")
        argv = [subcommand, "--config", str(config)]
    else:
        tape = tmp_path / "fixture.csv"
        tape.write_text(FIXTURE_CSV, encoding="utf-8")
        argv = [subcommand, str(tape), *extra]
    argv += ["--out", str(tmp_path / "out")]
    assert _loaded(argv) == (0, True, {*BASE, *(f"vawar.{m}" for m in modules)})


def test_build_parser_loads_neither_default_module():
    # the default of --grid-points is resolved by the handler
    child = ("import sys; from vawar.cli import build_parser; p = build_parser(); "
             "p.parse_args(['stats', 't.csv', '--window', '3', '--start', '1', '--lag', '1']); "
             "print(sorted(m for m in sys.modules if m in ('numpy', 'vawar.moments', "
             "'vawar.charfn')))")
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=_env(), timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_help_starts_without_runtime_warning():
    done = subprocess.run([sys.executable, "-m", "vawar.cli", "--help"], capture_output=True,
                          text=True, env=_env(), timeout=120)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: vawar")
    assert "RuntimeWarning" not in done.stderr


def test_exports_are_the_submodules_objects():
    for name in vawar.__all__:
        obj = getattr(vawar, name)
        if inspect.ismodule(obj):
            assert obj is importlib.import_module(f"vawar.{name}")
        else:
            assert obj.__module__.startswith("vawar.")
            assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_the_eager_names():
    namespace = {}
    exec("from vawar import *", namespace)
    assert set(namespace) - {"__builtins__"} == EAGER_STAR_NAMES
    assert set(vawar.__all__) == EAGER_STAR_NAMES
    assert EAGER_STAR_NAMES <= set(dir(vawar))


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        vawar.nonesuch  # noqa: B018


class TestLibraryDefaults:
    def test_parser_leaves_them_to_the_handlers(self):
        from vawar.cli import build_parser

        args = build_parser().parse_args(["density", "t.csv", *WINDOW])
        assert args.grid_points is None

    @pytest.mark.parametrize("order,warns", [(ORDER_CAP, False),
                                             (ORDER_CAP + 1, True)])
    def test_order_cap_is_the_moments_default(self, capsys, fixture_csv, order, warns):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["stats", str(fixture_csv), *WINDOW, "--order", str(order)]) == 0
        capsys.readouterr()
        caps = [str(w.message) for w in caught if issubclass(w.category, OrderTooLarge)]
        assert caps == ([f"moment order {order} exceeds cap {ORDER_CAP}; "
                         "result is computed anyway"] if warns else [])

    def test_order_cap_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["stats", "--help"])
        # the cap is the moments' constant, moved by warning filters alone
        assert "cap" not in capsys.readouterr().out

    def test_warning_filters_silence_the_order_cap(self, tmp_path):
        # An installed vawar is importable only once site-packages is on
        # sys.path, after Python has read its warning options, so a filter
        # naming vawar.errors.OrderTooLarge is refused there; one on the
        # message is not.  The child imports vawar that late too.
        tape = tmp_path / "tape.csv"
        tape.write_text("time,price,volume\n" + "".join(
            f"{t},{2 + t % 3},{1 + t % 5}\n" for t in range(12)), encoding="utf-8")
        child = ("import sys; sys.path.insert(0, sys.argv.pop(1)); from vawar.cli import main; "
                 "sys.exit(main(sys.argv[1:]))")
        argv = [sys.executable, "-c", child, str(Path(vawar.__file__).parents[1]), "stats",
                str(tape), "--window", "10", "--start", "1", "--lag", "1", "--order", "9"]
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONWARNINGS")}
        warned = subprocess.run(argv, capture_output=True, env=env, timeout=120)
        env["PYTHONWARNINGS"] = "ignore:moment order 9 exceeds cap"
        quiet = subprocess.run(argv, capture_output=True, env=env, timeout=120)
        assert warned.returncode == quiet.returncode == 0
        assert b"OrderTooLarge" in warned.stderr and quiet.stderr == b""
        assert quiet.stdout == warned.stdout

    def test_grid_points_is_the_charfn_default(self, capsys, fixture_csv, tmp_path):
        out = tmp_path / "density.csv"
        assert main(["density", str(fixture_csv), *WINDOW, "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "density.csv.json").read_text(encoding="utf-8"))
        assert sidecar["points"] == R_POINTS
