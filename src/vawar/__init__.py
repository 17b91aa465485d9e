"""Market-based statistics of stock returns from raw trade tapes.

Value-weighted return moments (VaWAR and its higher orders),
volume-weighted price moments (VWAP and its generalizations), adjusted
values, dispersions, return auto- and cross-correlations, and
moment-matched characteristic-function/density approximations.

Exports are lazy (PEP 562): ``import vawar`` loads no submodule and no
NumPy.  The first use of a name, as ``from vawar import ingest``,
``vawar.ingest`` or ``vawar.tape``, imports the submodule that defines it
(``_EXPORTS``); every exported name is that submodule's own object.
``from vawar import *`` binds every name of ``__all__``, submodules
included, and so imports them all.
"""

import importlib

#: The public names of each submodule, by submodule.
_EXPORTS = {
    "charfn": (
        "CharFnApprox",
        "DensityGrid",
        "Gaussian2",
        "GridSpec",
        "coeffs_to_moments",
        "eval_charfn",
        "fit_charfn",
        "gaussian2_density",
        "invert_density",
        "moments_to_coeffs",
    ),
    "correlations": (
        "AdjPriceVolumeSqCorr",
        "CorrelationReport",
        "PairedWindows",
        "ReturnAutocorr",
        "ReturnPriceCorr",
        "ReturnVolumeCorr",
        "TwoLagAutocorr",
        "adjprice_volume_sq_corr",
        "correlation_report",
        "pair_windows",
        "paired_expectation",
        "return_autocorr",
        "return_price_corr",
        "return_volume_corr",
        "same_day_two_lag_autocorr",
        "self_pair",
    ),
    "errors": (
        "EmptySeries",
        "EmptyTape",
        "InsufficientHistory",
        "InvalidConfig",
        "MalformedRow",
        "MismatchedWindows",
        "NonFinite",
        "NonPositiveField",
        "NonPositiveVariance",
        "NonUniformSpacing",
        "NotIntegrable",
        "OrderExceedsWindow",
        "OrderTooLarge",
        "OrderZero",
        "QuadratureDivergence",
        "TapeError",
        "ValueMismatch",
        "VawarError",
        "WindowOutOfRange",
    ),
    "moments": (
        "Dispersions",
        "MomentReport",
        "ReturnVolatility",
        "adjusted_moments",
        "adjusted_value_series",
        "dispersions",
        "freq_moment",
        "moment_report",
        "moment_reports",
        "price_moment",
        "return_moment",
        "return_series",
        "return_volatility",
    ),
    "reportio": (),
    "synth": (
        "GenConfig",
        "WeightingContrast",
        "generate",
        "weighting_contrast",
        "whale_tape",
    ),
    "tape": (
        "LagSpec",
        "ResolvedWindow",
        "TradeTape",
        "TradeTick",
        "WindowSpec",
        "ingest",
        "resolve",
        "write_csv",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    # called only for a name not bound here: an export, or a submodule not
    # imported yet
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
