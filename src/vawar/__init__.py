"""Market-based statistics of stock returns from raw trade tapes.

Value-weighted return moments (VaWAR and its higher orders),
volume-weighted price moments (VWAP and its generalizations), adjusted
values, dispersions, return auto- and cross-correlations, and
moment-matched characteristic-function/density approximations.
"""

from .charfn import (
    CharFnApprox,
    DensityGrid,
    Gaussian2,
    GridSpec,
    coeffs_to_moments,
    eval_charfn,
    fit_charfn,
    gaussian2_density,
    invert_density,
    moments_to_coeffs,
)
from .correlations import (
    AdjPriceVolumeSqCorr,
    CorrelationReport,
    PairedWindows,
    ReturnAutocorr,
    ReturnPriceCorr,
    ReturnVolumeCorr,
    TwoLagAutocorr,
    adjprice_volume_sq_corr,
    correlation_report,
    pair_windows,
    paired_expectation,
    return_autocorr,
    return_price_corr,
    return_volume_corr,
    same_day_two_lag_autocorr,
    self_pair,
)
from .errors import (
    EmptySeries,
    EmptyTape,
    InsufficientHistory,
    InvalidConfig,
    MalformedRow,
    MismatchedWindows,
    NonFinite,
    NonPositiveField,
    NonPositiveVariance,
    NonUniformSpacing,
    NotIntegrable,
    OrderExceedsWindow,
    OrderTooLarge,
    OrderZero,
    QuadratureDivergence,
    TapeError,
    ValueMismatch,
    VawarError,
    WindowOutOfRange,
)
from .moments import (
    Dispersions,
    MomentReport,
    ReturnVolatility,
    adjusted_moments,
    adjusted_value_series,
    dispersions,
    freq_moment,
    moment_report,
    moment_reports,
    price_moment,
    return_moment,
    return_series,
    return_volatility,
)
from .synth import (
    GenConfig,
    WeightingContrast,
    generate,
    weighting_contrast,
    whale_tape,
)
from .tape import (
    LagSpec,
    ResolvedWindow,
    TradeTape,
    TradeTick,
    WindowSpec,
    ingest,
    resolve,
    write_csv,
)

__version__ = "0.1.0"
