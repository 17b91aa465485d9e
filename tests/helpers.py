"""Shared test utilities: seeded random cases and tolerance assertions."""

from __future__ import annotations

import json
import math
from array import array

import numpy as np

from vawar import charfn
from vawar.errors import EmptyTape, MalformedRow, NonFinite, NonUniformSpacing, TapeError

from vawar.synth import (
    ConstantVolume,
    CyclePrice,
    GenConfig,
    HeavyTailVolume,
    WalkPrice,
    WhaleVolume,
    generate,
)
from vawar.tape import (
    SPACING_REL_TOL,
    VALUE_REL_TOL,
    LagSpec,
    TradeTape,
    TradeTick,
    WindowSpec,
)


def assert_close(a, b, rel, abs_floor=0.0, msg=""):
    """|a - b| <= max(rel * max(|a|, |b|), abs_floor)."""
    tol = max(rel * max(abs(a), abs(b)), abs_floor)
    assert abs(a - b) <= tol, (
        f"{msg}: {a!r} vs {b!r} (diff {a - b:.3e}, tol {tol:.3e})"
    )


# A walk starting at 1e-160: a product of three price moments underflows to
# 0 (the price form of return_autocorr divides by one), and so do the value
# and price dispersions.
SMALL_PRICES = {"ticks": 60, "seed": 1,
                "price": {"model": "walk", "start": 1e-160, "log_vol": 0.01},
                "volume": {"model": "heavy_tail", "base": 1.0, "shape": 2.5}}


def random_config(seed, ticks):
    """Deterministic, structurally varied generator config for one seed."""
    rng = np.random.default_rng(seed)
    kind = int(rng.integers(0, 4))
    if kind == 3:
        price = CyclePrice(
            base=float(rng.uniform(0.5, 150.0)),
            log_amplitude=float(rng.uniform(0.05, 0.4)),
            period=int(rng.integers(3, 17)),
        )
    else:
        price = WalkPrice(
            start=float(rng.uniform(0.5, 150.0)),
            log_vol=float(rng.uniform(0.01, 0.12)),
        )
    vkind = int(rng.integers(0, 4))
    if vkind == 0:
        volume = ConstantVolume(level=float(rng.uniform(0.5, 500.0)))
    elif vkind == 1:
        volume = WhaleVolume(
            base=float(rng.uniform(0.5, 50.0)),
            whale_volume=float(rng.uniform(1e3, 1e6)),
            position=int(rng.integers(0, ticks)),
        )
    else:
        volume = HeavyTailVolume(
            base=float(rng.uniform(0.5, 50.0)),
            shape=float(rng.uniform(1.5, 4.0)),
        )
    coupling = float(rng.uniform(-0.6, 0.6)) if int(rng.integers(0, 2)) else 0.0
    return GenConfig(ticks=ticks, seed=seed, price=price, volume=volume,
                     coupling=coupling)


def random_case(seed):
    """Seeded (tape, window, lags, lag2, n, m) with N in [2, 64]."""
    rng = np.random.default_rng(10_000_019 + seed)
    count = int(rng.integers(2, 65))
    lag1 = int(rng.integers(1, 5))
    lag2 = int(rng.integers(1, 5))
    shift = int(rng.integers(0, 5))
    start = max(lag1, lag2 + shift) + int(rng.integers(0, 3))
    ticks = start + count + int(rng.integers(0, 4))
    tape = generate(random_config(seed, ticks))
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 5))
    return {
        "tape": tape,
        "window": WindowSpec(start=start, count=count),
        "lags": LagSpec(lag_l=lag1, window_shift_j=shift),
        "lag2": lag2,
        "n": n,
        "m": m,
    }


# ---------------------------------------------------------------------------
# Roundoff anchors for correlation-route comparisons.
#
# Every correlation is a difference of product expectations, and the closed
# forms route it through intermediates (corr_C, corr_CaU, ...) that can be
# orders of magnitude larger than the result (heavy-tailed volumes raised
# to degree 4 routinely amplify 1e6-1e8x).  Two float evaluations of
# algebraically identical formulas then agree only to roundoff of those
# intermediates.  The anchors below sum the positive magnitudes each route
# manipulates; tests use abs_floor = 1e-12 * anchor, which stays two orders
# below the stated 1e-10 relative tolerance whenever no amplification is
# present and degrades gracefully (and honestly) when it is.
# ---------------------------------------------------------------------------


def corr_r_anchor(pair):
    from vawar.correlations import paired_expectation
    from vawar.moments import adjusted_moments, freq_moment, price_moment

    w1, w2 = pair.window1, pair.window2
    cross_c = paired_expectation("value_value", pair)
    cross_ca = paired_expectation("adjvalue_adjvalue", pair)
    cross_p = paired_expectation("price_price", pair)
    cross_pa = paired_expectation("adjprice_adjprice", pair)
    c1, c2 = freq_moment(w1.values, 1), freq_moment(w2.values, 1)
    ca1, pa1 = adjusted_moments(w1, w1.lag_l, 1)
    ca2, pa2 = adjusted_moments(w2, w2.lag_l, 1)
    p1, p2 = price_moment(w1, 1), price_moment(w2, 1)
    r1r2 = (c1 / ca1) * (c2 / ca2)
    value_terms = (cross_c + c1 * c2) / cross_ca + r1r2 * (
        1.0 + ca1 * ca2 / cross_ca
    )
    price_terms = (cross_p + p1 * p2) / cross_pa + r1r2 * (
        1.0 + pa1 * pa2 / cross_pa
    )
    return value_terms + price_terms


def corr_ru_anchor(pair):
    from vawar.correlations import paired_expectation
    from vawar.moments import adjusted_moments, freq_moment

    w1, w2 = pair.window1, pair.window2
    cu = paired_expectation("value_volume", pair)
    c1 = freq_moment(w1.values, 1)
    u2 = freq_moment(w2.volumes, 1)
    ca1, _ = adjusted_moments(w1, w1.lag_l, 1)
    return (cu + c1 * u2) / ca1


def corr_rp_anchor(pair, n, m):
    from vawar.correlations import paired_expectation
    from vawar.moments import adjusted_moments, freq_moment

    w1, w2 = pair.window1, pair.window2
    cnm = paired_expectation("value_value", pair, degrees=(n, m))
    cau = paired_expectation("adjvalue_volume", pair, degrees=(n, m))
    c_n = freq_moment(w1.values, n)
    c2m = freq_moment(w2.values, m)
    u2m = freq_moment(w2.volumes, m)
    ca_n, _ = adjusted_moments(w1, w1.lag_l, n)
    w = (c_n / ca_n) * (c2m / u2m)
    return (cnm + c_n * c2m) / cau + w * (1.0 + ca_n * u2m / cau)


def corr_pau2_anchor(window):
    from vawar.correlations import paired_expectation, self_pair
    from vawar.moments import adjusted_moments, freq_moment

    cau = paired_expectation("adjvalue_volume", self_pair(window))
    _, pa1 = adjusted_moments(window, window.lag_l, 1)
    u2 = freq_moment(window.volumes, 2)
    return cau + pa1 * u2


def two_lag_anchor(window, lag1, lag2):
    from vawar.correlations import paired_expectation, self_pair
    from vawar.moments import adjusted_moments, freq_moment
    from vawar.tape import ResolvedWindow

    w1 = ResolvedWindow(window.tape, window.start, window.count, int(lag1))
    pair = self_pair(w1, lag2=int(lag2))
    cross_ca = paired_expectation("adjvalue_adjvalue", pair)
    c1 = freq_moment(w1.values, 1)
    c2 = freq_moment(w1.values, 2)
    ca1, _ = adjusted_moments(w1, lag1, 1)
    ca2, _ = adjusted_moments(pair.window2, lag2, 1)
    r1r2 = (c1 / ca1) * (c1 / ca2)
    return (c2 + c1 * c1) / cross_ca + r1r2 * (1.0 + ca1 * ca2 / cross_ca) + (
        c2 + c1 * c1
    ) / (ca1 * ca2)


def old_paired_expectation(kind, pair, n=1, m=1):
    """Cross expectation as computed before the per-window series cache:
    each call divides both windows' series by their means afresh."""
    def norm(x):
        s = float(np.mean(x))
        return s, x / s

    w1, w2 = pair.window1, pair.window2
    if kind in ("price_price", "adjprice_adjprice"):
        s1, a = norm(w1.lagged_prices() if kind == "adjprice_adjprice" else w1.prices)
        s2, b = norm(w2.lagged_prices() if kind == "adjprice_adjprice" else w2.prices)
        un = norm(w1.volumes)[1] ** n * norm(w2.volumes)[1] ** m
        return s1**n * s2**m * float(np.sum(a**n * b**m * un) / np.sum(un))
    legs = {"value": lambda w: w.values, "volume": lambda w: w.volumes,
            "adjvalue": lambda w: w.lagged_prices() * w.volumes}
    leg1, leg2 = kind.split("_")
    (s1, a), (s2, b) = norm(legs[leg1](w1)), norm(legs[leg2](w2))
    return s1**n * s2**m * float(np.mean(a**n * b**m))


def old_window_moments(window, lag_l, top):
    """Order 1..top moment tuples (C, U, p, C_a, p_a, r) of one window as
    computed before the series cache: every scale divided out in one pass
    over the window's 1-D series, then restored with Python float ** int."""
    p, u, c, pl = window.prices, window.volumes, window.values, window.lagged_prices(lag_l)
    sc, v, ub = float(np.mean(c)), float(np.sum(p * u) / np.sum(u)), float(np.mean(u))
    cs, ps, us, pls = c / sc, p / v, u / ub, pl / v
    ca = pl * u
    r, w = p / pl, ca / np.mean(ca)
    families = [], [], [], [], [], []
    for n in range(1, top + 1):
        un = us**n
        su, sa = np.sum(un), np.sum(pls**n * un)
        unit = (np.mean(cs**n), su / p.size, np.sum(ps**n * un) / su, sa / p.size, sa / su,
                np.sum(r**n * w**n) / np.sum(w**n))
        scales = (sc**n, ub**n, v**n, (v * ub) ** n, v**n, 1.0)  # r needs no scale
        for family, s, x in zip(families, scales, unit):
            family.append(s * float(x))
    return tuple(tuple(f) for f in families)


def old_dumps_json(obj, indent=2):
    """JSON as written before the template formatter: one recursive call
    per value, floats as %.17g, non-finite floats as null."""
    out = []

    def write(obj, level):
        pad = " " * (indent * level)
        pad_in = " " * (indent * (level + 1))
        if obj is None:
            out.append("null")
        elif isinstance(obj, bool):
            out.append("true" if obj else "false")
        elif isinstance(obj, str):
            out.append(json.dumps(obj))
        elif isinstance(obj, int):
            out.append(str(obj))
        elif isinstance(obj, float):
            out.append("%.17g" % obj if math.isfinite(obj) else "null")
        elif isinstance(obj, dict):
            if not obj:
                out.append("{}")
                return
            out.append("{\n")
            for k, (key, value) in enumerate(obj.items()):
                out.append(pad_in + json.dumps(str(key)) + ": ")
                write(value, level + 1)
                out.append(",\n" if k < len(obj) - 1 else "\n")
            out.append(pad + "}")
        elif isinstance(obj, (list, tuple)):
            if not obj:
                out.append("[]")
                return
            out.append("[\n")
            for k, value in enumerate(obj):
                out.append(pad_in)
                write(value, level + 1)
                out.append(",\n" if k < len(obj) - 1 else "\n")
            out.append(pad + "]")
        else:
            raise TypeError(f"cannot serialize {type(obj).__name__}")

    write(obj, 0)
    return "".join(out) + "\n"


def old_csv_cell(x):
    """One CSV cell as written before the template formatter."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return "%.17g" % x if math.isfinite(x) else ""
    return str(x)


def old_write_csv_rows(stream, header, rows):
    """A delimited table as written before the template formatter."""
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(old_csv_cell(x) for x in row) + "\n")


def old_invert_density(approx, grid=None, x_points=charfn.X_POINTS):
    """charfn.invert_density as written before its trig tables were
    filled in threads: one serial cos and one sin of each block's angles."""
    charfn._check_integrable(approx)
    if grid is None:
        grid = charfn.GridSpec.for_approx(approx)
    half = charfn._x_half_width(approx)
    xs = np.linspace(-half, half, x_points)
    qs = np.exp(charfn._exponent(approx, xs))
    dx = xs[1] - xs[0]
    weights = np.full(x_points, dx)
    weights[0] = weights[-1] = dx / 2.0
    rs = grid.grid
    mid = x_points // 2
    xs_pos = xs[mid:]
    wq = weights[mid:] * qs[mid:]
    re_wq = np.ascontiguousarray(np.real(wq))
    im_wq = np.ascontiguousarray(np.imag(wq))
    density = np.empty(rs.size)
    chunk = max(1, 2**22 // xs_pos.size)
    for lo in range(0, rs.size, chunk):
        hi = min(lo + chunk, rs.size)
        angles = np.outer(rs[lo:hi], xs_pos)
        density[lo:hi] = np.cos(angles) @ re_wq + np.sin(angles) @ im_wq
    density /= math.pi

    step = float(rs[1] - rs[0])
    residuals = []
    for n in range(1, approx.order + 1):
        grid_moment = float(np.trapezoid(rs**n * density, dx=step))
        target = approx.moments[n - 1]
        residuals.append((grid_moment - target) / max(abs(target), 1.0))
    return charfn.DensityGrid(
        grid=rs, density=density, step=step, approx=approx, x_half_width=half,
        x_points=x_points,
        normalization_residual=float(np.trapezoid(density, dx=step)) - 1.0,
        moment_residuals=tuple(residuals),
        negative_mass=-float(np.trapezoid(np.minimum(density, 0.0), dx=step)),
        min_density=float(np.min(density)))


def old_default_damping(coefficients, q):
    """charfn._default_damping as written before Q_m's power series was
    shared: each trial b sums the exponent's even real terms onto
    -b x^(2q) afresh."""
    m = len(coefficients)
    log_target = -math.log(charfn.EDGE_DECAY)
    if m >= 2 and coefficients[1] > 0:
        x_ref = math.sqrt(2.0 * log_target / coefficients[1])
    else:
        x_ref = 2.0 * log_target
    b = abs(coefficients[-1]) / math.factorial(m) * x_ref ** (m - 2 * q)
    if b == 0.0:
        return 0.0
    probe = np.geomspace(1e-3 * x_ref, 1e3 * x_ref, 2048)
    for _ in range(100):
        re = -b * probe ** (2 * q)
        for n, a_n in enumerate(coefficients, start=1):
            if n % 2 == 0:
                re = re + (-1.0) ** (n // 2) * (a_n / math.factorial(n)) * probe**n
        if float(np.max(re)) <= 1.0:
            break
        b *= 4.0
    return b


def old_ingest(source, value_format="derive_value", epsilon=1.0):
    """A tape read as before the bulk parse: one Python loop over the rows
    that checks, parses and collects each row's cells in turn."""
    lines = iter(source if not isinstance(source, str) else source.splitlines())
    try:
        header = next(lines)
    except StopIteration:
        raise EmptyTape("empty input: missing header") from None
    columns = [c.strip().lower() for c in header.strip().lstrip("\ufeff").split(",")]
    if columns[:3] != ["time", "price", "volume"] or len(columns) > 4:
        raise MalformedRow("row 1: expected header time,price,volume[,value]")
    has_value = len(columns) == 4 and columns[3] == "value"
    if len(columns) == 4 and not has_value:
        raise MalformedRow(f"row 1: fourth column must be 'value', got {columns[3]!r}")
    if value_format == "with_value" and not has_value:
        raise MalformedRow("row 1: with_value requires a value column")

    used = 4 if value_format == "with_value" else 3
    names = ("time", "price", "volume", "value")
    rows, numbers = array("q"), array("d")
    for row, line in enumerate(lines, 2):
        cells = line.strip().split(",")
        if cells == [""]:
            continue
        if len(cells) != len(columns):
            raise MalformedRow(
                f"row {row}: expected {len(columns)} columns, got {len(cells)}"
            )
        for name, text in zip(names, cells[:used]):
            try:
                x = float(text)
            except ValueError:
                raise NonFinite(f"row {row}: {name} {text!r} is not a number") from None
            if not math.isfinite(x):
                raise NonFinite(f"row {row}: {name} {text!r} is not finite")
            numbers.append(x)
        rows.append(row)
    if not rows:
        raise EmptyTape("no data rows")

    data = np.frombuffer(numbers).reshape(len(rows), used)
    with np.errstate(over="ignore"):
        values = data[:, 3] if used == 4 else data[:, 1] * data[:, 2]
    try:
        return TradeTape(data[:, 0], data[:, 1], data[:, 2], values, epsilon)
    except TapeError as exc:
        if exc.tick is None:
            raise
        where = f"row {rows[exc.tick]}"
        fault = type(exc)(f"{where}: {exc.detail}")
        fault.tick, fault.detail = exc.tick, exc.detail
        raise fault from None


def old_generate(config):
    """(prices, volumes) of ``synth.generate`` as its formulas give them with
    a fresh array per step, from the same draws in the same order."""
    rng = np.random.default_rng(config.seed)
    n = config.ticks
    shocks = np.zeros(n)
    p, v = config.price, config.volume
    if isinstance(p, WalkPrice):
        shocks = rng.standard_normal(n)
        shocks[0] = 0.0
        prices = p.start * np.exp(p.log_vol * np.cumsum(shocks))
    elif isinstance(p, CyclePrice):
        prices = p.base * np.exp(p.log_amplitude * np.sin(2.0 * math.pi * np.arange(n) / p.period))
    else:
        prices = np.full(n, p.level)
    if isinstance(v, HeavyTailVolume):
        volumes = v.base * (1.0 - rng.random(n)) ** (-1.0 / v.shape)
    elif isinstance(v, WhaleVolume):
        volumes = np.full(n, v.base)
        volumes[v.position] = v.whale_volume
    else:
        volumes = np.full(n, v.level)
    if config.coupling != 0.0:
        volumes = volumes * np.exp(config.coupling * shocks)
    return prices.astype(np.float64), volumes.astype(np.float64)


def old_check_tape(times, prices, volumes, values, epsilon):
    """The checks of ``TradeTape`` as they were before they ran in blocks:
    one pass of whole-array masks for the tick rules, then one ``np.diff``
    of every time for the spacing.  Raises what the tape raises for its
    first fault, and returns None for a valid tape."""
    t, p, u, c = (np.array(x, dtype=np.float64) for x in (times, prices, volumes, values))
    if len(t) == 0:
        raise EmptyTape("tape has no ticks")
    if not (len(p) == len(u) == len(c) == len(t)):
        raise MalformedRow("field arrays have unequal lengths")
    with np.errstate(all="ignore"):
        bad = ~(np.isfinite(t) & np.isfinite(p) & np.isfinite(u) & np.isfinite(c))
        bad |= (p <= 0) | (u <= 0) | (c <= 0) | (np.abs(c - p * u) > VALUE_REL_TOL * c)
    if bad.any():
        i = int(np.argmax(bad))
        TradeTick(i, float(t[i]), float(p[i]), float(u[i]), float(c[i]))  # raises
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise NonUniformSpacing(f"epsilon must be a positive real, got {epsilon!r}")
    gaps = np.diff(t)
    bad = np.flatnonzero(np.abs(gaps - epsilon) > SPACING_REL_TOL * epsilon)
    if bad.size:
        i = int(bad[0])
        detail = f"spacing {float(gaps[i])!r} != epsilon {epsilon!r}"
        exc = NonUniformSpacing(f"ticks {i}->{i + 1}: {detail}")
        exc.tick, exc.detail = i + 1, detail
        raise exc


# The published schemas as they were written out by hand before they were
# built from the report layouts; a built schema equals its literal here
# with every {"type": "number"} widened to number-or-null.

_OLD_NUMBER_OR_NULL = {"type": ["number", "null"]}
_OLD_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}}

OLD_MOMENT_REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "window_start", "window_count", "lag", "order_max",
        "C_n", "U_n", "p_n", "Ca_n", "pa_n", "r_n",
        "sigma_C2", "sigma_Ca2", "sigma_U2", "sigma_p2", "sigma_pa2",
        "sigma_r2",
    ],
    "properties": {
        "window_start": {"type": "integer", "minimum": 0},
        "window_count": {"type": "integer", "minimum": 2},
        "lag": {"type": "integer", "minimum": 1},
        "order_max": {"type": "integer", "minimum": 1},
        "C_n": _OLD_NUMBER_ARRAY,
        "U_n": _OLD_NUMBER_ARRAY,
        "p_n": _OLD_NUMBER_ARRAY,
        "Ca_n": _OLD_NUMBER_ARRAY,
        "pa_n": _OLD_NUMBER_ARRAY,
        "r_n": _OLD_NUMBER_ARRAY,
        "sigma_C2": {"type": "number"},
        "sigma_Ca2": {"type": "number"},
        "sigma_U2": {"type": "number"},
        "sigma_p2": {"type": "number"},
        "sigma_pa2": {"type": "number"},
        "sigma_r2": {"type": "number"},
    },
    "additionalProperties": False,
}

OLD_STATS_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "subcommand", "reports"],
    "properties": {
        "schema_version": {"const": 1},
        "subcommand": {"const": "stats"},
        "reports": {"type": "array", "items": OLD_MOMENT_REPORT_SCHEMA},
    },
    "additionalProperties": False,
}

OLD_SWEEP_ROW_SCHEMA = {
    "type": "object",
    "required": [
        "j", "l1", "l2", "n", "m", "statistic",
        "value_form", "price_form", "definitional",
    ],
    "properties": {
        "j": {"type": "integer", "minimum": 0},
        "l1": {"type": "integer", "minimum": 1},
        "l2": {"type": "integer", "minimum": 1},
        "n": {"type": "integer", "minimum": 1},
        "m": {"type": "integer", "minimum": 1},
        "statistic": {"type": "string"},
        "value_form": _OLD_NUMBER_OR_NULL,
        "price_form": _OLD_NUMBER_OR_NULL,
        "definitional": {"type": "number"},
    },
    "additionalProperties": False,
}

OLD_SWEEP_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "subcommand", "window_start",
                 "window_count", "rows"],
    "properties": {
        "schema_version": {"const": 1},
        "subcommand": {"enum": ["acorr", "xcorr"]},
        "window_start": {"type": "integer", "minimum": 0},
        "window_count": {"type": "integer", "minimum": 2},
        "rows": {"type": "array", "items": OLD_SWEEP_ROW_SCHEMA},
    },
    "additionalProperties": False,
}

OLD_DENSITY_SIDECAR_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "schema_version", "subcommand", "order", "coefficients",
        "damping_b", "damping_q", "moments", "r_min", "r_max", "points",
        "x_half_width", "x_points", "normalization_residual",
        "moment_residuals", "negative_mass", "min_density",
    ],
    "properties": {
        "schema_version": {"const": 1},
        "subcommand": {"const": "density"},
        "order": {"type": "integer", "minimum": 1},
        "coefficients": _OLD_NUMBER_ARRAY,
        "damping_b": {"type": "number", "minimum": 0},
        "damping_q": {"type": "integer", "minimum": 1},
        "moments": _OLD_NUMBER_ARRAY,
        "r_min": {"type": "number"},
        "r_max": {"type": "number"},
        "points": {"type": "integer", "minimum": 9},
        "x_half_width": {"type": "number", "exclusiveMinimum": 0},
        "x_points": {"type": "integer", "minimum": 2},
        "normalization_residual": {"type": "number"},
        "moment_residuals": _OLD_NUMBER_ARRAY,
        "negative_mass": {"type": "number"},
        "min_density": {"type": "number"},
    },
    "additionalProperties": False,
}

OLD_CONTRAST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "schema_version", "subcommand", "window_start", "window_count",
        "lag", "freq_mean_return", "vawar", "gap",
    ],
    "properties": {
        "schema_version": {"const": 1},
        "subcommand": {"const": "contrast"},
        "window_start": {"type": "integer", "minimum": 0},
        "window_count": {"type": "integer", "minimum": 2},
        "lag": {"type": "integer", "minimum": 1},
        "freq_mean_return": {"type": "number"},
        "vawar": {"type": "number"},
        "gap": {"type": "number"},
    },
    "additionalProperties": False,
}

OLD_VALIDATE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "subcommand", "valid", "ticks",
                 "epsilon", "error"],
    "properties": {
        "schema_version": {"const": 1},
        "subcommand": {"const": "validate"},
        "valid": {"type": "boolean"},
        "ticks": {"type": "integer", "minimum": 0},
        "epsilon": {"type": "number"},
        "error": {
            "type": ["object", "null"],
            "required": ["kind", "message"],
            "properties": {
                "kind": {"type": "string"},
                "message": {"type": "string"},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

OLD_SCHEMAS = {
    "MOMENT_REPORT_SCHEMA": OLD_MOMENT_REPORT_SCHEMA,
    "STATS_SCHEMA": OLD_STATS_SCHEMA,
    "SWEEP_ROW_SCHEMA": OLD_SWEEP_ROW_SCHEMA,
    "SWEEP_SCHEMA": OLD_SWEEP_SCHEMA,
    "DENSITY_SIDECAR_SCHEMA": OLD_DENSITY_SIDECAR_SCHEMA,
    "CONTRAST_SCHEMA": OLD_CONTRAST_SCHEMA,
    "VALIDATE_SCHEMA": OLD_VALIDATE_SCHEMA,
}
