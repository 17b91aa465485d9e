"""Acceptance suite: one test per criterion, at the stated tolerances.

Route-vs-route comparisons of *differenced* quantities (dispersions,
correlations) carry an absolute floor scaled to the terms being
differenced: when a correlation cancels to ~0, two float routes can only
agree to roundoff of the cancelled magnitudes, not to a relative
tolerance of an exact zero.  The floors sit at 1e-12 of the anchor,
two orders below the stated relative tolerances.
"""

import json

import numpy as np
import pytest

from vawar.charfn import (
    fit_charfn,
    gaussian2_density,
    invert_density,
    moments_to_coeffs,
)
from vawar.cli import main
from vawar.correlations import (
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
from vawar.moments import (
    adjusted_moments,
    adjusted_value_series,
    dispersions,
    freq_moment,
    price_moment,
    return_moment,
    return_series,
    return_volatility,
)
from oracle import oracle
from vawar.synth import weighting_contrast, whale_tape
from vawar.tape import LagSpec, TradeTape, WindowSpec, resolve

from conftest import FIXTURE_CSV
from helpers import (
    assert_close,
    corr_pau2_anchor,
    corr_r_anchor,
    corr_rp_anchor,
    corr_ru_anchor,
    random_case,
    two_lag_anchor,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::vawar.errors.OrderExceedsWindow"
)

REL_ID = 1e-12
REL_ROUTE = 1e-10


def _passed(criterion, label):
    print(f"ACCEPTANCE {criterion} ({label}): PASS")


def test_c01_fixture_a_reproduction(tape_a, window_a):
    exp = {
        "returns": [1.0, 2.0, 0.5],
        "adjusted": [10.0, 20.0, 20.0],
        "C": (20.0, 600.0),
        "U": (20.0 / 3.0, 50.0),
        "Ca": (50.0 / 3.0, 300.0),
        "p": (3.0, 12.0),
        "pa": (2.5, 6.0),
        "r": (1.2, 2.0),
    }
    assert return_series(window_a, 1).tolist() == exp["returns"]
    assert adjusted_value_series(window_a, 1).tolist() == exp["adjusted"]
    for n in (1, 2):
        assert_close(freq_moment(window_a.values, n), exp["C"][n - 1], REL_ID)
        assert_close(freq_moment(window_a.volumes, n), exp["U"][n - 1], REL_ID)
        assert_close(price_moment(window_a, n), exp["p"][n - 1], REL_ID)
        ca, pa = adjusted_moments(window_a, 1, n)
        assert_close(ca, exp["Ca"][n - 1], REL_ID)
        assert_close(pa, exp["pa"][n - 1], REL_ID)
        assert_close(return_moment(window_a, 1, n), exp["r"][n - 1], REL_ID)
    d = dispersions(window_a, 1)
    assert_close(d.sigma_C2, 200.0, REL_ID)
    assert_close(d.sigma_Ca2, 200.0 / 9.0, REL_ID)
    assert_close(d.sigma_U2, 50.0 / 9.0, REL_ID)
    assert_close(d.sigma_p2, 3.0, REL_ID)
    assert_close(d.sigma_pa2, -0.25, REL_ID)
    vol = return_volatility(window_a, 1)
    assert_close(vol.via_moments, 0.56, REL_ID)
    assert_close(vol.via_values, 0.56, REL_ID)
    assert_close(vol.via_prices, 0.56, REL_ID)
    pair = self_pair(window_a)
    assert_close(return_volume_corr(pair).definitional, 2.0, REL_ID)
    assert_close(return_price_corr(pair).definitional, 54.0 / 35.0, REL_ID)
    assert_close(adjprice_volume_sq_corr(window_a, 1).direct, -25.0 / 3.0,
                 REL_ID)
    _passed("C1", "Fixture A table at rel 1e-12")


def test_c02_identity_suite_1000_tapes():
    checked = 0
    for seed in range(1000):
        case = random_case(seed)
        window = resolve(case["tape"], case["window"], case["lags"])
        lag = case["lags"].lag_l
        for n in range(1, 5):
            c_n = freq_moment(window.values, n)
            u_n = freq_moment(window.volumes, n)
            p_n = price_moment(window, n)
            ca_n, pa_n = adjusted_moments(window, lag, n)
            r_n = return_moment(window, lag, n)
            assert_close(c_n, p_n * u_n, REL_ID, msg=f"seed {seed} C=pU n={n}")
            assert_close(ca_n, pa_n * u_n, REL_ID,
                         msg=f"seed {seed} Ca=paU n={n}")
            assert_close(r_n, c_n / ca_n, REL_ID,
                         msg=f"seed {seed} r=C/Ca n={n}")
            assert_close(r_n, p_n / pa_n, REL_ID,
                         msg=f"seed {seed} r=p/pa n={n}")
            checked += 1
    assert checked == 4000
    _passed("C2", "value/price/return identities on 1000 tapes")


def test_c03_volatility_equivalence():
    negative_seen = 0
    for seed in range(400):
        case = random_case(seed)
        window = resolve(case["tape"], case["window"], case["lags"])
        lag = case["lags"].lag_l
        vol = return_volatility(window, lag)
        if dispersions(window, lag).sigma_pa2 < 0:
            negative_seen += 1
        floor = 1e-12 * max(abs(return_moment(window, lag, 2)),
                            return_moment(window, lag, 1) ** 2)
        assert_close(vol.via_moments, vol.via_values, REL_ROUTE,
                     abs_floor=floor, msg=f"seed {seed} moments vs values")
        assert_close(vol.via_moments, vol.via_prices, REL_ROUTE,
                     abs_floor=floor, msg=f"seed {seed} moments vs prices")
    assert negative_seen >= 20, "expected sigma_pa2 < 0 cases in the sample"
    _passed("C3", f"volatility routes agree ({negative_seen} negative-"
                  "sigma_pa2 cases included)")


def test_c04_autocorrelation_reductions():
    # self-paired reduction at rel 1e-12
    for seed in range(200):
        case = random_case(seed)
        window = resolve(case["tape"], case["window"], case["lags"])
        lag = case["lags"].lag_l
        ac = return_autocorr(self_pair(window))
        sigma = return_volatility(window, lag).via_moments
        floor = 1e-12 * max(abs(return_moment(window, lag, 2)),
                            return_moment(window, lag, 1) ** 2)
        assert_close(ac.definitional, sigma, REL_ID, abs_floor=floor,
                     msg=f"seed {seed} self pair = sigma_r2")
    # value-form vs price-form agreement at rel 1e-10 on shifted pairs
    for seed in range(200):
        case = random_case(seed)
        pair = pair_windows(case["tape"], case["window"],
                            case["lags"].lag_l, case["lag2"],
                            case["lags"].window_shift_j)
        ac = return_autocorr(pair)
        floor = 1e-12 * corr_r_anchor(pair)
        assert_close(ac.value_form, ac.price_form, REL_ROUTE, abs_floor=floor,
                     msg=f"seed {seed} value vs price form")
        assert_close(ac.definitional, ac.value_form, REL_ROUTE,
                     abs_floor=floor, msg=f"seed {seed} def vs value form")
    _passed("C4", "self-pair reduction and value/price form agreement")


def test_c05_appendix_routes():
    for seed in range(300):
        case = random_case(seed)
        tape, window = case["tape"], case["window"]
        lag1, lag2 = case["lags"].lag_l, case["lag2"]
        shift = case["lags"].window_shift_j
        pair = pair_windows(tape, window, lag1, lag2, shift)
        resolved = resolve(tape, window, case["lags"])

        ru = return_volume_corr(pair)
        floor_ru = 1e-12 * corr_ru_anchor(pair)
        assert_close(ru.definitional, ru.closed_form, REL_ROUTE,
                     abs_floor=floor_ru, msg=f"seed {seed} corr_rU defining vs closed")

        pu = adjprice_volume_sq_corr(resolved, lag1)
        floor_pu = 1e-12 * corr_pau2_anchor(resolved)
        assert_close(pu.direct, pu.identity_form, REL_ROUTE,
                     abs_floor=floor_pu, msg=f"seed {seed} paU2 routes")

        n, m = case["n"], case["m"]
        rp = return_price_corr(pair, n, m)
        floor_rp = 1e-12 * corr_rp_anchor(pair, n, m)
        assert_close(rp.definitional, rp.closed_form, REL_ROUTE,
                     abs_floor=floor_rp, msg=f"seed {seed} corr_rp defining vs closed")
    _passed("C5", "appendix correlation routes agree")


def _oracle_checks(case):
    """(label, main_value, oracle_value, anchor) rows for one case."""
    tape, window, lags = case["tape"], case["window"], case["lags"]
    lag1, lag2 = lags.lag_l, case["lag2"]
    shift = lags.window_shift_j
    n, m = case["n"], case["m"]
    resolved = resolve(tape, window, lags)
    pair = pair_windows(tape, window, lag1, lag2, shift)
    lags1 = LagSpec(lag_l=lag1)

    def orc(stat, **kw):
        return oracle(tape, window, lags, stat, **kw)

    rows = []
    c2 = orc("value_moment", n=2)
    u2 = orc("volume_moment", n=2)
    p2 = orc("price_moment", n=2)
    ca2 = orc("adj_value_moment", n=2)
    pa2 = orc("adj_price_moment", n=2)
    r2 = orc("return_moment", n=2)

    rows.append(("value_moment", freq_moment(resolved.values, n),
                 orc("value_moment", n=n), 0.0))
    rows.append(("volume_moment", freq_moment(resolved.volumes, n),
                 orc("volume_moment", n=n), 0.0))
    rows.append(("price_moment", price_moment(resolved, n),
                 orc("price_moment", n=n), 0.0))
    ca_n, pa_n = adjusted_moments(resolved, lag1, n)
    rows.append(("adj_value_moment", ca_n, orc("adj_value_moment", n=n), 0.0))
    rows.append(("adj_price_moment", pa_n, orc("adj_price_moment", n=n), 0.0))
    rows.append(("return_moment", return_moment(resolved, lag1, n),
                 orc("return_moment", n=n), 0.0))
    rows.append(("vawar", return_moment(resolved, lag1, 1), orc("vawar"), 0.0))
    rows.append(("freq_mean_return",
                 freq_moment(return_series(resolved, lag1), 1),
                 orc("freq_mean_return"), 0.0))

    d = dispersions(resolved, lag1)
    vol = return_volatility(resolved, lag1)
    rows.append(("sigma_C2", d.sigma_C2, orc("sigma_C2"), c2))
    rows.append(("sigma_Ca2", d.sigma_Ca2, orc("sigma_Ca2"), ca2))
    rows.append(("sigma_U2", d.sigma_U2, orc("sigma_U2"), u2))
    rows.append(("sigma_p2", d.sigma_p2, orc("sigma_p2"), p2))
    rows.append(("sigma_pa2", d.sigma_pa2, orc("sigma_pa2"), pa2))
    rows.append(("sigma_r2", vol.via_moments, orc("sigma_r2"), r2))

    for kind in ("value_value", "adjvalue_adjvalue", "volume_volume",
                 "value_volume", "adjvalue_volume", "price_price",
                 "adjprice_adjprice"):
        rows.append((kind, paired_expectation(kind, pair, degrees=(n, m)),
                     orc(kind, n=n, m=m, lag2=lag2), 0.0))

    rows.append(("corr_r", return_autocorr(pair).definitional,
                 orc("corr_r", lag2=lag2), corr_r_anchor(pair)))
    rows.append(("corr_rU", return_volume_corr(pair).definitional,
                 orc("corr_rU", lag2=lag2), corr_ru_anchor(pair)))
    rows.append(("corr_rp", return_price_corr(pair, n, m).definitional,
                 orc("corr_rp", n=n, m=m, lag2=lag2),
                 corr_rp_anchor(pair, n, m)))
    rows.append(("corr_paU2", adjprice_volume_sq_corr(resolved, lag1).direct,
                 oracle(tape, window, lags1, "corr_paU2"),
                 corr_pau2_anchor(resolved)))

    two = same_day_two_lag_autocorr(resolved, lag1, lag2)
    anchor_two = two_lag_anchor(resolved, lag1, lag2)
    rows.append(("two_lag_exact", two.exact,
                 oracle(tape, window, lags1, "corr_r", lag2=lag2),
                 anchor_two))
    rows.append(("two_lag_approx", two.approximation,
                 oracle(tape, window, lags1, "two_lag_approx", lag2=lag2),
                 anchor_two))

    rep = correlation_report(pair)
    for label, got, cross in (
        ("corr_C", rep.corr_C, rep.cross_value),
        ("corr_Ca", rep.corr_Ca, rep.cross_adj_value),
        ("corr_U", rep.corr_U, rep.cross_volume),
        ("corr_p", rep.corr_p, rep.cross_price),
        ("corr_pa", rep.corr_pa, rep.cross_adj_price),
    ):
        rows.append((label, got, orc(label, lag2=lag2),
                     abs(cross) + abs(cross - got)))
    cau_11 = paired_expectation("adjvalue_volume", pair)
    rows.append(("corr_CaU", rep.corr_CaU, orc("corr_CaU", lag2=lag2),
                 abs(cau_11) + abs(cau_11 - rep.corr_CaU)))
    return rows


def _check_oracle_case(case, seed):
    for label, got, want, anchor in _oracle_checks(case):
        assert_close(got, want, REL_ROUTE, abs_floor=1e-12 * abs(anchor),
                     msg=f"seed {seed} {label}")


def _shrunk_count(case, seed, original_error):
    """Re-run a failing case at the smallest window that still fails."""
    for count in range(2, case["window"].count):
        smaller = dict(case)
        smaller["window"] = WindowSpec(case["window"].start, count)
        try:
            _check_oracle_case(smaller, seed)
        except AssertionError as exc:
            raise AssertionError(
                f"oracle mismatch, minimal reproduction at count={count}: {exc}"
            ) from exc
    raise original_error


def test_c06_oracle_equivalence_1000_cases():
    for seed in range(1000):
        case = random_case(seed)
        try:
            _check_oracle_case(case, seed)
        except AssertionError as exc:
            _shrunk_count(case, seed, exc)
    _passed("C6", "main path = brute-force oracle on 1000 cases")


def test_c07_charfn_round_trip(window_a):
    # m = 2: fixture moments invert to the closed-form Gaussian
    approx2 = fit_charfn(
        [return_moment(window_a, 1, 1), return_moment(window_a, 1, 2)]
    )
    dens2 = invert_density(approx2)
    gauss = gaussian2_density(1.2, approx2.coefficients[1])
    assert float(np.max(np.abs(dens2.density - gauss(dens2.grid)))) < 1e-8
    assert abs(dens2.normalization_residual) < 1e-6
    for residual in dens2.moment_residuals:
        assert abs(residual) < 1e-6

    # m = 4: three-point law moments round trip through the density
    xs, ps = [0.9, 1.0, 1.25], [0.3, 0.5, 0.2]
    law = [sum(p * x**k for p, x in zip(ps, xs)) for k in range(1, 5)]
    approx4 = fit_charfn(law)
    dens4 = invert_density(approx4)
    for k, residual in enumerate(dens4.moment_residuals, start=1):
        assert abs(residual) < 1e-4, f"m=4 grid moment {k}"

    # coefficients solve the stated recurrence (Gaussian case closed form)
    assert moments_to_coeffs([1.2, 2.0]) == pytest.approx((1.2, 0.56),
                                                          rel=1e-12)

    # derivative check, orders 1..4, central differences at step 1e-4
    from test_charfn import central_difference_moments

    for approx, moments in ((approx2, approx2.moments), (approx4, law)):
        derived = central_difference_moments(
            approx, orders=min(approx.order, 4)
        )
        for k, (got, want) in enumerate(zip(derived, moments), start=1):
            assert abs(got.real - want) <= 1e-5 * abs(want), f"order {k}"
    _passed("C7", "Gaussian inversion, grid moments, derivative check")


def test_c08_weighting_contrast_whale():
    tape, window, lags = whale_tape(
        n_small=1000, small_value=1.0, whale_value=1e9, whale_return=1.1
    )
    res = weighting_contrast(tape, window, lags)
    assert 1.00009 <= res.freq_mean_return <= 1.00011
    assert 1.0999 <= res.vawar <= 1.1000
    _passed("C8", f"freq mean {res.freq_mean_return:.6f}, "
                  f"VaWAR {res.vawar:.6f}")


def test_c09_scale_invariance():
    for seed in range(60):
        case = random_case(seed)
        tape = case["tape"]
        lag = case["lags"].lag_l
        window = resolve(tape, case["window"], case["lags"])
        for s, u in ((13.7, 1.0), (1.0, 0.0021), (0.004, 310.0)):
            scaled = TradeTape.from_arrays(tape.prices * s, tape.volumes * u)
            w2 = resolve(scaled, case["window"], case["lags"])
            for n in range(1, 5):
                assert_close(
                    return_moment(w2, lag, n), return_moment(window, lag, n),
                    REL_ID, msg=f"seed {seed} r invariant n={n} s={s} u={u}",
                )
    _passed("C9", "r(t,tau;n) invariant under price/volume rescaling")


def test_c10_cli_determinism(tmp_path, capsys):
    path = tmp_path / "fixture_a.csv"
    path.write_text(FIXTURE_CSV, encoding="utf-8")
    argv = ["stats", str(path), "--window", "3", "--start", "1",
            "--lag", "1", "--order", "2"]
    assert main(argv) == 0
    out1 = capsys.readouterr().out
    assert main(argv) == 0
    out2 = capsys.readouterr().out
    assert out1.splitlines(True) == out2.splitlines(True), "stats output must be byte-identical"

    rep = json.loads(out1)["reports"][0]
    assert_close(rep["p_n"][0], 3.0, REL_ID)
    assert_close(rep["r_n"][0], 1.2, REL_ID)
    assert_close(rep["r_n"][1], 2.0, REL_ID)
    assert_close(rep["sigma_r2"], 0.56, REL_ID)
    assert_close(rep["sigma_pa2"], -0.25, REL_ID)

    assert main(["xcorr", str(path), "--window", "3", "--start", "1",
                 "--lag", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    by_stat = {row["statistic"]: row for row in rows}
    assert_close(by_stat["corr_rU"]["definitional"], 2.0, REL_ID)
    assert_close(by_stat["corr_rp"]["definitional"], 54.0 / 35.0, REL_ID)
    _passed("C10", "byte-identical CLI output and end-to-end Fixture A")
