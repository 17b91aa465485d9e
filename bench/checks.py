"""Output checks against literal defining sums.

Nothing here imports vawar: every expected value is rebuilt term by term
from the paper's definitions with ``math.fsum`` over the benchmark's own
tape columns.  Tolerances follow the acceptance suite: relative 1e-10, and
for differenced quantities (dispersions, correlations) an absolute floor of
1e-12 times an anchor that sums the magnitudes which cancel.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

REL = 1e-10
FLOOR = 1e-12


class Failures(list):
    """Failure messages of one invocation's checks."""

    def expect(self, label, got, want, anchor=0.0):
        if got is None or not isinstance(got, (int, float)):
            self.append(f"{label}: got {got!r}, want {want!r}")
            return
        tol = max(REL * max(abs(got), abs(want)), FLOOR * abs(anchor))
        if not abs(got - want) <= tol:
            self.append(f"{label}: got {got!r}, want {want!r} (tolerance {tol:.3g})")

    def equal(self, label, got, want):
        if got != want:
            self.append(f"{label}: got {got!r}, want {want!r}")


def _mean(xs):
    return math.fsum(xs) / len(xs)


def _ratio(num, den):
    return math.fsum(num) / math.fsum(den)


class Window:
    """Series of one window as Python floats: prices p, volumes u, values c,
    lagged prices pl, adjusted values ca = pl * u and returns r = p / pl."""

    def __init__(self, tape, start, count, lag):
        sl = slice(start, start + count)
        self.p = tape.prices[sl].tolist()
        self.u = tape.volumes[sl].tolist()
        self.c = tape.values[sl].tolist()
        self.pl = tape.prices[start - lag:start - lag + count].tolist()
        self.ca = [pl * u for pl, u in zip(self.pl, self.u)]
        self.r = [p / pl for p, pl in zip(self.p, self.pl)]

    def C(self, n):
        return _mean([c**n for c in self.c])

    def U(self, n):
        return _mean([u**n for u in self.u])

    def Ca(self, n):
        return _mean([ca**n for ca in self.ca])

    def price(self, n):
        """p(t;n) = sum p^n U^n / sum U^n (VWAP at n = 1)."""
        return _ratio([p**n * u**n for p, u in zip(self.p, self.u)],
                      [u**n for u in self.u])

    def adj_price(self, n):
        return _ratio([pl**n * u**n for pl, u in zip(self.pl, self.u)],
                      [u**n for u in self.u])

    def ret(self, n):
        """r(t,tau;n) = sum r^n Ca^n / sum Ca^n (VaWAR at n = 1)."""
        return _ratio([r**n * ca**n for r, ca in zip(self.r, self.ca)],
                      [ca**n for ca in self.ca])


_MOMENT_KEYS = (("C_n", Window.C), ("U_n", Window.U), ("p_n", Window.price),
                ("Ca_n", Window.Ca), ("pa_n", Window.adj_price),
                ("r_n", Window.ret))
_SIGMAS = (("sigma_C2", Window.C), ("sigma_Ca2", Window.Ca),
           ("sigma_U2", Window.U), ("sigma_p2", Window.price),
           ("sigma_pa2", Window.adj_price), ("sigma_r2", Window.ret))


def check_report(fails, report, tape, start, count, lag, order):
    """One stats window report (as its JSON object) against the sums."""
    tag = f"window {start}"
    fails.equal(f"{tag} header",
                (report["window_start"], report["window_count"], report["lag"],
                 report["order_max"]), (start, count, lag, order))
    w = Window(tape, start, count, lag)
    for key, moment in _MOMENT_KEYS:
        for n in range(1, order + 1):
            fails.expect(f"{tag} {key}[{n}]", report[key][n - 1], moment(w, n))
    for key, moment in _SIGMAS:
        m1, m2 = moment(w, 1), moment(w, 2)
        fails.expect(f"{tag} {key}", report[key], m2 - m1 * m1, m2 + m1 * m1)


def stats_csv_reports(text, order):
    """Rows of ``stats --format csv`` in the JSON report layout."""
    rows = list(csv.DictReader(io.StringIO(text)))
    out = []
    for row in rows:
        rep = {k: int(row[k]) for k in ("window_start", "window_count")}
        rep["lag"] = int(row["lag"])
        rep["order_max"] = int(row["order_max"])
        for key, _ in _MOMENT_KEYS:
            stem = key[:-2]
            rep[key] = [_cell(row[f"{stem}_{n}"]) for n in range(1, order + 1)]
        for key, _ in _SIGMAS:
            rep[key] = _cell(row[key])
        out.append(rep)
    return out


def _cell(text):
    return float(text) if text != "" else None


class Pair:
    """Window 1 at ``start`` with lag l1, window 2 shifted back by j ticks
    with lag l2, paired elementwise."""

    def __init__(self, tape, start, count, j, l1, l2):
        self.w1 = Window(tape, start, count, l1)
        self.w2 = Window(tape, start - j, count, l2)


def corr_r(pair):
    """corr_r = E[r r2] - E[r] E[r2], weights Ca Ca2; and its anchor."""
    w1, w2 = pair.w1, pair.w2
    both = [a * b for a, b in zip(w1.ca, w2.ca)]
    e_rr = _ratio([r1 * r2 * w for r1, r2, w in zip(w1.r, w2.r, both)], both)
    e_r1, e_r2 = w1.ret(1), w2.ret(1)
    uu = [a * b for a, b in zip(w1.u, w2.u)]
    cross_c = _mean([a * b for a, b in zip(w1.c, w2.c)])
    cross_ca = _mean(both)
    cross_p = _ratio([a * b * w for a, b, w in zip(w1.p, w2.p, uu)], uu)
    cross_pa = _ratio([a * b * w for a, b, w in zip(w1.pl, w2.pl, uu)], uu)
    c1, c2, ca1, ca2 = w1.C(1), w2.C(1), w1.Ca(1), w2.Ca(1)
    p1, p2 = w1.price(1), w2.price(1)
    pa1, pa2 = w1.adj_price(1), w2.adj_price(1)
    r1r2 = (c1 / ca1) * (c2 / ca2)
    anchor = ((cross_c + c1 * c2) / cross_ca + r1r2 * (1.0 + ca1 * ca2 / cross_ca)
              + (cross_p + p1 * p2) / cross_pa + r1r2 * (1.0 + pa1 * pa2 / cross_pa))
    return e_rr - e_r1 * e_r2, anchor


def corr_ru(pair):
    """corr_rU = E[r U2] - E[r] E[U2], E[r U2] weighted by Ca."""
    w1, w2 = pair.w1, pair.w2
    e_ru = _ratio([r * ca * u2 for r, ca, u2 in zip(w1.r, w1.ca, w2.u)], w1.ca)
    e_r, e_u2 = w1.ret(1), w2.U(1)
    cu = _mean([c * u2 for c, u2 in zip(w1.c, w2.u)])
    anchor = (cu + w1.C(1) * e_u2) / w1.Ca(1)
    return e_ru - e_r * e_u2, anchor


def corr_rp(pair, n, m):
    """corr_rp = E[r^n p2^m] - r(t;n) p(t2;m), weights Ca^n U2^m."""
    w1, w2 = pair.w1, pair.w2
    wts = [ca**n * u2**m for ca, u2 in zip(w1.ca, w2.u)]
    e_rp = _ratio([r**n * p2**m * w for r, p2, w in zip(w1.r, w2.p, wts)], wts)
    cnm = _mean([a**n * b**m for a, b in zip(w1.c, w2.c)])
    cau = _mean(wts)
    c_n, c2m, u2m, ca_n = w1.C(n), w2.C(m), w2.U(m), w1.Ca(n)
    weight = (c_n / ca_n) * (c2m / u2m)
    anchor = (cnm + c_n * c2m) / cau + weight * (1.0 + ca_n * u2m / cau)
    return e_rp - w1.ret(n) * w2.price(m), anchor


def check_sweep_row(fails, row, statistic, want, anchor, routes):
    """A long-form acorr/xcorr row: every route present in ``routes``
    must match the literal value; the others must be empty."""
    tag = f"j {row['j']} {statistic}"
    fails.equal(f"{tag} statistic", row["statistic"], statistic)
    for col in ("value_form", "price_form", "definitional"):
        if col in routes:
            fails.expect(f"{tag} {col}", row[col], want, anchor)
        else:
            fails.equal(f"{tag} {col}", row[col], None)


def sweep_csv_rows(text):
    out = []
    for row in csv.DictReader(io.StringIO(text)):
        rec = {k: int(row[k]) for k in ("j", "l1", "l2", "n", "m")}
        rec["statistic"] = row["statistic"]
        for col in ("value_form", "price_form", "definitional"):
            rec[col] = _cell(row[col])
        out.append(rec)
    return out


def check_contrast(fails, doc, tape, start, count, lag):
    w = Window(tape, start, count, lag)
    freq = _mean(w.r)
    vawar = w.ret(1)
    fails.expect("freq_mean_return", doc["freq_mean_return"], freq)
    fails.expect("vawar", doc["vawar"], vawar)
    fails.expect("gap", doc["gap"], vawar - freq, abs(vawar) + abs(freq))


def _trapezoid(ys, step):
    return step * (math.fsum(ys) - 0.5 * (ys[0] + ys[-1]))


def check_density(fails, side, text, tape, start, count, lag, order, probes):
    """Sidecar moments against the window's return moments, sidecar
    diagnostics against a re-integration of the CSV, and the density at
    grid indices ``probes`` against a direct quadrature rebuilt from the
    sidecar's coefficients, damping and x grid."""
    w = Window(tape, start, count, lag)
    fails.equal("order", side["order"], order)
    for n in range(1, order + 1):
        fails.expect(f"moments[{n}]", side["moments"][n - 1], w.ret(n))

    lines = text.splitlines()
    fails.equal("density header", lines[0], "r,density")
    cells = [ln.split(",") for ln in lines[1:]]
    rs = [float(a) for a, _ in cells]
    mu = [float(b) for _, b in cells]
    fails.equal("points", len(rs), side["points"])
    fails.equal("grid ends", (rs[0], rs[-1]), (side["r_min"], side["r_max"]))
    step = rs[1] - rs[0]
    mass = _trapezoid([abs(y) for y in mu], step)
    fails.expect("normalization_residual", side["normalization_residual"],
                 _trapezoid(mu, step) - 1.0, mass + 1.0)
    for n in range(1, order + 1):
        target = side["moments"][n - 1]
        denom = max(abs(target), 1.0)
        rn_mu = [r**n * y for r, y in zip(rs, mu)]
        fails.expect(f"moment_residuals[{n}]", side["moment_residuals"][n - 1],
                     (_trapezoid(rn_mu, step) - target) / denom,
                     (_trapezoid([abs(v) for v in rn_mu], step) + abs(target)) / denom)
    fails.expect("negative_mass", side["negative_mass"],
                 -_trapezoid([min(y, 0.0) for y in mu], step), mass)
    fails.equal("min_density", side["min_density"], min(mu))

    xs = np.linspace(-side["x_half_width"], side["x_half_width"], side["x_points"])
    dx = xs[1] - xs[0]
    weights = np.full(xs.size, dx)
    weights[0] = weights[-1] = dx / 2.0
    z = -side["damping_b"] * xs ** (2 * side["damping_q"])
    for n, a_n in enumerate(side["coefficients"], start=1):
        z = z + (1j**n) * (a_n / math.factorial(n)) * xs**n
    wq = weights * np.exp(z)
    anchor = float(np.sum(np.abs(wq))) / (2.0 * math.pi)
    for k in probes:
        direct = float(np.real(np.sum(wq * np.exp(-1j * xs * rs[k])))) / (2.0 * math.pi)
        fails.expect(f"density[{k}] vs direct quadrature", mu[k], direct, anchor)
