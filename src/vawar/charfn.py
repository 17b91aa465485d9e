"""Moment-matched characteristic functions and density inversion.

From the first m return moments r_1..r_m we build the integrable
exponential characteristic function

    Q_m(x) = exp{ sum_{n<=m} i^n/n! a_n x^n  -  b x^(2q) },   2q > m, b >= 0,

whose coefficients a_n are fixed by requiring the first m derivatives of
Q_m at 0 to reproduce the moments.  Because 2q > m, the damping term
contributes nothing to those derivatives and the a_n satisfy the
standard moment-cumulant recurrence

    r_n = sum_{k=1..n} binom(n-1, k-1) a_k r_{n-k},   r_0 = 1,

solved forward for a_n.  The probability density is the Fourier
inversion

    mu_m(r) = (1/2pi) integral Q_m(x) exp(-i x r) dx,

computed by uniform-grid quadrature with the x extent enlarged until
|Q_m| < EDGE_DECAY at the edges.  For m = 2 with a_2 > 0 and b = 0 the
inversion is the Gaussian with mean a_1 and variance a_2.

mu_m may dip negative for m > 2 (exponential-polynomial approximations
are not densities); negative lobes are kept and reported through the
``negative_mass`` diagnostic, never truncated.

Q_m's exponent, its Taylor form 1 + sum i^n/n! r_n x^n and the default
damping's probe all read one power series, ``_series``.

The inversion's cost is its cos/sin table of r * x: each block of it is
filled in row slices on a ``concurrent.futures`` thread pool, one slice
per CPU the process may run on, while the matrix products that sum it
keep their shapes, so the density's bytes do not depend on the number of
CPUs.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidDensityParameter,
    NonPositiveVariance,
    NotIntegrable,
    OrderZero,
    QuadratureDivergence,
)
from .reportio import write_csv_rows
from .tape import integral

TAYLOR = "taylor"
EXPONENTIAL = "exponential"

#: Target modulus of Q_m at the quadrature grid edges.
EDGE_DECAY = 1e-12

#: Default number of quadrature samples in x.
X_POINTS = 2**14

#: Default number of density grid points (odd: the center is on the grid).
R_POINTS = 2001

#: Default density grid half-width in natural width units.
R_HALF_WIDTHS = 10.0

_MAX_DOUBLINGS = 60
_MAX_EXPONENT = 700.0  # exp overflow guard for float64


def moments_to_coeffs(moments):
    """Cumulant-like coefficients a_1..a_m from raw moments r_1..r_m."""
    moments = [float(x) for x in moments]
    if not moments:
        raise OrderZero("at least one moment is required")
    r = [1.0] + moments
    a = []
    for n in range(1, len(r)):
        acc = r[n]
        for k in range(1, n):
            acc -= math.comb(n - 1, k - 1) * a[k - 1] * r[n - k]
        a.append(acc)
    return tuple(a)


def coeffs_to_moments(coeffs):
    """Inverse of :func:`moments_to_coeffs` (same recurrence run forward)."""
    coeffs = [float(x) for x in coeffs]
    if not coeffs:
        raise OrderZero("at least one coefficient is required")
    r = [1.0]
    for n in range(1, len(coeffs) + 1):
        acc = 0.0
        for k in range(1, n + 1):
            acc += math.comb(n - 1, k - 1) * coeffs[k - 1] * r[n - k]
        r.append(acc)
    return tuple(r[1:])


@dataclass(frozen=True)
class CharFnApprox:
    """Fitted m-approximation: coefficients, damping (b, q), and the
    source moments."""

    order: int
    coefficients: tuple
    damping: float
    damping_exponent: int
    moments: tuple

    def __post_init__(self):
        object.__setattr__(self, "damping_exponent", integral(
            "damping q", self.damping_exponent, 1, InvalidDensityParameter))
        if self.order < 1:
            raise OrderZero(f"approximation order must be >= 1, got {self.order}")
        if len(self.coefficients) != self.order or len(self.moments) != self.order:
            raise ValueError("coefficients and moments must have length = order")
        if not (self.damping >= 0 and math.isfinite(self.damping)):
            raise InvalidDensityParameter(
                f"damping b must be finite and >= 0, got {self.damping}")
        if 2 * self.damping_exponent <= self.order:
            raise InvalidDensityParameter(
                f"damping needs 2q > m, got q={self.damping_exponent}, m={self.order}"
            )


def default_damping_exponent(order):
    """Smallest integer q with 2q > m."""
    return order // 2 + 1


def natural_width(coefficients, damping=0.0, damping_exponent=1):
    """Characteristic return-scale of the approximation.

    The larger of sqrt(a_2) (when the second coefficient is positive)
    and the damping kernel scale b^(1/2q), floored at 1e-3.
    """
    width = 0.0
    if len(coefficients) >= 2 and coefficients[1] > 0:
        width = math.sqrt(coefficients[1])
    if damping > 0:
        width = max(width, damping ** (1.0 / (2 * damping_exponent)))
    return max(width, 1e-3)


def _series(values, x, first):
    """first + sum_n i^n/n! v_n x^n at x (scalar or array), as complex.

    Each term is real and is added to the real part (even n) or to the
    imaginary part (odd n) alone, so an x^n that overflows makes that part
    infinite and leaves the other as it was (no 0 * inf = NaN).
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.full(x.shape, first, dtype=np.complex128)
    for n, v_n in enumerate(values, start=1):
        part = out.imag if n % 2 else out.real
        part += (-1.0) ** (n // 2) * (v_n / math.factorial(n)) * x**n
    return out


def _default_damping(coefficients, q):
    """Default damping strength for a coefficient vector.

    b = |a_m|/m! * s^(2q-m) with s the reciprocal of the natural spectral
    extent x_ref (the x where the a_2 decay alone reaches EDGE_DECAY), so
    the damping overtakes the highest moment term only around x_ref and
    leaves the informative part of the spectrum untouched.  If the even
    terms make the real exponent grow anywhere (e.g. a positive a_4), b
    is quadrupled until the interior bump stays below e^1.
    """
    m = len(coefficients)
    log_target = -math.log(EDGE_DECAY)
    if m >= 2 and coefficients[1] > 0:
        x_ref = math.sqrt(2.0 * log_target / coefficients[1])
    else:
        x_ref = 2.0 * log_target
    b = abs(coefficients[-1]) / math.factorial(m) * x_ref ** (m - 2 * q)
    if b == 0.0:
        return 0.0
    probe = np.geomspace(1e-3 * x_ref, 1e3 * x_ref, 2048)
    for _ in range(100):
        if _series(coefficients, probe, -b * probe ** (2 * q)).real.max() <= 1.0:
            break
        b *= 4.0
    return b


def fit_charfn(moments, b=None, q=None) -> CharFnApprox:
    """Fit the exponential m-approximation to raw return moments.

    q defaults to the smallest integer with 2q > m.  b defaults to 0
    when m = 2 with a_2 > 0 (the Gaussian case needs no damping), else
    to :func:`_default_damping`, which only guarantees integrability and
    tail decay without distorting the informative spectrum.
    """
    a = moments_to_coeffs(moments)
    m = len(a)
    if q is None:
        q = default_damping_exponent(m)
    q = integral("damping q", q, 1, InvalidDensityParameter)
    if b is None:
        if m == 2 and a[1] > 0:
            b = 0.0
        else:
            b = _default_damping(a, q)
    return CharFnApprox(
        order=m,
        coefficients=a,
        damping=float(b),
        damping_exponent=q,
        moments=tuple(float(x) for x in moments),
    )


def _exponent(approx: CharFnApprox, x):
    """Complex exponent of Q_m at x (scalar or array)."""
    x = np.asarray(x, dtype=np.float64)
    damping = approx.damping * x ** (2 * approx.damping_exponent)
    return _series(approx.coefficients, x, 0.0) - damping


def eval_charfn(approx: CharFnApprox, x, form=EXPONENTIAL):
    """Evaluate the m-approximation at x (scalar or array).

    ``taylor`` evaluates the truncated moment series 1 + sum i^n/n! r_n
    x^n; ``exponential`` evaluates Q_m.
    """
    if form == TAYLOR:
        out = _series(approx.moments, x, 1.0)
    elif form == EXPONENTIAL:
        out = np.exp(_exponent(approx, x))
    else:
        raise ValueError(f"unknown characteristic-function form {form!r}")
    return complex(out) if out.shape == () else out


def _check_integrable(approx: CharFnApprox):
    if approx.damping > 0:
        return
    if approx.order == 2 and approx.coefficients[1] > 0:
        return
    raise NotIntegrable(
        "exponential form needs b > 0, or m = 2 with a_2 > 0; "
        f"got m={approx.order}, b={approx.damping}, a={approx.coefficients}"
    )


def _x_half_width(approx: CharFnApprox):
    """Smallest power-of-two half-width with |Q_m| <= EDGE_DECAY at the edge."""
    log_target = math.log(EDGE_DECAY)
    x = 1.0
    for _ in range(_MAX_DOUBLINGS):
        if all(
            float(np.real(_exponent(approx, v))) <= log_target for v in (-x, x)
        ):
            return x
        x *= 2.0
    raise QuadratureDivergence(
        f"|Q_m| stays above {EDGE_DECAY:g} out to x = {x:g}"
    )


@dataclass(frozen=True)
class GridSpec:
    """Uniform density grid: [r_min, r_max] sampled at ``points``."""

    r_min: float
    r_max: float
    points: int = R_POINTS

    def __post_init__(self):
        if not (math.isfinite(self.r_min) and math.isfinite(self.r_max)
                and self.r_max > self.r_min):
            raise InvalidDensityParameter(
                f"grid needs finite r_min < r_max, got {self.r_min} and {self.r_max}")
        object.__setattr__(self, "points",
                           integral("grid points", self.points, 9, InvalidDensityParameter))

    @classmethod
    def for_approx(cls, approx: CharFnApprox, half_widths=R_HALF_WIDTHS,
                   points=R_POINTS):
        """Grid centered on a_1 spanning ``half_widths`` natural widths.

        With damping on, the inverse transform of exp(-b x^(2q)) rings
        with tails decaying only like exp(-c r^(2q/(2q-1))), so the
        half-width is floored at 17q kernel widths b^(1/2q) to keep the
        truncated tail mass (and its moment contributions) negligible.
        """
        center = approx.coefficients[0]
        half = half_widths * natural_width(
            approx.coefficients, approx.damping, approx.damping_exponent
        )
        if approx.damping > 0:
            q = approx.damping_exponent
            kernel = approx.damping ** (1.0 / (2 * q))
            half = max(half, 17.0 * q * kernel)
        return cls(r_min=center - half, r_max=center + half, points=points)

    @property
    def grid(self):
        return np.linspace(self.r_min, self.r_max, self.points)


#: The keys of a density's sidecar report, in the order it is written.
SIDECAR_FIELDS = (
    "order", "coefficients", "damping_b", "damping_q", "moments", "r_min", "r_max",
    "points", "x_half_width", "x_points", "normalization_residual", "moment_residuals",
    "negative_mass", "min_density",
)


@dataclass(frozen=True)
class DensityGrid:
    """Sampled density with its grid and quadrature diagnostics.

    ``normalization_residual`` is integral(mu) - 1 on the grid;
    ``moment_residuals[n-1]`` is the relative gap between the grid moment
    integral(r^n mu) and the source moment r_n; ``negative_mass`` is the
    trapezoid mass of the negative lobes (zero for a true density).
    """

    grid: np.ndarray
    density: np.ndarray
    step: float
    approx: CharFnApprox
    x_half_width: float
    x_points: int
    normalization_residual: float
    moment_residuals: tuple
    negative_mass: float
    min_density: float

    def sidecar_dict(self):
        """The density's metadata, keyed by ``SIDECAR_FIELDS``."""
        a = self.approx
        return dict(zip(SIDECAR_FIELDS, (
            a.order, list(a.coefficients), a.damping, a.damping_exponent, list(a.moments),
            float(self.grid[0]), float(self.grid[-1]),
            int(self.grid.size), self.x_half_width, self.x_points,
            self.normalization_residual, list(self.moment_residuals),
            self.negative_mass, self.min_density)))


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_trig(trig, rs, xs, out):
    """out[i, k] = trig(rs[i] * xs[k]), by row slices on a thread pool.

    One slice per usable CPU, at most one per row.  NumPy releases the
    GIL inside these ufunc loops.  The exception of the first failing
    slice, in row order, is raised here once the pool has shut down.
    """
    workers = min(_usable_cpus(), rs.size)
    cuts = [rs.size * k // workers for k in range(workers + 1)]

    def fill(i, j):
        np.multiply(rs[i:j, None], xs, out=out[i:j])
        trig(out[i:j], out=out[i:j])

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(fill, cuts, cuts[1:]))


def invert_density(approx: CharFnApprox, grid: GridSpec | None = None,
                   x_points=X_POINTS) -> DensityGrid:
    """Fourier-invert Q_m to a density on a uniform return grid.

    mu_m(r) = (1/2pi) integral Q_m(x) exp(-i x r) dx by trapezoid rule on
    a symmetric x grid whose extent is doubled until |Q_m| < EDGE_DECAY
    at the edges.  Raises NotIntegrable when the exponential form has no
    decaying tail and QuadratureDivergence when no reachable extent (or
    an interior overflow) keeps |Q_m| under control.

    Each block of 2**22 // (x_points / 2) grid rows is summed by one cos
    and one sin matrix-vector product.  The trig work is split over the
    usable CPUs: each block's tables are filled on a thread pool, one row
    slice per CPU, and every element is computed alone, so the bytes do not
    depend on the number of CPUs.
    """
    _check_integrable(approx)
    x_points = integral("x_points", x_points, 2, InvalidDensityParameter)
    if x_points % 2:
        raise InvalidDensityParameter(
            f"x_points must be even (Hermitian-symmetric grid), got {x_points}")
    if grid is None:
        grid = GridSpec.for_approx(approx)
    half = _x_half_width(approx)
    xs = np.linspace(-half, half, x_points)
    z = _exponent(approx, xs)
    if float(np.max(np.real(z))) > _MAX_EXPONENT:
        raise QuadratureDivergence("|Q_m| overflows inside the quadrature grid")
    qs = np.exp(z)
    dx = xs[1] - xs[0]
    weights = np.full(x_points, dx)
    weights[0] = weights[-1] = dx / 2.0

    # Q(-x) = conj(Q(x)) (real coefficients), so the integral is twice the
    # real part over the positive half grid.
    rs = grid.grid
    mid = x_points // 2
    xs_pos = xs[mid:]
    wq = weights[mid:] * qs[mid:]
    re_wq = np.ascontiguousarray(np.real(wq))
    im_wq = np.ascontiguousarray(np.imag(wq))
    density = np.empty(rs.size)
    # Do not shrink the blocks: a row's product rounds with its block.
    chunk = max(1, 2**22 // xs_pos.size)
    buffer = np.empty((min(chunk, rs.size), xs_pos.size))
    for lo in range(0, rs.size, chunk):
        hi = min(lo + chunk, rs.size)
        table = buffer[:hi - lo]
        _fill_trig(np.cos, rs[lo:hi], xs_pos, table)
        cos_sum = table @ re_wq
        _fill_trig(np.sin, rs[lo:hi], xs_pos, table)
        density[lo:hi] = cos_sum + table @ im_wq
    density /= math.pi
    if not np.all(np.isfinite(density)):
        raise QuadratureDivergence(
            f"the density is not finite on the grid [{rs[0]:g}, {rs[-1]:g}]")

    step = float(rs[1] - rs[0])
    total = float(np.trapezoid(density, dx=step))
    residuals = []
    for n in range(1, approx.order + 1):
        grid_moment = float(np.trapezoid(rs**n * density, dx=step))
        target = approx.moments[n - 1]
        denom = max(abs(target), 1.0)
        residuals.append((grid_moment - target) / denom)
    negative = float(np.trapezoid(np.minimum(density, 0.0), dx=step))
    return DensityGrid(
        grid=rs,
        density=density,
        step=step,
        approx=approx,
        x_half_width=half,
        x_points=x_points,
        normalization_residual=total - 1.0,
        moment_residuals=tuple(residuals),
        negative_mass=-negative,
        min_density=float(np.min(density)),
    )


def write_density_csv(dens: DensityGrid, stream):
    """Two-column CSV (r, density) with 17-significant-digit floats."""
    write_csv_rows(stream, ("r", "density"), np.column_stack((dens.grid, dens.density)))


@dataclass(frozen=True)
class Gaussian2:
    """Closed-form order-2 density: the Gaussian with the window's mean
    return and return volatility."""

    mean: float
    variance: float
    _norm: float = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.variance > 0 and math.isfinite(self.variance)):
            raise NonPositiveVariance(
                f"variance must be > 0, got {self.variance!r}"
            )
        object.__setattr__(self, "_norm", 1.0 / math.sqrt(2.0 * math.pi * self.variance))

    def __call__(self, r):
        r = np.asarray(r, dtype=np.float64)
        out = self._norm * np.exp(-((r - self.mean) ** 2) / (2.0 * self.variance))
        return float(out) if out.shape == () else out


def gaussian2_density(mean, variance) -> Gaussian2:
    """Evaluator for the order-2 (Gaussian) density approximation."""
    return Gaussian2(mean=float(mean), variance=float(variance))
