import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from vawar import charfn
from vawar.charfn import (
    CharFnApprox,
    GridSpec,
    coeffs_to_moments,
    eval_charfn,
    fit_charfn,
    gaussian2_density,
    invert_density,
    moments_to_coeffs,
    write_density_csv,
)
from vawar.errors import (
    InvalidDensityParameter,
    NonPositiveVariance,
    NotIntegrable,
    OrderZero,
    QuadratureDivergence,
)

from helpers import old_default_damping, old_invert_density

THREE_POINT = ([0.9, 1.0, 1.25], [0.3, 0.5, 0.2])


def law_moments(order):
    xs, ps = THREE_POINT
    return [sum(p * x**n for p, x in zip(ps, xs)) for n in range(1, order + 1)]


def law_cumulants():
    """Direct cumulant formulas on the discrete law (independent route)."""
    m1, m2, m3, m4 = law_moments(4)
    k1 = m1
    k2 = m2 - m1**2
    k3 = m3 - 3 * m2 * m1 + 2 * m1**3
    k4 = m4 - 4 * m3 * m1 - 3 * m2**2 + 12 * m2 * m1**2 - 6 * m1**4
    return (k1, k2, k3, k4)


class TestRecurrence:
    def test_fixture_moments(self):
        assert moments_to_coeffs([1.2, 2.0]) == pytest.approx(
            (1.2, 0.56), rel=1e-12
        )

    def test_point_mass(self):
        c = 1.37
        coeffs = moments_to_coeffs([c**n for n in range(1, 7)])
        assert coeffs[0] == pytest.approx(c, rel=1e-12)
        for a_n in coeffs[1:]:
            assert a_n == pytest.approx(0.0, abs=1e-10)

    def test_three_point_law_matches_direct_cumulants(self):
        coeffs = moments_to_coeffs(law_moments(4))
        for got, want in zip(coeffs, law_cumulants()):
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_round_trip(self):
        moments = law_moments(4)
        again = coeffs_to_moments(moments_to_coeffs(moments))
        assert again == pytest.approx(tuple(moments), rel=1e-12)

    def test_order_zero(self):
        with pytest.raises(OrderZero):
            moments_to_coeffs([])
        with pytest.raises(OrderZero):
            coeffs_to_moments([])


class TestEval:
    def test_origin_is_one(self):
        for moments in ([1.2, 2.0], law_moments(4), [0.7]):
            approx = fit_charfn(moments, b=0.01)
            assert eval_charfn(approx, 0.0) == pytest.approx(1.0 + 0.0j)
            assert eval_charfn(approx, 0.0, "taylor") == pytest.approx(1.0 + 0.0j)

    def test_fixture_gaussian_point(self):
        approx = fit_charfn([1.2, 2.0])
        want = cmath.exp(-0.28) * complex(math.cos(1.2), math.sin(1.2))
        assert eval_charfn(approx, 1.0) == pytest.approx(want, rel=1e-12)

    def test_pure_damping_is_real(self):
        approx = CharFnApprox(
            order=2, coefficients=(0.0, 0.0), damping=0.3,
            damping_exponent=2, moments=(0.0, 0.0),
        )
        for x in (0.5, 1.0, 2.0):
            z = eval_charfn(approx, x)
            assert z.imag == 0.0
            assert z.real == pytest.approx(math.exp(-0.3 * x**4), rel=1e-12)

    def test_hermitian_symmetry(self):
        approx = fit_charfn(law_moments(4))
        xs = np.linspace(-8.0, 8.0, 61)
        qs = eval_charfn(approx, xs)
        qs_neg = eval_charfn(approx, -xs)
        np.testing.assert_allclose(np.conj(qs_neg), qs, rtol=0, atol=1e-15)

    def test_taylor_form_truncated_series(self):
        approx = fit_charfn([1.2, 2.0])
        x = 0.3
        want = 1 + 1j * 1.2 * x + (1j**2) * 2.0 * x**2 / 2
        assert eval_charfn(approx, x, "taylor") == pytest.approx(want, rel=1e-12)

    def test_unknown_form(self):
        approx = fit_charfn([1.2, 2.0])
        with pytest.raises(ValueError):
            eval_charfn(approx, 1.0, form="pade")

    def test_vectorized(self):
        approx = fit_charfn([1.2, 2.0])
        xs = np.array([0.0, 0.5, 1.0])
        qs = eval_charfn(approx, xs)
        assert qs.shape == (3,)
        assert qs[0] == pytest.approx(1.0 + 0.0j)


def _mp_charfn(approx, x):
    z = mp.mpc(0)
    for n, a_n in enumerate(approx.coefficients, start=1):
        z += (mp.mpc(0, 1) ** n) * mp.mpf(a_n) / mp.factorial(n) * x**n
    z -= mp.mpf(approx.damping) * x ** (2 * approx.damping_exponent)
    return mp.exp(z)


def central_difference_moments(approx, step=1e-4, orders=4):
    """Central-difference derivatives of Q_m at 0, in extended precision.

    binary64 cannot carry the 3rd/4th-order stencils at step 1e-4 (the
    difference lives below the rounding noise), so the stencils run under
    mpmath with the module's charfn re-implemented independently.
    """
    with mp.workdps(50):
        h = mp.mpf(step)
        q = lambda x: _mp_charfn(approx, x)
        stencils = [
            (q(h) - q(-h)) / (2 * h),
            (q(h) - 2 * q(0) + q(-h)) / h**2,
            (q(2 * h) - 2 * q(h) + 2 * q(-h) - q(-2 * h)) / (2 * h**3),
            (q(2 * h) - 4 * q(h) + 6 * q(0) - 4 * q(-h) + q(-2 * h)) / h**4,
        ]
        i = mp.mpc(0, 1)
        return [
            complex(d / i**n)
            for n, d in enumerate(stencils[:orders], start=1)
        ]


class TestDerivativeCheck:
    @pytest.mark.parametrize(
        "moments", [[1.2, 2.0], law_moments(4), law_moments(3)]
    )
    def test_derivatives_reproduce_moments(self, moments):
        approx = fit_charfn(moments)
        orders = min(len(moments), 4)
        derived = central_difference_moments(approx, orders=orders)
        for n, (got, want) in enumerate(zip(derived, moments), start=1):
            assert abs(got.real - want) <= 1e-5 * abs(want), f"order {n}"
            assert abs(got.imag) <= 1e-5 * abs(want), f"order {n} imaginary"


class TestInversion:
    def test_gaussian_pointwise(self):
        approx = fit_charfn([1.2, 2.0])
        dens = invert_density(approx)
        gauss = gaussian2_density(1.2, 0.56)
        np.testing.assert_allclose(
            dens.density, gauss(dens.grid), rtol=0, atol=1e-8
        )
        assert abs(dens.normalization_residual) < 1e-6

    def test_gaussian_peak(self):
        approx = fit_charfn([1.2, 2.0])
        dens = invert_density(approx)
        i = int(np.argmax(dens.density))
        assert dens.grid[i] == pytest.approx(1.2, abs=1e-9)
        assert dens.density[i] == pytest.approx(
            1 / math.sqrt(2 * math.pi * 0.56), rel=1e-8
        )

    def test_m1_symmetric_about_center(self):
        c = 0.7
        approx = fit_charfn([c], b=0.05)
        dens = invert_density(approx)
        # default grid is centered on c: mu(c+d) == mu(c-d)
        np.testing.assert_allclose(
            dens.density, dens.density[::-1], rtol=0, atol=1e-12
        )
        assert abs(dens.normalization_residual) < 1e-6

    def test_m4_grid_moments_match_inputs(self):
        moments = law_moments(4)
        dens = invert_density(fit_charfn(moments))
        for n, residual in enumerate(dens.moment_residuals, start=1):
            assert abs(residual) < 1e-4, f"order {n}"

    def test_negative_lobes_reported(self):
        dens = invert_density(fit_charfn(law_moments(4)))
        assert dens.min_density < 0
        assert dens.negative_mass > 0

    def test_not_integrable(self):
        with pytest.raises(NotIntegrable):
            invert_density(fit_charfn([0.7], b=0.0))
        with pytest.raises(NotIntegrable):
            invert_density(
                CharFnApprox(order=2, coefficients=(1.0, -0.5), damping=0.0,
                             damping_exponent=2, moments=(1.0, 0.5)),
            )

    def test_quadrature_divergence_guard(self):
        bad = CharFnApprox(
            order=4, coefficients=(0.0, -4.0, 0.0, 24.0), damping=1e-12,
            damping_exponent=3, moments=(0.0, 0.0, 0.0, 0.0),
        )
        with pytest.raises(QuadratureDivergence):
            invert_density(bad)

    def test_odd_x_points(self):
        with pytest.raises(InvalidDensityParameter, match="^x_points must be even"):
            invert_density(fit_charfn([1.2, 2.0]), x_points=63)

    def test_custom_grid(self):
        approx = fit_charfn([1.2, 2.0])
        grid = GridSpec(-3.0, 6.0, 513)
        dens = invert_density(approx, grid)
        assert dens.grid[0] == -3.0
        assert dens.grid[-1] == 6.0
        assert dens.grid.size == 513

    def test_csv_output(self):
        approx = fit_charfn([1.2, 2.0])
        dens = invert_density(approx, GridSpec(0.0, 2.4, 9))

        class Sink:
            text = ""

            def write(self, s):
                self.text += s

        sink = Sink()
        write_density_csv(dens, sink)
        lines = sink.text.strip().splitlines()
        assert lines[0] == "r,density"
        assert len(lines) == 10

    def test_sidecar_dict(self):
        dens = invert_density(fit_charfn([1.2, 2.0]))
        doc = dens.sidecar_dict()
        assert doc["order"] == 2
        assert doc["coefficients"][0] == pytest.approx(1.2)
        assert doc["points"] == dens.grid.size


# An undamped Gaussian fit, and damped fits of orders 4 and 6.
FITS = {2: fit_charfn([1.2, 2.0]), 4: fit_charfn(law_moments(4)), 6: fit_charfn(law_moments(6))}


@pytest.mark.parametrize("order", sorted(FITS))
@pytest.mark.parametrize("points", [9, 2001, 4097])
@pytest.mark.parametrize("x_points", [64, 1000, 2**14])
def test_threaded_inversion_matches_serial_loop(monkeypatch, order, points, x_points):
    # The BLAS products have the same shapes on both paths, so the bytes
    # agree at any BLAS thread count.
    approx = FITS[order]
    grid = GridSpec.for_approx(approx, points=points)
    want = old_invert_density(approx, grid, x_points)
    for workers in (1, 2, 3, 5):
        monkeypatch.setattr(charfn, "_usable_cpus", lambda: workers)
        got = invert_density(approx, grid, x_points)
        assert np.array_equal(got.density, want.density), workers
        assert got.sidecar_dict() == want.sidecar_dict(), workers


def test_worker_exception_reaches_the_caller(monkeypatch):
    def trig(x, out):
        if x[0, 0] > 0:  # the slices after the first, which run in threads
            raise FloatingPointError("slice fault")
        return np.cos(x, out=out)

    monkeypatch.setattr(charfn, "_usable_cpus", lambda: 3)
    out = np.empty((6, 4))
    with pytest.raises(FloatingPointError, match="slice fault"):
        charfn._fill_trig(trig, np.arange(6.0), np.ones(4), out)


class TestGaussian2:
    def test_fixture_peak(self):
        g = gaussian2_density(1.2, 0.56)
        assert g(1.2) == pytest.approx(1 / math.sqrt(2 * math.pi * 0.56),
                                       rel=1e-12)
        assert g(1.2) == pytest.approx(0.533109, rel=1e-5)

    def test_symmetry(self):
        g = gaussian2_density(1.2, 0.56)
        for d in (0.1, 0.7, 2.3):
            assert g(1.2 + d) == pytest.approx(g(1.2 - d), rel=1e-14)

    def test_normalization(self):
        g = gaussian2_density(1.2, 0.56)
        sigma = math.sqrt(0.56)
        grid = np.linspace(1.2 - 12 * sigma, 1.2 + 12 * sigma, 20001)
        total = np.trapezoid(g(grid), grid)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_nonpositive_variance(self):
        with pytest.raises(NonPositiveVariance):
            gaussian2_density(1.0, 0.0)
        with pytest.raises(NonPositiveVariance):
            gaussian2_density(1.0, -0.25)


class TestFitDefaults:
    def test_q_minimal(self):
        for m, q in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4)]:
            approx = fit_charfn([1.0] * m, b=0.1)
            assert approx.order == m
            assert approx.damping_exponent == q
            assert 2 * q > m

    def test_gaussian_case_undamped(self):
        assert fit_charfn([1.2, 2.0]).damping == 0.0

    def test_damped_when_variance_nonpositive(self):
        approx = fit_charfn([1.0, 0.5])  # a2 = -0.5
        assert approx.damping > 0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            CharFnApprox(order=2, coefficients=(1.0, 1.0), damping=-0.1,
                         damping_exponent=2, moments=(1.0, 2.0))
        with pytest.raises(ValueError):
            CharFnApprox(order=4, coefficients=(1.0,) * 4, damping=0.1,
                         damping_exponent=2, moments=(1.0,) * 4)
        with pytest.raises(OrderZero):
            CharFnApprox(order=0, coefficients=(), damping=0.0,
                         damping_exponent=1, moments=())

    @pytest.mark.parametrize("q", [2.5, "3", None, True, 0])
    def test_damping_exponent_is_a_whole_number(self, q):
        # a q of 2.5 would evaluate x**5.0 in the damping term
        with pytest.raises(InvalidDensityParameter, match="^damping q must be "):
            CharFnApprox(2, (0.001, 0.01), 0.0, q, (0.001, 0.01))

    def test_whole_float_damping_exponent_is_its_int(self):
        approx = CharFnApprox(2, (0.001, 0.01), 0.0, 2.0, (0.001, 0.01))
        assert approx.damping_exponent == 2 and type(approx.damping_exponent) is int

    def test_default_damping_matches_the_old_path(self):
        # Seeded coefficients a_n = s^n z_n at scales s from 1e-4 to 10;
        # positive even terms make about a third of the fits quadruple b.
        rng = np.random.default_rng(25)
        damped = 0
        for _ in range(1200):
            order = int(rng.integers(1, 9))
            s = 10.0 ** rng.uniform(-4, 1)
            approx = fit_charfn(coeffs_to_moments(
                [s**n * rng.standard_normal() for n in range(1, order + 1)]))
            if order == 2 and approx.coefficients[1] > 0:
                assert approx.damping == 0.0
                continue
            want = old_default_damping(approx.coefficients, approx.damping_exponent)
            assert approx.damping == want, approx
            damped += 1
        assert damped >= 1000

    @pytest.mark.parametrize("a2_exp", [-16, -40, -80, -120, -200, -250, -300])
    @pytest.mark.parametrize("order", [3, 4, 5, 8])
    def test_default_damping_matches_the_old_path_at_tiny_a2(self, order, a2_exp):
        # A tiny positive a_2 pushes the probe out to x where the odd
        # powers x^n overflow; the even-term sum must still be read.
        rng = np.random.default_rng(order * 1000 - a2_exp)
        a = [10.0 ** rng.uniform(-2, 12) for _ in range(order)]
        a[1] = 10.0 ** a2_exp
        q = charfn.default_damping_exponent(order)
        with np.errstate(all="ignore"):
            assert charfn._default_damping(tuple(a), q) == old_default_damping(tuple(a), q)

    def test_default_damping_with_overflowing_odd_powers(self):
        a = (1e10, 1e-200, 1e30)
        with np.errstate(all="ignore"):
            b = charfn._default_damping(a, 2)
            assert b == old_default_damping(a, 2)
        assert b < 1e-60
