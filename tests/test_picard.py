"""Tests for the Picard corrections and the remainder gauge maps.

The closed oscillatory-sum forms of b, c, and f are checked against
Simpson quadrature of their defining Duhamel integrals along the free
flow, so a sign, prefactor, or kernel mistake in the tables would show
up as an O(1) relative deviation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from kpwaves.lattice import LatticeBox, SpectralField, apply_free_flow
from kpwaves.operators import convolve, f_map, s_map
from kpwaves.picard import (
    THETA_TOL,
    MaxIterExceededError,
    NonContractionError,
    PicardBundle,
    extract_d,
    extract_w,
    f_integral,
    invert_lambda_eps,
    lambda_eps,
    phi1,
    picard_b,
    picard_c,
)


def free_flow_grid(u0, taus):
    """Coefficients of the free evolution at every grid time, stacked."""
    om = u0.box.dispersion().values
    return u0.coeffs[None, :] * np.exp(1j * np.outer(taus, om))


class TestPhi1:
    def test_zero_frequency_gives_t(self):
        assert phi1(0.0, 1.7) == pytest.approx(1.7)
        assert phi1(np.zeros(3), -0.4).tolist() == pytest.approx([-0.4] * 3)

    def test_closed_form(self):
        theta, t = 2.5, 1.3
        expected = (np.exp(1j * theta * t) - 1.0) / (1j * theta)
        assert phi1(theta, t) == pytest.approx(expected, rel=1e-14)

    def test_below_threshold_takes_limit(self):
        assert phi1(0.5 * THETA_TOL, 2.0) == pytest.approx(2.0, abs=0)

    @given(theta=st.floats(min_value=1e-6, max_value=1e-3),
           t=st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_continuous_near_threshold(self, theta, t):
        # |phi1(theta, t) - t| = |int_0^t (e^{i theta tau} - 1) dtau|
        #                      <= theta t^2 / 2, up to the roundoff of
        # (cos(theta t) - 1) / theta, which 1e-9 comfortably covers here.
        got = phi1(theta, t)
        assert abs(got - t) <= theta * t * t / 2 + 1e-9

    @given(theta=st.floats(min_value=-200.0, max_value=200.0),
           t=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_interval_length(self, theta, t):
        assert abs(phi1(theta, t)) <= t * (1 + 1e-12) + 1e-15


def test_picard_corrections_vanish_at_time_zero(box22, make_field):
    u0 = make_field(box22)
    for fn in (picard_b, picard_c, f_integral):
        out = fn(u0, 0.0).coeffs
        np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_picard_b_matches_duhamel_quadrature(box22, make_field):
    u0 = make_field(box22)
    t = 0.7
    taus = np.linspace(0.0, t, 1401)
    om = box22.dispersion().values
    A = free_flow_grid(u0, taus)
    conv = convolve(box22, A, A)
    integrand = np.exp(-1j * np.outer(taus, om)) * conv
    integral = simpson(integrand, x=taus, axis=0)
    expected = -0.5j * box22.n1 * np.exp(1j * om * t) * integral
    got = picard_b(u0, t).coeffs
    np.testing.assert_allclose(got, expected, rtol=0,
                               atol=1e-8 * np.abs(expected).max())


def test_picard_c_matches_duhamel_quadrature(box21, make_field):
    u0 = make_field(box21)
    t = 0.6
    taus = np.linspace(0.0, t, 1201)
    om = box21.dispersion().values
    A = free_flow_grid(u0, taus)
    B = np.stack([picard_b(u0, tau).coeffs for tau in taus])
    conv = convolve(box21, A, B)
    integrand = np.exp(-1j * np.outer(taus, om)) * conv
    integral = simpson(integrand, x=taus, axis=0)
    expected = -1j * box21.n1 * np.exp(1j * om * t) * integral
    got = picard_c(u0, t).coeffs
    np.testing.assert_allclose(got, expected, rtol=0,
                               atol=1e-7 * np.abs(expected).max())


def test_f_integral_matches_duhamel_quadrature(box21, make_field):
    u0 = make_field(box21)
    t = 0.6
    taus = np.linspace(0.0, t, 1201)
    om = box21.dispersion().values
    forcing = np.stack([
        f_map(a, a, a).coeffs
        for a in (apply_free_flow(u0, tau) for tau in taus)
    ])
    integrand = np.exp(-1j * np.outer(taus, om)) * forcing
    integral = simpson(integrand, x=taus, axis=0)
    expected = np.exp(1j * om * t) * integral
    got = f_integral(u0, t).coeffs
    np.testing.assert_allclose(got, expected, rtol=0,
                               atol=1e-8 * np.abs(expected).max())


def test_b_decomposition(box33, make_field):
    u0 = make_field(box33)
    t = 0.9
    a = apply_free_flow(u0, t)
    lhs = picard_b(u0, t)
    rhs = -s_map(a, a) + apply_free_flow(s_map(u0, u0), t)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=0,
                               atol=1e-13 * np.abs(rhs.coeffs).max())


def test_c_decomposition(box33, make_field):
    u0 = make_field(box33)
    t = 0.9
    a = apply_free_flow(u0, t)
    b = picard_b(u0, t)
    lhs = picard_c(u0, t)
    rhs = -2.0 * s_map(a, b) + f_integral(u0, t)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=0,
                               atol=1e-13 * np.abs(rhs.coeffs).max())


def test_corrections_preserve_reality(box22, make_field):
    u0 = make_field(box22, hermitian=True)
    assert u0.is_real_symmetric(tol=1e-12)
    for fn in (picard_b, picard_c, f_integral):
        assert fn(u0, 0.8).is_real_symmetric(tol=1e-11)


class TestExtract:
    def test_extract_d_is_definitional(self, box22, make_field):
        u0 = make_field(box22)
        u_t = make_field(box22)
        t, eps = 0.5, 0.3
        a = apply_free_flow(u0, t)
        b = picard_b(u0, t)
        c = picard_c(u0, t)
        expected = (u_t - a - eps * b - (eps ** 2) * c) / eps ** 3
        got = extract_d(u_t, PicardBundle.build(u0, t, eps))
        np.testing.assert_allclose(got.coeffs, expected.coeffs, rtol=1e-13)

    def test_extract_w_is_definitional(self, box22, make_field):
        u0 = make_field(box22)
        u_t = make_field(box22)
        t, eps = 0.5, 0.3
        v = u_t + eps * s_map(u_t, u_t)
        a = apply_free_flow(u0, t)
        s00 = apply_free_flow(s_map(u0, u0), t)
        f = f_integral(u0, t)
        expected = (v - a - eps * s00 - (eps ** 2) * f) / eps ** 3
        got = extract_w(u_t, u0, t, eps)
        np.testing.assert_allclose(got.coeffs, expected.coeffs, rtol=1e-13)

    def test_extract_rejects_zero_eps(self, box22, make_field):
        u0 = make_field(box22)
        with pytest.raises(ValueError):
            extract_d(u0, PicardBundle.build(u0, 0.5, 0.0))
        with pytest.raises(ValueError):
            extract_w(u0, u0, 0.5, 0.0)

    def test_w_equals_gauged_remainder(self, box22, make_field):
        # Algebraic identity valid for every state u_t, not only ODE
        # solutions: w = s(b,b) + 2 s(a,c) + 2 eps s(b,c)
        #              + eps^2 s(c,c) + lambda_eps(d).
        u0 = make_field(box22)
        u_t = make_field(box22)
        t, eps = 0.4, 0.25
        bundle = PicardBundle.build(u0, t, eps)
        a, b, c = bundle.a, bundle.b, bundle.c
        d = extract_d(u_t, bundle)
        w = extract_w(u_t, u0, t, eps)
        recon = (s_map(b, b) + 2.0 * s_map(a, c) + 2.0 * eps * s_map(b, c)
                 + (eps ** 2) * s_map(c, c) + lambda_eps(d, bundle))
        np.testing.assert_allclose(w.coeffs, recon.coeffs, rtol=0,
                                   atol=1e-12 * np.abs(recon.coeffs).max())


class TestLambdaEps:
    def test_matches_manual_polynomial(self, box22, make_field):
        u0 = make_field(box22)
        d = make_field(box22)
        t, eps = 0.6, 0.2
        bundle = PicardBundle.build(u0, t, eps)
        a, b, c = bundle.a, bundle.b, bundle.c
        expected = (d + 2.0 * eps * (s_map(a, d) + eps * s_map(b, d)
                                     + (eps ** 2) * s_map(c, d))
                    + (eps ** 4) * s_map(d, d))
        got = lambda_eps(d, bundle)
        np.testing.assert_allclose(got.coeffs, expected.coeffs, rtol=1e-13)

    def test_roundtrip(self, box22, make_field):
        u0 = make_field(box22)
        d = make_field(box22)
        bundle = PicardBundle.build(u0, 0.6, 0.1)
        g = lambda_eps(d, bundle)
        rec = invert_lambda_eps(g, bundle)
        np.testing.assert_allclose(rec.coeffs, d.coeffs, rtol=0,
                                   atol=1e-11 * np.abs(d.coeffs).max())

    def test_non_contracting_regime_raises(self, box22, make_field):
        u0 = 50.0 * make_field(box22)
        g = 50.0 * make_field(box22)
        bundle = PicardBundle.build(u0, 0.5, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonContractionError):
                invert_lambda_eps(g, bundle)

    def test_max_iter_exceeded(self, box22, make_field):
        u0 = 0.5 * make_field(box22)
        d = 0.5 * make_field(box22)
        bundle = PicardBundle.build(u0, 0.5, 0.05)
        g = lambda_eps(d, bundle)
        with pytest.raises(MaxIterExceededError):
            invert_lambda_eps(g, bundle, tol=1e-30, max_iter=2)


def test_bundle_build_matches_parts(box22, make_field):
    u0 = make_field(box22)
    t, eps = 0.7, 0.15
    bundle = PicardBundle.build(u0, t, eps)
    assert bundle.t == t and bundle.eps == eps
    np.testing.assert_array_equal(bundle.a.coeffs,
                                  apply_free_flow(u0, t).coeffs)
    np.testing.assert_array_equal(bundle.b.coeffs, picard_b(u0, t).coeffs)
    np.testing.assert_array_equal(bundle.c.coeffs, picard_c(u0, t).coeffs)
