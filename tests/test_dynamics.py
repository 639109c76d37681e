"""Integrator tests: exactness limits, invariants, step grid, and errors."""

import warnings

import numpy as np
import pytest

from kpwaves.lattice import apply_free_flow
from kpwaves.dynamics import calibrate_dt, default_dt, evolve_coeffs


def test_default_dt_formula(box22):
    max_om = float(np.max(np.abs(box22.dispersion().values)))
    assert max_om == 8.0
    assert default_dt(box22) == pytest.approx(0.5 / 9.0, rel=1e-15)


@pytest.mark.parametrize("dt", [0.0, -0.1, float("nan")])
def test_rejects_nonpositive_dt(box22, make_field, dt):
    u0 = make_field(box22, hermitian=True)
    with pytest.raises(ValueError, match="dt must be positive"):
        evolve_coeffs(box22, u0.coeffs, 0.1, [1.0], dt)


def test_zero_coupling_reduces_to_free_flow(box22, make_field):
    u0 = make_field(box22, hermitian=True)
    t = 1.3
    final = evolve_coeffs(box22, u0.coeffs, 0.0, [t], 0.05)[0]
    expected = apply_free_flow(u0, t).coeffs
    np.testing.assert_allclose(final, expected, rtol=0,
                               atol=1e-13 * np.abs(expected).max())


def test_l2_mass_conserved(box33, make_field):
    # sum |u_n|^2 is invariant under the truncated flow.
    u0 = make_field(box33, hermitian=True)
    states = evolve_coeffs(box33, u0.coeffs, 0.2, 0.25 * np.arange(1, 9),
                           1e-3)
    m0 = np.sum(np.abs(u0.coeffs) ** 2)
    drifts = np.abs(np.sum(np.abs(states) ** 2, axis=-1) - m0) / m0
    assert drifts.max() < 1e-10


def test_restart_matches_single_run(box22, make_field):
    u0 = make_field(box22, hermitian=True)
    eps, dt = 0.2, 0.01
    one = evolve_coeffs(box22, u0.coeffs, eps, [0.5, 1.0], dt)
    half = evolve_coeffs(box22, u0.coeffs, eps, [0.5], dt)[0]
    full = evolve_coeffs(box22, half, eps, [1.0], dt, t0=0.5)[0]
    np.testing.assert_allclose(one[1], full, rtol=0,
                               atol=1e-13 * np.abs(full).max())


def test_time_reversal(box22, make_field):
    u0 = make_field(box22, hermitian=True)
    eps, dt = 0.3, 1e-3
    fwd = evolve_coeffs(box22, u0.coeffs, eps, [1.0], dt)[0]
    back = evolve_coeffs(box22, fwd, eps, [0.0], dt, t0=1.0)[0]
    np.testing.assert_allclose(back, u0.coeffs, rtol=0,
                               atol=1e-12 * np.abs(u0.coeffs).max())


def test_batched_evolution_matches_loop(box22, make_field):
    fields = [make_field(box22, hermitian=True).coeffs for _ in range(3)]
    batch = np.stack(fields)
    eps, dt = 0.15, 0.01
    joint = evolve_coeffs(box22, batch, eps, [0.7], dt)[0]
    for i, U0 in enumerate(fields):
        single = evolve_coeffs(box22, U0, eps, [0.7], dt)[0]
        np.testing.assert_array_equal(joint[i], single)


def test_split_batch_is_bitwise_identical(box22, make_field):
    batch = np.stack([make_field(box22, hermitian=True).coeffs
                      for _ in range(20)])
    joint = evolve_coeffs(box22, batch, 0.15, [0.4, 0.7], 0.01)
    split = [evolve_coeffs(box22, part, 0.15, [0.4, 0.7], 0.01)
             for part in (batch[:7], batch[7:])]
    np.testing.assert_array_equal(joint, np.concatenate(split, axis=1))


def test_step_shrinks_to_land_on_end(box22, make_field):
    # ceil(1.0 / 0.3) = 4 steps of 0.25 each
    u0 = make_field(box22, hermitian=True)
    shrunk = evolve_coeffs(box22, u0.coeffs, 0.1, [1.0], 0.3)
    exact = evolve_coeffs(box22, u0.coeffs, 0.1, [1.0], 0.25)
    np.testing.assert_array_equal(shrunk, exact)


def test_blowup_is_non_finite_without_warnings(box22, make_field):
    # A diverging state comes back as inf/NaN; numpy stays silent, so a
    # caller's one-line error is all a diverging run prints.
    u0 = 1e3 * make_field(box22, hermitian=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        final = evolve_coeffs(box22, u0.coeffs, 1.0, [2.0], 0.1)[0]
    assert not np.isfinite(final).all()


def test_calibrate_dt_meets_target(box22, make_field):
    u0 = make_field(box22, hermitian=True)
    eps, t, target = 0.3, 1.0, 1e-8
    dt = calibrate_dt(box22, u0, eps, t, target=target)
    assert dt <= default_dt(box22)
    coarse = evolve_coeffs(box22, u0.coeffs, eps, [t], dt)[0]
    fine = evolve_coeffs(box22, u0.coeffs, eps, [t], dt / 2.0)[0]
    assert float(np.linalg.norm(fine - coarse)) < target


class TestNormalFormResidual:
    def test_too_few_samples(self, box22, make_field, normal_form_residual):
        U = np.stack([make_field(box22, hermitian=True).coeffs] * 2)
        with pytest.raises(ValueError):
            normal_form_residual(box22, np.array([0.0, 0.1]), U, 0.1)

    def test_nonuniform_grid_rejected(self, box21, make_field,
                                      normal_form_residual):
        U = np.stack([make_field(box21, hermitian=True).coeffs] * 3)
        with pytest.raises(ValueError):
            normal_form_residual(box21, np.array([0.0, 0.1, 0.35]), U, 0.1)

    def test_free_flow_residual_is_roundoff(self, box22, make_field,
                                            normal_form_residual):
        u0 = make_field(box22, hermitian=True)
        times = 0.1 * np.arange(5)
        states = evolve_coeffs(box22, u0.coeffs, 0.0, times[1:], 0.01)
        U = np.concatenate([u0.coeffs[None], states])
        assert normal_form_residual(box22, times, U, 0.0, s=1.0) < 1e-10


def test_rk4_convergence_order(box22, make_field):
    u0 = make_field(box22, hermitian=True)
    eps, t = 0.3, 1.0
    ref = evolve_coeffs(box22, u0.coeffs, eps, [t], 1.0 / 1024)[0]
    errs = []
    for dt in (1.0 / 16, 1.0 / 32, 1.0 / 64):
        got = evolve_coeffs(box22, u0.coeffs, eps, [t], dt)[0]
        errs.append(float(np.linalg.norm(got - ref)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for p in orders:
        assert 3.7 < p < 4.3
