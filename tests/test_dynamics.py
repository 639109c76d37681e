"""Integrator tests: exactness limits, invariants, recording, and errors."""

import numpy as np
import pytest

from kpwaves.lattice import LatticeBox, SpectralField, apply_free_flow
from kpwaves.dynamics import (
    IntegratorConfig,
    NonFiniteError,
    TooFewSamplesError,
    Trajectory,
    calibrate_dt,
    default_dt,
    evolve_coeffs,
    integrate,
    l2_mass,
    normal_form_residual,
)


def test_default_dt_formula(box22):
    max_om = float(np.max(np.abs(box22.dispersion().values)))
    assert max_om == 8.0
    assert default_dt(box22) == pytest.approx(0.5 / 9.0, rel=1e-15)


class TestIntegratorConfig:
    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=-0.1)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.1, record_stride=0)


def test_zero_coupling_reduces_to_free_flow(box22, make_field):
    u0 = make_field(box22, hermitian=True)
    t = 1.3
    traj = integrate(u0, 0.0, t, IntegratorConfig(dt=0.05))
    expected = apply_free_flow(u0, t).coeffs
    np.testing.assert_allclose(traj.final().coeffs, expected, rtol=0,
                               atol=1e-13 * np.abs(expected).max())


def test_l2_mass_conserved(box33, make_field):
    u0 = make_field(box33, hermitian=True)
    traj = integrate(u0, 0.2, 2.0, IntegratorConfig(dt=1e-3,
                                                    record_stride=250))
    m0 = l2_mass(u0)
    drifts = [abs(l2_mass(traj.state(i)) - m0) / m0 for i in range(len(traj))]
    assert max(drifts) < 1e-10


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


class TestTrajectory:
    def test_recording_grid(self, box22, make_field):
        u0 = make_field(box22, hermitian=True)
        # 1.0 / 0.05 = 20 steps, stride 5 -> records at steps 0,5,10,15,20
        traj = integrate(u0, 0.1, 1.0, IntegratorConfig(dt=0.05,
                                                        record_stride=5))
        assert len(traj) == 5
        np.testing.assert_allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0],
                                   atol=1e-15)
        np.testing.assert_array_equal(traj.state(0).coeffs, u0.coeffs)
        np.testing.assert_array_equal(traj.final().coeffs, traj.coeffs[-1])

    def test_step_shrinks_to_land_on_end(self, box22, make_field):
        u0 = make_field(box22, hermitian=True)
        traj = integrate(u0, 0.1, 1.0, IntegratorConfig(dt=0.3))
        # ceil(1.0 / 0.3) = 4 steps of 0.25 each
        assert traj.dt == pytest.approx(0.25, rel=1e-15)
        assert traj.times[-1] == 1.0


def test_blowup_raises_non_finite(box22, make_field):
    u0 = 1e3 * make_field(box22, hermitian=True)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            integrate(u0, 1.0, 2.0, IntegratorConfig(dt=0.1))


def test_calibrate_dt_meets_target(box22, make_field):
    u0 = make_field(box22, hermitian=True)
    eps, t, target = 0.3, 1.0, 1e-8
    dt = calibrate_dt(box22, u0, eps, t, target=target)
    assert dt <= default_dt(box22)
    coarse = evolve_coeffs(box22, u0.coeffs, eps, [t], dt)[0]
    fine = evolve_coeffs(box22, u0.coeffs, eps, [t], dt / 2.0)[0]
    assert float(np.linalg.norm(fine - coarse)) < target


class TestNormalFormResidual:
    def test_too_few_samples(self, box22, make_field):
        u0 = make_field(box22, hermitian=True)
        traj = integrate(u0, 0.1, 0.2, IntegratorConfig(dt=0.1,
                                                        record_stride=2))
        assert len(traj) < 3
        with pytest.raises(TooFewSamplesError):
            normal_form_residual(traj)

    def test_nonuniform_grid_rejected(self, box21, make_field):
        u0 = make_field(box21, hermitian=True)
        coeffs = np.stack([u0.coeffs] * 3)
        traj = Trajectory(box=box21, times=np.array([0.0, 0.1, 0.35]),
                          coeffs=coeffs, eps=0.1, dt=0.1, u0=u0)
        with pytest.raises(TooFewSamplesError):
            normal_form_residual(traj)

    def test_free_flow_residual_is_roundoff(self, box22, make_field):
        u0 = make_field(box22, hermitian=True)
        traj = integrate(u0, 0.0, 0.4, IntegratorConfig(dt=0.01,
                                                        record_stride=10))
        assert normal_form_residual(traj, s=1.0) < 1e-10


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
