"""Integrator tests: exactness limits, invariants, step grid, and errors."""

import warnings

import numpy as np
import pytest

from kpwaves import LatticeBox
from kpwaves.lattice import apply_free_flow
from kpwaves.operators import dx_product
from kpwaves.dynamics import (_BLOCK_ROWS, _GRID_BLOCKS, _PHASE_CHUNK,
                              _default_dt, _dense_embedding, _evolve_bytes,
                              _fft_embedding, CalibrationError, calibrate_dt,
                              evolve_coeffs)
from kpwaves.sampling import RandomLaw, SpectrumProfile, sample_g_batch

from conftest import traced_peak


def test_default_dt_formula(box22):
    max_om = float(np.max(np.abs(box22.omega)))
    assert max_om == 8.0
    assert _default_dt(box22) == pytest.approx(0.5 / 9.0, rel=1e-15)


@pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
def test_rejects_nonpositive_dt(box22, make_field, dt):
    u0 = make_field(box22, hermitian=True)
    with pytest.raises(ValueError, match="dt must be positive"):
        evolve_coeffs(box22, u0, 0.1, [1.0], dt)


@pytest.mark.parametrize("times, t0, match", [
    ([1e17], 0.0, "needs 1e\\+19 steps of dt = 0.01, more than int64"),
    ([1e300], 0.0, "needs 1e\\+302 steps"),
    ([1.7e308], -1.7e308, "needs inf steps"),
    ([1.0, float("nan")], 0.0, "times must be finite"),
    ([float("inf")], 0.0, "times must be finite"),
    ([1.0], float("-inf"), "times must be finite"),
], ids=["1e17", "1e300", "overflow", "nan", "inf", "t0-inf"])
def test_rejects_times_it_cannot_step(times, t0, match, make_field):
    # A step count past int64 would cast to INT_MIN and take no step at
    # all, returning the free rotation as the state at 1e17.
    box = LatticeBox(2, 1)
    u0 = make_field(box, hermitian=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            evolve_coeffs(box, u0, 0.1, times, 1e-2, t0)


def test_zero_coupling_reduces_to_free_flow(box22, make_field):
    u0 = make_field(box22, hermitian=True)
    t = 1.3
    final = evolve_coeffs(box22, u0, 0.0, [t], 0.05)[0]
    expected = apply_free_flow(box22, u0, t)
    np.testing.assert_allclose(final, expected, rtol=0,
                               atol=1e-13 * np.abs(expected).max())


def test_l2_mass_conserved(box33, make_field):
    # sum |u_n|^2 is invariant under the truncated flow.
    u0 = make_field(box33, hermitian=True)
    states = evolve_coeffs(box33, u0, 0.2, 0.25 * np.arange(1, 9), 1e-3)
    m0 = np.sum(np.abs(u0) ** 2)
    drifts = np.abs(np.sum(np.abs(states) ** 2, axis=-1) - m0) / m0
    assert drifts.max() < 1e-10


def test_restart_matches_single_run(box22, make_field):
    u0 = make_field(box22, hermitian=True)
    eps, dt = 0.2, 0.01
    one = evolve_coeffs(box22, u0, eps, [0.5, 1.0], dt)
    half = evolve_coeffs(box22, u0, eps, [0.5], dt)[0]
    full = evolve_coeffs(box22, half, eps, [1.0], dt, t0=0.5)[0]
    np.testing.assert_allclose(one[1], full, rtol=0,
                               atol=1e-13 * np.abs(full).max())


def test_time_reversal(box22, make_field):
    u0 = make_field(box22, hermitian=True)
    eps, dt = 0.3, 1e-3
    fwd = evolve_coeffs(box22, u0, eps, [1.0], dt)[0]
    back = evolve_coeffs(box22, fwd, eps, [0.0], dt, t0=1.0)[0]
    np.testing.assert_allclose(back, u0, rtol=0,
                               atol=1e-12 * np.abs(u0).max())


# 2x1, 2x2 and 3x3 square the grid by blocked matrix products, 4x4 by FFT.
_GATE_SHAPES = pytest.mark.parametrize(
    "shape", [(2, 1), (2, 2), (3, 3), (4, 4)],
    ids=["2x1", "2x2", "3x3", "4x4"])


@_GATE_SHAPES
def test_batched_evolution_matches_loop(shape, make_field):
    box = LatticeBox(*shape)
    fields = [make_field(box, hermitian=True) for _ in range(20)]
    batch = np.stack(fields)
    eps, dt = 0.15, 0.01
    joint = evolve_coeffs(box, batch, eps, [0.7], dt)[0]
    for i, U0 in enumerate(fields):
        single = evolve_coeffs(box, U0, eps, [0.7], dt)[0]
        np.testing.assert_array_equal(joint[i], single)


@_GATE_SHAPES
def test_split_batch_is_bitwise_identical(shape, make_field):
    # Cuts at 7 and 13 move every sample to another row of its block.
    box = LatticeBox(*shape)
    batch = np.stack([make_field(box, hermitian=True) for _ in range(20)])
    joint = evolve_coeffs(box, batch, 0.15, [0.4, 0.7], 0.01)
    split = [evolve_coeffs(box, part, 0.15, [0.4, 0.7], 0.01)
             for part in (batch[:7], batch[7:13], batch[13:])]
    np.testing.assert_array_equal(joint, np.concatenate(split, axis=1))
    # In 70 samples, cuts at 31 and 33 put samples on both sides of the
    # 32-row blocks of the dense squarer; a lone sample fills one block.
    batch = np.concatenate([batch, np.stack(
        [make_field(box, hermitian=True) for _ in range(50)])])
    joint = evolve_coeffs(box, batch, 0.15, [0.4, 0.7], 0.01)
    split = [evolve_coeffs(box, part, 0.15, [0.4, 0.7], 0.01)
             for part in np.split(batch, [31, 33])]
    np.testing.assert_array_equal(joint, np.concatenate(split, axis=1))
    for i in (0, 32, 69):
        lone = evolve_coeffs(box, batch[i], 0.15, [0.4, 0.7], 0.01)
        np.testing.assert_array_equal(lone, joint[:, i])
    # The dense squarer takes the grid of at most _GRID_BLOCKS blocks at a
    # time; a batch past them matches its parts on either side of the cut.
    cut = _GRID_BLOCKS * _BLOCK_ROWS
    batch = np.stack([make_field(box, hermitian=True)
                      for _ in range(cut + 40)])
    joint = evolve_coeffs(box, batch, 0.15, [0.05], 0.01)
    split = [evolve_coeffs(box, part, 0.15, [0.05], 0.01)
             for part in np.split(batch, [cut])]
    np.testing.assert_array_equal(joint, np.concatenate(split, axis=1))


@pytest.mark.parametrize("shape", [(2, 1), (2, 2), (3, 3)],
                         ids=["2x1", "2x2", "3x3"])
def test_folded_pairs_are_the_dft(shape):
    # Mode h at grid position p enters the grid x as 2 Re(u_h e^{i theta})
    # and leaves the spectrum as the sum of grid e^{-i theta} / L,
    # theta = 2 pi p x / L: rows 2h and 2h + 1 of E are 2 cos and -2 sin,
    # of F^T cos / L and -sin / L.  A phase c + i s folds in as c times
    # those rows plus s times the rows of a factor i, which sends
    # (Re, Im) to (-Im, Re) in the state and in the spectrum.
    box = LatticeBox(*shape)
    length, pos = _fft_embedding(box)
    half = box.size // 2
    theta = (2.0 * np.pi / length) * (
        np.outer(pos[half:], np.arange(length)) % length)
    cos, sin = np.cos(theta), np.sin(theta)
    e = np.stack([2.0 * cos, -2.0 * sin], axis=1)
    ft = np.stack([cos / length, -sin / length], axis=1)
    want_e = np.stack([e, np.stack([e[:, 1], -e[:, 0]], axis=1)], axis=1)
    want_f = np.stack([ft, np.stack([-ft[:, 1], ft[:, 0]], axis=1)], axis=1)
    pairs = _dense_embedding(box)
    assert pairs[0] is _dense_embedding(box)[0]
    for got, want in zip(pairs, (want_e, want_f)):
        assert got.shape == (half, 2, 2 * length)
        np.testing.assert_array_equal(
            got.view(np.int64), want.reshape(got.shape).view(np.int64))
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0, 0] = 0.0


def test_step_shrinks_to_land_on_end(box22, make_field):
    # ceil(1.0 / 0.3) = 4 steps of 0.25 each
    u0 = make_field(box22, hermitian=True)
    shrunk = evolve_coeffs(box22, u0, 0.1, [1.0], 0.3)
    exact = evolve_coeffs(box22, u0, 0.1, [1.0], 0.25)
    np.testing.assert_array_equal(shrunk, exact)


def test_blowup_is_non_finite_without_warnings(box22, make_field):
    # A diverging state comes back as inf/NaN; numpy stays silent, so a
    # caller's one-line error is all a diverging run prints.
    u0 = 1e3 * make_field(box22, hermitian=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        final = evolve_coeffs(box22, u0, 1.0, [2.0], 0.1)[0]
    assert not np.isfinite(final).all()


def test_calibrate_dt_meets_target(box22, make_field):
    u0 = make_field(box22, hermitian=True)
    eps, t, target = 0.3, 1.0, 1e-8
    dt = calibrate_dt(box22, u0, eps, t, target=target)
    assert dt <= _default_dt(box22)
    coarse = evolve_coeffs(box22, u0, eps, [t], dt)[0]
    fine = evolve_coeffs(box22, u0, eps, [t], dt / 2.0)[0]
    assert float(np.linalg.norm(fine - coarse)) < target


def test_calibration_out_of_halvings_raises(box22, make_field):
    # Three halvings from _default_dt end at _default_dt / 8 (about 30
    # steps to t = 1), still far above the target; the error names the
    # target, the last step-halving error and that step.
    u0 = make_field(box22, hermitian=True)
    eps, t = 0.3, 1.0
    last = _default_dt(box22) / 8.0
    err = float(np.linalg.norm(
        evolve_coeffs(box22, u0, eps, [t], last)[0]
        - evolve_coeffs(box22, u0, eps, [t], 2.0 * last)[0]))
    with pytest.raises(CalibrationError) as info:
        calibrate_dt(box22, u0, eps, t, target=1e-30, max_halvings=3)
    assert str(info.value) == (
        f"step calibration missed its target 1.0e-30 within 3 halvings: "
        f"step-halving error {err:.3e} at dt = {last:.6g}")


def _complex_rk4(box, U0, eps, t, n_steps, t0=0.0):
    """Classical RK4 of the gauged flow from t0 to t on the full complex
    spectrum, through the pair-table sum of dx_product."""
    om = box.omega

    def rhs(W, tau):
        phase = np.exp(1j * om * tau)
        U = phase * W
        return (-0.5 * eps) * np.conj(phase) * dx_product(box, U, U)

    W, h = np.exp(-1j * om * t0) * U0, (t - t0) / n_steps
    for i in range(n_steps):
        s = t0 + i * h
        k1 = rhs(W, s)
        k2 = rhs(W + 0.5 * h * k1, s + 0.5 * h)
        k3 = rhs(W + 0.5 * h * k2, s + 0.5 * h)
        k4 = rhs(W + h * k3, s + h)
        W = W + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.exp(1j * om * t) * W


@pytest.mark.parametrize("shape", [(2, 1), (2, 2), (3, 3), (4, 4), (6, 6)],
                         ids=["2x1", "2x2", "3x3", "4x4", "6x6"])
def test_half_spectrum_matches_complex_rk4(shape, make_field):
    box = LatticeBox(*shape)
    U0 = np.stack([make_field(box, hermitian=True) for _ in range(3)])
    got = evolve_coeffs(box, U0, 0.3, [0.5], 0.05)[0]
    want = _complex_rk4(box, U0, 0.3, 0.5, 10)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("shape", [(2, 2), (4, 4)], ids=["2x2", "4x4"])
def test_phase_chunks_match_complex_rk4(shape, make_field):
    # Segments of 2 C + 3 and C + 5 steps, C = _PHASE_CHUNK, each cross
    # the boundary of a chunk of stage phases (folded into the dense
    # squarer's matrices at 2x2, multiplied in at 4x4) and end in a short
    # chunk; the clock is reset to the end of the first between the two.
    box = LatticeBox(*shape)
    U0 = np.stack([make_field(box, hermitian=True) for _ in range(3)])
    first, second = 2 * _PHASE_CHUNK + 3, _PHASE_CHUNK + 5
    mid_t, end_t = 0.01 * first, 0.01 * (first + second)
    got = evolve_coeffs(box, U0, 0.3, [mid_t, end_t], 0.01)
    mid = _complex_rk4(box, U0, 0.3, mid_t, first)
    want = np.stack([mid, _complex_rk4(box, mid, 0.3, end_t, second,
                                       t0=mid_t)])
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4)],
                         ids=["2x2", "3x3", "4x4"])
def test_eps_scaling_matches_coupling(shape, make_field):
    # v = eps u solves the flow at eps = 1 when u solves it at eps, and
    # RK4 commutes with the scaling: the remainder scan steps its eps grid
    # as one batch at eps = 1 this way.  2x2 and 3x3 square the grid by
    # matrix products, 4x4 by FFT.
    box = LatticeBox(*shape)
    U0 = np.stack([make_field(box, hermitian=True) for _ in range(3)])
    for e in (0.07, 0.2, 1.5):
        want = evolve_coeffs(box, U0, e, [0.4, 0.7], 0.01)
        got = evolve_coeffs(box, e * U0, 1.0, [0.4, 0.7], 0.01) / e
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_states_are_exactly_real(box33, make_field):
    U0 = np.stack([make_field(box33, hermitian=True) for _ in range(4)])
    states = evolve_coeffs(box33, U0, 0.2, [0.3, 1.0], 0.01)
    np.testing.assert_array_equal(states,
                                  np.conj(states[..., box33.conj_idx]))


@pytest.mark.parametrize("size, dense", [((2, 1), True), ((3, 3), True),
                                         ((4, 4), False), ((6, 6), False)],
                         ids=["2x1-dense", "3x3-dense", "4x4-fft", "6x6-fft"])
def test_evolve_count_bounds_traced_peak(size, dense):
    # _evolve_bytes counts the states, _EVOLVE_ARRAYS box-sized arrays per
    # field and the fixed buffers of the squarer and the stage phases.  A
    # lone sample on the FFT path peaked at 17-22 arrays past its states,
    # mostly fixed buffers; from 256 fields on, the rise per field stays
    # within the arrays counted per field.  The dense squarer's grid holds
    # only the blocks of rows it is given: a lone sample is counted one
    # block, and its count read 1.2-2.0 times its peak, where a grid of
    # _GRID_BLOCKS blocks read 1.9-3.8 (3x3, 2x1).
    box = LatticeBox(*size)
    profile = SpectrumProfile.power_decay(box, 0.3, 1.0)
    U0 = profile.lambdas() * sample_g_batch(box, RandomLaw.steinhaus(), 0,
                                            np.arange(2048))
    evolve_coeffs(box, U0[:1], 0.1, [0.01], 0.01)
    for times in (1, 16):
        grid = 0.01 * np.arange(1, times + 1)
        peaks, needs = [], []
        for rows in (1, 256, 2048):
            peaks.append(traced_peak(evolve_coeffs, box, U0[:rows], 0.1,
                                     grid, 0.01))
            needs.append(_evolve_bytes(box, rows, times))
            assert peaks[-1] <= needs[-1], (rows, times)
        assert peaks[2] - peaks[1] <= needs[2] - needs[1], times
        if dense:
            assert needs[0] <= 2.5 * peaks[0], times


def test_rejects_non_real_fields(box22, make_field):
    real = make_field(box22, hermitian=True)
    batch = np.stack([real, make_field(box22)])
    for U0 in (batch[1], batch):
        with pytest.raises(ValueError, match="not a real field"):
            evolve_coeffs(box22, U0, 0.1, [1.0], 0.1)
    # An asymmetry below the 1e-12 relative tolerance passes.
    nudged = real.copy()
    nudged[0] += 1e-13
    evolve_coeffs(box22, nudged, 0.1, [1.0], 0.1)


def test_empty_batch_keeps_shape(box22):
    U0 = np.zeros((0, box22.size), dtype=complex)
    states = evolve_coeffs(box22, U0, 0.1, [0.5, 1.0], 0.1)
    assert states.shape == (2, 0, box22.size)


class TestNormalFormResidual:
    def test_too_few_samples(self, box22, make_field, normal_form_residual):
        U = np.stack([make_field(box22, hermitian=True)] * 2)
        with pytest.raises(ValueError):
            normal_form_residual(box22, np.array([0.0, 0.1]), U, 0.1)

    def test_nonuniform_grid_rejected(self, box21, make_field,
                                      normal_form_residual):
        U = np.stack([make_field(box21, hermitian=True)] * 3)
        with pytest.raises(ValueError):
            normal_form_residual(box21, np.array([0.0, 0.1, 0.35]), U, 0.1)

    def test_free_flow_residual_is_roundoff(self, box22, make_field,
                                            normal_form_residual):
        u0 = make_field(box22, hermitian=True)
        times = 0.1 * np.arange(5)
        states = evolve_coeffs(box22, u0, 0.0, times[1:], 0.01)
        U = np.concatenate([u0[None], states])
        assert normal_form_residual(box22, times, U, 0.0, s=1.0) < 1e-10


def test_rk4_convergence_order(box22, make_field):
    u0 = make_field(box22, hermitian=True)
    eps, t = 0.3, 1.0
    ref = evolve_coeffs(box22, u0, eps, [t], 1.0 / 1024)[0]
    errs = []
    for dt in (1.0 / 16, 1.0 / 32, 1.0 / 64):
        got = evolve_coeffs(box22, u0, eps, [t], dt)[0]
        errs.append(float(np.linalg.norm(got - ref)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for p in orders:
        assert 3.7 < p < 4.3
