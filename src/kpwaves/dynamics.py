"""Time integration of the truncated flow.

The equation of motion for the Fourier coefficients is

    du_n/dt = i omega_n u_n - (i n1 eps / 2) sum_{k+l=n} u_k u_l,

integrated in the interaction picture: the gauged unknown
w_n = e^{-i omega_n t} u_n removes the stiff linear rotation and the
remaining nonautonomous system is stepped with classical RK4.  The
quadratic term conserves sum |u_n|^2 exactly at the level of the ODE, so
any drift in that quantity is integrator error.

A right-hand side at stage time tau is Q * square(P * w), with the gauge
phases P = e^{i omega tau} and Q = coef conj(P) folding in the coupling
coef = -i eps n1 / 2.  The stepper takes P and Q of the stage times
t0 + j h / 2 of up to _PHASE_CHUNK = 2 steps with one np.exp, t0 the
start of the segment, from the clock: a phase carried from step to step
by e^{i omega h} would gather roundoff.  The squarer takes them into its
kernel (operators._squarer): folded into its DFT matrices up to 3x3,
multiplied in past that.  The four stages run in place in three
registers: the state, the sum of the slopes, and a stage's state, which
its slope overwrites.  Stepping 1000 samples of the 3x3 box through 56
steps took 125 ms of process CPU on one core, against 196 ms with the
phases multiplied into every stage's state and square; 1000 samples of
the 2x2 box through 72 steps, the remainder scan's four eps at once,
took 50 against 90 ms, and 250 samples 16 against 24 ms (medians of 21
alternating runs on a shared 2-core machine).  Calibrating the step on
a lone sample at 3x3, where the fold costs about what it saves, took
117 against 114 ms.  The registers and the squarer's buffers are
dropped before the last requested state is read into the output, whose
pages that read writes first.

Only real fields, u_{-n} = conj(u_n), are evolved.  The stepper keeps the
n1 > 0 half of the spectrum; each right-hand side squares the real grid
that those modes span (operators._squarer) and reads the n1 > 0 modes of
the square's spectrum back: the one split sum k + l = n not taken over
the pair table.  The n1 < 0 half of each returned state is the exact
conjugate mirror.

evolve_coeffs is the one front end of the RK4 stepper; it returns the
states at the requested times, and its callers find the samples that
diverged with one per-sample mask, _diverged; _evolve_bytes counts what
a call holds, for the pre-flight checks of its callers.  _step is the
one step rule of the commands that evolve seeded samples: a configured
dt, or the step calibrate_dt picks for sample 0.
"""

from __future__ import annotations

import numpy as np

from .lattice import LatticeBox, _symmetry_defect
from .operators import _squarer, _squarer_bytes
from .sampling import RandomLaw, SpectrumProfile, sample_u0

__all__ = [
    "evolve_coeffs",
    "calibrate_dt",
    "NonFiniteError",
    "CalibrationError",
]


# Steps whose stage phases _rk4_segments takes with one np.exp call, and
# whose gauge-folded DFT matrices the dense squarer builds at once: 5
# stage times, 0.34 MB at 3x3, where chunks of 8 steps held 17 and
# 1.14 MB.  Against chunks of 8, the median time ratio of 61 in-process
# rounds in random order on one core read 1.002 for 1000 samples of 2x2,
# 1.004 for 1000 of 3x3 and 1.009 for calibrating the step of a lone 3x3
# sample, each within the noise of its rounds.
_PHASE_CHUNK = 2

# Box-sized complex arrays per field that evolve_coeffs holds past the
# states it returns: the gauged input, the three registers and the
# squarer's per-sample buffers.  The tracemalloc peak of 256 and 2048
# fields over 1 and 16 times read up to 2.6 past the states on the dense
# squarer (2x1, 3x3) and 6.7 on the FFT pair (4x4, 6x6); estimate_moments'
# batches, boxes 1x0 to 6x6, read 3.5-4.3 and 7.0-7.3 with the state.
_EVOLVE_ARRAYS = 7


class NonFiniteError(RuntimeError):
    """An evolved state contained NaN or infinity."""


class CalibrationError(RuntimeError):
    """calibrate_dt ran out of halvings before its error met the target."""


def _diverged(states: np.ndarray) -> np.ndarray:
    """Mask over all but the last axis: True where a state holds NaN or inf."""
    return ~np.isfinite(states.view(float)).all(axis=-1)


def _default_dt(box: LatticeBox) -> float:
    """Conservative step 0.5 / (1 + max |omega|) for the box."""
    return 0.5 / (1.0 + float(np.max(np.abs(box.omega))))


# perfbench/tracer.py reads dynamics.default_dt to count the halvings of a
# traced calibration that starts at the default step.
default_dt = _default_dt


def _rk4_segments(box: LatticeBox, U0: np.ndarray, eps: float, t0: float,
                  segments, out: np.ndarray) -> None:
    """Step a real U0 from t0 through (n_steps, h, t_end) segments by RK4.

    The state holds the n1 > 0 modes only, the second half of the box
    ordering, in the squarer's layout; the n1 < 0 half of a real field is
    their conjugate mirror.  Writes the full state at the i-th t_end,
    where the clock is reset to t_end, into out[i].
    """
    half = box.size // 2
    rows = (box.n1_max, 2 * box.n2_max + 1)
    om = box.omega[half:].reshape(rows)
    coef = (-0.5j * eps) * box.n1[half:].reshape(rows)
    batch = U0.shape[:-1]
    W, read, stages = _squarer(
        box, U0[..., half:].reshape(batch + rows) * np.exp(-1j * om * t0),
        2 * _PHASE_CHUNK + 1)
    # acc sums ((k1 + 2 k2) + 2 k3) + k4; y holds the next stage's state,
    # then that stage's slope.
    acc, y = np.zeros_like(W), np.zeros_like(W)

    t = t0
    last = len(out) - 1
    for i, (U, (n_steps, h, t_end)) in enumerate(zip(out, segments)):
        for first in range(0, n_steps, _PHASE_CHUNK):
            m = min(_PHASE_CHUNK, n_steps - first)
            # Stage times t + j h / 2 of steps first .. first + m - 1.
            tau = t + (0.5 * h) * np.arange(2 * first, 2 * (first + m) + 1)
            P = np.exp(1j * om * tau[:, None, None])
            rhs = stages(P, coef * np.conj(P))
            for j in range(0, 2 * m, 2):
                rhs(j, W, acc)
                np.multiply(acc, 0.5 * h, out=y)
                y += W
                rhs(j + 1, y, y)
                y *= 2.0
                acc += y
                y *= 0.25 * h
                y += W
                rhs(j + 1, y, y)
                y *= 2.0
                acc += y
                y *= 0.5 * h
                y += W
                rhs(j + 2, y, y)
                acc += y
                acc *= h / 6.0
                W += acc
        t = t_end
        if i == last:
            # The pages of the last state are first written by read: the
            # registers and the stage matrices of the squarer go first.
            acc = y = stages = rhs = P = None
        # out is C-ordered, so this reshape is a view of U.
        modes = U[..., half:].reshape(-1, half)
        read(W, modes)
        modes *= np.exp(1j * om * t).ravel()
        # The box order puts -n at the mirror position of n.
        np.conjugate(U[..., :half - 1:-1], out=U[..., :half])


def _evolve_bytes(box: LatticeBox, rows: int, times: int) -> int:
    """Bytes evolve_coeffs holds at most for `rows` fields that return
    `times` states: _EVOLVE_ARRAYS box-sized arrays per field past its
    states, the squarer's matrices and grid, the stage phases P and Q of two
    chunks with a transient, a read's gauge phase and 64 KiB of others."""
    stages, half = 2 * _PHASE_CHUNK + 1, box.size // 2
    return (16 * box.size * rows * (times + _EVOLVE_ARRAYS)
            + _squarer_bytes(box, stages, rows) + 16 * half * (6 * stages + 2)
            + (1 << 16))


def evolve_coeffs(box: LatticeBox, U0: np.ndarray, eps: float,
                  times, dt: float, t0: float = 0.0) -> np.ndarray:
    """Integrate raw coefficient arrays of real fields from t0 through times.

    U0 may carry leading batch axes; each field must be reality-symmetric,
    u(-n) = conj(u(n)), to 1e-12 relative to max(1, max |u_n|)
    (ValueError otherwise), and every returned state is exactly so.
    Returns an array with one leading time axis; each requested time is
    hit exactly by shrinking the step within each segment.  Times must be
    finite and monotone (increasing or decreasing away from t0), and no
    segment may need 2^63 steps or more (ValueError before any step).  A
    diverging state comes back as inf or NaN without numpy warnings;
    callers find it with _diverged.
    """
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    U0 = np.asarray(U0)
    dev, scale = _symmetry_defect(box, U0)
    if np.any(dev > 1e-12 * scale):
        raise ValueError("U0 is not a real field: u(-n) != conj(u(n))")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not (np.isfinite(times).all() and np.isfinite(t0)):
        raise ValueError("times must be finite")
    with np.errstate(over="ignore"):
        spans = np.diff(times, prepend=t0)
        steps = np.where(spans == 0.0, 0, np.maximum(
            1, np.ceil(np.abs(spans) / dt - 1e-12)))
    if not (steps < 2.0 ** 63).all():
        raise ValueError(f"a segment needs {steps.max():.3g} steps of "
                         f"dt = {dt:g}, more than int64 holds")
    steps = steps.astype(np.int64)
    segments = zip(steps, spans / np.maximum(steps, 1), times)
    out = np.empty(times.shape + U0.shape, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        _rk4_segments(box, U0, eps, t0, segments, out)
    return out


def calibrate_dt(box: LatticeBox, u0: np.ndarray, eps: float, t: float,
                 target: float = 1e-8, dt0: float | None = None,
                 max_halvings: int = 12) -> float:
    """Halve the step until the step-halving error at time t drops below target.

    The error proxy is the l2 distance between the final states computed
    with dt and dt/2; the first step dt that meets the target is returned.
    Raises CalibrationError when max_halvings halvings leave the error at
    or above target (or non-finite).
    """
    dt = _default_dt(box) if dt0 is None else dt0
    coarse = evolve_coeffs(box, u0, eps, [t], dt)[0]
    err = np.inf
    for _ in range(max_halvings):
        fine = evolve_coeffs(box, u0, eps, [t], dt / 2.0)[0]
        err = float(np.linalg.norm(fine - coarse))
        if err < target:
            return dt
        dt /= 2.0
        coarse = fine
    raise CalibrationError(
        f"step calibration missed its target {target:.1e} within "
        f"{max_halvings} halvings: step-halving error {err:.3e} at "
        f"dt = {dt:.6g}")


def _step(profile: SpectrumProfile, law: RandomLaw, seed: int, eps: float,
          t: float, dt: float | None, target: float = 1e-8
          ) -> tuple[float, str]:
    """The step of a run and the tail of its divergence messages.

    A configured dt is returned with an empty tail.  dt = None takes the
    step calibrate_dt picks for sample 0 at (eps, t), and the tail names
    it: the calibration runs sample 0 alone, so another sample can
    diverge.
    """
    if dt is not None:
        return dt, ""
    probe = sample_u0(profile, law, seed, 0)
    dt = calibrate_dt(profile.box, probe, eps, t, target=target)
    return dt, (f" with dt = {dt:.6g}, calibrated on sample 0; set dt to "
                "override it")
