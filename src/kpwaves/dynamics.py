"""Time integration of the truncated flow.

The equation of motion for the Fourier coefficients is

    du_n/dt = i omega_n u_n - (i n1 eps / 2) sum_{k+l=n} u_k u_l,

integrated in the interaction picture: the gauged unknown
w_n = e^{-i omega_n t} u_n removes the stiff linear rotation and the
remaining nonautonomous system is stepped with classical RK4.  The
quadratic term conserves sum |u_n|^2 exactly at the level of the ODE, so
any drift in that quantity is integrator error.

Only real fields, u_{-n} = conj(u_n), are evolved.  The stepper keeps the
H = N1 (2 N2 + 1) modes with n1 > 0; the n1 < 0 half of each returned
state is the exact conjugate mirror.  A right-hand side at stage time tau
is Q * square(P * w), with the gauge phases P = e^{i omega tau} and
Q = coef conj(P) folding in the coupling coef = -i eps n1 / 2: it squares
the real grid that the modes of P w span and reads the n1 > 0 modes of
the square's spectrum back (_squarer), the one split sum k + l = n not
taken over the pair table.  The grid is 1-D, zero-padded to a length L
at which it is alias-free on the box (_fft_embedding).

While H L <= _DENSE_MAX = 4096 (2x1, 2x2 and 3x3) the two transforms
are real matrix products with the grid's DFT on the H modes
(_dense_embedding): grid = X E, square, spec = grid F; larger boxes
keep an irfft/rfft pair on the grid's half-spectrum (_positive_rows).
The BLAS rounds a sample differently with the number of samples in its
call, so the samples go in zero-padded blocks of _BLOCK_ROWS = 32
through products of one fixed shape, with the grid of at most
_GRID_BLOCKS = 16 blocks held at a time to cap its memory, and a
sample's bits do not depend on its batch.
The two paths agree to roundoff, not bitwise.  One square on one core
(medians of 40 rounds of 50 calls) cost 39 us against 111 us for the
FFT pair at 2x2 (250 samples) and 467 against 839 us at 3x3 (1000
samples); blocks of 8 rows cost 48 and 523 us.  A lone sample pays for
the padding: 22 us at 3x3 against 12 us in blocks of 8 and 19 us by
FFT, and 237 us against 28 by FFT at 6x6.

The dense path folds the phases into its matrices, P into the rows of E
and Q into the columns of F, so that a right-hand side is two products
and a square of the state itself; a block keeps its samples in columns,
and the products run as E^T X^T and F^T grid^T, which the BLAS ran
10-15% faster than X E and grid F at 1 and 32 blocks of 2x2 and 3x3.
The FFT path multiplies the phases in.  A right-hand side took 135 us
at 2x2 and 450 us at 3x3 (1000 samples), against 226 and 700 us with
the phases multiplied into the state and the square, and 22 against
32 us for a lone sample at 3x3.  The stepper takes P and Q of the stage
times t0 + j h / 2 of up to _PHASE_CHUNK = 2 steps with one np.exp, t0
the start of the segment, from the clock: a phase carried from step to
step by e^{i omega h} would gather roundoff.  Folding the 5 stage times
of a chunk of 2 steps took 12 and 26 us for 1000 samples, against 20
and 62 us for the 17 of a chunk of 8 (medians of 40 rounds of 50
calls).

The four stages run in place in three registers: the state, the sum of
the slopes, and a stage's state, which its slope overwrites.  Stepping
1000 samples of the 3x3 box through 56 steps took 125 ms of process CPU
on one core, against 196 ms with the phases multiplied into every
stage's state and square; 1000 samples of the 2x2 box through 72 steps,
the remainder scan's four eps at once, took 50 against 90 ms, and 250
samples 16 against 24 ms (medians of 21 alternating runs on a shared
2-core machine).  Calibrating the step on a lone sample at 3x3, where
the fold costs about what it saves, took 117 against 114 ms.  The
registers and the squarer's buffers are dropped before the last
requested state is read into the output, whose pages that read writes
first.

evolve_coeffs is the one front end of the RK4 stepper; it returns the
states at the requested times, and its callers find the samples that
diverged with one per-sample mask, _diverged; _evolve_bytes counts what
a call holds, for the pre-flight checks of its callers.  _step is the
one step rule of the commands that evolve seeded samples: a configured
dt, or the step calibrate_dt picks for sample 0.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .lattice import LatticeBox, _symmetry_defect
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

# The dense path of _squarer: samples per block of the matrix products
# (the last block padded with zero samples), the largest H L it runs at,
# and the most blocks whose grid it holds at once; see the module
# docstring.
_BLOCK_ROWS = 32
_DENSE_MAX = 4096
_GRID_BLOCKS = 16


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


def _smooth_length(n: int) -> int:
    """Smallest 5-smooth integer >= n, a fast FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@lru_cache(maxsize=None)
def _fft_embedding(box: LatticeBox) -> tuple[int, np.ndarray]:
    """Grid length L and the grid position of every mode of the box.

    Mode n sits at (n1 S + n2) mod L on a periodic 1-D grid, S = 3 N2 + 1,
    L the smallest 5-smooth length >= 3 N1 S + 3 N2 + 1, so the grid's
    cyclic convolution is alias-free on the box: |k2 + l2| <= 2 N2 keeps
    rows apart, and the linear index of k + l differs from that of any box
    mode by at most 3 N1 S + 3 N2 < L, so it wraps onto n only if
    k + l = n.  The n1 > 0 modes sit at 1..N1 S + N2, inside the
    half-spectrum 0..L/2 of a real grid.
    """
    stride = 3 * box.n2_max + 1
    length = _smooth_length(3 * box.n1_max * stride + 3 * box.n2_max + 1)
    return length, (box.n1 * stride + box.n2) % length


@lru_cache(maxsize=None)
def _dense_embedding(box: LatticeBox) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode row pairs of the grid's real DFT on the H modes of the box
    with n1 > 0, the operands into which _squarer folds the stage phases.

    E is (2 H, L) and F is (L, 2 H), real and imaginary parts interleaved
    as in a complex array viewed as float.  For the n1 > 0 half u of a real
    field, u.view(float) @ E is the real grid of its half-spectrum (the
    irfft of _positive_rows's buffer), and (grid @ F).view(complex) the
    rfft of a real grid at those modes, both with norm="forward".  Returns
    (pairs_e, pairs_f), each (H, 2, 2 L): for mode h, rows 2h and 2h + 1
    of E (which take Re u_h and Im u_h) and of F^T (which give the
    spectrum's Re and Im at h) end to end, then the same rows for a factor
    i, so that c + i s folds in as c times the first pair plus s times the
    second.  Every caller gets the cached pairs, read-only.
    """
    length, pos = _fft_embedding(box)
    # p x is reduced mod L in integers, so every angle lies in [0, 2 pi).
    phase = np.outer(pos[box.size // 2:], np.arange(length)) % length
    theta = (2.0 * np.pi / length) * phase
    cos, sin = np.cos(theta), np.sin(theta)
    shape = (len(theta), 2, 2 * length)
    pairs_e = np.stack([2.0 * cos, -2.0 * sin, -2.0 * sin, -2.0 * cos],
                       axis=1).reshape(shape)
    pairs_f = (np.stack([cos, -sin, sin, cos], axis=1) / length).reshape(shape)
    pairs_e.flags.writeable = pairs_f.flags.writeable = False
    return pairs_e, pairs_f


def _positive_rows(box: LatticeBox, half_spectrum: np.ndarray) -> np.ndarray:
    """View of the n1 > 0 modes in the last axis of a half-spectrum of the
    grid (length L // 2 + 1), shaped (..., N1, 2 N2 + 1) in box order."""
    stride = 3 * box.n2_max + 1
    lo = stride - box.n2_max
    rows = half_spectrum[..., lo:lo + box.n1_max * stride]
    rows = rows.reshape(rows.shape[:-1] + (box.n1_max, stride))
    return rows[..., :2 * box.n2_max + 1]


def _squarer(box: LatticeBox, modes: np.ndarray):
    """State and quadratic kernel of the gauged flow for a batch of states.

    modes holds the n1 > 0 modes of a batch of real fields, shaped
    batch + (N1, 2 N2 + 1).  Returns (state, read, stages): state holds
    them in the kernel's layout, read(a, out) writes the modes of an
    array of that layout into out, shaped (batch size, H) with its last
    axis contiguous, and zeroed arrays of the same layout serve as the
    stepper's other registers.  stages(P, Q) takes the gauge phases of
    the stage times of up to _PHASE_CHUNK steps, shaped
    (T, N1, 2 N2 + 1), and returns rhs(j, Y, out), which writes Q[j]
    times the spectrum of the square of the grid of P[j] Y into the
    register out; out may be Y.  Padding stays zero under linear
    combinations of registers.  The buffers are allocated per call, so
    calls are independent.
    """
    half = box.size // 2
    batch = modes.shape[:-2]
    length = _fft_embedding(box)[0]
    if half * length <= _DENSE_MAX:
        pairs_e, pairs_f = _dense_embedding(box)
        n = math.prod(batch)
        blocks = -(-n // _BLOCK_ROWS)
        # A block holds the real and imaginary part of mode h of its
        # samples in rows 2h and 2h + 1 (see the module docstring).
        state = np.zeros((blocks, 2 * half, _BLOCK_ROWS))
        given = np.ascontiguousarray(modes).reshape(n, half).view(float)
        for b, lo in enumerate(range(0, n, _BLOCK_ROWS)):
            state[b, :, :n - lo] = given[lo:lo + _BLOCK_ROWS].T
        grid = np.empty((min(_GRID_BLOCKS, blocks), length, _BLOCK_ROWS))
        groups = [(slice(lo, lo + _GRID_BLOCKS), grid[:blocks - lo])
                  for lo in range(0, blocks, _GRID_BLOCKS)]
        stage_e = np.empty((2 * _PHASE_CHUNK + 1, 2 * half, length))
        stage_f = np.empty_like(stage_e)

        def fold(phases, pairs, out):
            # One product per mode of its (c, s) over the stage times.
            T = len(phases)
            np.matmul(phases.view(float).reshape(T, half, 2)
                      .transpose(1, 0, 2), pairs,
                      out=out[:T].reshape(T, half, -1).transpose(1, 0, 2))

        def stages(P, Q):
            fold(P, pairs_e, stage_e)
            fold(Q, pairs_f, stage_f)

            def rhs(j, Y, out):
                # Each block is its own GEMM, and every GEMM has one shape.
                for part, x in groups:
                    np.matmul(stage_e[j].T, Y[part], out=x)
                    np.square(x, out=x)
                    np.matmul(stage_f[j], x, out=out[part])

            return rhs

        def read(a, out):
            dst = out.view(float)
            for b, lo in enumerate(range(0, n, _BLOCK_ROWS)):
                dst[lo:lo + _BLOCK_ROWS] = a[b, :, :n - lo].T

        return state, read, stages
    # Half-spectrum of the real grid (zero off the box), the grid, and the
    # spectrum of its square.
    state = np.ascontiguousarray(modes, dtype=np.complex128)
    buf = np.zeros(batch + (length // 2 + 1,), dtype=np.complex128)
    grid = np.empty(batch + (length,))
    spec = np.empty_like(buf)
    src, dst = _positive_rows(box, buf), _positive_rows(box, spec)

    def stages(P, Q):
        def rhs(j, Y, out):
            np.multiply(P[j], Y, out=src)
            # irfft gives the grid with its index reversed, which the
            # square and the forward rfft undo: spec is the cyclic
            # convolution of buf.
            np.fft.irfft(buf, length, norm="forward", out=grid)
            np.square(grid, out=grid)
            np.fft.rfft(grid, norm="forward", out=spec)
            np.multiply(Q[j], dst, out=out)

        return rhs

    def read(a, out):
        out[...] = a.reshape(-1, half)

    return state, read, stages


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
        box, U0[..., half:].reshape(batch + rows) * np.exp(-1j * om * t0))
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
    states, the stage phases P and Q of two chunks with a transient, a
    read's gauge phase and 64 KiB of others; on the dense path also the
    folded pairs, the stage matrices and a grid of the blocks of rows, at
    most _GRID_BLOCKS, as _squarer allocates them (the FFT path's buffers
    are all per field)."""
    stages, half = 2 * _PHASE_CHUNK + 1, box.size // 2
    length = _fft_embedding(box)[0]
    dense = 0
    if half * length <= _DENSE_MAX:
        blocks = min(_GRID_BLOCKS, -(-rows // _BLOCK_ROWS))
        dense = 8 * ((8 + 4 * stages) * half * length
                     + blocks * _BLOCK_ROWS * length)
    return (16 * box.size * rows * (times + _EVOLVE_ARRAYS) + dense
            + 16 * half * (6 * stages + 2) + (1 << 16))


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
