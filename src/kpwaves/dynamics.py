"""Time integration of the truncated flow and the normal form residual.

The equation of motion for the Fourier coefficients is

    du_n/dt = i omega_n u_n - (i n1 eps / 2) sum_{k+l=n} u_k u_l,

integrated in the interaction picture: the gauged unknown
w_n = e^{-i omega_n t} u_n removes the stiff linear rotation and the
remaining nonautonomous system is stepped with classical RK4.  The
quadratic term conserves sum |u_n|^2 exactly at the level of the ODE, so
any drift in that quantity is integrator error.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeBox, SpectralField, hs_norm
from .operators import convolve, _s_apply, _f_map_coeffs

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "default_dt",
    "integrate",
    "evolve_coeffs",
    "calibrate_dt",
    "l2_mass",
    "normal_form_residual",
    "NonFiniteError",
    "TooFewSamplesError",
]


class NonFiniteError(RuntimeError):
    """A recorded state contained NaN or infinity."""


class TooFewSamplesError(ValueError):
    """The trajectory has too few samples for the requested stencil."""


def default_dt(box: LatticeBox) -> float:
    """Conservative step 0.5 / (1 + max |omega|) for the box."""
    return 0.5 / (1.0 + float(np.max(np.abs(box.dispersion().values))))


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size and recording cadence of the RK4 integrator."""

    dt: float
    record_stride: int = 1

    def __post_init__(self):
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


@dataclass
class Trajectory:
    """Recorded states of one integration run.

    times are absolute; coeffs has one row per recorded time in the box's
    canonical mode ordering.  dt is the actual step used, which may be
    slightly smaller than requested so that an integer number of steps
    lands on the end time.
    """

    box: LatticeBox
    times: np.ndarray
    coeffs: np.ndarray
    eps: float
    dt: float
    u0: SpectralField = field(repr=False)

    def __len__(self):
        return len(self.times)

    def state(self, i: int) -> SpectralField:
        return SpectralField(self.box, self.coeffs[i], copy=True)

    def final(self) -> SpectralField:
        return self.state(len(self) - 1)

    def to_csv(self, path, header_lines=()) -> None:
        """Write rows (t, n1, n2, re, im) with 17 significant digits."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            writer = csv.writer(fh)
            writer.writerow(["t", "n1", "n2", "re", "im"])
            for i, t in enumerate(self.times):
                row = self.coeffs[i]
                for n1, n2, z in zip(self.box.n1, self.box.n2, row):
                    writer.writerow([f"{t:.17g}", int(n1), int(n2),
                                     f"{z.real:.17g}", f"{z.imag:.17g}"])


def _rk4_segments(box: LatticeBox, U0: np.ndarray, eps: float, t0: float,
                  segments):
    """Step U0 from t0 through (n_steps, h, t_end) segments by classical RK4.

    Yields the state at each t_end, where the clock is reset to t_end.
    """
    om = box.dispersion().values

    def rhs(W, phase):
        # dW/dt for the gauged variable; phase = e^{i omega tau}
        U = phase * W
        return (-0.5j * eps) * box.n1 * np.conj(phase) * convolve(box, U, U)

    W = U0 * np.exp(-1j * om * t0)
    t = t0
    for n_steps, h, t_end in segments:
        for _ in range(n_steps):
            ph1 = np.exp(1j * om * t)
            ph2 = np.exp(1j * om * (t + 0.5 * h))
            ph3 = np.exp(1j * om * (t + h))
            k1 = rhs(W, ph1)
            k2 = rhs(W + 0.5 * h * k1, ph2)
            k3 = rhs(W + 0.5 * h * k2, ph2)
            k4 = rhs(W + h * k3, ph3)
            W = W + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        t = t_end
        yield np.exp(1j * om * t) * W


def evolve_coeffs(box: LatticeBox, U0: np.ndarray, eps: float,
                  times, dt: float, t0: float = 0.0) -> np.ndarray:
    """Integrate raw coefficient arrays from t0 through the given times.

    U0 may carry leading batch axes.  Returns an array with one leading
    time axis; each requested time is hit exactly by shrinking the step
    within each segment.  Times must be monotone (increasing or
    decreasing away from t0).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    spans = np.diff(times, prepend=t0)
    steps = np.where(spans == 0.0, 0, np.maximum(
        1, np.ceil(np.abs(spans) / dt - 1e-12))).astype(np.int64)
    segments = zip(steps, spans / np.maximum(steps, 1), times)
    return np.array(list(_rk4_segments(box, U0, eps, t0, segments)))


def integrate(u0: SpectralField, eps: float, t_end: float,
              cfg: IntegratorConfig, t_start: float = 0.0) -> Trajectory:
    """Run the gauged RK4 integrator and record a Trajectory.

    States are recorded every record_stride steps plus the final time.
    Negative t_end (relative to t_start) integrates backwards.  Raises
    NonFiniteError as soon as a recorded state goes non-finite.
    """
    span = t_end - t_start
    n_steps = max(1, int(np.ceil(abs(span) / cfg.dt - 1e-12))) if span else 0
    h = span / n_steps if n_steps else cfg.dt
    record_at = list(range(0, n_steps, cfg.record_stride)) + [n_steps]
    ends = np.asarray(record_at[1:], dtype=float) * h + t_start
    segments = ((n, h, end) for n, end in zip(np.diff(record_at), ends))
    coeffs = [u0.coeffs]
    states = _rk4_segments(u0.box, u0.coeffs, eps, t_start, segments)
    for t, state in zip(ends, states):
        if not np.all(np.isfinite(state.view(float))):
            raise NonFiniteError(f"state became non-finite at t = {t}")
        coeffs.append(state)
    times = np.append(t_start, ends)
    times[-1] = t_end
    return Trajectory(box=u0.box, times=times, coeffs=np.array(coeffs),
                      eps=eps, dt=abs(h), u0=u0.copy())


def calibrate_dt(box: LatticeBox, u0: SpectralField, eps: float, t: float,
                 target: float = 1e-8, dt0: float | None = None,
                 max_halvings: int = 12) -> float:
    """Halve the step until the step-halving error at time t drops below target.

    The error proxy is the l2 distance between the final states computed
    with dt and dt/2.
    """
    dt = default_dt(box) if dt0 is None else dt0
    coarse = evolve_coeffs(box, u0.coeffs, eps, [t], dt)[0]
    for _ in range(max_halvings):
        fine = evolve_coeffs(box, u0.coeffs, eps, [t], dt / 2.0)[0]
        err = float(np.linalg.norm(fine - coarse))
        if err < target:
            return dt
        dt /= 2.0
        coarse = fine
    return dt


def l2_mass(u: SpectralField) -> float:
    """Quadratic invariant sum |u_n|^2 of the truncated flow."""
    return float(np.sum(np.abs(u.coeffs) ** 2))


def normal_form_residual(traj: Trajectory, s: float = 1.0) -> float:
    """Residual of the gauged flow equation along a recorded trajectory.

    For v = u + eps s_map(u, u) the truncated system gives exactly
    dv/dt - L v = eps^2 f_map(u, u, u).  The left side is approximated by
    a centered difference of the free-flow-rotated v, so the returned
    number is pure discretization error of the sampling grid:

        max_i hs_norm(Dv_i - eps^2 f_map(u_i, u_i, u_i), s),
        Dv_i = (e^{-i omega h} v_{i+1} - e^{+i omega h} v_{i-1}) / (2 h).

    Requires at least three uniformly spaced samples.
    """
    if len(traj) < 3:
        raise TooFewSamplesError(
            "centered differencing needs at least three samples")
    steps = np.diff(traj.times)
    h = float(steps[0])
    if not np.allclose(steps, h, rtol=1e-8, atol=1e-12):
        raise TooFewSamplesError("sample times are not uniformly spaced")
    box = traj.box
    om = box.dispersion().values
    eps = traj.eps
    U = traj.coeffs
    V = U + eps * _s_apply(box, U, U)
    fwd = np.exp(-1j * om * h)
    diff = (fwd * V[2:] - np.conj(fwd) * V[:-2]) / (2.0 * h)
    target = eps ** 2 * _f_map_coeffs(box, U[1:-1], U[1:-1], U[1:-1])
    worst = 0.0
    for i in range(diff.shape[0]):
        res = SpectralField(box, diff[i] - target[i], copy=False)
        worst = max(worst, hs_norm(res, s))
    return worst
