"""Time integration of the truncated flow.

The equation of motion for the Fourier coefficients is

    du_n/dt = i omega_n u_n - (i n1 eps / 2) sum_{k+l=n} u_k u_l,

integrated in the interaction picture: the gauged unknown
w_n = e^{-i omega_n t} u_n removes the stiff linear rotation and the
remaining nonautonomous system is stepped with classical RK4.  The
quadratic term conserves sum |u_n|^2 exactly at the level of the ODE, so
any drift in that quantity is integrator error.

evolve_coeffs is the one front end of the RK4 stepper; it returns the
states at the requested times and leaves the finiteness check to its
callers.
"""

from __future__ import annotations

import numpy as np

from .lattice import LatticeBox, SpectralField
from .operators import convolve

__all__ = [
    "default_dt",
    "evolve_coeffs",
    "calibrate_dt",
    "NonFiniteError",
]


class NonFiniteError(RuntimeError):
    """An evolved state contained NaN or infinity."""


def default_dt(box: LatticeBox) -> float:
    """Conservative step 0.5 / (1 + max |omega|) for the box."""
    return 0.5 / (1.0 + float(np.max(np.abs(box.dispersion().values))))


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
    decreasing away from t0).  A diverging state comes back as inf or
    NaN without numpy warnings; callers check finiteness themselves.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    spans = np.diff(times, prepend=t0)
    steps = np.where(spans == 0.0, 0, np.maximum(
        1, np.ceil(np.abs(spans) / dt - 1e-12))).astype(np.int64)
    segments = zip(steps, spans / np.maximum(steps, 1), times)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array(list(_rk4_segments(box, U0, eps, t0, segments)))


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
