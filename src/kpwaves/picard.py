"""Picard expansion of the truncated flow and the normal form inversion.

For initial data u0 the flow map is expanded as

    u(t) = a(t) + eps b(t) + eps^2 c(t) + eps^3 d(t),

where a is the free evolution and b, c have closed forms as oscillatory
sums over the interaction tables.  The remainder d is defined by exact
subtraction.  The gauged variable v = u + eps s_map(u, u) satisfies a
flow equation whose eps^3 coefficient w admits an algebraic decomposition
in terms of a, b, c, d; lambda_eps is the resulting polynomial map d -> w
and invert_lambda_eps recovers d from w by fixed-point iteration.

The exact identities behind the normal form, which hold to roundoff, are
measured by resonance_margin, identity_residuals and w_residual; both
`kpwaves verify` and the acceptance suite call them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeBox, SpectralField, apply_free_flow, hs_norm
from .operators import (pair_table, triple_table, segment_sum,
                        _s_apply, s_map, dx_product, f_map)

__all__ = [
    "THETA_TOL",
    "phi1",
    "picard_b",
    "picard_c",
    "f_integral",
    "extract_d",
    "extract_w",
    "PicardBundle",
    "lambda_eps",
    "invert_lambda_eps",
    "NonContractionError",
    "MaxIterExceededError",
    "resonance_margin",
    "identity_residuals",
    "w_residual",
]

# Below this phase magnitude phi1 switches to its theta -> 0 limit t;
# the only phases that can vanish are four-wave ones, and they do so
# exactly (integer cancellation), so the crossover is not delicate.
THETA_TOL = 1e-9


class NonContractionError(RuntimeError):
    """Fixed-point residual stopped contracting; eps is too large."""


class MaxIterExceededError(RuntimeError):
    """Fixed-point iteration hit its iteration cap before converging."""


def phi1(theta, t):
    """Oscillatory integral (e^{i theta t} - 1) / (i theta), elementwise.

    Continuous at theta = 0 with value t; inputs within THETA_TOL of zero
    take the limiting value.
    """
    th = np.asarray(theta, dtype=float)
    small = np.abs(th) <= THETA_TOL
    safe = np.where(small, 1.0, th)
    out = (np.exp(1j * safe * t) - 1.0) / (1j * safe)
    return np.where(small, complex(t), out)


def _picard_b_coeffs(box: LatticeBox, U0: np.ndarray, t: float) -> np.ndarray:
    pt = pair_table(box)
    om = box.dispersion().values
    prods = U0[..., pt.k_idx] * U0[..., pt.l_idx] * (1j * phi1(pt.delta, t))
    conv = segment_sum(prods, pt.seg_starts)
    return (-0.5 * box.n1 * np.exp(1j * om * t)) * conv


def _picard_c_coeffs(box: LatticeBox, U0: np.ndarray, t: float) -> np.ndarray:
    tt = triple_table(box)
    om = box.dispersion().values
    kernel = (tt.l1 / (2.0 * tt.inner_delta)) \
        * (phi1(tt.four_wave, t) - phi1(tt.outer_delta, t))
    prods = U0[..., tt.j_idx] * U0[..., tt.q_idx] * U0[..., tt.k_idx] * kernel
    acc = segment_sum(prods, tt.seg_starts)
    return (1j * box.n1 * np.exp(1j * om * t)) * acc


def _f_integral_coeffs(box: LatticeBox, U0: np.ndarray, t: float) -> np.ndarray:
    tt = triple_table(box)
    om = box.dispersion().values
    kernel = (tt.l1 / (2.0 * tt.outer_delta)) * phi1(tt.four_wave, t)
    prods = U0[..., tt.j_idx] * U0[..., tt.q_idx] * U0[..., tt.k_idx] * kernel
    acc = segment_sum(prods, tt.seg_starts)
    return (-1j * box.n1 * np.exp(1j * om * t)) * acc


def picard_b(u0: SpectralField, t: float) -> SpectralField:
    """First Picard correction.

    b_n(t) = -(n1/2) e^{i omega_n t} sum_{k+l=n} i phi1(delta, t) u0_k u0_l,
    the Duhamel integral of the quadratic interaction along the free flow.
    """
    return SpectralField(u0.box, _picard_b_coeffs(u0.box, u0.coeffs, t),
                         copy=False)


def picard_c(u0: SpectralField, t: float) -> SpectralField:
    """Second Picard correction, a nested oscillatory sum over triple splits."""
    return SpectralField(u0.box, _picard_c_coeffs(u0.box, u0.coeffs, t),
                         copy=False)


def f_integral(u0: SpectralField, t: float) -> SpectralField:
    """Duhamel integral of the resonant trilinear term along the free flow.

    Solves the inhomogeneous linear equation df/dt - L f = f_map(a, a, a)
    with f(0) = 0, where a is the free evolution of u0; used to split
    picard_c as c = -2 s_map(a, b) + f.
    """
    return SpectralField(u0.box, _f_integral_coeffs(u0.box, u0.coeffs, t),
                         copy=False)


def extract_d(u_t: SpectralField, bundle: PicardBundle) -> SpectralField:
    """Order-three Picard remainder (u(t) - a - eps b - eps^2 c) / eps^3.

    a, b, c and eps come from the bundle of the initial data at time t.
    """
    eps = bundle.eps
    if eps == 0:
        raise ValueError("remainder extraction requires eps != 0")
    d = (u_t.coeffs - bundle.a.coeffs - eps * bundle.b.coeffs
         - eps ** 2 * bundle.c.coeffs) / eps ** 3
    return SpectralField(u_t.box, d, copy=False)


def extract_w(u_t: SpectralField, u0: SpectralField, t: float, eps: float
              ) -> SpectralField:
    """Order-three coefficient of the gauged variable v = u + eps s_map(u, u).

    w = (v(t) - a - eps U(t) s_map(u0, u0) - eps^2 f) / eps^3 with f the
    Duhamel integral of f_map(a, a, a); the subtraction is exact because
    the lower orders of v have those closed forms.
    """
    if eps == 0:
        raise ValueError("remainder extraction requires eps != 0")
    box = u_t.box
    U = u_t.coeffs
    v = U + eps * _s_apply(box, U, U)
    a = apply_free_flow(u0, t).coeffs
    s00 = apply_free_flow(s_map(u0, u0), t).coeffs
    f = _f_integral_coeffs(box, u0.coeffs, t)
    w = (v - a - eps * s00 - eps ** 2 * f) / eps ** 3
    return SpectralField(box, w, copy=False)


@dataclass(frozen=True)
class PicardBundle:
    """Picard data (a, b, c) of one initial condition at one time."""

    u0: SpectralField
    t: float
    eps: float
    a: SpectralField
    b: SpectralField
    c: SpectralField

    @classmethod
    def build(cls, u0: SpectralField, t: float, eps: float) -> "PicardBundle":
        return cls(u0=u0, t=t, eps=eps,
                   a=apply_free_flow(u0, t),
                   b=picard_b(u0, t),
                   c=picard_c(u0, t))


def lambda_eps(d: SpectralField, bundle: PicardBundle) -> SpectralField:
    """Polynomial map sending the remainder d to the gauged coefficient w.

    lambda_eps(d) = d + 2 eps (s_map(a, d) + eps s_map(b, d)
                    + eps^2 s_map(c, d)) + eps^4 s_map(d, d).
    """
    box = d.box
    eps = bundle.eps
    D = d.coeffs
    out = D + 2.0 * eps * (
        _s_apply(box, bundle.a.coeffs, D)
        + eps * _s_apply(box, bundle.b.coeffs, D)
        + eps ** 2 * _s_apply(box, bundle.c.coeffs, D)
    ) + eps ** 4 * _s_apply(box, D, D)
    return SpectralField(box, out, copy=False)


def invert_lambda_eps(g: SpectralField, bundle: PicardBundle,
                      tol: float = 1e-12, max_iter: int = 200,
                      s: float = 0.0) -> SpectralField:
    """Solve lambda_eps(d) = g by fixed-point iteration, starting from d = g.

    Each step replaces d by g minus the perturbative part of lambda_eps;
    for small eps the map is a contraction and the residual decays
    geometrically.  Raises NonContractionError if the residual fails to
    shrink by a factor of 0.9 across five consecutive iterations and
    MaxIterExceededError if the tolerance is not met within max_iter.

    The residual is measured as hs_norm(lambda_eps(d) - g, s).
    """
    d = g.copy()
    history: list[float] = []
    for _ in range(max_iter):
        image = lambda_eps(d, bundle)
        res = hs_norm(image - g, s)
        if res <= tol:
            return d
        history.append(res)
        if len(history) > 5 and history[-1] > 0.9 * history[-6]:
            raise NonContractionError(
                f"residual {res:.3e} is not contracting; "
                f"eps={bundle.eps} is likely outside the contraction regime")
        d = g - (image - d)
    raise MaxIterExceededError(
        f"no convergence to {tol:.1e} within {max_iter} iterations "
        f"(last residual {history[-1]:.3e})")


# ---------------------------------------------------------------------------
# exact identities

def resonance_margin(box: LatticeBox) -> float:
    """Smallest |Delta| - 3 |n1 k1 l1| over the splits k + l = n of the box.

    The three-wave bound says it is >= 0; inf when the box has no splits.
    """
    pt = pair_table(box)
    if not len(pt):
        return np.inf
    rhs = 3.0 * np.abs(box.n1[pt.out_idx] * box.n1[pt.k_idx]
                       * box.n1[pt.l_idx])
    return float(np.min(np.abs(pt.delta) - rhs))


def _rel(resid: SpectralField, *refs: SpectralField) -> float:
    """Max |resid| relative to the largest coefficient of refs (at least 1)."""
    scale = max([1.0] + [float(np.abs(f.coeffs).max()) for f in refs])
    return float(np.abs(resid.coeffs).max()) / scale


def identity_residuals(u: SpectralField, v: SpectralField, t: float,
                       eps: float) -> dict:
    """Relative residuals, by name, of the field-pair identities:

    commutator         L s(u, v) - s(Lu, v) - s(u, Lv) = -dx(uv)/2
    cubic-composition  f(u, v, u) = -s(u, dx(uv))
    b-decomposition    b = U(t) s(u, u) - s(a, a)
    c-decomposition    c = f_integral - 2 s(a, b)
    lambda-roundtrip   invert_lambda_eps(lambda_eps(v / 10)) = v / 10

    L is the linear part, s = s_map, f = f_map, dx = dx_product, and
    (a, b, c) is the Picard bundle of u at (t, eps).
    """
    box = u.box
    om = box.dispersion().values

    def lin(x):
        return SpectralField(box, 1j * om * x.coeffs, copy=False)

    bundle = PicardBundle.build(u, t, eps)
    a, b, c = bundle.a, bundle.b, bundle.c
    out = {}
    r = (lin(s_map(u, v)) - s_map(lin(u), v) - s_map(u, lin(v))
         + 0.5 * dx_product(u, v))
    out["commutator"] = _rel(r, u, v)
    r = f_map(u, v, u) + s_map(u, dx_product(u, v))
    out["cubic-composition"] = _rel(r, u, v)
    r = b + s_map(a, a) - apply_free_flow(s_map(u, u), t)
    out["b-decomposition"] = _rel(r, u, b)
    r = c + 2.0 * s_map(a, b) - f_integral(u, t)
    out["c-decomposition"] = _rel(r, u, c)
    d_true = v * 0.1
    rec = invert_lambda_eps(lambda_eps(d_true, bundle), bundle, tol=1e-13)
    out["lambda-roundtrip"] = _rel(rec - d_true, d_true)
    return out


def w_residual(u_t: SpectralField, u0: SpectralField, t: float,
               eps: float) -> float:
    """Relative residual of the cubic remainder decomposition at u_t.

    extract_w must equal s(b, b) + 2 s(a, c) + 2 eps s(b, c)
    + eps^2 s(c, c) + lambda_eps(extract_d), for any state u_t.
    """
    bundle = PicardBundle.build(u0, t, eps)
    a, b, c = bundle.a, bundle.b, bundle.c
    w = extract_w(u_t, u0, t, eps)
    d = extract_d(u_t, bundle)
    recon = (s_map(b, b) + 2.0 * s_map(a, c) + 2.0 * eps * s_map(b, c)
             + eps * eps * s_map(c, c) + lambda_eps(d, bundle))
    return _rel(w - recon, w)
