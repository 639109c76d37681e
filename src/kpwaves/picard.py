"""Picard expansion of the truncated flow and the normal form inversion.

For initial data u0 the flow map is expanded as

    u(t) = a(t) + eps b(t) + eps^2 c(t) + eps^3 d(t),

where a is the free evolution and b, c have closed forms as oscillatory
sums over the interaction tables.  c and the Duhamel integral f of the
resonant trilinear term are sums over the triple table; one streamed
pass computes both for a batch of initial data, with the factors of a
single split built once per pair-table entry.  A PicardBundle holds
(a, b, c, f) of one initial condition; PicardBundle.build_batch builds
several in that one pass.  The remainder d is defined by exact
subtraction.  The gauged variable v = u + eps s_map(u, u) satisfies a
flow equation whose eps^3 coefficient w admits an algebraic
decomposition in terms of a, b, c, d; lambda_eps is the resulting
polynomial map d -> w and invert_lambda_eps recovers d from w by
fixed-point iteration.

The exact identities behind the normal form, which hold to roundoff, are
measured by resonance_margin, identity_residuals and w_residual, which
take the caller's bundle; both `kpwaves verify` and the acceptance suite
call them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import LatticeBox, SpectralField, apply_free_flow, hs_norm
from .operators import (pair_table, triple_table, segment_sum,
                        _sample_block, _s_apply, s_map, dx_product, f_map)

__all__ = [
    "phi1",
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

class NonContractionError(RuntimeError):
    """Fixed-point residual stopped contracting; eps is too large."""


class MaxIterExceededError(RuntimeError):
    """Fixed-point iteration hit its iteration cap before converging."""


def phi1(theta, t):
    """Oscillatory integral (e^{i theta t} - 1) / (i theta), elementwise.

    Evaluated as t e^{i theta t / 2} sinc(theta t / 2), which has no
    cancellation at small theta t and equals t exactly at theta = 0.
    """
    th = np.asarray(theta, dtype=float)
    return t * np.exp(0.5j * th * t) * np.sinc(th * t / (2.0 * np.pi))


def _picard_b_coeffs(box: LatticeBox, U0: np.ndarray, t: float) -> np.ndarray:
    """First Picard correction B of a batch U0: the Duhamel integral
    b_n(t) = -(n1/2) e^{i omega_n t} sum_{k+l=n} i phi1(delta, t) u0_k u0_l
    of the quadratic interaction along the free flow."""
    pt = pair_table(box)
    kernel = 1j * phi1(pt.delta, t)
    X = U0.reshape(-1, box.size)
    conv = np.empty(X.shape, dtype=np.complex128)
    block = _sample_block(len(X), len(pt))
    for s in range(0, len(X), block):
        Xs = X[s:s + block]
        conv[s:s + block] = segment_sum(
            Xs[:, pt.k_idx] * Xs[:, pt.l_idx] * kernel, pt.seg_starts)
    B = (-0.5 * box.n1 * np.exp(1j * box.omega * t)) * conv
    return B.reshape(U0.shape)


def _picard_cf_coeffs(box: LatticeBox, U0: np.ndarray, t: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Second Picard correction C and Duhamel integral F of a batch U0.

    F solves df/dt - L f = f_map(a, a, a), f(0) = 0, along the free flow
    a, and c = -2 s_map(a, b) + f.  One pass over the triple table, in
    chunks of whole output segments (TripleTable.chunks): the pair-table
    indices of each entry are gathered per chunk, the factors of a single
    split are computed once
    per pair-table entry and gathered, phi1 of the four-wave phase once
    per chunk, and per block of samples the triple product U_j U_q U_k is
    formed once and reduced against the c and the f kernel.  Chunking
    only splits whole segments and whole samples, so C and F do not
    depend on the chunk or block size, to the last bit.
    """
    tt = triple_table(box)
    pt = pair_table(box)
    # Factors of a single split, per pair-table entry: phi1 of the outer
    # split, and l1 / (2 delta) of the inner split l = j + q (l1 is its
    # output's) and of the outer split n = k + l.
    phi_pair = phi1(pt.delta, t)
    fac_inner = box.n1[pt.out_idx] / (2.0 * pt.delta)
    fac_outer = box.n1[pt.l_idx] / (2.0 * pt.delta)
    X = U0.reshape(-1, box.size)
    acc_c = np.empty(X.shape, dtype=np.complex128)
    acc_f = np.empty(X.shape, dtype=np.complex128)
    block, cuts = tt.chunks(len(X))
    for m0, m1 in cuts:
        lo, hi = tt.seg_starts[m0], tt.seg_starts[m1]
        outer, inner = tt.outer[lo:hi], tt.inner[lo:hi]
        j, q, k = pt.k_idx[inner], pt.l_idx[inner], pt.k_idx[outer]
        starts = tt.seg_starts[m0:m1 + 1] - lo
        # phi1 of the four-wave phase, the sum of the two splits' deltas.
        p4 = phi1(pt.delta[inner] + pt.delta[outer], t)
        kernel_c = fac_inner[inner] * (p4 - phi_pair[outer])
        kernel_f = fac_outer[outer] * p4
        for s in range(0, len(X), block):
            Xs = X[s:s + block]
            prods = Xs[:, j] * Xs[:, q] * Xs[:, k]
            acc_c[s:s + block, m0:m1] = segment_sum(prods * kernel_c, starts)
            acc_f[s:s + block, m0:m1] = segment_sum(prods * kernel_f, starts)
    phase = np.exp(1j * box.omega * t)
    C = (1j * box.n1 * phase) * acc_c
    F = (-1j * box.n1 * phase) * acc_f
    return C.reshape(U0.shape), F.reshape(U0.shape)


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


def extract_w(u_t: SpectralField, bundle: PicardBundle) -> SpectralField:
    """Order-three coefficient of the gauged variable v = u + eps s_map(u, u).

    w = (v(t) - a - eps U(t) s_map(u0, u0) - eps^2 f) / eps^3 with f the
    Duhamel integral of f_map(a, a, a); the subtraction is exact because
    the lower orders of v have those closed forms.  u0, a, f and eps come
    from the bundle of the initial data at time t.
    """
    eps = bundle.eps
    if eps == 0:
        raise ValueError("remainder extraction requires eps != 0")
    box = u_t.box
    U = u_t.coeffs
    v = U + eps * _s_apply(box, U, U)
    s00 = apply_free_flow(s_map(bundle.u0, bundle.u0), bundle.t).coeffs
    w = (v - bundle.a.coeffs - eps * s00 - eps ** 2 * bundle.f.coeffs) \
        / eps ** 3
    return SpectralField(box, w, copy=False)


@dataclass(frozen=True)
class PicardBundle:
    """Picard data (a, b, c) and the Duhamel integral f of one initial
    condition at one time."""

    u0: SpectralField
    t: float
    eps: float
    a: SpectralField
    b: SpectralField
    c: SpectralField
    f: SpectralField

    @classmethod
    def build_batch(cls, u0s, t: float, eps: float) -> list:
        """Bundles of several initial conditions on one box, in one pass."""
        box = u0s[0].box
        U0 = np.stack([u.coeffs for u in u0s])
        B = _picard_b_coeffs(box, U0, t)
        C, F = _picard_cf_coeffs(box, U0, t)
        return [cls(u0=u, t=t, eps=eps, a=apply_free_flow(u, t),
                    b=SpectralField(box, b, copy=False),
                    c=SpectralField(box, c, copy=False),
                    f=SpectralField(box, f, copy=False))
                for u, b, c, f in zip(u0s, B, C, F)]

    @classmethod
    def build(cls, u0: SpectralField, t: float, eps: float) -> "PicardBundle":
        return cls.build_batch([u0], t, eps)[0]


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
                      tol: float = 1e-12, max_iter: int = 200
                      ) -> SpectralField:
    """Solve lambda_eps(d) = g by fixed-point iteration, starting from d = g.

    Each step replaces d by g minus the perturbative part of lambda_eps;
    for small eps the map is a contraction and the residual decays
    geometrically.  Raises NonContractionError if the residual fails to
    shrink by a factor of 0.9 across five consecutive iterations and
    MaxIterExceededError if the tolerance is not met within max_iter.

    The residual is measured as hs_norm(lambda_eps(d) - g, 0), the l2
    norm of the coefficients.
    """
    d = g.copy()
    history: list[float] = []
    for _ in range(max_iter):
        image = lambda_eps(d, bundle)
        res = hs_norm(image - g, 0.0)
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


def identity_residuals(bundle: PicardBundle, v: SpectralField) -> dict:
    """Relative residuals, by name, of the field-pair identities:

    commutator         L s(u, v) - s(Lu, v) - s(u, Lv) = -dx(uv)/2
    cubic-composition  f(u, v, u) = -s(u, dx(uv))
    b-decomposition    b = U(t) s(u, u) - s(a, a)
    c-decomposition    c = f - 2 s(a, b)
    lambda-roundtrip   invert_lambda_eps(lambda_eps(v / 10)) = v / 10

    L is the linear part, s = s_map, f = f_map, dx = dx_product, u is
    the initial data of the bundle and a, b, c, f are its Picard data at
    (t, eps).
    """
    u, t = bundle.u0, bundle.t
    box = u.box

    def lin(x):
        return SpectralField(box, 1j * box.omega * x.coeffs, copy=False)

    a, b, c = bundle.a, bundle.b, bundle.c
    out = {}
    r = (lin(s_map(u, v)) - s_map(lin(u), v) - s_map(u, lin(v))
         + 0.5 * dx_product(u, v))
    out["commutator"] = _rel(r, u, v)
    r = f_map(u, v, u) + s_map(u, dx_product(u, v))
    out["cubic-composition"] = _rel(r, u, v)
    r = b + s_map(a, a) - apply_free_flow(s_map(u, u), t)
    out["b-decomposition"] = _rel(r, u, b)
    r = c + 2.0 * s_map(a, b) - bundle.f
    out["c-decomposition"] = _rel(r, u, c)
    d_true = v * 0.1
    rec = invert_lambda_eps(lambda_eps(d_true, bundle), bundle, tol=1e-13)
    out["lambda-roundtrip"] = _rel(rec - d_true, d_true)
    return out


def w_residual(u_t: SpectralField, bundle: PicardBundle) -> float:
    """Relative residual of the cubic remainder decomposition at u_t.

    extract_w must equal s(b, b) + 2 s(a, c) + 2 eps s(b, c)
    + eps^2 s(c, c) + lambda_eps(extract_d), for any state u_t; the
    bundle is that of the initial data.
    """
    eps = bundle.eps
    a, b, c = bundle.a, bundle.b, bundle.c
    w = extract_w(u_t, bundle)
    d = extract_d(u_t, bundle)
    recon = (s_map(b, b) + 2.0 * s_map(a, c) + 2.0 * eps * s_map(b, c)
             + eps * eps * s_map(c, c) + lambda_eps(d, bundle))
    return _rel(w - recon, w)
