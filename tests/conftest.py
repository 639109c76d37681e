import numpy as np
import pytest

from kpwaves import LatticeBox, SpectralField, hs_norm
from kpwaves.operators import _dx_product, _s_apply


@pytest.fixture(scope="session")
def box21():
    return LatticeBox(2, 1)


@pytest.fixture(scope="session")
def box22():
    return LatticeBox(2, 2)


@pytest.fixture(scope="session")
def box33():
    return LatticeBox(3, 3)


@pytest.fixture(scope="session")
def box44():
    return LatticeBox(4, 4)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def make_field(rng):
    """Factory for random complex fields, optionally real-symmetric."""

    def make(box, scale=1.0, hermitian=False):
        z = rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)
        u = SpectralField(box, scale * z)
        if hermitian:
            u = (u + u.conjugate_reflection()) * 0.5
        return u

    return make


@pytest.fixture(scope="session")
def normal_form_residual():
    """Residual of the gauged flow equation along sampled states.

    For v = u + eps s_map(u, u) the truncated system gives exactly
    dv/dt - L v = eps^2 f_map(u, u, u).  The left side is approximated by
    a centered difference of the free-flow-rotated v, so the returned
    number is pure discretization error of the sampling grid:

        max_i hs_norm(Dv_i - eps^2 f_map(u_i, u_i, u_i), s),
        Dv_i = (e^{-i omega h} v_{i+1} - e^{+i omega h} v_{i-1}) / (2 h),

    over states U[i] at uniformly spaced times[i]; ValueError unless
    there are at least three.
    """

    def residual(box, times, U, eps, s=1.0):
        if len(times) < 3:
            raise ValueError("centered differencing needs three samples")
        steps = np.diff(times)
        h = float(steps[0])
        if not np.allclose(steps, h, rtol=1e-8, atol=1e-12):
            raise ValueError("sample times are not uniformly spaced")
        om = box.dispersion().values
        V = U + eps * _s_apply(box, U, U)
        fwd = np.exp(-1j * om * h)
        diff = (fwd * V[2:] - np.conj(fwd) * V[:-2]) / (2.0 * h)
        inner = U[1:-1]
        target = -eps ** 2 * _s_apply(box, inner, _dx_product(box, inner,
                                                              inner))
        return max(hs_norm(SpectralField(box, d - f, copy=False), s)
                   for d, f in zip(diff, target))

    return residual
