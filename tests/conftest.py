import tracemalloc

import numpy as np
import pytest

from kpwaves import LatticeBox, dx_product, hs_norm, omega, s_map
from kpwaves.lattice import _symmetry_defect


# Helpers for tests that address single modes; the package itself works
# on whole coefficient arrays, the last axis holding the box modes.

def mode_list(box):
    """The modes of a box as (n1, n2) tuples of ints, in box order."""
    return [tuple(m) for m in box.modes.tolist()]


def off_plane_triples(box):
    """30 random mode triples off the zero-sum plane, drawn with seed 7."""
    modes = mode_list(box)
    rng = np.random.default_rng(7)
    free = []
    while len(free) < 30:
        a, b, c = (modes[i] for i in rng.integers(0, len(modes), 3))
        if (a[0] + b[0] + c[0], a[1] + b[1] + c[1]) != (0, 0):
            free.append((a, b, c))
    return free


def delta(n, k, l) -> float:
    """Three-wave phase omega(k) + omega(l) - omega(n) for a split k + l = n."""
    if (n[0], n[1]) != (k[0] + l[0], k[1] + l[1]):
        raise ValueError(f"not a convolution triple: {k} + {l} != {n}")
    return omega(k) + omega(l) - omega(n)


def coeff(box, u, n) -> complex:
    """The coefficient of mode n of a field u on box."""
    return complex(u[box.index(n)])


def field_from_modes(box, entries, hermitian=False):
    """Field with prescribed coefficients {mode: value}, zero elsewhere.

    With hermitian=True each given mode n also sets -n to the complex
    conjugate unless -n itself appears in entries.
    """
    u = np.zeros(box.size, dtype=complex)
    given = {(int(n[0]), int(n[1])): complex(v) for n, v in entries.items()}
    for n, v in given.items():
        u[box.index(n)] = v
        neg = (-n[0], -n[1])
        if hermitian and neg not in given:
            u[box.index(neg)] = np.conj(v)
    return u


def traced_peak(fn, *args):
    """Bytes of the tracemalloc peak while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def is_real_symmetric(box, u, tol=1e-12) -> bool:
    """u(-n) = conj(u(n)) to tol relative to max(1, max |u_n|), the
    tolerance evolve_coeffs applies to its initial data."""
    dev, scale = _symmetry_defect(box, u)
    return bool(dev <= tol * scale)


def pytest_report_header(config):
    # The bitwise batch tests rest on how the BLAS rounds its products, and
    # on the SIMD loops numpy dispatches its complex arithmetic to (the
    # "simd_extensions" of np.show_runtime()).
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    lines = [f"numpy {np.__version__}, BLAS {blas.get('name', 'unknown')} "
             f"{blas.get('version', 'unknown')}"]
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
        found = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
        lines.append(f"SIMD baseline {' '.join(__cpu_baseline__)}; "
                     f"dispatched {' '.join(found) or 'none'}")
    except Exception:
        # Private numpy names: a header must never fail collection.
        lines.append("SIMD extensions unknown")
    return lines


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
        z = scale * z
        if hermitian:
            # The mean of z and its mirror n -> conj(z(-n)).
            z = (z + np.conj(z[box.conj_idx])) * 0.5
        return z

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
        om = box.omega
        V = U + eps * s_map(box, U, U)
        fwd = np.exp(-1j * om * h)
        diff = (fwd * V[2:] - np.conj(fwd) * V[:-2]) / (2.0 * h)
        inner = U[1:-1]
        target = -eps ** 2 * s_map(box, inner, dx_product(box, inner, inner))
        return float(np.max(hs_norm(box, diff - target, s)))

    return residual


def _f3_amplitude_reference(ctx, n, m, p, kron="half_opposite",
                            magnitudes=False):
    """m2^2 * cyclic + (m4 - 2 m2^2) * kronecker of F3, one triple at a time.

    kron selects a printing of the repeated-index term: "half_opposite",
    the one theory implements (half weight, first coordinate of the
    opposite mode), or "repeated" (full weight, first coordinate of the
    repeated mode), which the acceptance oracle rejects.
    magnitudes replaces the first coordinates and the excess kurtosis by
    their absolute values, as in the time-uniform bound.
    """
    box, L = ctx.box, ctx.lam2
    i, j, k = (box.index(v) for v in (n, m, p))
    a, b, c = n[0], m[0], p[0]
    excess = ctx.m4 - 2.0 * ctx.m2 ** 2
    if magnitudes:
        a, b, c, excess = abs(a), abs(b), abs(c), abs(excess)
    cyc = a * L[j] * L[k] + b * L[k] * L[i] + c * L[i] * L[j]
    if kron == "half_opposite":
        kr = 0.5 * ((j == k) * a * L[j] ** 2 + (k == i) * b * L[k] ** 2
                    + (i == j) * c * L[i] ** 2)
    else:
        kr = ((j == k) * b * L[j] ** 2 + (k == i) * c * L[k] ** 2
              + (i == j) * a * L[i] ** 2)
    return ctx.m2 ** 2 * cyc + excess * kr
