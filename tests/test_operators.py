import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kpwaves
from kpwaves import LatticeBox, SpectralField, delta, dx_product, s_map, f_map
from kpwaves.operators import pair_table, segment_sum, _dx_product, _s_apply
from kpwaves.picard import _nested_plan

from conftest import coeff, field_from_modes, is_real_symmetric, mode_list


def conv_oracle(box, u, v):
    """Dictionary convolution sum, written independently of the tables."""
    out = {}
    for k in mode_list(box):
        for l in mode_list(box):
            n = (k[0] + l[0], k[1] + l[1])
            if n in box:
                out[n] = out.get(n, 0.0) + coeff(u, k) * coeff(v, l)
    w = SpectralField.zeros(box)
    for n, val in out.items():
        w.coeffs[box.index(n)] = val
    return w


def f_map_oracle(box, a, b, c):
    """Direct triple sum over j + k + l = n with the inner pair in the box."""
    out = SpectralField.zeros(box)
    for n in mode_list(box):
        acc = 0.0j
        for j in mode_list(box):
            for k in mode_list(box):
                m = (j[0] + k[0], j[1] + k[1])
                if m not in box:
                    continue
                l = (n[0] - m[0], n[1] - m[1])
                if l not in box:
                    continue
                d = delta(n, m, l)
                acc += (n[0] / 2.0) * (j[0] + k[0]) / (1j * d) \
                    * coeff(a, j) * coeff(b, k) * coeff(c, l)
        out.coeffs[box.index(n)] = acc
    return out


class TestTables:
    def test_pair_table_is_complete(self, box22):
        pt = pair_table(box22)
        listed = set()
        for r in range(len(pt)):
            n = tuple(box22.modes[pt.out_idx[r]])
            k = tuple(box22.modes[pt.k_idx[r]])
            l = tuple(box22.modes[pt.l_idx[r]])
            assert (k[0] + l[0], k[1] + l[1]) == n
            assert pt.delta[r] == pytest.approx(delta(n, k, l), rel=1e-15)
            listed.add((n, k, l))
        expected = {((k[0] + l[0], k[1] + l[1]), k, l)
                    for k in mode_list(box22) for l in mode_list(box22)
                    if (k[0] + l[0], k[1] + l[1]) in box22}
        assert listed == expected

    def test_pair_table_cached(self, box22):
        assert pair_table(box22) is pair_table(LatticeBox(2, 2))

    def test_empty_box_tables(self):
        box = LatticeBox(1, 0)
        assert len(pair_table(box)) == 0
        assert _nested_plan(box).groups == ()


def test_segment_sum_with_empty_segments():
    starts = np.array([0, 0, 2, 5, 5])
    vals = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    out = segment_sum(vals, starts)
    assert out.tolist() == [0.0, 3.0, 12.0, 0.0]


def test_segment_sum_batched():
    starts = np.array([0, 1, 3])
    vals = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
    out = segment_sum(vals, starts)
    assert out.tolist() == [[1.0, 5.0], [10.0, 50.0]]


def conv_brute(box, U, V):
    """Double sum over (k, l) on raw, possibly batched coefficient arrays."""
    out = np.zeros(np.broadcast_shapes(U.shape, V.shape), dtype=complex)
    for i, k in enumerate(mode_list(box)):
        for j, l in enumerate(mode_list(box)):
            n = (k[0] + l[0], k[1] + l[1])
            if n in box:
                out[..., box.index(n)] += U[..., i] * V[..., j]
    return out


# The convolution sum_{k+l=n} U_k V_l is taken over the pair table, inside
# dx_product as i n1 times it; these check that sum on raw arrays.
@pytest.mark.parametrize("shape", [(1, 0), (3, 0), (1, 3), (4, 1), (2, 5),
                                   (5, 2), (3, 3), (6, 6)])
def test_convolve_matches_double_sum(shape, rng):
    box = LatticeBox(*shape)
    U = rng.standard_normal((3, box.size)) + 1j * rng.standard_normal(
        (3, box.size))
    V = rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)
    got = _dx_product(box, U, V)
    assert got.shape == U.shape
    np.testing.assert_allclose(got, 1j * box.n1 * conv_brute(box, U, V),
                               rtol=0, atol=1e-14 * box.size)
    np.testing.assert_allclose(_dx_product(box, U, U),
                               1j * box.n1 * conv_brute(box, U, U),
                               rtol=0, atol=1e-14 * box.size)


def test_convolve_empty_batch(box22):
    U = np.zeros((0, box22.size), dtype=complex)
    assert _dx_product(box22, U, U).shape == (0, box22.size)
    assert _dx_product(box22, U, np.ones(box22.size)).shape \
        == (0, box22.size)


def test_cli_import_leaves_fft_unloaded():
    # Both load on first use: numpy.fft when the integrator squares a grid
    # by FFT (boxes past 3x3), the thread pool when an ensemble runs
    # several batches on threads.
    src = os.path.dirname(os.path.dirname(kpwaves.__file__))
    code = ("import sys, kpwaves.cli; "
            "print('numpy.fft' in sys.modules, "
            "'concurrent.futures' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"


def test_every_exported_name_resolves():
    # A name left in __all__ after its definition is gone fails only on
    # `import *`; the package imports its names explicitly.
    modules = [importlib.import_module(f"kpwaves.{m.name}")
               for m in pkgutil.iter_modules(kpwaves.__path__)]
    assert {m.__name__ for m in modules} >= {"kpwaves.cli", "kpwaves.lattice"}
    stale = [f"{mod.__name__}.{name}"
             for mod in [kpwaves] + modules
             for name in getattr(mod, "__all__", ())
             if not hasattr(mod, name)]
    assert all(hasattr(m, "__all__") for m in modules)
    assert stale == []


def test_package_names_are_module_exports():
    # Each name the package __init__ imports is in its module's __all__,
    # so a deletion that leaves it behind there fails above as well.
    tree = ast.parse(Path(kpwaves.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"kpwaves.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(kpwaves, alias.name) is getattr(module, alias.name)


def test_dx_product_definition(box22, make_field):
    u = make_field(box22)
    v = make_field(box22)
    got = dx_product(u, v).coeffs
    want = 1j * box22.n1 * conv_oracle(box22, u, v).coeffs
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_dx_product_unit_pair_example(box22):
    u = field_from_modes(box22, {(1, 0): 1.0}, hermitian=True)
    w = dx_product(u, u)
    assert coeff(w, (2, 0)) == pytest.approx(2j, rel=1e-15)
    assert coeff(w, (-2, 0)) == pytest.approx(-2j, rel=1e-15)


def test_s_map_unit_pair_example(box22):
    # the only active split at (2, 0) is (1,0)+(1,0) with phase gap -6
    u = field_from_modes(box22, {(1, 0): 1.0}, hermitian=True)
    w = s_map(u, u)
    assert coeff(w, (2, 0)) == pytest.approx(-1.0 / 6.0, rel=1e-15)
    assert coeff(w, (-2, 0)) == pytest.approx(-1.0 / 6.0, rel=1e-15)


def test_s_map_against_sum(box22, make_field):
    u = make_field(box22)
    v = make_field(box22)
    got = s_map(u, v)
    for n in ((1, 0), (2, 1), (-1, -2)):
        acc = 0.0j
        for k in mode_list(box22):
            l = (n[0] - k[0], n[1] - k[1])
            if l in box22:
                acc += ((n[0] / 2.0) * coeff(u, k) * coeff(v, l)
                        / delta(n, k, l))
        assert coeff(got, n) == pytest.approx(acc, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_s_map_bilinear_symmetric(seed):
    box = LatticeBox(2, 1)
    r = np.random.default_rng(seed)

    def rand():
        return SpectralField(box, r.standard_normal(box.size)
                             + 1j * r.standard_normal(box.size))

    u, v, w = rand(), rand(), rand()
    alpha = complex(r.standard_normal(), r.standard_normal())
    sym = s_map(u, v) - s_map(v, u)
    assert np.abs(sym.coeffs).max() < 1e-12
    lin = s_map(u + alpha * w, v) - s_map(u, v) - alpha * s_map(w, v)
    assert np.abs(lin.coeffs).max() < 1e-11


def test_operators_preserve_reality(box22, make_field):
    u = make_field(box22, hermitian=True)
    v = make_field(box22, hermitian=True)
    assert is_real_symmetric(dx_product(u, v), tol=1e-13)
    assert is_real_symmetric(s_map(u, v), tol=1e-13)
    assert is_real_symmetric(f_map(u, v, u), tol=1e-12)


def test_f_map_against_direct_sum(box21, make_field):
    a = make_field(box21)
    b = make_field(box21)
    c = make_field(box21)
    got = f_map(a, b, c)
    want = f_map_oracle(box21, a, b, c)
    scale = np.abs(want.coeffs).max()
    assert np.abs(got.coeffs - want.coeffs).max() <= 1e-13 * scale


def test_f_map_is_minus_s_of_dx(box22, make_field):
    a = make_field(box22)
    b = make_field(box22)
    c = make_field(box22)
    direct = f_map(a, b, c)
    composed = s_map(c, dx_product(a, b)) * -1.0
    assert np.allclose(direct.coeffs, composed.coeffs, rtol=0, atol=1e-12)


def test_commutator_identity(box33, make_field):
    # generator of the free flow acting on the bilinear map
    om = 1j * box33.omega

    def lin(x):
        return SpectralField(box33, om * x.coeffs)

    for _ in range(5):
        u = make_field(box33)
        v = make_field(box33)
        lhs = lin(s_map(u, v)) - s_map(lin(u), v) - s_map(u, lin(v))
        rhs = dx_product(u, v) * -0.5
        scale = max(1.0, np.abs(rhs.coeffs).max())
        assert np.abs((lhs - rhs).coeffs).max() <= 1e-12 * scale


def test_box_mismatch_raises(box22, box33, make_field):
    u = make_field(box22)
    v = make_field(box33)
    with pytest.raises(ValueError):
        s_map(u, v)
    with pytest.raises(ValueError):
        dx_product(u, v)


def test_s_apply_matches_public_wrapper(box22, make_field):
    u = make_field(box22)
    v = make_field(box22)
    raw = _s_apply(box22, u.coeffs, v.coeffs)
    assert np.array_equal(raw, s_map(u, v).coeffs)
