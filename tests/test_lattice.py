import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kpwaves import LatticeBox, omega, hs_norm, hs_weights, apply_free_flow

from conftest import coeff, delta, field_from_modes, is_real_symmetric

nonzero_n1 = st.integers(-8, 8).filter(lambda a: a != 0)
any_n2 = st.integers(-8, 8)


def test_omega_values():
    assert omega((1, 0)) == 1.0
    assert omega((1, 1)) == 0.0
    assert omega((-2, 1)) == -7.5
    assert omega((2, 0)) == 8.0


def test_omega_rejects_zero_column():
    with pytest.raises(ValueError):
        omega((0, 3))
    # An array with one n1 = 0 entry is rejected as a whole.
    with pytest.raises(ValueError, match="n1 = 0"):
        omega((np.array([1, 0, 2]), np.array([0, 3, 1])))


@pytest.mark.parametrize("n1_max", range(1, 7))
def test_omega_of_arrays_is_the_box_table(n1_max):
    for n2_max in range(7):
        box = LatticeBox(n1_max, n2_max)
        np.testing.assert_array_equal(omega((box.n1, box.n2)), box.omega)
        # The integer formula, rounded once, as the scalar form takes it.
        exact = [a ** 3 - b ** 2 / a for a, b in box.modes.tolist()]
        np.testing.assert_array_equal(box.omega, exact)


@given(nonzero_n1, any_n2)
def test_omega_is_odd(a, b):
    assert omega((-a, -b)) == -omega((a, b))


def test_delta_values():
    assert delta((2, 0), (1, 0), (1, 0)) == -6.0
    assert delta((2, 1), (1, 0), (1, 1)) == -6.5


def test_delta_requires_convolution_triple():
    with pytest.raises(ValueError):
        delta((2, 0), (1, 0), (1, 1))


@given(nonzero_n1, any_n2, nonzero_n1, any_n2)
def test_delta_lower_bound(k1, k2, l1, l2):
    # |delta| >= 3 |n1 k1 l1| whenever the sum stays off the excluded column
    n = (k1 + l1, k2 + l2)
    if n[0] == 0:
        return
    d = delta(n, (k1, k2), (l1, l2))
    assert abs(d) >= 3.0 * abs(n[0] * k1 * l1) - 1e-9 * max(1.0, abs(d))


class TestLatticeBox:
    def test_size_and_order(self, box22):
        assert box22.size == 20
        mods = [tuple(m) for m in box22.modes]
        assert mods == sorted(mods)
        assert (0, 0) not in box22
        assert all(a != 0 for a, _ in mods)

    def test_index_lookup_roundtrip(self, box33):
        for i, m in enumerate(box33.modes):
            assert box33.index(m) == i
        hits = box33.lookup(box33.n1, box33.n2)
        assert np.array_equal(hits, np.arange(box33.size))

    def test_lookup_outside(self, box22):
        out = box22.lookup(np.array([0, 3, -1]), np.array([1, 0, 5]))
        assert out.tolist() == [-1, -1, -1]

    def test_index_outside_raises(self, box22):
        with pytest.raises(ValueError):
            box22.index((0, 1))
        with pytest.raises(ValueError):
            box22.index((3, 0))

    @pytest.mark.parametrize("n1_max", range(1, 5))
    @pytest.mark.parametrize("n2_max", range(5))
    def test_index_of_arrays_is_lookup(self, n1_max, n2_max):
        # Every mode at once, as rows, and as groups of two modes; then a
        # mode outside the box is named with plain ints, as one mode too.
        box = LatticeBox(n1_max, n2_max)
        expected = box.lookup(box.n1, box.n2)
        got = box.index(box.modes)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)
        assert np.array_equal(box.index(box.modes.reshape(-1, 2, 2)),
                              expected.reshape(-1, 2))
        message = f"mode ({n1_max + 1}, 0) is outside {box!r}"
        outside = np.array([box.modes[0], [n1_max + 1, 0], [0, 0]])
        for modes in (outside, outside[1]):
            with pytest.raises(ValueError) as info:
                box.index(modes)
            assert str(info.value) == message

    def test_conjugation_is_involution(self, box33):
        ci = box33.conj_idx
        assert np.array_equal(ci[ci], np.arange(box33.size))
        assert np.array_equal(box33.n1[ci], -box33.n1)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeBox(0, 2)
        with pytest.raises(ValueError):
            LatticeBox(2, -1)

    def test_equality_and_hash(self):
        assert LatticeBox(2, 3) == LatticeBox(2, 3)
        assert LatticeBox(2, 3) != LatticeBox(3, 2)
        assert hash(LatticeBox(2, 3)) == hash(LatticeBox(2, 3))

    def test_degenerate_box(self):
        box = LatticeBox(1, 0)
        assert [tuple(m) for m in box.modes] == [(-1, 0), (1, 0)]


def test_dispersion_table_matches_scalar(box33):
    table = box33.omega
    for m in box33.modes:
        assert table[box33.index(m)] == pytest.approx(omega(m), abs=0.0)
    assert table is box33.omega  # computed once, with the box


class TestSpectralField:
    """Fields are coefficient arrays in box order; these check the test
    helpers that build and inspect them mode by mode."""

    def test_from_modes_hermitian(self, box22):
        u = field_from_modes(box22, {(1, 0): 2 - 1j}, hermitian=True)
        assert coeff(box22, u, (1, 0)) == 2 - 1j
        assert coeff(box22, u, (-1, 0)) == 2 + 1j
        assert is_real_symmetric(box22, u)

    def test_from_modes_explicit_negative_wins(self, box22):
        u = field_from_modes(
            box22, {(1, 0): 1j, (-1, 0): 5.0}, hermitian=True)
        assert coeff(box22, u, (-1, 0)) == 5.0

    def test_reality_check(self, box22, make_field):
        u = make_field(box22, hermitian=True)
        assert is_real_symmetric(box22, u)
        u[box22.index((1, 1))] += 1e-6
        assert not is_real_symmetric(box22, u)


def test_hs_weights_formula(box33):
    w = hs_weights(box33, 1.5)
    mag = np.abs(box33.n1) + np.abs(box33.n2)
    assert np.allclose(w, mag.astype(float) ** 3.0, rtol=1e-15)


def test_hs_norm_unit_pair(box22):
    # a conjugate pair at (1, 0) has weight 1 at any s, so the norm is sqrt(2)
    u = field_from_modes(box22, {(1, 0): 1.0}, hermitian=True)
    assert hs_norm(box22, u, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert hs_norm(box22, u, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_hs_norm_zero_field(box22):
    assert hs_norm(box22, np.zeros(box22.size, dtype=complex), 1.0) == 0.0


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_free_flow_group_law(t, s):
    box = LatticeBox(2, 1)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(box.size) + 1j * rng.standard_normal(box.size)
    a = apply_free_flow(box, apply_free_flow(box, u, t), s)
    b = apply_free_flow(box, u, t + s)
    assert np.allclose(a, b, rtol=0, atol=1e-12)


def test_free_flow_preserves_moduli(box33, make_field):
    u = make_field(box33)
    v = apply_free_flow(box33, u, 17.3)
    assert np.allclose(np.abs(v), np.abs(u), rtol=1e-13)


def test_free_flow_preserves_reality(box22, make_field):
    u = make_field(box22, hermitian=True)
    assert is_real_symmetric(box22, apply_free_flow(box22, u, 2.4))
