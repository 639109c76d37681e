"""Tests for the Picard corrections and the remainder gauge maps.

The closed oscillatory-sum forms of b, c, and f are checked against
Simpson quadrature of their defining Duhamel integrals along the free
flow, so a sign, prefactor, or kernel mistake in the tables would show
up as an O(1) relative deviation.
"""

import cmath
import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import simpson

from kpwaves import operators, picard
from kpwaves.dynamics import (CalibrationError, _default_dt, calibrate_dt,
                              evolve_coeffs)
from kpwaves.lattice import LatticeBox, apply_free_flow, phi1
from kpwaves.operators import (dx_product, f_map, pair_table, s_map,
                               segment_sum)
from kpwaves.picard import (
    _build_bytes,
    _chunk_numbers,
    _group_sizes,
    _groups,
    _nested_plan,
    _omega_keys,
    _key_ranks,
    _pair_keys,
    _pass_bytes,
    _picard_coeffs,
    PhaseKeyOverflowError,
    MaxIterExceededError,
    NonContractionError,
    PicardBundle,
    extract_d,
    extract_w,
    invert_lambda_eps,
    lambda_eps,
    w_residual,
)

from conftest import is_real_symmetric, mode_list, traced_peak


def free_flow_grid(box, u0, taus):
    """Coefficients of the free evolution at every grid time, stacked."""
    return u0[None, :] * np.exp(1j * np.outer(taus, box.omega))


class TestPhi1:
    def test_zero_frequency_gives_t(self):
        assert phi1(0.0, 1.7) == pytest.approx(1.7)
        assert phi1(np.zeros(3), -0.4).tolist() == pytest.approx([-0.4] * 3)

    def test_closed_form(self):
        theta, t = 2.5, 1.3
        expected = (np.exp(1j * theta * t) - 1.0) / (1j * theta)
        assert phi1(theta, t) == pytest.approx(expected, rel=1e-14)

    def test_zero_frequency_is_exactly_t(self):
        for t in (2.0, 0.7, -0.4, 1e-300):
            assert phi1(0.0, t) == t

    @given(x=st.floats(min_value=1e-12, max_value=1e-4),
           t=st.floats(min_value=0.1, max_value=3.0),
           sign=st.sampled_from([1.0, -1.0]))
    @settings(max_examples=100, deadline=None)
    def test_small_phase_matches_taylor_series(self, x, t, sign):
        # phi1 = t sum_n (i theta t)^n / (n + 1)!; at |theta t| <= 1e-4
        # eight terms reach far below double precision.
        theta = sign * x / t
        z = 1j * theta * t
        expected = t * sum(z ** n / math.factorial(n + 1)
                           for n in reversed(range(8)))
        got = phi1(theta, t)
        assert abs(got - expected) <= 1e-15 * abs(expected)

    @given(theta=st.floats(min_value=1e-6, max_value=1e-3),
           t=st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_continuous_near_threshold(self, theta, t):
        # |phi1(theta, t) - t| = |int_0^t (e^{i theta tau} - 1) dtau|
        #                      <= theta t^2 / 2, up to the roundoff of
        # (cos(theta t) - 1) / theta, which 1e-9 comfortably covers here.
        got = phi1(theta, t)
        assert abs(got - t) <= theta * t * t / 2 + 1e-9

    @given(theta=st.floats(min_value=-200.0, max_value=200.0),
           t=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    @example(theta=5e-324, t=5.0)  # a subnormal theta: phi1 must not divide
    def test_bounded_by_interval_length(self, theta, t):
        assert abs(phi1(theta, t)) <= t * (1 + 1e-12) + 1e-15

    @given(theta=st.floats(min_value=-2e4, max_value=2e4),
           t=st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_large_phase_matches_closed_form(self, theta, t):
        # Away from theta t = 0 the closed form loses no digits; phi1 must
        # keep them for |theta t| up to 2e4.  Both sides see theta t
        # rounded the same way, so the bound is a few ulps.
        z = cmath.exp(1j * theta * t) - 1.0
        assume(abs(z) > 0.5)
        expected = z / (1j * theta)
        assert abs(complex(phi1(theta, t)) - expected) \
            <= 2e-15 * abs(expected)


def test_picard_corrections_vanish_at_time_zero(box22, make_field):
    u0 = make_field(box22)
    bundle = PicardBundle.build(box22, u0, 0.0, 0.1)
    for out in (bundle.b, bundle.c, bundle.f):
        np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_picard_b_matches_duhamel_quadrature(box22, make_field):
    u0 = make_field(box22)
    t = 0.7
    taus = np.linspace(0.0, t, 1401)
    om = box22.omega
    A = free_flow_grid(box22, u0, taus)
    integrand = np.exp(-1j * np.outer(taus, om)) * dx_product(box22, A, A)
    integral = simpson(integrand, x=taus, axis=0)
    expected = -0.5 * np.exp(1j * om * t) * integral
    got = PicardBundle.build(box22, u0, t, 0.1).b
    np.testing.assert_allclose(got, expected, rtol=0,
                               atol=1e-8 * np.abs(expected).max())


def test_picard_c_matches_duhamel_quadrature(box21, make_field):
    u0 = make_field(box21)
    t = 0.6
    taus = np.linspace(0.0, t, 1201)
    om = box21.omega
    A = free_flow_grid(box21, u0, taus)
    B = np.stack([_picard_coeffs(box21, u0, tau)[0] for tau in taus])
    integrand = np.exp(-1j * np.outer(taus, om)) * dx_product(box21, A, B)
    integral = simpson(integrand, x=taus, axis=0)
    expected = -np.exp(1j * om * t) * integral
    got = PicardBundle.build(box21, u0, t, 0.1).c
    np.testing.assert_allclose(got, expected, rtol=0,
                               atol=1e-7 * np.abs(expected).max())


def test_f_integral_matches_duhamel_quadrature(box21, make_field):
    u0 = make_field(box21)
    t = 0.6
    taus = np.linspace(0.0, t, 1201)
    om = box21.omega
    A = free_flow_grid(box21, u0, taus)
    forcing = f_map(box21, A, A, A)
    integrand = np.exp(-1j * np.outer(taus, om)) * forcing
    integral = simpson(integrand, x=taus, axis=0)
    expected = np.exp(1j * om * t) * integral
    got = PicardBundle.build(box21, u0, t, 0.1).f
    np.testing.assert_allclose(got, expected, rtol=0,
                               atol=1e-8 * np.abs(expected).max())


def test_b_decomposition(box33, make_field):
    u0 = make_field(box33)
    t = 0.9
    a = apply_free_flow(box33, u0, t)
    lhs = PicardBundle.build(box33, u0, t, 0.1).b
    rhs = -s_map(box33, a, a) \
        + apply_free_flow(box33, s_map(box33, u0, u0), t)
    np.testing.assert_allclose(lhs, rhs, rtol=0,
                               atol=1e-13 * np.abs(rhs).max())


def test_c_decomposition(box33, make_field):
    u0 = make_field(box33)
    t = 0.9
    a = apply_free_flow(box33, u0, t)
    bundle = PicardBundle.build(box33, u0, t, 0.1)
    lhs = bundle.c
    rhs = -2.0 * s_map(box33, a, bundle.b) + bundle.f
    np.testing.assert_allclose(lhs, rhs, rtol=0,
                               atol=1e-13 * np.abs(rhs).max())


def test_corrections_preserve_reality(box22, make_field):
    u0 = make_field(box22, hermitian=True)
    assert is_real_symmetric(box22, u0, tol=1e-12)
    bundle = PicardBundle.build(box22, u0, 0.8, 0.1)
    for out in (bundle.b, bundle.c, bundle.f):
        assert is_real_symmetric(box22, out, tol=1e-11)


def _nested_splits(box):
    """Pair-table entries (inner, outer) of every nested split of box, in
    the plan's order: per group, inner splits by outer splits."""
    pt = pair_table(box)
    plan = _nested_plan(box)
    # Each chunk's outer splits, put back in the groups' order.
    order = np.empty_like(plan.outer)
    for l0, l1 in plan.chunks:
        m0, m1 = pt.seg_starts[l0], pt.seg_starts[l1]
        order[m0 + plan.back[m0:m1]] = plan.outer[m0:m1]
    inner, outer = [], []
    for m0, m1 in _groups(box):
        i, o = np.meshgrid(np.arange(m0, m1), order[m0:m1],
                           indexing="ij")
        inner.append(i.ravel())
        outer.append(o.ravel())
    return np.concatenate(inner), np.concatenate(outer)


def _plan_numbers(box):
    """Each group's phase numbers, inner x outer, in the plan's order."""
    plan = _nested_plan(box)
    return [numbers for chunk in plan.chunks
            for _, _, numbers in _chunk_numbers(box, plan, *chunk)]


def _stage_peaks(box, U0):
    """Peak bytes of the two pre-flight stages of box: building the key
    ranks and the plan from cold, and one pass over U0 with both held,
    each with the pair table's own arrays added, since the pair table is
    built before the trace starts."""
    pt = pair_table(box)
    table = sum(value.nbytes for value in vars(pt).values()
                if isinstance(value, np.ndarray))
    _key_ranks.cache_clear()
    _nested_plan.cache_clear()
    tracemalloc.start()
    try:
        _nested_plan(box)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _picard_coeffs(box, U0, 0.5)
        return table + build, table + tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNestedPlan:
    """The plan groups the nested splits k + (j + q) = n by l = j + q."""

    def test_groups_enumerate_nested_splits(self, box21):
        pt = pair_table(box21)
        inner, outer = _nested_splits(box21)
        # Each group pairs the outer splits of l with the inner ones of l.
        assert np.array_equal(pt.l_idx[outer], pt.out_idx[inner])
        modes = box21.modes
        seen = [(tuple(modes[pt.out_idx[o]]), tuple(modes[pt.k_idx[i]]),
                 tuple(modes[pt.l_idx[i]]), tuple(modes[pt.k_idx[o]]))
                for i, o in zip(inner, outer)]
        expected = set()
        for j in mode_list(box21):
            for q in mode_list(box21):
                m = (j[0] + q[0], j[1] + q[1])
                if m not in box21:
                    continue
                for k in mode_list(box21):
                    n = (m[0] + k[0], m[1] + k[1])
                    if n in box21:
                        expected.add((n, j, q, k))
        assert len(seen) == len(set(seen))
        assert set(seen) == expected

    @pytest.mark.parametrize("size, count", [(6, 913_770), (8, 5_309_304)])
    def test_nested_split_counts(self, size, count):
        box = LatticeBox(size, size)
        sizes = [numbers.size for numbers in _plan_numbers(box)]
        assert sizes == [(m1 - m0) ** 2 for m0, m1 in _groups(box)]
        assert sum(sizes) == _group_sizes(box).sum() == count
        assert max(sizes) == _group_sizes(box).max()

    def test_held_plan_follows_the_pair_table(self):
        # The cached plan holds, per pair-table entry, an outer split, its
        # place in its chunk and the entry's key rank; a phase number per
        # pair of the 1,120 distinct pair keys, the phases and each
        # chunk's outer segments: 3.6 MiB at 8x8.  A number per nested
        # split alone took 10.1 MiB (5,309,304 as uint16).
        box = LatticeBox(8, 8)
        pt = pair_table(box)
        plan = _nested_plan(box)
        keys = len(np.unique(_pair_keys(box)[1]))
        assert keys == 1_120
        parts = []
        for field in dataclasses.fields(plan):
            value = getattr(plan, field.name)
            parts.extend(value if isinstance(value, tuple) else [value])
        held = sum(part.nbytes for part in parts
                   if isinstance(part, np.ndarray))
        number = np.min_scalar_type(len(plan.phases)).itemsize
        assert held <= (24 * len(pt) + number * keys ** 2
                        + 8 * len(plan.phases)
                        + 8 * len(plan.chunks) * (box.size + 1))

    @pytest.mark.parametrize("size", [(2, 1), (3, 3), (4, 4)],
                             ids=["2x1", "3x3", "4x4"])
    def test_contraction_matches_direct_sum(self, rng, size):
        # C and F against the entrywise sum over the nested splits, which
        # weighs U_j U_q U_k by the whole kernel of each split.
        box = LatticeBox(*size)
        pt = pair_table(box)
        denom, key = _pair_keys(box)[:2]
        t = 0.7
        U0 = rng.standard_normal((3, box.size)) \
            + 1j * rng.standard_normal((3, box.size))
        inner, outer = _nested_splits(box)
        p4 = phi1((key[inner] + key[outer]) / denom, t)
        kernel_c = box.n1[pt.out_idx[inner]] / (2.0 * pt.delta[inner]) \
            * (p4 - phi1(pt.delta[outer], t))
        kernel_f = box.n1[pt.l_idx[outer]] / (2.0 * pt.delta[outer]) * p4
        prods = U0[:, pt.k_idx[inner]] * U0[:, pt.l_idx[inner]] \
            * U0[:, pt.k_idx[outer]]
        rows = pt.out_idx[outer]
        acc_c = np.zeros(U0.shape, dtype=complex)
        acc_f = np.zeros(U0.shape, dtype=complex)
        for s in range(len(U0)):
            np.add.at(acc_c[s], rows, prods[s] * kernel_c)
            np.add.at(acc_f[s], rows, prods[s] * kernel_f)
        phase = np.exp(1j * box.omega * t)
        _, C, F = _picard_coeffs(box, U0, t)
        for got, acc, sign in ((C, acc_c, 1), (F, acc_f, -1)):
            want = sign * 1j * box.n1 * phase * acc
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestPhaseKeys:
    """phi1 of the four-wave phase is taken once per exact integer key."""

    @pytest.mark.parametrize("n1_max", range(1, 9))
    def test_keys_are_d_omega(self, n1_max):
        for n2_max in range(0, 9):
            box = LatticeBox(n1_max, n2_max)
            denom, keys = _omega_keys(box)
            assert denom == math.lcm(*range(1, n1_max + 1))
            assert keys.dtype == np.int64
            for (a, b), key in zip(box.modes, keys):
                exact = denom * (Fraction(int(a)) ** 3
                                 - Fraction(int(b) ** 2, int(a)))
                assert exact.denominator == 1 and exact == key
            np.testing.assert_allclose(keys, denom * box.omega,
                                       rtol=1e-12, atol=0)

    @pytest.mark.parametrize("size", [(2, 1), (3, 3), (4, 4), (6, 6)],
                             ids=["2x1", "3x3", "4x4", "6x6"])
    def test_split_keys_are_four_wave_phases(self, size):
        box = LatticeBox(*size)
        pt = pair_table(box)
        plan = _nested_plan(box)
        denom, pair_key = _pair_keys(box)[:2]
        inner, outer = _nested_splits(box)
        key = pair_key[inner] + pair_key[outer]
        four = pt.delta[inner] + pt.delta[outer]
        np.testing.assert_allclose(key / denom, four,
                                   rtol=1e-12, atol=1e-12)
        # Resonance decided in integers: the four-wave phase times the
        # product M of the four n1 is sum +-(M m1^3 - (M / m1) m2^2).
        n1, n2 = box.n1, box.n2
        modes = (pt.k_idx[inner], pt.l_idx[inner], pt.k_idx[outer],
                 pt.out_idx[outer])
        M = np.prod([n1[m] for m in modes], axis=0)
        numer = sum(sign * (M * n1[m] ** 3 - (M // n1[m]) * n2[m] ** 2)
                    for sign, m in zip((1, 1, 1, -1), modes))
        assert (numer == 0).any() and (numer != 0).any()
        np.testing.assert_array_equal(key == 0, numer == 0)
        # Each nested split's stored number points to the phase of its
        # key, and every key that occurs has exactly one phase.
        numbers = _plan_numbers(box)
        number = np.concatenate([group.ravel() for group in numbers])
        np.testing.assert_array_equal(plan.phases[number], key / denom)
        assert len(np.unique(key)) == len(plan.phases)
        dtype = np.min_scalar_type(len(plan.phases))
        assert all(group.dtype == dtype for group in numbers)

    def test_overflow_is_typed(self):
        # lcm(1..30) 30^3 is about 6e16; lcm(1..37) 37^3 is past int64,
        # and at N1 = 32 so is a sum of four keys.
        _omega_keys(LatticeBox(30, 30))
        for n1_max in (32, 37):
            with pytest.raises(PhaseKeyOverflowError, match="LatticeBox"):
                _omega_keys(LatticeBox(n1_max, 0))
        assert issubclass(PhaseKeyOverflowError, ValueError)


class TestStreamedContraction:
    """B, C and F come from one pass in zero-padded blocks of a fixed
    number of sample rows, whatever the batch."""

    @pytest.mark.parametrize("size", [4, 6], ids=["4x4", "6x6"])
    def test_bitwise_invariant_across_batches(self, rng, size):
        box = LatticeBox(size, size)
        t = 0.8
        U0 = rng.standard_normal((17, box.size)) \
            + 1j * rng.standard_normal((17, box.size))
        singles = [_picard_coeffs(box, u, t) for u in U0]
        if size == 6:
            assert picard._row_block(box) < 17
        for batch in (2, 5, 8, 17):
            B, C, F = _picard_coeffs(box, U0[:batch], t)
            for i, (b, c, f) in enumerate(singles[:batch]):
                np.testing.assert_array_equal(B[i], b)
                np.testing.assert_array_equal(C[i], c)
                np.testing.assert_array_equal(F[i], f)

    @pytest.mark.parametrize("t", [0.0, 0.8])
    @pytest.mark.parametrize("batch", [1, 5, 17])
    @pytest.mark.parametrize("size", [2, 4, 6], ids=["2x2", "4x4", "6x6"])
    def test_b_matches_separate_pass(self, rng, size, batch, t):
        # B of the one pass against the separate pass it replaces, written
        # out: per block of rows, the segment sum of U_k U_l i phi1(delta)
        # over the pair table, times -(n1/2) e^{i omega t}.
        box = LatticeBox(size, size)
        pt = pair_table(box)
        U0 = rng.standard_normal((batch, box.size)) \
            + 1j * rng.standard_normal((batch, box.size))
        kernel = 1j * phi1(pt.delta, t)
        coef = -0.5 * box.n1 * np.exp(1j * box.omega * t)
        want = np.empty_like(U0)
        rows = picard._row_block(box)
        for s in range(0, batch, rows):
            Xs = U0[s:s + rows]
            conv = segment_sum(Xs[:, pt.k_idx] * Xs[:, pt.l_idx] * kernel,
                               pt.seg_starts)
            np.multiply(coef, conv, out=want[s:s + rows])
        np.testing.assert_array_equal(_picard_coeffs(box, U0, t)[0], want)

    def test_peak_memory_at_8x8_is_bounded(self, rng):
        # The whole-table form held several complex values per sample and
        # nested split: 595 MB of temporaries here.
        box = LatticeBox(8, 8)
        assert _group_sizes(box).sum() == 5_309_304
        U0 = rng.standard_normal((2, box.size)) \
            + 1j * rng.standard_normal((2, box.size))
        need = max(_build_bytes(box), _pass_bytes(box, 2))
        _nested_plan.cache_clear()
        out = []
        peak = traced_peak(lambda: out.extend(_picard_coeffs(box, U0, 0.5)))
        assert all(np.isfinite(X).all() for X in out)
        assert peak <= 64 * 2 ** 20
        assert peak <= need

    def test_pass_at_8x8_holds_nothing_over_the_key_range(self, rng):
        # With the plan built, a pass takes phi1 of the phases that occur
        # (35,689 here), not a complex table over all 1,397,761 keys of
        # the key range (22 MB and a 30 MiB peak when it did).
        box = LatticeBox(8, 8)
        keys = _key_ranks(box)[2]
        assert 2 * int(keys[-1] - keys[0]) + 1 == 1_397_761
        assert len(_nested_plan(box).phases) == 35_689
        U0 = rng.standard_normal((2, box.size)) \
            + 1j * rng.standard_normal((2, box.size))
        peak = traced_peak(_picard_coeffs, box, U0, 0.5)
        assert peak <= 12 * 2 ** 20

    def test_phase_count_is_the_plans(self):
        # The pass is counted once the plan is built, from its phases: one
        # per distinct four-wave key of the nested splits, 35,689 at 8x8,
        # where the pairs of the 1,120 distinct pair keys would allow
        # 627,760.
        for n1 in range(1, 9):
            for n2 in range(9):
                box = LatticeBox(n1, n2)
                denom, key = _pair_keys(box)
                by_l = key[np.argsort(pair_table(box).l_idx, kind="stable")]
                occur = np.unique(np.concatenate(
                    [np.unique(key[m0:m1, None] + by_l[m0:m1])
                     for m0, m1 in _groups(box)] + [key[:0]]))
                plan = _nested_plan(box)
                assert len(occur) == len(plan.phases), box
                np.testing.assert_array_equal(plan.phases, occur / denom)
        assert len(_nested_plan(LatticeBox(8, 8)).phases) == 35_689

    def test_block_holds_three_pair_table_arrays(self, rng):
        # Each group's product overwrites its own operands, so a block of
        # 8 rows holds P, Q and one scratch array over the 11,430 splits
        # of 6x6, besides the pass's four arrays over the pair table (phi1,
        # the B kernel and the two split factors) and 1 MiB of small
        # arrays; with a fourth block array the peak read 6.85 MiB.
        box = LatticeBox(6, 6)
        n_pairs = len(pair_table(box))
        assert n_pairs == 11_430 and picard._row_block(box) == 8
        U0 = rng.standard_normal((8, box.size)) \
            + 1j * rng.standard_normal((8, box.size))
        _nested_plan(box)
        peak = traced_peak(_picard_coeffs, box, U0, 0.5)
        assert peak <= (3 * 8 + 4) * n_pairs * 16 + (1 << 20)

    @pytest.mark.parametrize("batch", [1, 2, 8])
    def test_peak_within_memory_check_at_6x6(self, rng, batch):
        # The pre-flight check counts _build_bytes, then _pass_bytes; the
        # traced peak of building the plan and one pass must not exceed
        # the larger.
        box = LatticeBox(6, 6)
        U0 = rng.standard_normal((batch, box.size)) \
            + 1j * rng.standard_normal((batch, box.size))
        need = max(_build_bytes(box), _pass_bytes(box, batch))
        _nested_plan.cache_clear()
        peak = traced_peak(_picard_coeffs, box, U0, 0.5)
        assert peak <= need

    def test_block_holds_arrays_over_one_chunk(self, rng):
        # A block of 8 rows holds P, Q and S over one chunk of whole
        # groups, at most _CHUNK_SPLITS splits (1,011 of the 11,430 at
        # 6x6), besides the pass's five arrays over the pair table (the B
        # kernel, phi1 and the two split factors, and U_k's and l's
        # indices) and 1 MiB of small arrays.  With P, Q and S over the
        # whole table the peak read 5.4 MiB.
        box = LatticeBox(6, 6)
        pt = pair_table(box)
        plan = _nested_plan(box)
        width = max(pt.seg_starts[l1] - pt.seg_starts[l0]
                    for l0, l1 in plan.chunks)
        assert width <= picard._CHUNK_SPLITS and len(plan.chunks) == 12
        U0 = rng.standard_normal((8, box.size)) \
            + 1j * rng.standard_normal((8, box.size))
        peak = traced_peak(_picard_coeffs, box, U0, 0.5)
        assert peak <= (5 * len(pt) + 3 * 8 * width) * 16 + (1 << 20)

    def test_pass_holds_operands_over_one_chunk(self, rng):
        # A warm pass over 8 rows at 6x6 forms each chunk's operands (the
        # B kernel, phi1 and the two split factors, and U_k's and l's
        # indices) and its nested splits' phase numbers once, and holds
        # them over the widest chunk (1,011 splits; 106,100 nested splits
        # at most), besides the block's P, Q and S, index arrays no larger
        # than the plan's rank table and 1 MiB of small arrays.  With the
        # five operand arrays over the whole pair table the peak read
        # 1.90 MiB.
        box = LatticeBox(6, 6)
        pt = pair_table(box)
        plan = _nested_plan(box)
        starts = pt.seg_starts
        width = max(starts[l1] - starts[l0] for l0, l1 in plan.chunks)
        nested = max(_group_sizes(box)[l0:l1].sum()
                     for l0, l1 in plan.chunks)
        assert (width, nested) == (1_011, 106_100)
        U0 = rng.standard_normal((8, box.size)) \
            + 1j * rng.standard_normal((8, box.size))
        _picard_coeffs(box, U0, 0.5)
        peak = traced_peak(_picard_coeffs, box, U0, 0.5)
        assert peak <= ((3 * 8 + 5) * width * 16
                        + plan.table.itemsize * nested
                        + plan.rank.nbytes + (1 << 20))

    @pytest.mark.parametrize("t", [0.0, 0.8])
    @pytest.mark.parametrize("batch", [1, 5, 17])
    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6],
                             ids=["2x2", "3x3", "4x4", "5x5", "6x6"])
    def test_cf_match_whole_table_pass(self, rng, size, batch, t):
        # C and F of the chunked pass against the whole-table pass, written
        # out: per block of rows, P and Q over the whole pair table, one
        # product per group with the outer splits sorted stably by l, and
        # the outer sums in pair-table order.  Tables of one chunk run the
        # same operations in the same order, bit for bit.
        box = LatticeBox(size, size)
        pt = pair_table(box)
        denom, key = _pair_keys(box)[:2]
        by_l = np.argsort(pt.l_idx, kind="stable")
        back = np.argsort(by_l)
        U0 = rng.standard_normal((batch, box.size)) \
            + 1j * rng.standard_normal((batch, box.size))
        phi_pair = phi1(pt.delta, t)
        fac_inner = (box.n1[pt.out_idx] / (2.0 * pt.delta)).astype(complex)
        fac_outer = (box.n1[pt.l_idx] / (2.0 * pt.delta)).astype(complex)
        coef = 1j * box.n1 * np.exp(1j * box.omega * t)
        rows = picard._row_block(box)
        want_c, want_f = np.empty_like(U0), np.empty_like(U0)
        for s in range(0, batch, rows):
            n = min(rows, batch - s)
            X = np.zeros((rows, box.size), dtype=complex)
            X[:n] = U0[s:s + n]
            P = X[:, pt.k_idx] * X[:, pt.l_idx]
            Q = P * fac_inner
            sums = segment_sum(Q, pt.seg_starts)
            PQ = np.concatenate([P, Q])
            Y = np.empty_like(PQ)
            for m0, m1 in _groups(box):
                kernel = phi1((key[m0:m1, None] + key[by_l[m0:m1]]) / denom,
                              t)
                Y[:, m0:m1] = PQ[:, m0:m1] @ kernel
            U_k = X[:, pt.k_idx]
            terms_f = np.multiply(U_k, Y[:rows, back] * fac_outer)
            terms_c = np.multiply(
                U_k, Y[rows:, back] - sums[:, pt.l_idx] * phi_pair)
            want_f[s:s + n] = np.multiply(
                -coef, segment_sum(terms_f, pt.seg_starts))[:n]
            want_c[s:s + n] = np.multiply(
                coef, segment_sum(terms_c, pt.seg_starts))[:n]
        _, C, F = _picard_coeffs(box, U0, t)
        if len(_nested_plan(box).chunks) == 1:
            np.testing.assert_array_equal(C, want_c)
            np.testing.assert_array_equal(F, want_f)
        else:
            assert size >= 4
            for got, want in ((C, want_c), (F, want_f)):
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("n1", range(1, 9))
    def test_count_bounds_build_and_pass(self, rng, n1):
        # Each pre-flight stage bounds its own traced peak on every box up
        # to 8x8, whether the table is one chunk or many: _build_bytes the
        # build's from cold, _pass_bytes one pass's with the plan held.
        for n2 in range(9):
            box = LatticeBox(n1, n2)
            for batch in (1, 8):
                U0 = rng.standard_normal((batch, box.size)) \
                    + 1j * rng.standard_normal((batch, box.size))
                build, one_pass = _stage_peaks(box, U0)
                assert build <= _build_bytes(box), (box, batch)
                assert one_pass <= _pass_bytes(box, batch), (box, batch)

    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("size", [6, 8], ids=["6x6", "8x8"])
    def test_count_is_within_twice_the_peak(self, rng, size, batch):
        # The larger stage count is at most twice the peak of building the
        # plan and one pass, the pair table included.  The count that
        # bounded the phases before the build read 2.34 and 6.75 times it
        # at batch 8.
        box = LatticeBox(size, size)
        U0 = rng.standard_normal((batch, box.size)) \
            + 1j * rng.standard_normal((batch, box.size))
        need = max(_build_bytes(box), _pass_bytes(box, batch))
        assert need <= 2 * max(_stage_peaks(box, U0))


class TestExtract:
    def test_extract_d_is_definitional(self, box22, make_field):
        u0 = make_field(box22)
        u_t = make_field(box22)
        t, eps = 0.5, 0.3
        a = apply_free_flow(box22, u0, t)
        bundle = PicardBundle.build(box22, u0, t, eps)
        b = bundle.b
        c = bundle.c
        expected = (u_t - a - eps * b - (eps ** 2) * c) / eps ** 3
        got = extract_d(u_t, bundle)
        np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_extract_w_is_definitional(self, box22, make_field):
        u0 = make_field(box22)
        u_t = make_field(box22)
        t, eps = 0.5, 0.3
        v = u_t + eps * s_map(box22, u_t, u_t)
        a = apply_free_flow(box22, u0, t)
        s00 = apply_free_flow(box22, s_map(box22, u0, u0), t)
        bundle = PicardBundle.build(box22, u0, t, eps)
        f = bundle.f
        expected = (v - a - eps * s00 - (eps ** 2) * f) / eps ** 3
        got = extract_w(u_t, bundle)
        np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_extract_rejects_zero_eps(self, box22, make_field):
        u0 = make_field(box22)
        with pytest.raises(ValueError):
            extract_d(u0, PicardBundle.build(box22, u0, 0.5, 0.0))
        with pytest.raises(ValueError):
            extract_w(u0, PicardBundle.build(box22, u0, 0.5, 0.0))

    def test_w_equals_gauged_remainder(self, box22, make_field):
        # Algebraic identity valid for every state u_t, not only ODE
        # solutions: w = s(b,b) + 2 s(a,c) + 2 eps s(b,c)
        #              + eps^2 s(c,c) + lambda_eps(d).
        u0 = make_field(box22)
        u_t = make_field(box22)
        t, eps = 0.4, 0.25
        bundle = PicardBundle.build(box22, u0, t, eps)
        a, b, c = bundle.a, bundle.b, bundle.c
        d = extract_d(u_t, bundle)
        w = extract_w(u_t, bundle)

        def s(x, y):
            return s_map(box22, x, y)

        recon = (s(b, b) + 2.0 * s(a, c) + 2.0 * eps * s(b, c)
                 + (eps ** 2) * s(c, c) + lambda_eps(d, bundle))
        np.testing.assert_allclose(w, recon, rtol=0,
                                   atol=1e-12 * np.abs(recon).max())


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4)],
                         ids=["2x2", "3x3", "4x4"])
def test_w_residual_holds_off_trajectory(shape, make_field):
    # The decomposition closes for any state, on or off the trajectory:
    # for a random real state and for one evolved at a step that
    # calibration rejects.
    box = LatticeBox(*shape)
    u0 = make_field(box, hermitian=True)
    t, eps = 1.0, 0.3
    rough = 4.0 * _default_dt(box)
    with pytest.raises(CalibrationError):
        calibrate_dt(box, u0, eps, t, dt0=rough, max_halvings=1)
    bundle = PicardBundle.build(box, u0, t, eps)
    for u_t in (make_field(box, hermitian=True),
                evolve_coeffs(box, u0, eps, [t], rough)[0]):
        assert np.isfinite(u_t).all()
        assert w_residual(u_t, bundle) <= 1e-10


def test_each_bilinear_split_sum_is_taken_once(box22, make_field,
                                               monkeypatch):
    # s_map is linear in its first argument: lambda_eps takes its four
    # terms in one, through 2 eps (a + eps b + eps^2 c) + eps^4 d,
    # w_residual its three s(., c) terms in one, and extract_w two more
    # (4 and 10 expanded).
    bundle = PicardBundle.build(box22, make_field(box22), 0.4, 0.25)
    calls = []
    split_sum = operators._split_sum

    def counted(*args, **kwargs):
        calls.append(1)
        return split_sum(*args, **kwargs)

    monkeypatch.setattr(operators, "_split_sum", counted)
    lambda_eps(make_field(box22), bundle)
    assert len(calls) == 1
    w_residual(make_field(box22), bundle)
    assert len(calls) == 1 + 5


class TestLambdaEps:
    def test_matches_manual_polynomial(self, box22, make_field):
        u0 = make_field(box22)
        d = make_field(box22)
        t, eps = 0.6, 0.2
        bundle = PicardBundle.build(box22, u0, t, eps)
        a, b, c = bundle.a, bundle.b, bundle.c

        def s(x, y):
            return s_map(box22, x, y)

        expected = (d + 2.0 * eps * (s(a, d) + eps * s(b, d)
                                     + (eps ** 2) * s(c, d))
                    + (eps ** 4) * s(d, d))
        got = lambda_eps(d, bundle)
        np.testing.assert_allclose(got, expected, rtol=1e-13)

    def test_roundtrip(self, box22, make_field):
        u0 = make_field(box22)
        d = make_field(box22)
        bundle = PicardBundle.build(box22, u0, 0.6, 0.1)
        g = lambda_eps(d, bundle)
        rec = invert_lambda_eps(g, bundle)
        np.testing.assert_allclose(rec, d, rtol=0,
                                   atol=1e-11 * np.abs(d).max())

    def test_non_contracting_regime_raises(self, box22, make_field):
        u0 = 50.0 * make_field(box22)
        g = 50.0 * make_field(box22)
        bundle = PicardBundle.build(box22, u0, 0.5, 1.0)
        # Overflowing iterates raise no RuntimeWarning (an error under
        # the suite's filters): the iteration silences numpy itself.
        with pytest.raises(NonContractionError):
            invert_lambda_eps(g, bundle)

    def test_max_iter_exceeded(self, box22, make_field):
        u0 = 0.5 * make_field(box22)
        d = 0.5 * make_field(box22)
        bundle = PicardBundle.build(box22, u0, 0.5, 0.05)
        g = lambda_eps(d, bundle)
        with pytest.raises(MaxIterExceededError):
            invert_lambda_eps(g, bundle, tol=1e-30, max_iter=2)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, box22, make_field, max_iter):
        # Rejected before iterating: with no iteration there is no residual
        # to report.
        bundle = PicardBundle.build(box22, make_field(box22), 0.5, 0.05)
        with pytest.raises(ValueError, match="^max_iter must be >= 1"):
            invert_lambda_eps(make_field(box22), bundle, max_iter=max_iter)


def test_bundle_build_matches_parts(box22, make_field):
    u0 = make_field(box22)
    t, eps = 0.7, 0.15
    bundle = PicardBundle.build(box22, u0, t, eps)
    assert bundle.box is box22
    assert bundle.t == t and bundle.eps == eps
    np.testing.assert_array_equal(bundle.u0, u0)
    np.testing.assert_array_equal(bundle.a, apply_free_flow(box22, u0, t))
    B, C, F = _picard_coeffs(box22, u0, t)
    np.testing.assert_array_equal(bundle.b, B)
    np.testing.assert_array_equal(bundle.c, C)
    np.testing.assert_array_equal(bundle.f, F)
