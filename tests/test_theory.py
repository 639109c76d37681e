"""Closed-form moment predictions checked against quadrature and brute force."""

import numpy as np
import pytest
from scipy.integrate import quad

from kpwaves.lattice import LatticeBox, omega
from kpwaves.ensemble import RandomLaw, SpectrumProfile
from kpwaves.theory import (
    KRON_CONVENTIONS,
    TheoryContext,
    box_limit_f2,
    f2_diag,
    f2_diag_all,
    f3,
    g_n_rate,
    h_rate,
    pair_majorant,
    pair_prediction,
    triple_majorant,
    triple_prediction,
    weighted_sum_pair,
    weighted_sum_triple,
    zero_sum_triples,
    _f3_all,
    _one_minus_cos,
)


@pytest.fixture(scope="module")
def ctx33():
    box = LatticeBox(3, 3)
    profile = SpectrumProfile.power_decay(box, 1.0, 1.5)
    return TheoryContext.from_profile(profile, RandomLaw.steinhaus())


@pytest.fixture(scope="module")
def ctx22_twopoint():
    box = LatticeBox(2, 2)
    profile = SpectrumProfile.power_decay(box, 0.7, 1.0)
    law = RandomLaw.two_point(0.5, 1.5, 0.3)
    return TheoryContext.from_profile(profile, law)


def test_context_from_profile(ctx33):
    box = ctx33.box
    lam = SpectrumProfile.power_decay(box, 1.0, 1.5).lambdas()
    np.testing.assert_allclose(ctx33.lam2, lam ** 2, rtol=1e-15)
    assert ctx33.m2 == 1.0 and ctx33.m4 == 1.0


def test_context_rejects_misaligned_profile():
    box = LatticeBox(2, 2)
    with pytest.raises(ValueError):
        TheoryContext(box=box, lam2=np.ones(3), m2=1.0, m4=1.0)


@pytest.mark.parametrize("d, t", [(1e-9, 1.0), (1e-6, 1.0), (4.0, 2.5e-10),
                                  (4.0, 2.5e-7)])
def test_one_minus_cos_is_stable_at_small_phase(d, t):
    x = d * t
    series = t * t / 2.0 * (1.0 - x * x / 12.0)
    assert _one_minus_cos(d, t) == pytest.approx(series, rel=1e-14, abs=0)


class TestPairCorrection:
    modes = [(1, 0), (2, 1), (-3, 2), (1, -3)]

    @pytest.mark.parametrize("n", modes)
    def test_rate_is_time_derivative(self, ctx33, n):
        t, h = 0.8, 1e-6
        diff = (f2_diag(ctx33, n, t + h) - f2_diag(ctx33, n, t - h)) / (2 * h)
        rate = g_n_rate(ctx33, n, t)
        assert diff == pytest.approx(rate, abs=1e-6 * max(1.0, abs(rate)))

    @pytest.mark.parametrize("n", [(1, 0), (2, 1), (-2, 2)])
    def test_equals_integrated_rate(self, ctx22_twopoint, n):
        ctx = ctx22_twopoint
        t = 1.3
        integral, est_err = quad(lambda tau: g_n_rate(ctx, n, tau), 0.0, t,
                                 limit=200, epsabs=1e-12, epsrel=1e-12)
        assert est_err < 1e-9
        assert f2_diag(ctx, n, t) == pytest.approx(integral, abs=1e-9)

    def test_starts_at_zero(self, ctx33):
        assert f2_diag(ctx33, (2, 1), 0.0) == 0.0

    def test_vectorized_matches_scalar(self, ctx22_twopoint):
        ctx = ctx22_twopoint
        t = 0.9
        allvals = f2_diag_all(ctx, t)
        for i, (n1, n2) in enumerate(ctx.box.modes):
            single = f2_diag(ctx, (int(n1), int(n2)), t)
            assert allvals[i] == pytest.approx(single, rel=1e-12, abs=1e-15)

    def test_pair_prediction_structure(self, ctx22_twopoint):
        ctx = ctx22_twopoint
        n, t, eps = (2, 1), 0.7, 0.2
        assert pair_prediction(ctx, n, (1, 1), t, eps) == 0.0
        i_n = ctx.box.index(n)
        expected = ctx.m2 * ctx.lam2[i_n] + eps ** 2 * f2_diag(ctx, n, t)
        assert pair_prediction(ctx, n, n, t, eps) == pytest.approx(expected,
                                                                  rel=1e-14)


class TestTripleCorrection:
    def test_nonresonant_triples_vanish(self, ctx33):
        assert f3(ctx33, (1, 0), (1, 0), (1, 0), 0.5) == 0.0
        assert f3(ctx33, (1, 0), (2, 1), (-3, 0), 0.5) == 0.0

    def test_zero_time_vanishes(self, ctx33):
        assert f3(ctx33, (1, 0), (1, 0), (-2, 0), 0.0) == 0.0

    @pytest.mark.parametrize("kron", KRON_CONVENTIONS)
    @pytest.mark.parametrize("triple", [
        ((1, 0), (1, 0), (-2, 0)),
        ((1, 1), (1, -1), (-2, 0)),
        ((2, 1), (-1, 1), (-1, -2)),
    ])
    def test_h_rate_is_gauged_derivative(self, ctx22_twopoint, triple, kron):
        ctx = ctx22_twopoint
        n, m, p = triple
        Om = omega(n) + omega(m) + omega(p)

        def gauged(t):
            return np.exp(-1j * Om * t) * f3(ctx, n, m, p, t, kron=kron)

        t, h = 0.6, 1e-6
        diff = (gauged(t + h) - gauged(t - h)) / (2 * h)
        rate = h_rate(ctx, n, m, p, t, kron=kron)
        assert abs(diff - rate) <= 1e-6 * max(1.0, abs(rate))

    def test_conventions_differ_on_repeated_indices(self, ctx22_twopoint):
        ctx = ctx22_twopoint
        args = ((1, 0), (1, 0), (-2, 0), 0.5)
        a = f3(ctx, *args, kron="half_opposite")
        b = f3(ctx, *args, kron="repeated")
        assert a != b

    def test_unknown_convention_rejected(self, ctx33):
        with pytest.raises(ValueError):
            f3(ctx33, (1, 0), (1, 0), (-2, 0), 0.5, kron="other")

    def test_triple_prediction_is_scaled_f3(self, ctx33):
        n, m, p, t, eps = (1, 1), (1, 0), (-2, -1), 0.8, 0.15
        expected = eps * f3(ctx33, n, m, p, t)
        assert triple_prediction(ctx33, n, m, p, t, eps) == expected

    def test_sign_flips_value(self, ctx33):
        args = ((1, 0), (1, 0), (-2, 0), 0.5)
        plus = f3(ctx33, *args, sign=1.0)
        minus = f3(ctx33, *args, sign=-1.0)
        assert plus == -minus != 0


def test_zero_sum_triples_matches_brute_force(box22):
    i_n, i_m, i_p = zero_sum_triples(box22)
    got = {(int(a), int(b), int(c)) for a, b, c in zip(i_n, i_m, i_p)}
    expected = set()
    modes = [tuple(map(int, mode)) for mode in box22.modes]
    for a, na in enumerate(modes):
        for b, nb in enumerate(modes):
            rest = (-na[0] - nb[0], -na[1] - nb[1])
            if rest in box22:
                expected.add((a, b, box22.index(rest)))
    assert got == expected


@pytest.mark.parametrize("kron", KRON_CONVENTIONS)
def test_f3_all_matches_scalar(ctx22_twopoint, kron):
    ctx = ctx22_twopoint
    t, sign = 0.7, 1.0
    (i_n, i_m, i_p), vals, _, _ = _f3_all(ctx, t, kron, sign)
    modes = ctx.box.modes
    for r in range(0, len(vals), 7):
        n = tuple(map(int, modes[i_n[r]]))
        m = tuple(map(int, modes[i_m[r]]))
        p = tuple(map(int, modes[i_p[r]]))
        single = f3(ctx, n, m, p, t, kron=kron, sign=sign)
        assert vals[r] == pytest.approx(single, rel=1e-12, abs=1e-15)


class TestWeightedSums:
    def test_zero_at_time_zero(self, ctx33):
        assert weighted_sum_pair(ctx33, 1.0, 0.0) == 0.0
        assert weighted_sum_triple(ctx33, 1.0, 0.0) == 0.0

    def test_majorants_dominate_on_grid(self, ctx22_twopoint):
        ctx = ctx22_twopoint
        s = 1.0
        pm = pair_majorant(ctx, s)
        tm = triple_majorant(ctx, s)
        for t in np.arange(0.0, 20.0, 0.5):
            assert weighted_sum_pair(ctx, s, t) <= pm
            assert weighted_sum_triple(ctx, s, t) <= tm

    def test_majorants_grow_with_box(self):
        # With a fixed unnormalized profile, enlarging the box only adds
        # nonnegative terms to both bounds.
        law = RandomLaw.steinhaus()
        pair_vals, triple_vals = [], []
        for half in (3, 4, 5):
            box = LatticeBox(half, half)
            profile = SpectrumProfile.power_decay(box, 0.3, 2.0)
            ctx = TheoryContext.from_profile(profile, law)
            pair_vals.append(pair_majorant(ctx, 1.0))
            triple_vals.append(triple_majorant(ctx, 1.0))
        assert pair_vals == sorted(pair_vals)
        assert triple_vals == sorted(triple_vals)
        assert pair_vals[0] < pair_vals[-1]
        assert triple_vals[0] < triple_vals[-1]


class TestBoxLimit:
    def test_rejects_excess_kurtosis(self):
        with pytest.raises(ValueError):
            box_limit_f2((1, 0), 4, 0.5, 1.0, m2=1.0, m4=3.0)

    def test_rejects_zero_first_coordinate(self):
        with pytest.raises(ValueError):
            box_limit_f2((0, 1), 4, 0.5, 1.0)

    def test_zero_time(self):
        assert box_limit_f2((1, 0), 4, 0.5, 0.0) == 0.0

    def test_quartic_in_amplitude_quadratic_in_m2(self):
        base = box_limit_f2((1, 0), 4, 0.5, 1.0)
        assert box_limit_f2((1, 0), 4, 1.0, 1.0) == pytest.approx(
            16.0 * base, rel=1e-12)
        scaled = box_limit_f2((1, 0), 4, 0.5, 1.0, m2=3.0, m4=18.0)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    @pytest.mark.parametrize("n", [(1, 0), (1, 1), (-2, 1)])
    def test_window_is_complete(self, n):
        # Brute force over a much larger window; the extra terms all have
        # zero spectral weight, so the sums must agree to roundoff.
        N, lam, t, pad = 4, 0.6, 1.0, 12
        lam2 = lam * lam

        def inside(a1, a2):
            return a1 != 0 and max(abs(a1), abs(a2)) <= N

        n1, n2 = n
        Ln = lam2 if inside(n1, n2) else 0.0
        total = 0.0
        R1 = N + abs(n1) + pad
        R2 = N + abs(n2) + pad
        for k1 in range(-R1, R1 + 1):
            for k2 in range(-R2, R2 + 1):
                l1, l2 = n1 - k1, n2 - k2
                if k1 == 0 or l1 == 0:
                    continue
                Lk = lam2 if inside(k1, k2) else 0.0
                Ll = lam2 if inside(l1, l2) else 0.0
                coef = k1 * Ln * Ll + l1 * Ln * Lk - n1 * Lk * Ll
                if coef == 0.0:
                    continue
                d = omega((k1, k2)) + omega((l1, l2)) - omega(n)
                total += coef * (1.0 - np.cos(d * t)) / d ** 2
        expected = -n1 * total
        got = box_limit_f2(n, N, lam, t)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_flat_interior_split_has_no_weight(self):
        # When n, k, and l all carry the flat spectrum the coefficient is
        # lam^4 (k1 + l1 - n1) = 0, so only boundary splits contribute.
        N, lam2 = 4, 0.25
        n = (1, 0)
        for k1 in range(-N, N + 1):
            for k2 in range(-N, N + 1):
                l1, l2 = n[0] - k1, n[1] - k2
                if k1 == 0 or l1 == 0:
                    continue
                if max(abs(k1), abs(k2)) <= N and max(abs(l1), abs(l2)) <= N:
                    coef = (k1 * lam2 * lam2 + l1 * lam2 * lam2
                            - n[0] * lam2 * lam2)
                    assert coef == 0.0
