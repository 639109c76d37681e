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
    pair_majorant,
    pair_prediction,
    triple_majorant,
    triple_prediction,
    weighted_sum_pair,
    weighted_sum_triple,
    zero_sum_triples,
    _f2_at,
    _f3_amplitude,
    _one_minus_cos,
    _triple_index,
)


def g_n_rate(ctx, n, t):
    """Growth rate of the eps^2 pair correction at mode n, from the term
    table of f2_diag: -n1 (m2^2 sum_g + sum_r) of coef sin(delta t) / delta.
    """
    return _f2_at(ctx, n, lambda c, d: c * np.sin(d * t) / d)


def h_rate(ctx, n, m, p, t, kron="half_opposite", sign=1.0):
    """Time derivative of the gauged triple coefficient e^{-i Omega t} f3."""
    idx = _triple_index(ctx.box, n, m, p, kron)
    if idx is None:
        return 0.0 + 0.0j
    amp, Om = _f3_amplitude(ctx, *idx, kron)
    return complex(sign * (-1j) * np.exp(-1j * Om * t) * amp)


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


def _f2_terms_reference(ctx, n):
    """(coef, delta, generic) of every term of F2 at mode n, by brute force.

    generic marks the splits k + l = n, weighted by m2^2; the others are
    the repeated-index splits (-n, 2n) and (n/2, n/2) with the excess
    kurtosis factor m4 - 2 m2^2.
    """
    box, L = ctx.box, ctx.lam2
    i_n = box.index(n)
    terms = []
    for k in box:
        l = (n[0] - k[0], n[1] - k[1])
        if l in box:
            i_k, i_l = box.index(k), box.index(l)
            coef = (k[0] * L[i_n] * L[i_l] + l[0] * L[i_n] * L[i_k]
                    - n[0] * L[i_k] * L[i_l])
            terms.append((coef, omega(k) + omega(l) - omega(n), True))
    excess = ctx.m4 - 2.0 * ctx.m2 ** 2
    two_n = (2 * n[0], 2 * n[1])
    if two_n in box:
        d = omega((-n[0], -n[1])) + omega(two_n) - omega(n)
        terms.append((excess * 2.0 * n[0] * L[i_n] ** 2, d, False))
    half = (n[0] // 2, n[1] // 2)
    if n[0] % 2 == 0 and n[1] % 2 == 0 and half in box:
        d = 2.0 * omega(half) - omega(n)
        coef = -excess * (n[0] / 2.0) * L[box.index(half)] ** 2
        terms.append((coef, d, False))
    return terms


def _f2_bracket_reference(ctx, n, weight):
    return sum((ctx.m2 ** 2 if generic else 1.0) * weight(coef, d)
               for coef, d, generic in _f2_terms_reference(ctx, n))


def _f3_amplitude_reference(ctx, n, m, p, kron, magnitudes=False):
    """m2^2 * cyclic + (m4 - 2 m2^2) * kronecker of F3, one triple at a time.

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


def _zero_sum_reference(box):
    modes = list(box)
    return [(n, m, (-n[0] - m[0], -n[1] - m[1])) for n in modes for m in modes
            if (-n[0] - m[0], -n[1] - m[1]) in box]


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
        # f2_diag and g_n_rate against the brute-force terms, f2_diag_all
        # against f2_diag; in the 2x2 box six modes have 2n inside and six
        # are even.
        ctx = ctx22_twopoint
        kron_modes = sum(not all(g for _, _, g in _f2_terms_reference(ctx, n))
                         for n in ctx.box)
        assert kron_modes == 12
        for t in (0.0, 0.9, 7.5):
            allvals = f2_diag_all(ctx, t)
            for i, n in enumerate(ctx.box):
                f2 = -n[0] * _f2_bracket_reference(
                    ctx, n, lambda c, d: c * _one_minus_cos(d, t))
                rate = -n[0] * _f2_bracket_reference(
                    ctx, n, lambda c, d: c * np.sin(d * t) / d)
                single = f2_diag(ctx, n, t)
                assert single == pytest.approx(f2, rel=1e-12, abs=1e-15)
                assert allvals[i] == pytest.approx(single, rel=1e-12,
                                                   abs=1e-15)
                assert g_n_rate(ctx, n, t) == pytest.approx(rate, rel=1e-12,
                                                            abs=1e-15)

    def test_majorant_matches_reference(self, ctx22_twopoint):
        ctx = ctx22_twopoint
        s = 1.0
        expected = sum(
            abs(n[0]) * (abs(n[0]) + abs(n[1])) ** (2 * s) * abs(n[0])
            * _f2_bracket_reference(ctx, n,
                                    lambda c, d: abs(c) * 2.0 / d ** 2)
            for n in ctx.box)
        assert pair_majorant(ctx, s) == pytest.approx(expected, rel=1e-12)

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

    @pytest.mark.parametrize("fn", [
        lambda ctx, kron: f3(ctx, (1, 0), (1, 0), (-2, 0), 0.5, kron=kron),
        lambda ctx, kron: h_rate(ctx, (1, 0), (1, 0), (-2, 0), 0.5,
                                 kron=kron),
        lambda ctx, kron: weighted_sum_triple(ctx, 1.0, 0.5, kron=kron),
        lambda ctx, kron: triple_majorant(ctx, 1.0, kron=kron),
        lambda ctx, kron: f3(ctx, (1, 0), (1, 0), (1, 0), 0.5, kron=kron),
        lambda ctx, kron: h_rate(ctx, (1, 0), (1, 0), (1, 0), 0.5,
                                 kron=kron),
    ], ids=["f3", "h_rate", "weighted_sum_triple", "triple_majorant",
            "f3-off-plane", "h_rate-off-plane"])
    def test_unknown_convention_rejected(self, ctx33, fn):
        fn(ctx33, "repeated")
        with pytest.raises(ValueError):
            fn(ctx33, "other")

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
def test_f3_all_matches_scalar(ctx22_twopoint, ctx33, kron):
    # f3, h_rate, the weighted sum and its majorant against the
    # one-triple formula, on every zero-sum triple of the box (repeated-
    # index triples such as (1,0), (1,0), (-2,0) included), with excess
    # kurtosis of either sign (two-point law > 0, Steinhaus < 0).
    t, s = 0.7, 1.0
    for ctx in (ctx22_twopoint, ctx33):
        triples = _zero_sum_reference(ctx.box)
        assert ((1, 0), (1, 0), (-2, 0)) in triples
        for sign in (1.0, -1.0):
            wsum = bound = 0.0
            for n, m, p in triples:
                Om = omega(n) + omega(m) + omega(p)
                amp = _f3_amplitude_reference(ctx, n, m, p, kron)
                val = sign * (1.0 - np.exp(1j * Om * t)) / Om * amp
                rate = sign * (-1j) * np.exp(-1j * Om * t) * amp
                got = f3(ctx, n, m, p, t, kron=kron, sign=sign)
                assert got == pytest.approx(val, rel=1e-12, abs=1e-15)
                got = h_rate(ctx, n, m, p, t, kron=kron, sign=sign)
                assert got == pytest.approx(rate, rel=1e-12, abs=1e-15)
                w = np.sqrt(abs(n[0] * m[0] * p[0])) * (
                    (abs(n[0]) + abs(n[1])) * (abs(m[0]) + abs(m[1]))
                    * (abs(p[0]) + abs(p[1]))) ** s
                wsum += w * abs(val)
                bound += w * 2.0 / abs(Om) * _f3_amplitude_reference(
                    ctx, n, m, p, kron, magnitudes=True)
            got, = weighted_sum_triple(ctx, s, [t], kron=kron, sign=sign)
            assert got == pytest.approx(wsum, rel=1e-12)
            assert triple_majorant(ctx, s, kron=kron) == pytest.approx(
                bound, rel=1e-12)


class TestWeightedSums:
    def test_zero_at_time_zero(self, ctx33):
        assert weighted_sum_pair(ctx33, 1.0, [0.0]).tolist() == [0.0]
        assert weighted_sum_triple(ctx33, 1.0, [0.0]).tolist() == [0.0]

    @pytest.mark.parametrize("fn", [weighted_sum_pair, weighted_sum_triple])
    def test_grid_matches_single_times(self, ctx22_twopoint, fn):
        # One value per grid time, each the value that time gives alone.
        grid = np.array([0.0, 0.3, 7.5, 100.0])
        sums = fn(ctx22_twopoint, 1.0, grid)
        assert sums.shape == grid.shape
        for t, value in zip(grid, sums):
            assert fn(ctx22_twopoint, 1.0, t).tolist() == [value]

    @pytest.mark.parametrize("kron", KRON_CONVENTIONS)
    def test_majorants_dominate_on_grid(self, ctx22_twopoint, kron):
        ctx = ctx22_twopoint
        s = 1.0
        pm = pair_majorant(ctx, s)
        tm = triple_majorant(ctx, s, kron=kron)
        grid = np.arange(0.0, 20.0, 0.5)
        assert (weighted_sum_pair(ctx, s, grid) <= pm).all()
        assert (weighted_sum_triple(ctx, s, grid, kron=kron) <= tm).all()

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
