"""Sampling determinism, law moments, estimators, and remainder scans."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpwaves.lattice import LatticeBox, hs_norm
from kpwaves.dynamics import NonFiniteError, evolve_coeffs
from kpwaves.ensemble import (
    EnsembleConfig,
    RandomLaw,
    ScanConfig,
    ScanResult,
    SpectrumProfile,
    estimate_moments,
    fit_log_slope,
    normalize_profile,
    remainder_growth,
    remainder_scan,
    sample_g_batch,
    sample_u0,
)

ALL_LAWS = [
    RandomLaw.steinhaus(),
    RandomLaw.constant(1.7),
    RandomLaw.two_point(0.5, 1.5, 0.3),
    RandomLaw.clipped_gaussian(0.8, 1.6),
]


class TestSampler:
    def test_deterministic_in_seed_and_index(self, box22):
        law = RandomLaw.clipped_gaussian(1.0, 2.0)
        a = sample_g_batch(box22, law, 7, np.arange(5))
        b = sample_g_batch(box22, law, 7, np.arange(5))
        np.testing.assert_array_equal(a, b)
        c = sample_g_batch(box22, law, 8, np.arange(5))
        assert np.abs(a - c).max() > 1e-3

    def test_seeds_produce_distinct_sample_sets(self, box22):
        # Not just elementwise: the whole multiset of draws must change
        # with the seed, or scans rerun under a new seed would silently
        # reuse the old ensemble in permuted order.
        law = RandomLaw.steinhaus()
        a = sample_g_batch(box22, law, 8, np.arange(8))
        b = sample_g_batch(box22, law, 9, np.arange(8))
        assert np.abs(np.sort(a.real.ravel())
                      - np.sort(b.real.ravel())).max() > 1e-6

    def test_batch_split_invariance(self, box22):
        law = RandomLaw.two_point(0.5, 1.5, 0.3)
        whole = sample_g_batch(box22, law, 3, np.arange(8))
        first = sample_g_batch(box22, law, 3, np.arange(0, 3))
        rest = sample_g_batch(box22, law, 3, np.arange(3, 8))
        np.testing.assert_array_equal(whole, np.vstack([first, rest]))

    def test_reality_constraint(self, box22):
        G = sample_g_batch(box22, RandomLaw.steinhaus(), 0, np.arange(6))
        np.testing.assert_array_equal(G[:, box22.conj_idx], np.conj(G))

    def test_sample_u0(self, box22):
        profile = SpectrumProfile.power_decay(box22, 1.0, 1.0)
        law = RandomLaw.clipped_gaussian(0.7, 1.5)
        u0 = sample_u0(profile, law, 11, 4)
        assert u0.is_real_symmetric(tol=1e-14)
        cap = law.r_max * profile.lambdas()
        assert np.all(np.abs(u0.coeffs) <= cap + 1e-14)


class TestLawMoments:
    @pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: l.kind + str(l.params))
    def test_closed_form_matches_monte_carlo(self, law):
        rng = np.random.default_rng(42)
        u = rng.random(200_000)
        r = law.sample_modulus(u)
        m2, m4 = law.moments()
        for k, target in ((2, m2), (4, m4)):
            vals = r ** k
            se = vals.std() / math.sqrt(len(vals))
            assert abs(vals.mean() - target) < 5 * se + 1e-12

    def test_steinhaus_modulus_is_one(self):
        law = RandomLaw.steinhaus()
        r = law.sample_modulus(np.linspace(0, 0.999, 100))
        np.testing.assert_array_equal(r, 1.0)
        assert law.moments() == (1.0, 1.0)

    def test_two_point_support_and_mass(self):
        law = RandomLaw.two_point(0.5, 1.5, 0.25)
        rng = np.random.default_rng(0)
        r = law.sample_modulus(rng.random(100_000))
        assert set(np.unique(r)) == {0.5, 1.5}
        frac = float(np.mean(r == 1.5))
        assert frac == pytest.approx(0.25, abs=0.01)

    def test_clipped_stays_below_cap(self):
        law = RandomLaw.clipped_gaussian(1.0, 1.2)
        rng = np.random.default_rng(1)
        r = law.sample_modulus(rng.random(50_000))
        assert r.max() <= 1.2
        # Rayleigh(1) exceeds 1.2 with probability e^{-0.72} ~ 0.49, so
        # the cap atom must be clearly populated.
        assert float(np.mean(r == 1.2)) > 0.4

    @given(st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_fourth_moment_dominates_variance(self, r1, r2, p):
        # E R^4 >= (E R^2)^2 by Cauchy-Schwarz, for every law.
        m2, m4 = RandomLaw.two_point(r1, r2, p).moments()
        assert m4 >= m2 ** 2 - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomLaw.constant(-1.0)
        with pytest.raises(ValueError):
            RandomLaw.two_point(0.5, 1.5, 1.2)
        with pytest.raises(ValueError):
            RandomLaw.clipped_gaussian(0.0, 1.0)


def test_fourth_moment_pairing(box22):
    # Pairing structure of the amplitude field: conjugate modes share a
    # modulus, distinct half-lattice modes are independent, odd products
    # average to zero.
    law = RandomLaw.two_point(0.5, 1.5, 0.3)
    m2, m4 = law.moments()
    G = sample_g_batch(box22, law, 123, np.arange(80_000))
    i = box22.index((1, 0))
    i_conj = box22.index((-1, 0))
    j = box22.index((2, 1))

    def close(samples, target, scale=1.0):
        se = samples.std() / math.sqrt(len(samples)) + 1e-12
        assert abs(samples.mean() - target) < 5 * se, (samples.mean(), target)

    close(np.abs(G[:, i]) ** 4, m4)
    close(np.abs(G[:, i]) ** 2 * np.abs(G[:, i_conj]) ** 2, m4)
    close(np.abs(G[:, i]) ** 2 * np.abs(G[:, j]) ** 2, m2 ** 2)
    close((G[:, i] * G[:, i_conj]).real, m2)
    close((G[:, i] * G[:, i_conj]).imag, 0.0)
    close((G[:, i] * G[:, j]).real, 0.0)
    close(G[:, i].real, 0.0)
    close(G[:, i].imag, 0.0)


class TestNormalizeProfile:
    def test_steinhaus_sample_has_unit_norm(self, box33):
        law = RandomLaw.steinhaus()
        profile = normalize_profile(
            SpectrumProfile.power_decay(box33, 2.0, 1.5), law, 1.0)
        u0 = sample_u0(profile, law, 5, 0)
        assert hs_norm(u0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_bounded_law_sample_stays_below_one(self, box33):
        law = RandomLaw.clipped_gaussian(1.0, 1.4)
        profile = normalize_profile(
            SpectrumProfile.power_decay(box33, 2.0, 1.5), law, 0.5)
        for index in range(4):
            u0 = sample_u0(profile, law, 9, index)
            assert hs_norm(u0, 0.5) <= 1.0 + 1e-12

    def test_zero_profile_rejected(self, box22):
        profile = SpectrumProfile.single_mode(box22, (1, 0), 0.0)
        with pytest.raises(ValueError):
            normalize_profile(profile, RandomLaw.steinhaus(), 1.0)


class TestEstimateMoments:
    def make_cfg(self, box, **kw):
        profile = SpectrumProfile.power_decay(box, 0.5, 1.0)
        defaults = dict(profile=profile, law=RandomLaw.steinhaus(),
                        eps=0.0, t=0.8, sample_count=32,
                        pairs=(((1, 0), (1, 0)), ((2, 1), (2, 1))),
                        triples=(((1, 0), (1, 0), (-2, 0)),),
                        seed=3, dt=0.05)
        defaults.update(kw)
        return EnsembleConfig(**defaults)

    def test_free_flow_diagonals_are_exact(self, box22):
        # At eps = 0 with unit moduli, |u_n(t)|^2 = lambda_n^2 for every
        # sample, so the estimator must hit the prediction to roundoff
        # with vanishing standard error.
        report = estimate_moments(self.make_cfg(box22))
        lam = SpectrumProfile.power_decay(box22, 0.5, 1.0).lambdas()
        for (n, m), entry in report.pair_moments.items():
            expected = lam[box22.index(n)] ** 2
            assert entry.estimate.real == pytest.approx(expected, rel=1e-12)
            assert abs(entry.estimate.imag) < 1e-14
            # the one-pass variance leaves a cancellation floor of about
            # |mean| * sqrt(machine eps), far below any physical scale
            assert entry.std_error < 1e-8
            assert abs(entry.estimate - entry.prediction) < 1e-12

    def test_zero_samples_yield_empty_report(self, box22):
        report = estimate_moments(self.make_cfg(box22, sample_count=0))
        assert report.sample_count == 0
        assert report.pair_moments == {} and report.triple_moments == {}

    def test_batch_size_does_not_change_results(self, box22):
        diagonal = tuple((n, n) for n in box22)
        reports = [estimate_moments(self.make_cfg(
            box22, eps=0.1, sample_count=200, pairs=diagonal,
            batch_size=size)) for size in (7, 16, 200)]
        for other in reports[1:]:
            for key, entry in reports[0].pair_moments.items():
                assert other.pair_moments[key].estimate == entry.estimate
                assert other.pair_moments[key].std_error == entry.std_error
            for key, entry in reports[0].triple_moments.items():
                assert other.triple_moments[key].estimate == entry.estimate
                assert other.triple_moments[key].std_error == entry.std_error

    def test_threads_do_not_change_results(self, box22):
        serial = estimate_moments(self.make_cfg(box22, eps=0.1,
                                                sample_count=64,
                                                batch_size=16, threads=1))
        threaded = estimate_moments(self.make_cfg(box22, eps=0.1,
                                                  sample_count=64,
                                                  batch_size=16, threads=3))
        for key in serial.pair_moments:
            assert (serial.pair_moments[key].estimate
                    == threaded.pair_moments[key].estimate)
        for key in serial.triple_moments:
            assert (serial.triple_moments[key].estimate
                    == threaded.triple_moments[key].estimate)


class TestFitLogSlope:
    def test_recovers_exact_power_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        ys = 3.7 * xs ** 2.5
        slope, err = fit_log_slope(xs, ys)
        assert slope == pytest.approx(2.5, rel=1e-12)
        assert err < 1e-12

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_log_slope([1.0, 2.0], [1.0, 4.0])


def _diverging_start(box):
    """Initial data of 8 samples, some of which blow up before t = 1 at
    eps = 1 (dt = 0.05); all of them stay finite at eps <= 0.7."""
    profile = SpectrumProfile.power_decay(box, 10.0, 0.0)
    law = RandomLaw.steinhaus()
    U0 = profile.lambdas() * sample_g_batch(box, law, 0, np.arange(8))
    return profile, law, U0


def _first_nonfinite(states):
    """(time index, sample index) of the first non-finite state."""
    return tuple(int(i) for i in np.argwhere(
        ~np.isfinite(states.view(float)).all(axis=-1))[0])


class TestScanValidation:
    def base(self, box21, **kw):
        profile = SpectrumProfile.power_decay(box21, 0.3, 1.0)
        defaults = dict(profile=profile, law=RandomLaw.steinhaus(),
                        eps_grid=(0.2, 0.15, 0.1), t=0.5, sample_count=8,
                        seed=0, dt=0.05, rotations=1)
        defaults.update(kw)
        return ScanConfig(**defaults)

    def test_short_eps_grid_rejected(self, box21):
        with pytest.raises(ValueError):
            remainder_scan(self.base(box21, eps_grid=(0.2, 0.1)))

    def test_nonpositive_eps_rejected(self, box21):
        with pytest.raises(ValueError):
            remainder_scan(self.base(box21, eps_grid=(0.2, 0.1, -0.05)))

    def test_zero_rotations_rejected(self, box21):
        with pytest.raises(ValueError):
            remainder_scan(self.base(box21, rotations=0))

    def test_zero_samples_rejected(self, box21):
        with pytest.raises(ValueError):
            remainder_scan(self.base(box21, sample_count=0))

    def test_unbalanced_triple_rejected(self, box21):
        with pytest.raises(ValueError):
            remainder_scan(self.base(
                box21, triple=((1, 0), (1, 0), (-2, 1))))

    def test_small_scan_runs(self, box21):
        result = remainder_scan(self.base(box21, sample_count=32))
        assert len(result.points) == 3
        for point in result.points:
            assert point.pair_value >= 0 and point.triple_value >= 0
            assert np.isfinite(point.pair_error)

    def test_batch_size_does_not_change_results(self, box21):
        one, split = (remainder_scan(self.base(box21, sample_count=80,
                                               rotations=2, batch_size=size))
                      for size in (80, 7))
        assert one == split

    def test_diverging_sample_raises(self, box22):
        profile, law, U0 = _diverging_start(box22)
        for e in (0.5, 0.7):
            assert np.isfinite(evolve_coeffs(box22, U0, e, [1.0], 0.05)).all()
        _, first = _first_nonfinite(evolve_coeffs(box22, U0, 1.0, [1.0],
                                                  0.05))
        assert first >= 4  # in the second batch of four
        cfg = ScanConfig(profile=profile, law=law, eps_grid=(0.5, 0.7, 1.0),
                         t=1.0, sample_count=8, dt=0.05, rotations=1,
                         batch_size=4)
        with pytest.raises(NonFiniteError,
                           match=rf"^sample {first} diverged at eps = 1\.0$"):
            remainder_scan(cfg)

    def test_noise_dominated_property(self):
        clean = ScanResult(points=(), pair_slope=4.0, pair_slope_err=0.1,
                           triple_slope=3.0, triple_slope_err=0.1)
        noisy = ScanResult(points=(), pair_slope=None, pair_slope_err=0.0,
                           triple_slope=3.0, triple_slope_err=0.1)
        assert not clean.noise_dominated
        assert noisy.noise_dominated


class TestGrowthValidation:
    def test_zero_eps_rejected(self, box21):
        profile = SpectrumProfile.power_decay(box21, 0.3, 1.0)
        with pytest.raises(ValueError):
            remainder_growth(profile, RandomLaw.steinhaus(), 0.0,
                             (1.0, 2.0, 3.0), 8)

    def test_short_grid_rejected(self, box21):
        profile = SpectrumProfile.power_decay(box21, 0.3, 1.0)
        with pytest.raises(ValueError):
            remainder_growth(profile, RandomLaw.steinhaus(), 0.1,
                             (1.0, 2.0), 8)

    def test_nonpositive_times_rejected(self, box21):
        profile = SpectrumProfile.power_decay(box21, 0.3, 1.0)
        with pytest.raises(ValueError):
            remainder_growth(profile, RandomLaw.steinhaus(), 0.1,
                             (0.0, 1.0, 2.0), 8)

    def test_zero_samples_rejected(self, box21):
        profile = SpectrumProfile.power_decay(box21, 0.3, 1.0)
        with pytest.raises(ValueError, match="^sample_count:"):
            remainder_growth(profile, RandomLaw.steinhaus(), 0.1,
                             (1.0, 2.0, 3.0), 0)

    def test_small_growth_run(self, box21):
        profile = SpectrumProfile.power_decay(box21, 0.3, 1.0)
        fit = remainder_growth(profile, RandomLaw.steinhaus(), 0.1,
                               (1.0, 2.0, 3.0), 16, dt=0.02)
        assert len(fit.max_norms) == 3
        assert all(v > 0 for v in fit.max_norms)
        assert np.isfinite(fit.exponent) and np.isfinite(fit.stderr)

    def test_diverging_sample_raises(self, box22):
        profile, law, U0 = _diverging_start(box22)
        times = (0.25, 0.5, 0.75, 1.0)
        i_t, first = _first_nonfinite(evolve_coeffs(box22, U0, 1.0, times,
                                                    0.05))
        assert i_t > 0
        with pytest.raises(NonFiniteError,
                           match=rf"^sample {first} diverged by "
                                 rf"t = {times[i_t]}$"):
            remainder_growth(profile, law, 1.0, times, 8, dt=0.05)
