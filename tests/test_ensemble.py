"""Sampling determinism, law moments, estimators, and remainder scans."""

import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpwaves import ensemble
from kpwaves.lattice import LatticeBox, hs_norm
from kpwaves.dynamics import (NonFiniteError, _default_dt, _evolve_bytes,
                              evolve_coeffs)
from kpwaves.ensemble import (
    _moment_sums,
    MomentReport,
    ScanResult,
    estimate_moments,
    fit_log_slope,
    remainder_growth,
    remainder_scan,
)
from kpwaves.theory import zero_sum_triples
from kpwaves.sampling import (
    RandomLaw,
    SpectrumProfile,
    normalize_profile,
    sample_g_batch,
    sample_u0,
)

from conftest import is_real_symmetric, mode_list, traced_peak

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
        assert is_real_symmetric(box22, u0, tol=1e-14)
        cap = law.r_max * profile.lambdas()
        assert np.all(np.abs(u0) <= cap + 1e-14)


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
        assert hs_norm(box33, u0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_bounded_law_sample_stays_below_one(self, box33):
        law = RandomLaw.clipped_gaussian(1.0, 1.4)
        profile = normalize_profile(
            SpectrumProfile.power_decay(box33, 2.0, 1.5), law, 0.5)
        for index in range(4):
            u0 = sample_u0(profile, law, 9, index)
            assert hs_norm(box33, u0, 0.5) <= 1.0 + 1e-12

    def test_zero_profile_rejected(self, box22):
        profile = SpectrumProfile.single_mode(box22, (1, 0), 0.0)
        with pytest.raises(ValueError):
            normalize_profile(profile, RandomLaw.steinhaus(), 1.0)


class TestEstimateMoments:
    def estimate(self, box, **kw):
        profile = SpectrumProfile.power_decay(box, 0.5, 1.0)
        defaults = dict(eps=0.0, t=0.8, sample_count=32,
                        pairs=(((1, 0), (1, 0)), ((2, 1), (2, 1))),
                        triples=(((1, 0), (1, 0), (-2, 0)),),
                        seed=3, dt=0.05)
        defaults.update(kw)
        return estimate_moments(profile, RandomLaw.steinhaus(), **defaults)

    def test_free_flow_diagonals_are_exact(self, box22):
        # At eps = 0 with unit moduli, |u_n(t)|^2 = lambda_n^2 for every
        # sample, so the estimator must hit the prediction to roundoff
        # with vanishing standard error.
        report = self.estimate(box22)
        lam = SpectrumProfile.power_decay(box22, 0.5, 1.0).lambdas()
        for (n, m), estimate, std_error, prediction in zip(
                report.pair_index, report.estimate, report.std_error,
                report.prediction):
            expected = lam[n] ** 2
            assert estimate.real == pytest.approx(expected, rel=1e-12)
            assert abs(estimate.imag) < 1e-14
            # the one-pass variance leaves a cancellation floor of about
            # |mean| * sqrt(machine eps), far below any physical scale
            assert std_error < 1e-8
            assert abs(estimate - prediction) < 1e-12

    def test_zero_samples_yield_empty_report(self, box22):
        report = self.estimate(box22, sample_count=0)
        assert report.sample_count == 0
        assert len(report.pair_index) == 0 and len(report.triple_index) == 0
        assert report.rows() == []

    def test_z_score_at_zero_error(self, box22):
        # 0 where both the deviation and the error vanish, inf where only
        # the error does; the z_score column is the property's.
        report = MomentReport(
            eps=0.1, t=1.0, seed=0, sample_count=2, failed_samples=(),
            box=box22, pair_index=np.array([[0, 0], [1, 1], [2, 2]]),
            triple_index=np.zeros((0, 3), dtype=np.int64),
            estimate=np.array([1 + 1j, 1 + 1j, 2.0]),
            std_error=np.array([0.0, 0.0, 0.5]),
            prediction=np.array([1 + 1j, 1.0, 1.5]))
        assert report.z_score.tolist() == [0.0, math.inf, 1.0]
        assert [row[-1] for row in report.rows()] == [0.0, math.inf, 1.0]

    def test_z_score_column_is_the_scalar_quotient(self, box22):
        # abs(complex(e - p)) / s to the last bit, on every pair and
        # zero-sum triple of 2x2; np.abs of a complex array rounds the
        # modulus differently from abs of a Python complex.
        modes = mode_list(box22)
        i, j = np.triu_indices(box22.size)
        report = self.estimate(
            box22, eps=0.3, sample_count=64,
            pairs=[(modes[a], modes[b]) for a, b in zip(i, j)],
            triples=[tuple(modes[k] for k in trip)
                     for trip in zip(*zero_sum_triples(box22))])
        rows = report.rows()
        assert len(rows) == len(i) + len(zero_sum_triples(box22)[0])
        for row in rows:
            e, s, p = complex(*row[7:9]), row[9], complex(*row[10:12])
            assert s > 0 and row[12] == abs(complex(e - p)) / s, row

    @pytest.mark.parametrize("kw", [
        dict(pairs=(((1, 0), (1, 0)), ((5, 0), (1, 0)))),
        dict(pairs=np.array([[[1, 0], [5, 0]]])),
        dict(triples=(((1, 0), (1, 0), (-2, 0)), ((1, 0), (5, 0), (-6, 0)))),
    ], ids=["pairs", "pair-array", "triples"])
    def test_mode_outside_box_names_it(self, box22, kw):
        with pytest.raises(ValueError) as info:
            self.estimate(box22, **kw)
        assert str(info.value) == "mode (5, 0) is outside LatticeBox(2, 2)"

    def test_batch_size_does_not_change_results(self, box22, monkeypatch):
        diagonal = tuple((n, n) for n in mode_list(box22))
        reports = []
        for size in (7, 16, 200, 1, 65):
            monkeypatch.setattr(ensemble, "_BATCH", size)
            reports.append(self.estimate(box22, eps=0.1, sample_count=200,
                                         pairs=diagonal))
        for other in reports[1:]:
            for name in ("pair_index", "triple_index", "estimate",
                         "std_error"):
                np.testing.assert_array_equal(getattr(other, name),
                                              getattr(reports[0], name))

    def test_block_sums_match_fsum(self, box22):
        # 150 evolved samples fed in batches of 50, so that batches cut
        # across the 64-sample blocks, against math.fsum of the same
        # summands taken one sample at a time.
        law = RandomLaw.clipped_gaussian(0.8, 1.6)
        profile = SpectrumProfile.power_decay(box22, 0.5, 1.0)
        G = sample_g_batch(box22, law, 3, np.arange(150))
        U = evolve_coeffs(box22, profile.lambdas() * G, 0.1, [0.5], 0.05)[0]
        pair_idx = [(0, 0), (3, 3), (3, 7), (12, 2)]
        trip_idx = [(5, 5, 12), (16, 1, 10)]
        sums = _moment_sums(box22, np.array(pair_idx), np.array(trip_idx))
        for lo in range(0, 150, 50):
            sums.add(U[lo:lo + 50])
        got = sums.finish().reshape(2, 6, 2)
        rows = [[complex(u[a]) * complex(u[b]).conjugate()
                 for a, b in pair_idx]
                + [complex(u[a]) * complex(u[b]) * complex(u[c])
                   for a, b, c in trip_idx] for u in U]
        for r, col in enumerate(zip(*rows)):
            # Relative to the moduli: the imaginary part of U_a conj(U_a)
            # is roundoff, whose sum has no scale of its own.
            scale = math.fsum(abs(z) for z in col)
            scale2 = math.fsum(abs(z) ** 2 for z in col)
            for i, vals in enumerate(([z.real for z in col],
                                      [z.imag for z in col])):
                assert abs(got[0, r, i] - math.fsum(vals)) <= 1e-13 * scale
                assert (abs(got[1, r, i] - math.fsum(v * v for v in vals))
                        <= 1e-13 * scale2)

    def test_threads_hold_at_most_threads_batches(self, box22, monkeypatch):
        # Ten batches on two threads, reduced slowly: a batch is held from
        # the end of its evolution to the end of its reduction.  With
        # every batch submitted at once, nine were held together.
        monkeypatch.setattr(ensemble, "_BATCH", 16)
        lock = threading.Lock()
        held, most = [0], [0]

        def evolve(*args):
            states = evolve_coeffs(*args)
            with lock:
                held[0] += 1
                most[0] = max(most[0], held[0])
            return states

        add = ensemble._BlockSums.add

        def slow_add(self, rows):
            time.sleep(0.02)
            add(self, rows)
            with lock:
                held[0] -= 1

        monkeypatch.setattr(ensemble, "evolve_coeffs", evolve)
        monkeypatch.setattr(ensemble._BlockSums, "add", slow_add)
        report = self.estimate(box22, eps=0.1, sample_count=160, threads=2)
        assert report.sample_count == 160 and held == [0]
        assert most[0] <= 2

    def test_threads_do_not_change_results(self, box22, monkeypatch):
        monkeypatch.setattr(ensemble, "_BATCH", 16)
        serial = self.estimate(box22, eps=0.1, sample_count=64, threads=1)
        threaded = self.estimate(box22, eps=0.1, sample_count=64, threads=3)
        np.testing.assert_array_equal(serial.pair_index, threaded.pair_index)
        np.testing.assert_array_equal(serial.triple_index,
                                      threaded.triple_index)
        np.testing.assert_array_equal(serial.estimate, threaded.estimate)


def _whole_width_sums(box, pair_idx, trip_idx):
    """_moment_sums with the products of every column of a block formed at
    once: the block sum of the moment summands, written out."""
    pair_idx, trip_idx = pair_idx.tolist(), trip_idx.tolist()
    n_pairs = len(pair_idx)
    a_idx = np.array([p[0] for p in pair_idx + trip_idx], dtype=np.int64)
    b_idx = np.array([j for _, j in pair_idx]
                     + [box.size + p[1] for p in trip_idx], dtype=np.int64)
    c_idx = np.array([p[2] for p in trip_idx], dtype=np.int64)

    def block_sum(U):
        x = (np.take(U, a_idx, axis=1)
             * np.take(np.concatenate([np.conj(U), U], axis=1), b_idx,
                       axis=1))
        x[:, n_pairs:] *= np.take(U, c_idx, axis=1)
        parts = x.view(float)
        return np.concatenate([parts.sum(axis=0),
                               np.square(parts).sum(axis=0)])

    return ensemble._BlockSums(block_sum)


class TestStreamedReduction:
    @pytest.fixture(scope="class")
    def evolved33(self, box33):
        law = RandomLaw.clipped_gaussian(0.8, 1.6)
        profile = SpectrumProfile.power_decay(box33, 1.0, 1.5)
        G = sample_g_batch(box33, law, 3, np.arange(150))
        return evolve_coeffs(box33, profile.lambdas() * G, 0.1, [0.5],
                             0.05)[0]

    @pytest.mark.parametrize("n_pairs, n_triples", [
        pytest.param(512, 0, id="pairs-only"),
        pytest.param(0, 300, id="triples-only"),
        pytest.param(300, 100, id="boundary-in-chunk"),
        pytest.param(903, 666, id="partial-last-chunk"),
    ])
    def test_chunks_match_whole_width_block_sum(self, box33, evolved33,
                                                n_pairs, n_triples):
        # 3x3 has 903 pairs and 666 zero-sum triples.  In chunks of 256
        # columns: two whole chunks of pairs; one partial chunk of
        # triples; pairs giving way to triples at column 300 of the chunk
        # [256, 512); and 1569 columns, whose last chunk holds 33.  The
        # 150 samples come in batches of 50, which cut the blocks.
        assert ensemble._COLUMNS == 256
        pairs = np.stack(np.triu_indices(box33.size), axis=1)[:n_pairs]
        triples = np.stack(zero_sum_triples(box33), axis=1)[:n_triples]
        assert len(pairs) == n_pairs and len(triples) == n_triples
        chunked = _moment_sums(box33, pairs, triples)
        whole = _whole_width_sums(box33, pairs, triples)
        for lo in range(0, 150, 50):
            chunked.add(evolved33[lo:lo + 50])
            whole.add(evolved33[lo:lo + 50])
        got, want = chunked.finish(), whole.finish()
        assert got.shape == want.shape == (4 * (n_pairs + n_triples),)
        np.testing.assert_array_equal(got.view(np.int64),
                                      want.view(np.int64))

    def test_second_add_does_not_copy_the_batch(self):
        # A carried partial block is topped up from the head of the next
        # batch and the rest is reduced where it lies: the second add of
        # 2048 rows holds one block, not a copy of the batch.  The totals
        # are those of a single add of every row.
        rows = np.random.default_rng(5).random((100 + 2048, 64))
        sums = ensemble._BlockSums(lambda block: block.sum(axis=0))
        sums.add(rows[:100])
        batch = rows[100:]
        assert traced_peak(sums.add, batch) < batch.nbytes / 8
        once = ensemble._BlockSums(lambda block: block.sum(axis=0))
        once.add(rows)
        np.testing.assert_array_equal(sums.finish(), once.finish())

    def test_peak_within_states_and_chunk_buffers(self, box33):
        # All 1569 moments of 3x3 over 1000 samples.  The samples, their
        # evolved states and the stepper's registers, grid and stage
        # matrices take under five state arrays; a block's products take
        # three chunk buffers: 3.95 MiB.  With buffers over every column,
        # made before stepping, the peak read 8.7 MiB; it reads 3.2 MiB.
        law = RandomLaw.steinhaus()
        profile = SpectrumProfile.power_decay(box33, 1.0, 1.5)
        modes = mode_list(box33)
        i, j = np.triu_indices(box33.size)
        pairs = [(modes[a], modes[b]) for a, b in zip(i, j)]
        triples = [tuple(modes[k] for k in trip)
                   for trip in zip(*zero_sum_triples(box33))]

        def run(count):
            return estimate_moments(profile, law, 0.1, 1.0, count,
                                    pairs=pairs, triples=triples, dt=0.02)

        run(8)
        states = 1000 * box33.size * 16
        chunks = 3 * ensemble._BLOCK * ensemble._COLUMNS * 16
        assert traced_peak(run, 1000) <= 5 * states + chunks


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
    def scan(self, box21, **kw):
        profile = SpectrumProfile.power_decay(box21, 0.3, 1.0)
        defaults = dict(eps_grid=(0.2, 0.15, 0.1), t=0.5, sample_count=8,
                        seed=0, dt=0.05, rotations=1)
        defaults.update(kw)
        return remainder_scan(profile, RandomLaw.steinhaus(), **defaults)

    def test_short_eps_grid_rejected(self, box21):
        with pytest.raises(ValueError):
            self.scan(box21, eps_grid=(0.2, 0.1))

    def test_nonpositive_eps_rejected(self, box21):
        with pytest.raises(ValueError):
            self.scan(box21, eps_grid=(0.2, 0.1, -0.05))

    def test_zero_rotations_rejected(self, box21):
        with pytest.raises(ValueError):
            self.scan(box21, rotations=0)

    def test_zero_samples_rejected(self, box21):
        with pytest.raises(ValueError):
            self.scan(box21, sample_count=0)

    def test_unbalanced_triple_rejected(self, box21):
        with pytest.raises(ValueError):
            self.scan(box21, triple=((1, 0), (1, 0), (-2, 1)))

    def test_small_scan_runs(self, box21):
        result = self.scan(box21, sample_count=32)
        assert len(result.points) == 3
        for point in result.points:
            assert point.pair_value >= 0 and point.triple_value >= 0
            assert np.isfinite(point.pair_error)

    def test_batch_size_does_not_change_results(self, box21, monkeypatch):
        results = []
        for size in (80, 7):
            monkeypatch.setattr(ensemble, "_BATCH", size)
            results.append(self.scan(box21, sample_count=80, rotations=2))
        one, split = results
        assert one == split

    def test_eps_grid_steps_within_batch(self, box21, monkeypatch):
        # Each call evolves the samples of as many eps as fit in _BATCH
        # rows: 250 samples step their four eps at once, per rotation;
        # 600 take three and then one; 1500 one at a time.
        rows = []

        def evolve(box, U0, *args):
            rows.append(len(U0))
            return evolve_coeffs(box, U0, *args)

        monkeypatch.setattr(ensemble, "evolve_coeffs", evolve)
        grid = (0.2, 0.15, 0.1, 0.07)
        for count, rotations, calls in ((250, 2, [1000] * 2),
                                        (600, 1, [1800, 600]),
                                        (1500, 1, [1500] * 4)):
            rows.clear()
            self.scan(box21, eps_grid=grid, sample_count=count,
                      rotations=rotations)
            assert rows == calls
            assert max(rows) <= ensemble._BATCH

    def test_diverging_sample_raises(self, box22, monkeypatch):
        profile, law, U0 = _diverging_start(box22)
        for e in (0.5, 0.7):
            assert np.isfinite(evolve_coeffs(box22, U0, e, [1.0], 0.05)).all()
        _, first = _first_nonfinite(evolve_coeffs(box22, U0, 1.0, [1.0],
                                                  0.05))
        assert first >= 4  # in the second batch of four
        # The three eps of a batch step in one call; a batch of four takes
        # them one at a time.  Either way the first diverging sample of
        # the first eps that has one is named.
        for size in (ensemble._BATCH, 4):
            monkeypatch.setattr(ensemble, "_BATCH", size)
            with pytest.raises(
                    NonFiniteError,
                    match=rf"^sample {first} diverged at eps = 1\.0$"):
                remainder_scan(profile, law, (0.5, 0.7, 1.0), 1.0, 8,
                               dt=0.05, rotations=1)

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

    @pytest.mark.parametrize("size, times", [
        pytest.param((2, 1), (0.1, 0.2, 0.3), id="2x1"),
        pytest.param((4, 4), (0.1, 0.2, 0.3), id="4x4"),
        pytest.param((2, 1), tuple(0.05 * np.arange(1, 97)),
                     id="2x1-96-times"),
    ])
    def test_peak_per_sample_within_the_count(self, size, times):
        # The pre-flight budgets the states and the stepper's box-sized
        # arrays per sample (dynamics._evolve_bytes) besides the Picard
        # pass; the traced peak's rise from 256 to 512 samples is that
        # per-sample cost (fixed tables cancel).  The
        # subtraction after stepping read 9 arrays when it formed A and D
        # beside B, C and F and kept the last pass's arrays into the next.
        # Over 96 grid times a divergence mask over every state at once
        # read 109.5 arrays against the 103 counted.
        box = LatticeBox(*size)
        law = RandomLaw.steinhaus()
        profile = SpectrumProfile.power_decay(box, 0.3, 1.0)
        remainder_growth(profile, law, 0.1, times, 2, dt=0.05)
        peaks = [traced_peak(lambda: remainder_growth(
                     profile, law, 0.1, times, count, dt=0.05))
                 for count in (256, 512)]
        per_sample = (peaks[1] - peaks[0]) / (256 * box.size * 16)
        counts = [_evolve_bytes(box, count, len(times))
                  for count in (256, 512)]
        assert per_sample <= (counts[1] - counts[0]) / (256 * box.size * 16)

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

    @pytest.mark.parametrize("size", [4, 8])
    def test_divergence_names_sample_across_batches(self, box22, monkeypatch,
                                                    size):
        # Streamed in batches of four, the first divergence lies in the
        # second batch; the message names its index in the ensemble.
        monkeypatch.setattr(ensemble, "_BATCH", size)
        profile, law, U0 = _diverging_start(box22)
        times = (0.25, 0.5, 0.75, 1.0)
        i_t, first = _first_nonfinite(evolve_coeffs(box22, U0, 1.0, times,
                                                    0.05))
        assert first >= 4
        with pytest.raises(NonFiniteError,
                           match=rf"^sample {first} diverged by "
                                 rf"t = {times[i_t]}$"):
            remainder_growth(profile, law, 1.0, times, 8, dt=0.05)

    @pytest.mark.parametrize("box", [LatticeBox(2, 1), LatticeBox(4, 4)],
                             ids=["2x1-dense", "4x4-fft"])
    def test_batching_does_not_change_results(self, box, monkeypatch):
        # The growth streams its samples in batches; batches of three give
        # the fit of one batch bit for bit, on either squarer of the
        # stepper.
        profile = SpectrumProfile.power_decay(box, 0.3, 1.0)
        args = (profile, RandomLaw.two_point(0.5, 1.5, 0.3), 0.1,
                (0.5, 1.0, 1.5), 10)
        one = remainder_growth(*args, seed=2, dt=_default_dt(box))
        monkeypatch.setattr(ensemble, "_BATCH", 3)
        assert remainder_growth(*args, seed=2, dt=_default_dt(box)) == one
