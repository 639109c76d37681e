"""Random initial data and Monte Carlo moment estimation.

Initial fields are u0_n = lambda_n g_n with g_n = R_n e^{2 pi i theta_n},
theta_n uniform on [0, 1), R_n drawn from a bounded modulus law, and the
reality constraint g_{-n} = conj(g_n).  Draws are generated by a counter
hash of (seed, sample index, n1, n2), so any sample of any ensemble can
be reproduced in isolation, independent of batching or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import LatticeBox, SpectralField, hs_weights
from . import theory
from .dynamics import calibrate_dt, evolve_coeffs, NonFiniteError
from .picard import _picard_b_coeffs, _picard_c_coeffs

__all__ = [
    "RandomLaw",
    "SpectrumProfile",
    "normalize_profile",
    "sample_u0",
    "sample_g_batch",
    "EnsembleConfig",
    "MomentEntry",
    "MomentReport",
    "estimate_moments",
    "ScanConfig",
    "ScanPoint",
    "ScanResult",
    "remainder_scan",
    "GrowthFit",
    "remainder_growth",
    "fit_log_slope",
]


# ---------------------------------------------------------------------------
# counter-based uniforms

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_PHASE_SALT = np.uint64(0x243F6A8885A308D3)
_MODULUS_SALT = np.uint64(0x13198A2E03707344)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise on uint64."""
    x = (x + _GAMMA).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x = (x * _MIX1).astype(np.uint64)
    x ^= x >> np.uint64(27)
    x = (x * _MIX2).astype(np.uint64)
    x ^= x >> np.uint64(31)
    return x


def _uniforms(seed: int, index, n1, n2, salt: np.uint64) -> np.ndarray:
    """Deterministic uniforms in [0, 1) keyed by (seed, index, n1, n2, salt).

    The seed is mixed before the first word is absorbed; a raw seed ^ index
    start would make nearby seeds share sample sets up to permutation.
    """
    h = _mix64(np.broadcast_to(np.uint64(seed),
                               np.broadcast(index, n1).shape).copy())
    for w in (np.asarray(index, dtype=np.int64).astype(np.uint64),
              np.asarray(n1, dtype=np.int64).astype(np.uint64),
              np.asarray(n2, dtype=np.int64).astype(np.uint64),
              salt):
        h = _mix64(h ^ w)
    return (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


# ---------------------------------------------------------------------------
# modulus laws

@dataclass(frozen=True)
class RandomLaw:
    """Bounded modulus law of the random amplitudes g_n.

    kinds:
      constant          R = r almost surely (r = 1 gives Steinhaus phases)
      two_point         R = r2 with probability p, else r1
      clipped_gaussian  R = min(Rayleigh(sigma), r_max)

    All laws have closed-form second and fourth moments and an almost
    sure bound r_max, which the profile normalization uses.
    """

    kind: str
    params: tuple = ()

    @classmethod
    def constant(cls, r: float = 1.0) -> "RandomLaw":
        if r < 0:
            raise ValueError("modulus must be nonnegative")
        return cls("constant", (float(r),))

    @classmethod
    def steinhaus(cls) -> "RandomLaw":
        return cls.constant(1.0)

    @classmethod
    def two_point(cls, r1: float, r2: float, p: float) -> "RandomLaw":
        if not (0.0 <= p <= 1.0):
            raise ValueError("probability must lie in [0, 1]")
        if r1 < 0 or r2 < 0:
            raise ValueError("moduli must be nonnegative")
        return cls("two_point", (float(r1), float(r2), float(p)))

    @classmethod
    def clipped_gaussian(cls, sigma: float, r_max: float) -> "RandomLaw":
        if sigma <= 0 or r_max <= 0:
            raise ValueError("sigma and r_max must be positive")
        return cls("clipped_gaussian", (float(sigma), float(r_max)))

    @property
    def r_max(self) -> float:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "two_point":
            return max(self.params[0], self.params[1])
        return self.params[1]

    def moments(self) -> tuple[float, float]:
        """(m2, m4) = (E R^2, E R^4), in closed form."""
        if self.kind == "constant":
            r, = self.params
            return r ** 2, r ** 4
        if self.kind == "two_point":
            r1, r2, p = self.params
            m2 = (1.0 - p) * r1 ** 2 + p * r2 ** 2
            m4 = (1.0 - p) * r1 ** 4 + p * r2 ** 4
            return m2, m4
        sigma, r_max = self.params
        # Rayleigh clipped at r_max: integrate r^k on [0, r_max) plus the
        # atom at r_max carrying the tail mass e^{-U}, U = r_max^2/(2 s^2).
        U = r_max ** 2 / (2.0 * sigma ** 2)
        m2 = 2.0 * sigma ** 2 * (1.0 - math.exp(-U))
        m4 = 8.0 * sigma ** 4 * (1.0 - math.exp(-U) * (1.0 + U))
        return m2, m4

    def sample_modulus(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms in [0, 1) through the inverse CDF."""
        if self.kind == "constant":
            return np.full_like(u, self.params[0])
        if self.kind == "two_point":
            r1, r2, p = self.params
            return np.where(u < p, r2, r1)
        sigma, r_max = self.params
        return np.minimum(sigma * np.sqrt(-2.0 * np.log1p(-u)), r_max)


# ---------------------------------------------------------------------------
# spectrum profiles

@dataclass(frozen=True)
class SpectrumProfile:
    """Nonnegative even amplitude profile lambda_n on a box.

    kinds:
      power_decay   lambda_n = amplitude * (|n1| + |n2|)^{-decay}
      box_constant  lambda_n = value on max(|n1|, |n2|) <= half_width, else 0
    """

    box: LatticeBox
    kind: str
    params: tuple = ()

    @classmethod
    def power_decay(cls, box: LatticeBox, amplitude: float, decay: float
                    ) -> "SpectrumProfile":
        if amplitude < 0:
            raise ValueError("amplitude must be nonnegative")
        return cls(box, "power_decay", (float(amplitude), float(decay)))

    @classmethod
    def box_constant(cls, box: LatticeBox, half_width: int, value: float
                     ) -> "SpectrumProfile":
        if value < 0:
            raise ValueError("value must be nonnegative")
        return cls(box, "box_constant", (int(half_width), float(value)))

    @classmethod
    def single_mode(cls, box: LatticeBox, n, value: float) -> "SpectrumProfile":
        """Amplitude on the pair +/-n only; mostly a testing convenience."""
        return cls(box, "single_mode", (int(n[0]), int(n[1]), float(value)))

    def lambdas(self) -> np.ndarray:
        box = self.box
        if self.kind == "power_decay":
            amplitude, decay = self.params
            mag = (np.abs(box.n1) + np.abs(box.n2)).astype(float)
            return amplitude * mag ** (-decay)
        if self.kind == "box_constant":
            half_width, value = self.params
            inside = np.maximum(np.abs(box.n1), np.abs(box.n2)) <= half_width
            return np.where(inside, value, 0.0)
        n1, n2, value = self.params
        lam = np.zeros(box.size)
        lam[box.index((n1, n2))] = value
        lam[box.index((-n1, -n2))] = value
        return lam

    def scaled(self, factor: float) -> "SpectrumProfile":
        if self.kind == "power_decay":
            amplitude, decay = self.params
            return replace(self, params=(amplitude * factor, decay))
        if self.kind == "box_constant":
            half_width, value = self.params
            return replace(self, params=(half_width, value * factor))
        n1, n2, value = self.params
        return replace(self, params=(n1, n2, value * factor))


def normalize_profile(profile: SpectrumProfile, law: RandomLaw, s: float
                      ) -> SpectrumProfile:
    """Rescale so the almost sure Sobolev norm bound of u0 equals one.

    |u0_n| <= r_max lambda_n pointwise, so the bound is
    r_max * sqrt(sum (|n1|+|n2|)^{2s} lambda_n^2) and the profile is
    divided by it.
    """
    lam = profile.lambdas()
    norm = law.r_max * float(np.sqrt(np.sum(hs_weights(profile.box, s)
                                            * lam ** 2)))
    if norm == 0:
        raise ValueError("profile is identically zero")
    return profile.scaled(1.0 / norm)


# ---------------------------------------------------------------------------
# sampling

def sample_g_batch(box: LatticeBox, law: RandomLaw, seed: int,
                   indices: np.ndarray) -> np.ndarray:
    """Unit-profile random amplitudes g_n for a batch of sample indices.

    Returns shape (len(indices), box.size) with the reality constraint
    g(-n) = conj(g(n)) built in; draws on the n1 > 0 half determine the
    rest.
    """
    half = np.nonzero(box.n1 > 0)[0]
    n1 = box.n1[half]
    n2 = box.n2[half]
    idx = np.asarray(indices, dtype=np.int64)[:, None]
    u_phase = _uniforms(seed, idx, n1[None, :], n2[None, :], _PHASE_SALT)
    u_mod = _uniforms(seed, idx, n1[None, :], n2[None, :], _MODULUS_SALT)
    g_half = law.sample_modulus(u_mod) * np.exp(2j * np.pi * u_phase)
    G = np.zeros((len(idx), box.size), dtype=np.complex128)
    G[:, half] = g_half
    G[:, box.conj_idx[half]] = np.conj(g_half)
    return G


def sample_u0(profile: SpectrumProfile, law: RandomLaw, seed: int,
              index: int) -> SpectralField:
    """Random initial field lambda_n g_n for one sample index."""
    G = sample_g_batch(profile.box, law, seed, np.array([index]))
    return SpectralField(profile.box, profile.lambdas() * G[0], copy=False)


# ---------------------------------------------------------------------------
# moment estimation

@dataclass(frozen=True)
class EnsembleConfig:
    """Everything that determines a Monte Carlo moment run.

    pairs is a sequence of ((n), (m)) mode pairs for E u_n conj(u_m);
    triples a sequence of (n, m, p) for E u_n u_m u_p.  dt = None picks
    a step by halving until the step-doubling error of a probe sample
    falls below 1e-8.
    """

    profile: SpectrumProfile
    law: RandomLaw
    eps: float
    t: float
    sample_count: int
    pairs: tuple = ()
    triples: tuple = ()
    seed: int = 0
    dt: float | None = None
    batch_size: int = 4096
    threads: int = 1
    kron: str = "half_opposite"
    sign: float = 1.0


@dataclass(frozen=True)
class MomentEntry:
    """One estimated moment with its standard error and prediction."""

    modes: tuple
    estimate: complex
    std_error: float
    prediction: complex

    @property
    def deviation(self) -> float:
        return abs(self.estimate - self.prediction)

    @property
    def z_score(self) -> float:
        if self.std_error == 0:
            return 0.0 if self.deviation == 0 else math.inf
        return self.deviation / self.std_error


@dataclass
class MomentReport:
    """Estimates, errors and predictions of one ensemble run."""

    COLUMNS = ("kind", "n1", "n2", "m1", "m2", "p1", "p2",
               "re_est", "im_est", "std_error", "re_pred", "im_pred",
               "z_score")

    eps: float
    t: float
    seed: int
    sample_count: int
    failed_samples: tuple
    pair_moments: dict
    triple_moments: dict

    def rows(self):
        """One dict per moment, keyed by COLUMNS; pairs leave p1, p2 empty."""
        out = []
        for kind, moments in (("pair", self.pair_moments),
                              ("triple", self.triple_moments)):
            for modes, e in moments.items():
                n, m, p = (*modes, ("", ""))[:3]
                out.append(dict(zip(self.COLUMNS, (
                    kind, *n, *m, *p, e.estimate.real, e.estimate.imag,
                    e.std_error, e.prediction.real, e.prediction.imag,
                    e.z_score))))
        return out


# Samples per block of the fixed-order reductions below, and per Picard
# evaluation in remainder_scan, whose temporaries hold one value per sample
# and triple-table entry.
_BLOCK = 64


class _BlockSums:
    """Sums over samples, taken in fixed blocks of sample index.

    Per-sample rows are fed in sample order from sample 0, in batches of
    any size.  The rows of samples [b B, (b + 1) B), B = _BLOCK, are
    mapped to summand rows by `summands` and summed as one array, and the
    block sums are added in block order, so the total is the same to the
    last bit whatever the batch size and thread count.  Mapping one block
    at a time also bounds the memory the summands take.
    """

    def __init__(self, summands):
        self.summands = summands
        self.total = 0.0
        self._rows = None

    def add(self, rows: np.ndarray) -> None:
        if self._rows is not None:
            rows = np.concatenate([self._rows, rows])
        full = len(rows) - len(rows) % _BLOCK
        for lo in range(0, full, _BLOCK):
            self.total = self.total + self.summands(
                rows[lo:lo + _BLOCK]).sum(axis=0)
        self._rows = rows[full:].copy()

    def finish(self) -> np.ndarray:
        """The total with the last, partial block added."""
        return self.total + self.summands(self._rows).sum(axis=0)


def estimate_moments(cfg: EnsembleConfig) -> MomentReport:
    """Monte Carlo estimates of the requested pair and triple moments.

    The estimator is the plain sample mean over sample_count draws, with
    componentwise standard errors combined in quadrature.  Samples whose
    evolved state is non-finite are dropped and reported by index.  The
    result is a pure function of the config, including the seed; batch
    size and thread count only affect speed.
    """
    box = cfg.profile.box
    lam = cfg.profile.lambdas()
    dt = cfg.dt
    if dt is None:
        probe = sample_u0(cfg.profile, cfg.law, cfg.seed, 0)
        dt = calibrate_dt(box, probe, cfg.eps, cfg.t)

    pair_idx = [(box.index(n), box.index(m)) for n, m in cfg.pairs]
    trip_idx = [(box.index(n), box.index(m), box.index(p))
                for n, m, p in cfg.triples]
    pa = np.array([i for i, _ in pair_idx], dtype=np.int64)
    pb = np.array([j for _, j in pair_idx], dtype=np.int64)
    ta = np.array([i for i, _, _ in trip_idx], dtype=np.int64)
    tb = np.array([j for _, j, _ in trip_idx], dtype=np.int64)
    tc = np.array([k for _, _, k in trip_idx], dtype=np.int64)

    n_pairs, n_trips = len(pair_idx), len(trip_idx)
    width = n_pairs + n_trips

    def summands(U):
        X = np.concatenate([U[:, pa] * np.conj(U[:, pb]),
                            U[:, ta] * U[:, tb] * U[:, tc]], axis=1)
        return np.concatenate([X.real, X.imag, X.real ** 2, X.imag ** 2],
                              axis=1)

    sums = _BlockSums(summands)
    failed: list[int] = []
    good = 0

    def run_batch(start: int, stop: int):
        idx = np.arange(start, stop, dtype=np.int64)
        G = sample_g_batch(box, cfg.law, cfg.seed, idx)
        U0 = lam * G
        U = evolve_coeffs(box, U0, cfg.eps, [cfg.t], dt)[0]
        ok = np.isfinite(U.view(float)).all(axis=1)
        return idx, U, ok

    batches = [(s, min(s + cfg.batch_size, cfg.sample_count))
               for s in range(0, cfg.sample_count, cfg.batch_size)]

    def reduce_all(results):
        # Runs in fixed batch order regardless of thread count.  A failed
        # sample keeps its row, zeroed, which leaves every sum unchanged.
        nonlocal good
        for idx, U, ok in results:
            failed.extend(int(i) for i in idx[~ok])
            good += int(ok.sum())
            U[~ok] = 0.0
            sums.add(U)

    if cfg.threads > 1 and len(batches) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=cfg.threads) as ex:
            reduce_all(ex.map(lambda ab: run_batch(*ab), batches))
    else:
        reduce_all(run_batch(*ab) for ab in batches)

    if good == 0:
        if cfg.sample_count > 0:
            raise RuntimeError("every sample diverged; nothing to estimate")
        return MomentReport(eps=cfg.eps, t=cfg.t, seed=cfg.seed,
                            sample_count=0, failed_samples=(),
                            pair_moments={}, triple_moments={})

    ctx = theory.TheoryContext.from_profile(cfg.profile, cfg.law)
    tot_re, tot_im, tot_re2, tot_im2 = sums.finish().reshape(4, width)

    def finish(cols, count):
        mean = (tot_re[cols] + 1j * tot_im[cols]) / count
        var_re = np.maximum(tot_re2[cols] / count - mean.real ** 2, 0.0)
        var_im = np.maximum(tot_im2[cols] / count - mean.imag ** 2, 0.0)
        se = np.sqrt((var_re + var_im) / max(count - 1, 1))
        return mean, se

    pair_entries = {}
    if n_pairs:
        mean, se = finish(slice(0, n_pairs), good)
        for r, (n, m) in enumerate(cfg.pairs):
            pred = theory.pair_prediction(ctx, n, m, cfg.t, cfg.eps)
            pair_entries[(tuple(n), tuple(m))] = MomentEntry(
                modes=(tuple(n), tuple(m)), estimate=complex(mean[r]),
                std_error=float(se[r]), prediction=pred)
    trip_entries = {}
    if n_trips:
        mean, se = finish(slice(n_pairs, width), good)
        for r, (n, m, p) in enumerate(cfg.triples):
            pred = theory.triple_prediction(ctx, n, m, p, cfg.t, cfg.eps,
                                            kron=cfg.kron, sign=cfg.sign)
            trip_entries[(tuple(n), tuple(m), tuple(p))] = MomentEntry(
                modes=(tuple(n), tuple(m), tuple(p)),
                estimate=complex(mean[r]), std_error=float(se[r]),
                prediction=pred)

    return MomentReport(eps=cfg.eps, t=cfg.t, seed=cfg.seed,
                        sample_count=good, failed_samples=tuple(failed),
                        pair_moments=pair_entries,
                        triple_moments=trip_entries)


# ---------------------------------------------------------------------------
# remainder scans

def fit_log_slope(xs, ys) -> tuple[float, float]:
    """Least-squares slope of log(y) against log(x), with its standard error."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if lx.size < 3:
        raise ValueError("need at least three points to fit a slope")
    design = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(design, ly, rcond=None)
    ss = float(res[0]) if len(res) else float(np.sum((ly - design @ coef) ** 2))
    var = ss / (lx.size - 2) / float(np.sum((lx - lx.mean()) ** 2))
    return float(coef[0]), float(np.sqrt(var))


@dataclass(frozen=True)
class ScanConfig:
    """Settings for the common-random-number scan of expansion remainders.

    The same sample indices are reused at every eps, so Monte Carlo noise
    largely cancels in the differences against the closed low-order terms.
    Each base sample is further averaged over `rotations` global phase
    rotations of its initial data; a term survives the average only when
    its total phase winding is a multiple of `rotations`, which removes
    the dominant odd-winding fluctuations without touching any mean.
    """

    profile: SpectrumProfile
    law: RandomLaw
    eps_grid: tuple
    t: float
    sample_count: int
    triple: tuple = ((1, 0), (1, 0), (-2, 0))
    seed: int = 0
    dt: float | None = None
    batch_size: int = 2048
    rotations: int = 4


@dataclass(frozen=True)
class ScanPoint:
    """Remainder sizes at one eps, with delta-method standard errors."""

    eps: float
    pair_value: float
    pair_error: float
    triple_value: float
    triple_error: float


@dataclass(frozen=True)
class ScanResult:
    """Scan table and fitted log-log slopes.

    A channel whose remainder is statistically indistinguishable from
    zero somewhere on the grid gets slope None instead of a fit.
    """

    points: tuple
    pair_slope: float | None
    pair_slope_err: float
    triple_slope: float | None
    triple_slope_err: float

    @property
    def noise_dominated(self) -> bool:
        return self.pair_slope is None or self.triple_slope is None


def _check_scan(cfg: ScanConfig) -> list:
    """Check the arguments of remainder_scan; return the triple's box indices.

    Each ValueError starts with the configuration key it rejects.
    """
    if len(cfg.eps_grid) < 3:
        raise ValueError("eps: a scan needs at least three values")
    if any(e <= 0 for e in cfg.eps_grid):
        raise ValueError("eps: values must be positive")
    if cfg.rotations < 1:
        raise ValueError("rotations: must be >= 1")
    if cfg.sample_count < 1:
        raise ValueError("sample_count: must be >= 1")
    triple = cfg.triple
    if (sum(m[0] for m in triple) != 0
            or sum(m[1] for m in triple) != 0):
        raise ValueError(f"triple: {triple} does not sum to zero")
    try:
        return [cfg.profile.box.index(n) for n in triple]
    except ValueError as exc:
        raise ValueError(f"triple: {exc}") from None


def remainder_scan(cfg: ScanConfig) -> ScanResult:
    """Measure how fast the pair and triple remainders shrink with eps.

    Per sample, the closed forms a, b, c are subtracted from the evolved
    state inside the expectation: the pair channel keeps
    E|u_n|^2 minus every term expressible through (a, b, c), whose
    leading survivor is O(eps^4), and the triple channel subtracts the
    orders eps^0..eps^2 of E(u_n u_m u_p), leaving O(eps^3).  The pair
    channel is aggregated over modes in quadrature; the triple channel
    tracks the single configured zero-sum triple.  Raises NonFiniteError,
    naming the sample and eps, as soon as an evolved state is non-finite.
    """
    tri = _check_scan(cfg)
    box = cfg.profile.box
    eps_grid = tuple(float(e) for e in cfg.eps_grid)

    lam = cfg.profile.lambdas()
    dt = cfg.dt
    if dt is None:
        probe = sample_u0(cfg.profile, cfg.law, cfg.seed, 0)
        dt = calibrate_dt(box, probe, max(eps_grid), cfg.t, target=1e-9)
    phase = np.exp(1j * box.dispersion().values * cfg.t)
    half_sign = np.where(box.n1 > 0, 1.0, -1.0)
    rots = [np.exp(2j * np.pi * (k / cfg.rotations) * half_sign)
            for k in range(cfg.rotations)]

    nm = box.size
    sums = _BlockSums(lambda rows: rows)

    done = 0
    while done < cfg.sample_count:
        nb = min(cfg.batch_size, cfg.sample_count - done)
        G0 = sample_g_batch(box, cfg.law, cfg.seed,
                            np.arange(done, done + nb))
        acc2 = {e: np.zeros((nb, nm)) for e in eps_grid}
        acc3 = {e: np.zeros(nb, dtype=np.complex128) for e in eps_grid}
        for rot in rots:
            U0 = G0 * rot * lam
            A = U0 * phase
            B, C = (np.concatenate([f(box, U0[i:i + _BLOCK], cfg.t)
                                    for i in range(0, nb, _BLOCK)])
                    for f in (_picard_b_coeffs, _picard_c_coeffs))
            for e in eps_grid:
                U = evolve_coeffs(box, U0, e, [cfg.t], dt)[0]
                bad = ~np.isfinite(U.view(float)).all(axis=1)
                if bad.any():
                    raise NonFiniteError(
                        f"sample {done + int(np.argmax(bad))} diverged "
                        f"at eps = {e}")
                r2 = (np.abs(U) ** 2 - np.abs(A) ** 2
                      - 2 * e * np.real(np.conj(A) * B)
                      - e * e * (np.abs(B) ** 2 + 2 * np.real(np.conj(A) * C))
                      - 2 * e ** 3 * np.real(np.conj(B) * C))
                acc2[e] += r2 / cfg.rotations
                u3, a3, b3, c3 = (X[:, tri] for X in (U, A, B, C))

                def prod(x, y, z):
                    return x[:, 0] * y[:, 1] * z[:, 2]

                r3 = (prod(u3, u3, u3) - prod(a3, a3, a3)
                      - e * (prod(b3, a3, a3) + prod(a3, b3, a3)
                             + prod(a3, a3, b3))
                      - e * e * (prod(c3, a3, a3) + prod(a3, c3, a3)
                                 + prod(a3, a3, c3) + prod(b3, b3, a3)
                                 + prod(b3, a3, b3) + prod(a3, b3, b3)))
                acc3[e] += r3 / cfg.rotations
        sums.add(np.concatenate(
            [np.column_stack([acc2[e], acc2[e] ** 2, acc3[e].real,
                              acc3[e].imag, np.abs(acc3[e]) ** 2])
             for e in eps_grid], axis=1))
        done += nb

    M = cfg.sample_count
    points = []
    for e, tot in zip(eps_grid, sums.finish().reshape(len(eps_grid), -1)):
        mean2 = tot[:nm] / M
        var2 = np.maximum(tot[nm:2 * nm] / M - mean2 ** 2, 0.0)
        se2 = np.sqrt(var2 / M)
        agg = float(np.sqrt(np.sum(mean2 ** 2)))
        agg_err = float(np.sqrt(np.sum((mean2 * se2) ** 2))
                        / max(agg, np.finfo(float).tiny))
        mean3 = complex(tot[2 * nm], tot[2 * nm + 1]) / M
        var3 = max(tot[2 * nm + 2] / M - abs(mean3) ** 2, 0.0)
        se3 = float(np.sqrt(var3 / M))
        points.append(ScanPoint(eps=e, pair_value=agg, pair_error=agg_err,
                                triple_value=abs(mean3), triple_error=se3))

    def channel(values, errors):
        if any(v < 2.0 * err for v, err in zip(values, errors)):
            return None, float("nan")
        return fit_log_slope(eps_grid, values)

    p_slope, p_err = channel([p.pair_value for p in points],
                             [p.pair_error for p in points])
    t_slope, t_err = channel([p.triple_value for p in points],
                             [p.triple_error for p in points])
    return ScanResult(points=tuple(points),
                      pair_slope=p_slope, pair_slope_err=p_err,
                      triple_slope=t_slope, triple_slope_err=t_err)


@dataclass(frozen=True)
class GrowthFit:
    """Ensemble peak remainder norms over a time grid and their fit."""

    times: tuple
    max_norms: tuple
    exponent: float
    stderr: float


def _check_growth(eps: float, times, sample_count: int) -> np.ndarray:
    """Check the arguments of remainder_growth; return the sorted times.

    Each ValueError starts with the configuration key it rejects.
    """
    if eps == 0:
        raise ValueError("eps: the remainder is undefined at eps = 0")
    grid = np.array(sorted(float(t) for t in times))
    if grid.size < 3:
        raise ValueError("t_grid: need at least three grid times")
    if grid[0] <= 0:
        raise ValueError("t_grid: grid times must be positive")
    if sample_count < 1:
        raise ValueError("sample_count: must be >= 1")
    return grid


def remainder_growth(profile: SpectrumProfile, law: RandomLaw, eps: float,
                     times, sample_count: int, seed: int = 0, s: float = 1.0,
                     dt: float | None = None) -> GrowthFit:
    """Fit the growth of the cubic-order remainder in time.

    Evolves one ensemble across the whole grid, removes the closed terms
    a + eps b + eps^2 c from each state, rescales by eps^3, and fits
    log(max over samples of the H^s norm) against log(1 + t).  Raises
    NonFiniteError, naming the first sample and grid time, when an evolved
    state is non-finite.
    """
    grid = _check_growth(eps, times, sample_count)
    box = profile.box
    lam = profile.lambdas()
    if dt is None:
        probe = sample_u0(profile, law, seed, 0)
        dt = calibrate_dt(box, probe, eps, float(grid[-1]), target=1e-9)
    G = sample_g_batch(box, law, seed, np.arange(sample_count))
    U0 = lam * G
    states = evolve_coeffs(box, U0, eps, grid, dt)
    bad = ~np.isfinite(states.view(float)).all(axis=2)
    if bad.any():
        i_t, i_s = np.argwhere(bad)[0]
        raise NonFiniteError(f"sample {i_s} diverged by t = {grid[i_t]}")
    om = box.dispersion().values
    w = hs_weights(box, s)
    peak = np.empty(grid.size)
    for i, t in enumerate(grid):
        A = U0 * np.exp(1j * om * t)
        B = _picard_b_coeffs(box, U0, t)
        C = _picard_c_coeffs(box, U0, t)
        D = (states[i] - A - eps * B - eps * eps * C) / eps ** 3
        peak[i] = float(np.sqrt(np.sum(w * np.abs(D) ** 2, axis=1)).max())
    exponent, err = fit_log_slope(1.0 + grid, peak)
    return GrowthFit(times=tuple(grid), max_norms=tuple(peak),
                     exponent=exponent, stderr=err)
