"""Monte Carlo estimators over the seeded initial data of `sampling`:
moments against the closed forms, the common-random-number scan of the
expansion remainders in eps, and the growth fit of the cubic remainder.

The three take plain arguments: the profile, the law, eps (an eps grid
for the scan), the time (a time grid for the growth fit) and
sample_count, then keywords whose defaults are those of the
configuration keys of the same name.  They draw and evolve their samples
in batches of _BATCH and take their step from dynamics._step.  A moment
is a row of box indices from the request to the report, MomentReport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import ConfigError, LatticeBox, apply_free_flow, hs_norm
from . import operators
from .dynamics import (_diverged, _evolve_bytes, _step, evolve_coeffs,
                       NonFiniteError)
from .sampling import RandomLaw, SpectrumProfile, sample_g_batch

__all__ = [
    "MomentReport",
    "estimate_moments",
    "ScanPoint",
    "ScanResult",
    "remainder_scan",
    "GrowthFit",
    "remainder_growth",
    "fit_log_slope",
]


# Samples per batch of every estimator; each thread of estimate_moments
# takes whole batches.
_BATCH = 2048


# ---------------------------------------------------------------------------
# moment estimation

@dataclass
class MomentReport:
    """One ensemble run as a table over box indices: the requested
    moments' indices in request order, pair_index (P, 2) and triple_index
    (T, 3), and estimate, std_error and prediction, one value per moment,
    the P pairs first."""

    COLUMNS = ("kind", "n1", "n2", "m1", "m2", "p1", "p2",
               "re_est", "im_est", "std_error", "re_pred", "im_pred",
               "z_score")

    eps: float
    t: float
    seed: int
    sample_count: int
    failed_samples: tuple
    box: LatticeBox
    pair_index: np.ndarray
    triple_index: np.ndarray
    estimate: np.ndarray
    std_error: np.ndarray
    prediction: np.ndarray

    @property
    def z_score(self) -> np.ndarray:
        """|estimate - prediction| / std_error: 0 where both vanish, inf
        where only the error does."""
        d = self.estimate - self.prediction
        dev = np.hypot(d.real, d.imag)
        return np.divide(dev, self.std_error, where=self.std_error != 0,
                         out=np.where(dev == 0, 0.0, np.inf))

    def rows(self):
        """One tuple per moment, in the order of COLUMNS; pairs leave p1,
        p2 empty."""
        stats = zip(*(a.tolist() for a in (
            self.estimate.real, self.estimate.imag, self.std_error,
            self.prediction.real, self.prediction.imag, self.z_score)))
        out = []
        for kind, index in (("pair", self.pair_index),
                            ("triple", self.triple_index)):
            flat = self.box.modes[index].reshape(-1, 2 * index.shape[1])
            for modes in flat.tolist():
                out.append((kind, *modes, "", "")[:7] + next(stats))
        return out


# Samples per block of the fixed-order reductions below.
_BLOCK = 64

# Moment columns whose products _moment_sums forms at once.
_COLUMNS = 256


class _BlockSums:
    """Sums over samples, taken in fixed blocks of sample index.

    Per-sample rows are fed in sample order from sample 0, in batches of
    any size.  The rows of samples [b B, (b + 1) B), B = _BLOCK, are
    reduced by `block_sum` to the sum of their summands, and the block
    sums are added in block order, so the total is the same to the last
    bit whatever the batch size and thread count.  A block cut by the end
    of a batch is carried, and topped up from the head of the next batch;
    every other block is reduced where its batch holds it, so a batch is
    never copied.  block_sum may in turn take a block's columns a few at
    a time (_moment_sums does): a column's sum over the block's rows does
    not depend on the other columns.
    """

    def __init__(self, block_sum):
        self.block_sum = block_sum
        self.total = 0.0
        self._rows = None

    def add(self, rows: np.ndarray) -> None:
        if self._rows is not None and len(self._rows):
            head = _BLOCK - len(self._rows)
            carried = np.concatenate([self._rows, rows[:head]])
            rows = rows[head:]
            if len(carried) < _BLOCK:
                self._rows = carried
                return
            self.total = self.total + self.block_sum(carried)
        full = len(rows) - len(rows) % _BLOCK
        for lo in range(0, full, _BLOCK):
            self.total = self.total + self.block_sum(rows[lo:lo + _BLOCK])
        self._rows = rows[full:].copy()

    def finish(self) -> np.ndarray:
        """The total with the last, partial block added."""
        return self.total + self.block_sum(self._rows)


def _moment_sums(box: LatticeBox, pair_idx: np.ndarray,
                 trip_idx: np.ndarray) -> _BlockSums:
    """Block sums of the moment summands of evolved states.

    Column r takes U_a conj(U_b) for the r-th row (a, b) of pair_idx and
    U_a U_b U_c for each row (a, b, c) of trip_idx after them.  The
    total is laid out as (2, columns, 2): the sums, then the sums of
    squares, of each column's real and imaginary parts.  A block forms
    its products _COLUMNS columns at a time and writes each chunk's sums
    into its total: its buffers hold at most _COLUMNS columns whatever
    the number of moments, and every sum has the bits of a whole-width
    block, since a column's sum over the rows does not depend on the
    other columns.  The buffers are made per block, so they are not held
    while a batch is stepped.
    """
    n_pairs = len(pair_idx)
    width = n_pairs + len(trip_idx)
    # Column r of a block's products is U_a times the column b of
    # [conj(U), U], times U_c for a triple.  The indices are box indices,
    # so the gathers skip their bounds check (mode="clip").
    a_idx = np.concatenate([pair_idx[:, 0], trip_idx[:, 0]])
    b_idx = np.concatenate([pair_idx[:, 1], box.size + trip_idx[:, 1]])
    c_idx = trip_idx[:, 2]

    def block_sum(U):
        rows = len(U)
        both = np.concatenate([np.conj(U), U], axis=1)
        # One chunk's products, their gathered second factors (whose
        # memory then takes the squares of the products' parts) and third
        # factors, flat so that a chunk of any width is a contiguous view.
        prods, seconds, thirds = (np.empty(rows * min(cols, _COLUMNS),
                                           dtype=np.complex128)
                                  for cols in (width, width, len(trip_idx)))
        total = np.empty((2, 2 * width))
        for lo in range(0, width, _COLUMNS):
            hi = min(lo + _COLUMNS, width)
            x, y = (buf[:rows * (hi - lo)].reshape(rows, hi - lo)
                    for buf in (prods, seconds))
            np.take(U, a_idx[lo:hi], axis=1, out=x, mode="clip")
            np.take(both, b_idx[lo:hi], axis=1, out=y, mode="clip")
            np.multiply(x, y, out=x)
            # The chunk's triples start at column mid.
            mid = min(max(n_pairs, lo), hi)
            if mid < hi:
                z = thirds[:rows * (hi - mid)].reshape(rows, hi - mid)
                np.take(U, c_idx[mid - n_pairs:hi - n_pairs], axis=1, out=z,
                        mode="clip")
                x[:, mid - lo:] *= z
            parts = x.view(float)
            parts.sum(axis=0, out=total[0, 2 * lo:2 * hi])
            np.square(parts, out=y.view(float)).sum(
                axis=0, out=total[1, 2 * lo:2 * hi])
        return total.ravel()

    return _BlockSums(block_sum)


# Bytes per moment past the chunk buffers: its modes as selected, its
# indices and sums, its prediction, and the report's row.  The rise of
# the ensemble handler's tracemalloc peak over one sample from diagonal
# pairs, at 4x4 to 12x12, read 406-469 B per moment to every pair,
# 418-497 B to the zero-sum triples and 473-524 B to both; rounded up
# with room.
_MOMENT_BYTES = 640


def _moment_bytes(box: LatticeBox, sample_count: int, moments: int,
                  threads: int) -> int:
    """Bytes an ensemble of `moments` moments takes at most, its report
    included.

    The stepper's count of a batch stepped to one time for each batch
    held at once (one per thread, at most the number of batches), a
    block's three chunk buffers and its [conj(U), U] in _moment_sums,
    and _MOMENT_BYTES per moment.
    """
    batch = min(_BATCH, sample_count)
    held = min(threads, -(-sample_count // _BATCH))
    return (held * _evolve_bytes(box, batch, 1)
            + _BLOCK * 16 * (3 * min(moments, _COLUMNS) + 2 * box.size)
            + moments * _MOMENT_BYTES)


def _check_moments(box: LatticeBox, sample_count: int, moments: int,
                   threads: int) -> None:
    """Raise ConfigError when an ensemble of `moments` moments would not
    fit in physical memory; the message names the moments, the box, the
    batch and the threads."""
    operators._check_memory(
        _moment_bytes(box, sample_count, moments, threads),
        f"ensemble: {moments} moments of {box!r} over batches of "
        f"{min(_BATCH, sample_count)} samples on {threads} "
        f"thread{'s' * (threads > 1)}")


def _box_indices(box: LatticeBox, groups, width: int) -> np.ndarray:
    """The (len(groups), width) box indices of groups of `width` modes;
    raises ValueError naming the first mode outside the box."""
    modes = np.asarray(groups, dtype=np.int64).reshape(len(groups), width, 2)
    idx = box.lookup(modes[..., 0], modes[..., 1])
    if (idx < 0).any():
        outside = tuple(modes[idx < 0][0].tolist())
        raise ValueError(f"mode {outside} is outside {box!r}")
    return idx


def estimate_moments(profile: SpectrumProfile, law: RandomLaw, eps: float,
                     t: float, sample_count: int, *, pairs=(), triples=(),
                     seed: int = 0, dt: float | None = None,
                     threads: int = 1) -> MomentReport:
    """Monte Carlo estimates of the requested pair and triple moments.

    pairs is a sequence of ((n), (m)) mode pairs for E u_n conj(u_m);
    triples a sequence of (n, m, p) for E u_n u_m u_p, each possibly an
    array.  They are taken to box indices once (ValueError for a mode
    outside the box), and the report has a row per requested moment, in
    request order.  dt = None picks a step by halving until the
    step-doubling error of a probe sample falls below 1e-8.

    The estimator is the plain sample mean over sample_count draws, with
    componentwise standard errors combined in quadrature.  Samples whose
    evolved state is non-finite are dropped and reported by index.  The
    result is a pure function of the arguments, including the seed; the
    batch size _BATCH and the thread count only affect speed.  Raises
    ConfigError before drawing a sample when the ensemble would not fit in
    physical memory (_moment_bytes).
    """
    box = profile.box
    _check_moments(box, sample_count, len(pairs) + len(triples), threads)
    pair_idx, trip_idx = (_box_indices(box, groups, width)
                          for groups, width in ((pairs, 2), (triples, 3)))
    lam = profile.lambdas()
    dt, _ = _step(profile, law, seed, eps, t, dt)

    sums = _moment_sums(box, pair_idx, trip_idx)
    failed: list[int] = []
    good = 0

    def run_batch(start: int, stop: int):
        idx = np.arange(start, stop, dtype=np.int64)
        G = sample_g_batch(box, law, seed, idx)
        G *= lam
        U = evolve_coeffs(box, G, eps, [t], dt)[0]
        ok = ~_diverged(U)
        return idx, U, ok

    batches = [(s, min(s + _BATCH, sample_count))
               for s in range(0, sample_count, _BATCH)]

    def reduce_all(results):
        # Runs in fixed batch order regardless of thread count.  A failed
        # sample keeps its row, zeroed, which leaves every sum unchanged.
        nonlocal good
        for idx, U, ok in results:
            failed.extend(int(i) for i in idx[~ok])
            good += int(ok.sum())
            U[~ok] = 0.0
            sums.add(U)
            # Reduced: the batch goes before the next one is awaited.
            del idx, U, ok

    if threads > 1 and len(batches) > 1:
        from collections import deque
        from concurrent.futures import ThreadPoolExecutor

        def in_order(ex):
            # At most `threads` batches are held: the one being reduced
            # and the threads - 1 submitted after it.
            window = deque()
            for ab in batches:
                if len(window) == threads:
                    yield window.popleft().result()
                window.append(ex.submit(run_batch, *ab))
            while window:
                yield window.popleft().result()

        with ThreadPoolExecutor(max_workers=threads) as ex:
            reduce_all(in_order(ex))
    else:
        reduce_all(run_batch(*ab) for ab in batches)

    if good == 0:
        if sample_count > 0:
            raise RuntimeError("every sample diverged; nothing to estimate")
        empty = np.zeros(0, dtype=complex)
        return MomentReport(eps=eps, t=t, seed=seed,
                            sample_count=0, failed_samples=(), box=box,
                            pair_index=pair_idx[:0], triple_index=trip_idx[:0],
                            estimate=empty, std_error=empty.real,
                            prediction=empty)

    from . import theory
    ctx = theory.TheoryContext.from_profile(profile, law)
    (tot_re, tot_im), (tot_re2, tot_im2) = \
        sums.finish().reshape(2, -1, 2).transpose(0, 2, 1)
    mean = (tot_re + 1j * tot_im) / good
    var_re = np.maximum(tot_re2 / good - mean.real ** 2, 0.0)
    var_im = np.maximum(tot_im2 / good - mean.imag ** 2, 0.0)
    se = np.sqrt((var_re + var_im) / max(good - 1, 1))

    pred = np.concatenate([np.zeros(0, dtype=complex)] + [
        predict(ctx, *idx.T, t, eps) for idx, predict in (
            (pair_idx, theory.pair_prediction),
            (trip_idx, theory.triple_prediction)) if len(idx)])

    return MomentReport(eps=eps, t=t, seed=seed,
                        sample_count=good, failed_samples=tuple(failed),
                        box=box, pair_index=pair_idx, triple_index=trip_idx,
                        estimate=mean, std_error=se, prediction=pred)


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


# Box-sized complex arrays per sample of a batch that remainder_scan
# holds besides its accumulators, its block-sum rows and one evolve call:
# the batch's initial data, a, b, c and f, an evolved state and its
# remainder terms, and one eps's columns as they are written.  The
# handler's tracemalloc peak less the pass's count and the rest of
# _scan_bytes, over 2x1 to 4x4 boxes, 3 to 24 eps, batches of 2048 and 1
# or 2 rotations, read up to 5.8 of them; rounded up with room.
_SCAN_ARRAYS = 8


def _scan_bytes(box: LatticeBox, eps_count: int, sample_count: int) -> int:
    """Bytes remainder_scan holds at most past one Picard pass.

    Per eps, a batch's accumulators (a float per sample and mode, a
    complex per sample); _SCAN_ARRAYS box-sized arrays per sample; and
    the larger of the stepper's count of one evolve call's stacked rows
    and the batch's block-sum rows, 2 N + 3 floats per sample and eps.
    """
    batch = min(_BATCH, sample_count)
    stacked = min(eps_count, max(1, _BATCH // batch)) * batch
    rows = eps_count * batch * 8 * (2 * box.size + 3)
    return (eps_count * batch * (8 * box.size + 16)
            + _SCAN_ARRAYS * batch * 16 * box.size
            + max(_evolve_bytes(box, stacked, 1), rows))


def _check_batch(box: LatticeBox, batch: int, held: int, over: str) -> None:
    """Raise ConfigError when the Picard contraction of `batch` samples
    (_check_contraction), or its pass with the `held` bytes an estimator
    keeps across it, would exceed physical memory; caches no plan then."""
    from .picard import _check_contraction, _nested_plan, _pass_bytes
    _check_contraction(box, batch)
    try:
        operators._check_memory(
            _pass_bytes(box, batch) + held,
            f"sample_count: a batch of {batch} samples of {box!r} over "
            f"{over}")
    except ConfigError:
        _nested_plan.cache_clear()
        raise


def _check_scan(box: LatticeBox, eps_grid, t: float, sample_count: int,
                triple, rotations: int) -> np.ndarray:
    """Check the arguments of remainder_scan; return the triple's box indices.

    Each ConfigError starts with the configuration key it rejects, or
    names the Picard contraction of one batch when it would not fit in
    physical memory.  When the contraction fits but one batch's pass and
    the scan's own arrays (_scan_bytes) would not, sample_count is
    rejected before any sample is drawn.
    """
    if len(eps_grid) < 3:
        raise ConfigError("eps: a scan needs at least three values")
    if len(set(eps_grid)) < len(eps_grid):
        raise ConfigError("eps: a scan needs distinct values")
    if any(e <= 0 for e in eps_grid):
        raise ConfigError("eps: values must be positive")
    if t == 0:
        raise ConfigError("t: every remainder vanishes at t = 0; "
                          "need t != 0")
    if rotations < 1:
        raise ConfigError("rotations: must be >= 1")
    if sample_count < 1:
        raise ConfigError("sample_count: must be >= 1")
    if (sum(m[0] for m in triple) != 0
            or sum(m[1] for m in triple) != 0):
        raise ConfigError(f"triple: {triple} does not sum to zero")
    try:
        tri = _box_indices(box, [triple], 3)[0]
    except ValueError as exc:
        raise ConfigError(f"triple: {exc}") from None
    _check_batch(box, min(_BATCH, sample_count),
                 _scan_bytes(box, len(eps_grid), sample_count),
                 f"{len(eps_grid)} eps values")
    return tri


def _evolve_over_eps(box: LatticeBox, U0: np.ndarray, groups, t: float,
                     dt: float):
    """Yield (eps, U) for each eps of the groups, U the states of U0 at t
    evolved at eps.  v = eps u solves the flow at eps = 1 when u solves it
    at eps, and RK4 commutes with the scaling, so a group steps as one
    batch of eps U0 at eps = 1."""
    for group in groups:
        scale = np.array(group)[:, None, None]
        states = evolve_coeffs(box, (scale * U0).reshape(-1, U0.shape[-1]),
                               1.0, [t], dt)[0]
        for e, V in zip(group, states.reshape((len(group),) + U0.shape)):
            yield e, V / e


def remainder_scan(profile: SpectrumProfile, law: RandomLaw, eps_grid,
                   t: float, sample_count: int, *,
                   triple=((1, 0), (1, 0), (-2, 0)), seed: int = 0,
                   dt: float | None = None, rotations: int = 4
                   ) -> ScanResult:
    """Measure how fast the pair and triple remainders shrink with eps.

    The same sample indices are reused at every eps of eps_grid, so Monte
    Carlo noise largely cancels in the differences against the closed
    low-order terms.  Each base sample is further averaged over
    `rotations` global phase rotations of its initial data; a term
    survives the average only when its total phase winding is a multiple
    of `rotations`, which removes the dominant odd-winding fluctuations
    without touching any mean.

    Per sample, the closed forms a, b, c are subtracted from the evolved
    state inside the expectation: the pair channel keeps
    E|u_n|^2 minus every term expressible through (a, b, c), whose
    leading survivor is O(eps^4), and the triple channel subtracts the
    orders eps^0..eps^2 of E(u_n u_m u_p), leaving O(eps^3).  The pair
    channel is aggregated over modes in quadrature; the triple channel
    tracks the single configured zero-sum triple.  Raises NonFiniteError,
    naming the sample and eps (and the step, when it was calibrated), as
    soon as an evolved state is non-finite.
    """
    from .picard import _picard_coeffs
    box = profile.box
    tri = _check_scan(box, eps_grid, t, sample_count, triple, rotations)
    eps_grid = tuple(float(e) for e in eps_grid)

    lam = profile.lambdas()
    dt, note = _step(profile, law, seed, max(eps_grid), t, dt, target=1e-9)
    half_sign = np.where(box.n1 > 0, 1.0, -1.0)
    rots = [np.exp(2j * np.pi * (k / rotations) * half_sign)
            for k in range(rotations)]

    nm = box.size
    sums = _BlockSums(lambda rows: rows.sum(axis=0))

    # As many eps as fit in _BATCH rows step in one call.
    per_call = max(1, _BATCH // min(_BATCH, sample_count))
    groups = [eps_grid[i:i + per_call]
              for i in range(0, len(eps_grid), per_call)]
    done = 0
    while done < sample_count:
        nb = min(_BATCH, sample_count - done)
        G0 = sample_g_batch(box, law, seed, np.arange(done, done + nb))
        acc2 = {e: np.zeros((nb, nm)) for e in eps_grid}
        acc3 = {e: np.zeros(nb, dtype=np.complex128) for e in eps_grid}
        for rot in rots:
            U0 = G0 * rot * lam
            A = apply_free_flow(box, U0, t)
            B, C, _ = _picard_coeffs(box, U0, t)
            for e, U in _evolve_over_eps(box, U0, groups, t, dt):
                bad = _diverged(U)
                if bad.any():
                    raise NonFiniteError(
                        f"sample {done + int(np.argmax(bad))} diverged "
                        f"at eps = {e}{note}")
                r2 = (np.abs(U) ** 2 - np.abs(A) ** 2
                      - 2 * e * np.real(np.conj(A) * B)
                      - e * e * (np.abs(B) ** 2 + 2 * np.real(np.conj(A) * C))
                      - 2 * e ** 3 * np.real(np.conj(B) * C))
                acc2[e] += r2 / rotations
                u3, a3, b3, c3 = (X[:, tri] for X in (U, A, B, C))

                def prod(x, y, z):
                    return x[:, 0] * y[:, 1] * z[:, 2]

                r3 = (prod(u3, u3, u3) - prod(a3, a3, a3)
                      - e * (prod(b3, a3, a3) + prod(a3, b3, a3)
                             + prod(a3, a3, b3))
                      - e * e * (prod(c3, a3, a3) + prod(a3, c3, a3)
                                 + prod(a3, a3, c3) + prod(b3, b3, a3)
                                 + prod(b3, a3, b3) + prod(a3, b3, b3)))
                acc3[e] += r3 / rotations
        # Each eps's columns go once into the batch's rows.
        rows = np.empty((nb, len(eps_grid), 2 * nm + 3))
        for i, e in enumerate(eps_grid):
            a2, a3 = acc2.pop(e), acc3.pop(e)
            rows[:, i] = np.column_stack([a2, a2 ** 2, a3.real, a3.imag,
                                          np.abs(a3) ** 2])
        sums.add(rows.reshape(nb, -1))
        del rows, a2, a3
        done += nb

    M = sample_count
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


def _check_growth(box: LatticeBox, eps: float, times,
                  sample_count: int) -> np.ndarray:
    """Check the arguments of remainder_growth; return the sorted times.

    Each ConfigError starts with the configuration key it rejects, or
    names the Picard contraction of one batch when it would not fit.  The
    samples are evolved in batches of _BATCH that keep the state at
    every grid time through a Picard pass at each; when one batch's
    states with the stepper's count and the pass would exceed physical
    memory, sample_count is rejected before any sample is drawn.
    """
    if eps == 0:
        raise ConfigError("eps: the remainder is undefined at eps = 0")
    grid = np.array(sorted(float(t) for t in times))
    if grid.size < 3:
        raise ConfigError("t_grid: need at least three grid times")
    if grid[0] <= 0:
        raise ConfigError("t_grid: grid times must be positive")
    if sample_count < 1:
        raise ConfigError("sample_count: must be >= 1")
    batch = min(_BATCH, sample_count)
    _check_batch(box, batch, _evolve_bytes(box, batch, grid.size),
                 f"{grid.size} grid times")
    return grid


def remainder_growth(profile: SpectrumProfile, law: RandomLaw, eps: float,
                     times, sample_count: int, *, seed: int = 0,
                     s: float = 1.0, dt: float | None = None) -> GrowthFit:
    """Fit the growth of the cubic-order remainder in time.

    Evolves the samples across the whole grid in batches of _BATCH,
    removes the closed terms a + eps b + eps^2 c from each state,
    rescales by eps^3, keeps the running maximum over samples of the H^s
    norm at each grid time, and fits its log against log(1 + t).  The
    result does not depend on the batching.  When an evolved state is
    non-finite, raises NonFiniteError naming the first grid time and the
    lowest sample of the first batch that holds one (and the step, when
    it was calibrated).
    """
    from .picard import _picard_coeffs
    box = profile.box
    grid = _check_growth(box, eps, times, sample_count)
    lam = profile.lambdas()
    dt, note = _step(profile, law, seed, eps, float(grid[-1]), dt,
                     target=1e-9)
    peak = np.zeros(grid.size)
    for start in range(0, sample_count, _BATCH):
        U0 = lam * sample_g_batch(box, law, seed, np.arange(
            start, min(start + _BATCH, sample_count)))
        states = evolve_coeffs(box, U0, eps, grid, dt)
        # One grid time at a time: a mask over every state would take
        # 1/8 of their bytes past the count of _check_growth.
        for i, t in enumerate(grid):
            bad = np.flatnonzero(_diverged(states[i]))
            if bad.size:
                raise NonFiniteError(
                    f"sample {start + bad[0]} diverged by t = {t}{note}")
        for i, t in enumerate(grid):
            # D in the state's row; B, C and F go before the next pass.
            D = states[i]
            D -= apply_free_flow(box, U0, t)
            B, C, F = _picard_coeffs(box, U0, t)
            D -= np.multiply(eps, B, out=B)
            D -= np.multiply(eps * eps, C, out=C)
            D /= eps ** 3
            del B, C, F
            peak[i] = max(peak[i], float(hs_norm(box, D, s).max()))
    exponent, err = fit_log_slope(1.0 + grid, peak)
    return GrowthFit(times=tuple(grid), max_norms=tuple(peak),
                     exponent=exponent, stderr=err)
