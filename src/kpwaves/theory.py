"""Closed-form second and third moment corrections for random wave data.

The initial data u0_n = lambda_n g_n has independent uniform phases and
modulus law moments m2 = E|g|^2, m4 = E|g|^4.  Expanding the flow in eps
and pairing the Gaussian-free g factors gives, per mode n,

    E |u_n(t)|^2      = m2 lambda_n^2 + eps^2 F2(n, t) + O(eps^4),
    E u_n u_m u_p (t) = eps F3(n, m, p, t) + O(eps^3)   (n + m + p = 0),

with F2 the time integral of an explicit oscillatory rate and F3
a single oscillatory factor.  Off-diagonal pair moments and triples off
the zero-sum plane vanish at these orders.

The repeated-index (Kronecker) part of F3 appears in the literature in
two inequivalent printings.  The package implements the one the Monte
Carlo oracle of the acceptance tests selects: a repeated index enters
with half weight and the first coordinate of the opposite mode.  The
other printing survives only as a test reference, which the oracle
rejects.

Each closed form has one array kernel.  F2 is folded once per context:
its terms that share a half-phase |delta|/2 share their time factor, so
F2 at every mode is -n1 (sin^2(t |delta|/2) @ A) with A a (phases x
modes) amplitude matrix, one vector-matrix product per time (232 x 156
at a 6x6 box, from 11,514 terms).  F3 at box-index arrays is
-i amp phi1(Omega, t), with phi1 the oscillatory integral of the lattice
module that the Picard corrections use too.  f2_diag, f3 and the
predictions are calls of these kernels.  The weighted sum of |F3| folds
the triples with equal |Omega| once per call, in
|1 - e^{ix}| = 2 |sin(x/2)|.  The folded sums match the term-by-term
sums to roundoff, not bitwise; the majorants sum the unfolded terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .lattice import LatticeBox, hs_weights, omega, phi1
from .operators import _check_memory, pair_table

__all__ = [
    "TheoryContext",
    "f2_diag",
    "f2_diag_all",
    "f3",
    "pair_prediction",
    "triple_prediction",
    "zero_sum_triples",
    "weighted_sum_pair",
    "weighted_sum_triple",
    "pair_majorant",
    "triple_majorant",
    "box_limit_f2",
]


@dataclass(frozen=True)
class TheoryContext:
    """Spectrum profile and modulus moments entering the closed forms.

    lam2 holds lambda_n^2 on the canonical mode ordering of the box.
    """

    box: LatticeBox
    lam2: np.ndarray
    m2: float
    m4: float

    def __post_init__(self):
        if self.lam2.shape != (self.box.size,):
            raise ValueError("lam2 must align with the box modes")

    @classmethod
    def from_profile(cls, profile, law) -> "TheoryContext":
        m2, m4 = law.moments()
        lam = profile.lambdas()
        return cls(box=profile.box, lam2=lam * lam, m2=m2, m4=m4)

    def _f2_terms(self):
        """Flat (mode, delta, amplitude) table of the pair correction.

        At mode n the correction is -n1 sum amp sin^2(delta t / 2) over
        the terms of n, with amp = 2 coef / delta^2.  The first g terms,
        g the fourth item returned, are the splits k + l = n of the pair
        table, whose amplitudes carry m2^2.  The rest are the
        repeated-index corrections, which carry the excess kurtosis factor
        m4 - 2 m2^2: the split (-n, 2n) when 2n is in the box and the split
        (n/2, n/2) when n has even coordinates with n/2 in the box.  Not
        cached: _f2_fold keeps only the folded amplitudes.
        """
        box = self.box
        pt = pair_table(box)
        L = self.lam2
        generic = self.m2 ** 2 * (
            box.n1[pt.k_idx] * L[pt.out_idx] * L[pt.l_idx]
            + box.n1[pt.l_idx] * L[pt.out_idx] * L[pt.k_idx]
            - box.n1[pt.out_idx] * L[pt.k_idx] * L[pt.l_idx])
        om = box.omega
        excess = self.m4 - 2.0 * self.m2 ** 2
        n1, n2 = box.n1, box.n2
        i_2n = box.lookup(2 * n1, 2 * n2)
        even = (n1 % 2 == 0) & (n2 % 2 == 0)
        i_half = np.where(even, box.lookup(n1 // 2, n2 // 2), -1)
        dbl = np.flatnonzero(i_2n >= 0)
        half = np.flatnonzero(i_half >= 0)
        i_2n, i_half = i_2n[dbl], i_half[half]
        mode = np.concatenate([pt.out_idx, dbl, half])
        delta = np.concatenate([pt.delta,
                                om[box.conj_idx[dbl]] + om[i_2n] - om[dbl],
                                2.0 * om[i_half] - om[half]])
        coef = np.concatenate([generic,
                               excess * 2.0 * n1[dbl] * L[dbl] ** 2,
                               -excess * (n1[half] / 2.0) * L[i_half] ** 2])
        return mode, delta, 2.0 * coef / delta ** 2, len(generic)

    @cached_property
    def _f2_fold(self):
        """Distinct half-phases |delta| / 2 and the (phases x modes) matrix A.

        A[j, i] sums the amplitudes of the terms of mode i whose phase has
        |delta| / 2 = half[j]: they share the time factor, a split and its
        swap among them, so F2 at time t is -n1 (sin^2(half t) @ A).
        """
        mode, delta, amp, _ = self._f2_terms()
        half, phase = np.unique(0.5 * np.abs(delta), return_inverse=True)
        size = self.box.size
        A = np.bincount(phase * size + mode, weights=amp,
                        minlength=len(half) * size)
        return half, A.reshape(len(half), size)


def _one_minus_cos(d, t: float):
    """(1 - cos(d t)) / d^2, written as 2 sin^2(d t / 2) / d^2.

    The two forms are equal, but the first cancels every digit as d t
    goes to zero, where the value tends to t^2 / 2.
    """
    return 2.0 * np.sin(0.5 * d * t) ** 2 / d ** 2


def f2_diag_all(ctx: TheoryContext, t) -> np.ndarray:
    """Closed form of the eps^2 diagonal pair correction at every mode.

    -n1 (sin^2(t |delta| / 2) @ A) over the fold of
    TheoryContext._f2_fold, the time integral of the rate
    -n1 sum amp delta sin(delta t) / 2 of the flat term table.  A time
    grid t gives one row per time, each from its own vector-matrix
    product, so a row does not depend on the rest of the grid.
    Off-diagonal pair corrections vanish at this order, see
    pair_prediction.
    """
    half, A = ctx._f2_fold
    rows = np.array([np.sin(s * half) ** 2 @ A for s in np.atleast_1d(t)])
    return -ctx.box.n1 * rows.reshape(np.shape(t) + A.shape[1:])


def f2_diag(ctx: TheoryContext, n, t):
    """f2_diag_all at the mode n alone: a value, or one per time of a grid."""
    return np.take(f2_diag_all(ctx, t), ctx.box.index(n), axis=-1)


def _f3_amplitude(ctx: TheoryContext, i_n, i_m, i_p, first=None,
                  excess=None):
    """Amplitude and phase Omega of F3 at triple indices (ints or arrays).

    The amplitude is m2^2 * cyclic + excess * kronecker, with the first
    coordinates taken from first (default box.n1) and excess defaulting
    to m4 - 2 m2^2; the majorant passes their magnitudes.  A repeated
    index enters the kronecker term with half weight and the first
    coordinate of the opposite mode.
    """
    if first is None:
        first = ctx.box.n1
    if excess is None:
        excess = ctx.m4 - 2.0 * ctx.m2 ** 2
    L = ctx.lam2
    n1, m1, p1 = (first[i].astype(float) for i in (i_n, i_m, i_p))
    cyc = n1 * L[i_m] * L[i_p] + m1 * L[i_p] * L[i_n] + p1 * L[i_n] * L[i_m]
    kr = 0.5 * ((i_m == i_p) * n1 * L[i_m] ** 2
                + (i_p == i_n) * m1 * L[i_p] ** 2
                + (i_n == i_m) * p1 * L[i_n] ** 2)
    om = ctx.box.omega
    return ctx.m2 ** 2 * cyc + excess * kr, om[i_n] + om[i_m] + om[i_p]


def _f3_at(ctx: TheoryContext, i_n, i_m, i_p, t):
    """f3 at box-index arrays, broadcast against the time t.

    -i amp phi1(Omega, t), 0 off the zero-sum plane.  phi1's half-angle
    form keeps every digit at small Omega t.
    """
    amp, Om = _f3_amplitude(ctx, i_n, i_m, i_p)
    box = ctx.box
    on = ((box.n1[i_n] + box.n1[i_m] + box.n1[i_p] == 0)
          & (box.n2[i_n] + box.n2[i_m] + box.n2[i_p] == 0))
    return -1j * np.where(on, amp, 0.0) * phi1(Om, t)


def f3(ctx: TheoryContext, n, m, p, t):
    """Leading eps coefficient of E u_n u_m u_p, at t or over a time grid.

    Returns 0 when n + m + p != 0.  The closed form is

        (1 - e^{i Omega t}) / Omega
             * (m2^2 * cyclic + (m4 - 2 m2^2) * kronecker)

    with Omega = omega(n) + omega(m) + omega(p), which never vanishes on
    zero-sum triples.  The repeated-index terms are weighted as in
    _f3_amplitude, the printing the Monte Carlo oracle of the acceptance
    tests confirms.
    """
    idx = (ctx.box.index(v) for v in (n, m, p))
    return _f3_at(ctx, *idx, t)


def pair_prediction(ctx: TheoryContext, i_n, i_m, t: float,
                    eps: float) -> np.ndarray:
    """Predicted E u_n conj(u_m) through order eps^2 at box-index arrays."""
    i_n, i_m = np.asarray(i_n), np.asarray(i_m)
    diag = ctx.m2 * ctx.lam2[i_n] + eps ** 2 * f2_diag_all(ctx, t)[i_n]
    return np.where(i_n == i_m, diag, 0.0).astype(complex)


def triple_prediction(ctx: TheoryContext, i_n, i_m, i_p, t: float,
                      eps: float) -> np.ndarray:
    """Predicted E u_n u_m u_p through order eps at box-index arrays."""
    return eps * _f3_at(ctx, np.asarray(i_n), np.asarray(i_m),
                        np.asarray(i_p), t)


@lru_cache(maxsize=None)
def zero_sum_triples(box: LatticeBox):
    """Index arrays (i_n, i_m, i_p) of all ordered triples with n+m+p = 0."""
    i_n = np.repeat(np.arange(box.size), box.size)
    i_m = np.tile(np.arange(box.size), box.size)
    p1 = -(box.n1[i_n] + box.n1[i_m])
    p2 = -(box.n2[i_n] + box.n2[i_m])
    i_p = box.lookup(p1, p2)
    good = i_p >= 0
    return i_n[good], i_m[good], i_p[good]


def _zero_sum_count(box: LatticeBox) -> int:
    """len(zero_sum_triples(box)[0]), counted without forming the triples.

    These are the ordered (n, m) with n + m in the box, which is closed
    under n -> -n.  The box is the product of its rows 1 <= |a| <= N1 and
    its columns |b| <= N2, so the count is the product of the numbers of
    ordered pairs of each set whose sum lies in it: (2 N + 1)^2 - N (N + 1)
    on -N..N, and 6 N + 1 fewer on the rows, which leave out 0.
    """
    def pairs(n):
        return (2 * n + 1) ** 2 - n * (n + 1)

    return (pairs(box.n1_max) - 6 * box.n1_max - 1) * pairs(box.n2_max)


def weighted_sum_pair(ctx: TheoryContext, s: float, times) -> np.ndarray:
    """Weighted aggregate sum |n1| (|n1|+|n2|)^{2s} |F2(n, t)| over the box.

    One value per time of the grid times.
    """
    w = np.abs(ctx.box.n1) * hs_weights(ctx.box, s)
    return np.sum(w * np.abs(f2_diag_all(ctx, np.atleast_1d(times))),
                  axis=-1)


def pair_majorant(ctx: TheoryContext, s: float) -> float:
    """Time-uniform upper bound for weighted_sum_pair.

    Every oscillatory kernel satisfies |1 - cos(delta t)| <= 2, so the
    bound follows from the triangle inequality term by term.
    """
    box = ctx.box
    mode, _, amp, g = ctx._f2_terms()
    # sum |amp| bounds the bracket of every mode; the generic and the
    # repeated-index terms are summed apart, which fixes the bits of the
    # bound that theory-curves reports.
    per_mode = (np.bincount(mode[:g], weights=np.abs(amp[:g]),
                            minlength=box.size)
                + np.bincount(mode[g:], weights=np.abs(amp[g:]),
                              minlength=box.size))
    # The correction itself carries another factor of n1, mirroring the
    # -n1 prefactor in f2_diag_all.
    bound = np.abs(box.n1) * per_mode
    w = np.abs(box.n1) * hs_weights(box, s)
    return float(np.sum(w * bound))


def _triple_weights(box: LatticeBox, s: float, i_n, i_m, i_p):
    mag = (np.abs(box.n1) + np.abs(box.n2)).astype(float)
    w = np.sqrt(np.abs(box.n1[i_n] * box.n1[i_m] * box.n1[i_p]).astype(float))
    return w * (mag[i_n] * mag[i_m] * mag[i_p]) ** s


# Grid times per block of weighted_sum_triple.
_TIME_BLOCK = 64


def weighted_sum_triple(ctx: TheoryContext, s: float, times) -> np.ndarray:
    """Weighted aggregate of |f3| over ordered zero-sum triples.

    The weight is sqrt(|n1 m1 p1|) ((|n|)(|m|)(|p|))^s with |n| the
    coordinate sum magnitude used by the Sobolev weights.  One value per
    time of the grid times.  |f3| = 2 |sin(Omega t / 2)| |amp / Omega|,
    and triples related by permutation or by n -> -n share |Omega|, so
    the time-independent factors are summed once per distinct |Omega|;
    the result matches the term-by-term sum to roundoff, not bitwise.
    """
    i_n, i_m, i_p = zero_sum_triples(ctx.box)
    amp, Om = _f3_amplitude(ctx, i_n, i_m, i_p)
    w = _triple_weights(ctx.box, s, i_n, i_m, i_p)
    half, group = np.unique(0.5 * np.abs(Om), return_inverse=True)
    scale = 2.0 * np.bincount(group, weights=w * np.abs(amp / Om))
    times = np.atleast_1d(times)
    out = np.empty(len(times))
    # A (times x phases) block per _TIME_BLOCK grid times, which bounds
    # its memory; the sum of a row does not depend on the others.
    for i in range(0, len(times), _TIME_BLOCK):
        x = np.multiply.outer(times[i:i + _TIME_BLOCK], half)
        np.sin(x, out=x)
        np.abs(x, out=x)
        x *= scale
        np.sum(x, axis=-1, out=out[i:i + _TIME_BLOCK])
    return out


def triple_majorant(ctx: TheoryContext, s: float) -> float:
    """Time-uniform upper bound for weighted_sum_triple.

    Uses |1 - e^{i Omega t}| <= 2 and the triangle inequality on the
    amplitude, so it dominates the weighted sum at every time.
    """
    box = ctx.box
    i_n, i_m, i_p = zero_sum_triples(box)
    amp, Om = _f3_amplitude(ctx, i_n, i_m, i_p, first=np.abs(box.n1),
                            excess=abs(ctx.m4 - 2.0 * ctx.m2 ** 2))
    w = _triple_weights(box, s, i_n, i_m, i_p)
    return float(np.sum(w * 2.0 / np.abs(Om) * amp))


# Bytes per point of box_limit_f2's grid.  The tracemalloc peak over
# modes (1, 0) to (-2, 5) and N = 4 to 1024 read 66-103 B per point; the
# largest is rounded up.
_BOX_LIMIT_POINT_BYTES = 104


def _check_box_limit(n, sizes) -> None:
    """Raise ConfigError, before any grid is built, when box_limit_f2 at
    mode n and one of `sizes` would exceed physical memory; the message
    starts with the configuration key box_sizes."""
    for N in sizes:
        points = (2 * (N + abs(n[0])) + 1) * (2 * (N + abs(n[1])) + 1)
        _check_memory(_BOX_LIMIT_POINT_BYTES * points,
                      f"box_sizes: the grid of N = {N} at mode {n}")


def box_limit_f2(n, N: int, lambda_N: float, t: float,
                 m2: float = 1.0, m4: float = 2.0) -> float:
    """Diagonal pair correction for a flat square spectrum on the full lattice.

    The spectrum is lambda_k = lambda_N on max(|k1|, |k2|) <= N (k1 != 0)
    and zero outside; the convolution sum then runs over the whole
    lattice, not a truncation box.  Requires the zero-excess relation
    m4 = 2 m2^2, which kills the repeated-index corrections; the interior
    contributions cancel pairwise and only an O(N) boundary layer
    survives, so the result is O(lambda_N^4 N^{-1} ... ) rather than
    O(lambda_N^4 N).
    """
    if abs(m4 - 2.0 * m2 ** 2) > 1e-12:
        raise ValueError("flat-spectrum limit needs m4 = 2 m2^2")
    n1, n2 = int(n[0]), int(n[1])
    if n1 == 0:
        raise ValueError("mode has n1 = 0")
    lam2 = float(lambda_N) ** 2

    def inside(a1, a2):
        return (a1 != 0) & (np.maximum(np.abs(a1), np.abs(a2)) <= N)

    # The summand vanishes unless both k and l = n - k carry spectrum, so
    # a square of half-width N + max(|n1|, |n2|) covers every term.
    R1 = N + abs(n1)
    R2 = N + abs(n2)
    k1 = np.arange(-R1, R1 + 1)
    k2 = np.arange(-R2, R2 + 1)
    K1, K2 = np.meshgrid(k1, k2, indexing="ij")
    L1 = n1 - K1
    L2 = n2 - K2
    ok = (K1 != 0) & (L1 != 0)
    K1, K2, L1, L2 = K1[ok], K2[ok], L1[ok], L2[ok]
    Ln = lam2 if inside(np.array([n1]), np.array([n2]))[0] else 0.0
    Lk = np.where(inside(K1, K2), lam2, 0.0)
    Ll = np.where(inside(L1, L2), lam2, 0.0)
    coef = K1 * Ln * Ll + L1 * Ln * Lk - n1 * Lk * Ll
    live = coef != 0
    if not live.any():
        return 0.0
    K1, K2, L1, L2, coef = K1[live], K2[live], L1[live], L2[live], coef[live]
    d = omega((K1, K2)) + omega((L1, L2)) - omega((n1, n2))
    total = float(np.sum(coef * _one_minus_cos(d, t)))
    return -n1 * m2 ** 2 * total

