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
two inequivalent printings; both are implemented behind flags and the
package default is the variant selected by the Monte Carlo oracle in the
acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .lattice import LatticeBox, DispersionTable, hs_weights, omega
from .operators import pair_table

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
class _Terms:
    """Flat (output mode, phase, coefficient) terms sorted by output mode.

    starts[i]:starts[i+1] slices the terms of mode i.
    """

    out: np.ndarray
    delta: np.ndarray
    coef: np.ndarray
    starts: np.ndarray

    def at(self, i_n: int):
        lo, hi = self.starts[i_n], self.starts[i_n + 1]
        return self.coef[lo:hi], self.delta[lo:hi]


@dataclass(frozen=True)
class TheoryContext:
    """Spectrum profile and modulus moments entering the closed forms.

    lam2 holds lambda_n^2 on the canonical mode ordering of the box.
    """

    box: LatticeBox
    lam2: np.ndarray
    m2: float
    m4: float
    dispersion: DispersionTable = field(init=False, repr=False)

    def __post_init__(self):
        if self.lam2.shape != (self.box.size,):
            raise ValueError("lam2 must align with the box modes")
        object.__setattr__(self, "dispersion", self.box.dispersion())

    @classmethod
    def from_profile(cls, profile, law) -> "TheoryContext":
        m2, m4 = law.moments()
        lam = profile.lambdas()
        return cls(box=profile.box, lam2=lam * lam, m2=m2, m4=m4)

    @cached_property
    def _f2_terms(self):
        """Generic and repeated-index terms of the pair correction.

        At mode n the correction is -n1 (m2^2 sum_g + sum_r) of
        coef (1 - cos(delta t)) / delta^2, g over the splits k + l = n of
        the pair table and r over the repeated-index corrections: the
        split (-n, 2n) when 2n is in the box and the split (n/2, n/2)
        when n has even coordinates with n/2 in the box, both carrying
        the excess kurtosis factor m4 - 2 m2^2.
        """
        box = self.box
        pt = pair_table(box)
        L = self.lam2
        coef = (box.n1[pt.k_idx] * L[pt.out_idx] * L[pt.l_idx]
                + box.n1[pt.l_idx] * L[pt.out_idx] * L[pt.k_idx]
                - box.n1[pt.out_idx] * L[pt.k_idx] * L[pt.l_idx])
        generic = _Terms(pt.out_idx, pt.delta, coef, pt.seg_starts)
        om = self.dispersion.values
        excess = self.m4 - 2.0 * self.m2 ** 2
        n1, n2 = box.n1, box.n2
        i_2n = box.lookup(2 * n1, 2 * n2)
        even = (n1 % 2 == 0) & (n2 % 2 == 0)
        i_half = np.where(even, box.lookup(n1 // 2, n2 // 2), -1)
        dbl = np.flatnonzero(i_2n >= 0)
        half = np.flatnonzero(i_half >= 0)
        i_2n, i_half = i_2n[dbl], i_half[half]
        out = np.concatenate([dbl, half])
        delta = np.concatenate([om[box.conj_idx[dbl]] + om[i_2n] - om[dbl],
                                2.0 * om[i_half] - om[half]])
        coef = np.concatenate([excess * 2.0 * n1[dbl] * L[dbl] ** 2,
                               -excess * (n1[half] / 2.0) * L[i_half] ** 2])
        # Stable, so a mode with both corrections sums (-n, 2n) first.
        order = np.argsort(out, kind="stable")
        out = out[order]
        kron = _Terms(out, delta[order], coef[order],
                      np.searchsorted(out, np.arange(box.size + 1)))
        return generic, kron


def _one_minus_cos(d, t: float):
    """(1 - cos(d t)) / d^2, written as 2 sin^2(d t / 2) / d^2.

    The two forms are equal, but the first cancels every digit as d t
    goes to zero, where the value tends to t^2 / 2.
    """
    return 2.0 * np.sin(0.5 * d * t) ** 2 / d ** 2


def _f2_at(ctx: TheoryContext, n, term) -> float:
    """-n1 (m2^2 sum_g term(coef, delta) + sum_r term(coef, delta)) at n.

    g and r run over the generic and repeated-index terms of
    TheoryContext._f2_terms; each sum is a pairwise np.sum.
    """
    i_n = ctx.box.index(n)
    generic, kron = ctx._f2_terms
    total = ctx.m2 ** 2 * float(np.sum(term(*generic.at(i_n))))
    coef, delta = kron.at(i_n)
    if len(coef):
        total += float(np.sum(term(coef, delta)))
    return -float(ctx.box.n1[i_n]) * total


def _sum_by_mode(terms: _Terms, term, size: int) -> np.ndarray:
    sums = np.zeros(size)
    np.add.at(sums, terms.out, term(terms.coef, terms.delta))
    return sums


def _f2_bracket_all(ctx: TheoryContext, term) -> np.ndarray:
    """The bracket of _f2_at for every mode, each sum taken in table order."""
    generic, kron = ctx._f2_terms
    size = ctx.box.size
    out = ctx.m2 ** 2 * _sum_by_mode(generic, term, size)
    # Only where repeated-index terms exist: adding 0.0 turns -0.0 into 0.0.
    has = np.diff(kron.starts) > 0
    out[has] += _sum_by_mode(kron, term, size)[has]
    return out


def f2_diag(ctx: TheoryContext, n, t: float) -> float:
    """Closed form of the eps^2 diagonal pair correction at mode n.

    Equals the time integral of the rate -n1 (m2^2 sum_g + sum_r) of
    coef sin(delta t) / delta; off-diagonal pair corrections vanish at
    this order, see pair_prediction.
    """
    return _f2_at(ctx, n, lambda c, d: c * _one_minus_cos(d, t))


def f2_diag_all(ctx: TheoryContext, t: float) -> np.ndarray:
    """f2_diag for every mode of the box at once (vectorized)."""
    bracket = _f2_bracket_all(ctx, lambda c, d: c * _one_minus_cos(d, t))
    return -ctx.box.n1 * bracket


KRON_CONVENTIONS = ("half_opposite", "repeated")


def _check_kron(kron: str) -> None:
    if kron not in KRON_CONVENTIONS:
        raise ValueError(f"unknown kron convention {kron!r}")


def _f3_amplitude(ctx: TheoryContext, i_n, i_m, i_p, kron: str,
                  first=None, excess=None):
    """Amplitude and phase Omega of F3 at triple indices (ints or arrays).

    The amplitude is m2^2 * cyclic + excess * kronecker, with the first
    coordinates taken from first (default box.n1) and excess defaulting
    to m4 - 2 m2^2; the majorant passes their magnitudes.
    """
    _check_kron(kron)
    if first is None:
        first = ctx.box.n1
    if excess is None:
        excess = ctx.m4 - 2.0 * ctx.m2 ** 2
    L = ctx.lam2
    n1, m1, p1 = (first[i].astype(float) for i in (i_n, i_m, i_p))
    cyc = n1 * L[i_m] * L[i_p] + m1 * L[i_p] * L[i_n] + p1 * L[i_n] * L[i_m]
    if kron == "half_opposite":
        kr = 0.5 * ((i_m == i_p) * n1 * L[i_m] ** 2
                    + (i_p == i_n) * m1 * L[i_p] ** 2
                    + (i_n == i_m) * p1 * L[i_n] ** 2)
    else:
        kr = ((i_m == i_p) * m1 * L[i_m] ** 2
              + (i_p == i_n) * p1 * L[i_p] ** 2
              + (i_n == i_m) * n1 * L[i_n] ** 2)
    om = ctx.dispersion.values
    return ctx.m2 ** 2 * cyc + excess * kr, om[i_n] + om[i_m] + om[i_p]


def _f3_values(amp, Om, t: float, sign: float):
    return sign * (1.0 - np.exp(1j * Om * t)) / Om * amp


def _triple_index(box: LatticeBox, n, m, p, kron: str):
    """Mode indices of (n, m, p); None off the zero-sum plane.  Checks kron."""
    _check_kron(kron)
    idx = [box.index(v) for v in (n, m, p)]
    if (n[0] + m[0] + p[0], n[1] + m[1] + p[1]) != (0, 0):
        return None
    return idx


def f3(ctx: TheoryContext, n, m, p, t: float,
       kron: str = "half_opposite", sign: float = 1.0) -> complex:
    """Leading eps coefficient of E u_n u_m u_p for a zero-sum triple.

    Returns 0 when n + m + p != 0.  The closed form is

        sign * (1 - e^{i Omega t}) / Omega
             * (m2^2 * cyclic + (m4 - 2 m2^2) * kronecker)

    with Omega = omega(n) + omega(m) + omega(p), which never vanishes on
    zero-sum triples.  kron selects how the repeated-index terms are
    weighted; the default (kron="half_opposite", sign=+1) is the variant
    confirmed by the Monte Carlo oracle in the acceptance tests.
    """
    idx = _triple_index(ctx.box, n, m, p, kron)
    if idx is None:
        return 0.0 + 0.0j
    amp, Om = _f3_amplitude(ctx, *idx, kron)
    return complex(_f3_values(amp, Om, t, sign))


def pair_prediction(ctx: TheoryContext, n, m, t: float, eps: float) -> complex:
    """Predicted E u_n conj(u_m) through order eps^2."""
    if tuple(n) != tuple(m):
        return 0.0 + 0.0j
    i_n = ctx.box.index(n)
    return complex(ctx.m2 * ctx.lam2[i_n] + eps ** 2 * f2_diag(ctx, n, t))


def triple_prediction(ctx: TheoryContext, n, m, p, t: float, eps: float,
                      kron: str = "half_opposite", sign: float = 1.0) -> complex:
    """Predicted E u_n u_m u_p through order eps."""
    return eps * f3(ctx, n, m, p, t, kron=kron, sign=sign)


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


def weighted_sum_pair(ctx: TheoryContext, s: float, times) -> np.ndarray:
    """Weighted aggregate sum |n1| (|n1|+|n2|)^{2s} |F2(n, t)| over the box.

    One value per time of the grid times.
    """
    w = np.abs(ctx.box.n1) * hs_weights(ctx.box, s)
    return np.array([np.sum(w * np.abs(f2_diag_all(ctx, t)))
                     for t in np.atleast_1d(times)])


def pair_majorant(ctx: TheoryContext, s: float) -> float:
    """Time-uniform upper bound for weighted_sum_pair.

    Every oscillatory kernel satisfies |1 - cos(delta t)| <= 2, so the
    bound follows from the triangle inequality term by term.
    """
    box = ctx.box
    per_mode = _f2_bracket_all(ctx, lambda c, d: np.abs(c) * 2.0 / d ** 2)
    # per_mode bounds the bracketed sum; the correction itself carries
    # another factor of n1, mirroring the -n1 prefactor in f2_diag_all.
    bound = np.abs(box.n1) * per_mode
    w = np.abs(box.n1) * hs_weights(box, s)
    return float(np.sum(w * bound))


def _triple_weights(box: LatticeBox, s: float, i_n, i_m, i_p):
    mag = (np.abs(box.n1) + np.abs(box.n2)).astype(float)
    w = np.sqrt(np.abs(box.n1[i_n] * box.n1[i_m] * box.n1[i_p]).astype(float))
    return w * (mag[i_n] * mag[i_m] * mag[i_p]) ** s


def weighted_sum_triple(ctx: TheoryContext, s: float, times,
                        kron: str = "half_opposite",
                        sign: float = 1.0) -> np.ndarray:
    """Weighted aggregate of |f3| over ordered zero-sum triples.

    The weight is sqrt(|n1 m1 p1|) ((|n|)(|m|)(|p|))^s with |n| the
    coordinate sum magnitude used by the Sobolev weights.  One value per
    time of the grid times; the amplitude, Omega and the weights do not
    depend on time and are computed once.
    """
    i_n, i_m, i_p = zero_sum_triples(ctx.box)
    amp, Om = _f3_amplitude(ctx, i_n, i_m, i_p, kron)
    w = _triple_weights(ctx.box, s, i_n, i_m, i_p)
    return np.array([np.sum(w * np.abs(_f3_values(amp, Om, t, sign)))
                     for t in np.atleast_1d(times)])


def triple_majorant(ctx: TheoryContext, s: float,
                    kron: str = "half_opposite") -> float:
    """Time-uniform upper bound for weighted_sum_triple.

    Uses |1 - e^{i Omega t}| <= 2 and the triangle inequality on the
    amplitude, so it dominates the weighted sum at every time.
    """
    box = ctx.box
    i_n, i_m, i_p = zero_sum_triples(box)
    amp, Om = _f3_amplitude(ctx, i_n, i_m, i_p, kron, first=np.abs(box.n1),
                            excess=abs(ctx.m4 - 2.0 * ctx.m2 ** 2))
    w = _triple_weights(box, s, i_n, i_m, i_p)
    return float(np.sum(w * 2.0 / np.abs(Om) * amp))


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

    def om(a1, a2):
        a1 = a1.astype(float)
        return a1 ** 3 - a2.astype(float) ** 2 / a1

    d = om(K1, K2) + om(L1, L2) - omega((n1, n2))
    total = float(np.sum(coef * _one_minus_cos(d, t)))
    return -n1 * m2 ** 2 * total

