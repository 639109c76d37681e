"""Random initial data of the wave system.

Initial fields are u0_n = lambda_n g_n with g_n = R_n e^{2 pi i theta_n},
theta_n uniform on [0, 1), R_n drawn from a bounded modulus law, and the
reality constraint g_{-n} = conj(g_n).  Draws are generated by a counter
hash of (seed, sample index, n1, n2), so any sample of any ensemble can
be reproduced in isolation, independent of batching or thread count.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .lattice import LatticeBox, hs_weights

__all__ = ["RandomLaw", "SpectrumProfile", "normalize_profile", "sample_u0",
           "sample_g_batch"]


# ---------------------------------------------------------------------------
# counter-based uniforms

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_PHASE_SALT = np.uint64(0x243F6A8885A308D3)
_MODULUS_SALT = np.uint64(0x13198A2E03707344)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise and in place on a uint64 array."""
    x += _GAMMA
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
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
        h ^= w
        _mix64(h)
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u *= 2.0 ** -53
    return u


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
              index: int) -> np.ndarray:
    """Coefficients lambda_n g_n of the random initial field of one sample."""
    G = sample_g_batch(profile.box, law, seed, np.array([index]))
    return profile.lambdas() * G[0]
