"""Wave-vector lattice, dispersion relation, and fields on the torus.

The phase space is spanned by Fourier modes u_n, n = (n1, n2), with the
zero-mean constraint n1 != 0 built into the lattice itself.  A LatticeBox
is the symmetric rectangular truncation used by every operator in this
package; its frequencies omega and interaction tables are aligned to its
canonical mode ordering.  A field is a complex coefficient array whose
last axis holds the box modes in that order; any leading axes are
broadcast through.  Physical fields obey the reality symmetry
u(-n) = conj(u(n)), which evolve_coeffs checks of its initial data.
phi1 is the time integral of a free-flow phase, shared by the Picard
corrections and the closed-form triple moment.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ConfigError",
    "omega",
    "LatticeBox",
    "hs_weights",
    "hs_norm",
    "apply_free_flow",
    "phi1",
]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration: exit 2."""


def omega(n):
    """Dispersion frequency n1**3 - n2**2 / n1 of a mode n = (n1, n2).

    n1 and n2 may be arrays, and then the frequency is taken elementwise.
    Raises ValueError where n1 = 0, which never belongs to the phase space.
    """
    n1, n2 = (np.asarray(c, dtype=float) for c in n)
    if np.any(n1 == 0):
        raise ValueError("dispersion is undefined on the line n1 = 0")
    return n1 ** 3 - n2 ** 2 / n1


class LatticeBox:
    """Symmetric truncation {1 <= |n1| <= n1_max, |n2| <= n2_max} of Z* x Z.

    The box is closed under n -> -n and excludes the n1 = 0 column
    structurally.  Modes are stored in lexicographic order of (n1, n2);
    all array-valued quantities in the package share this ordering.
    omega holds the frequency of every mode.
    """

    __slots__ = ("n1_max", "n2_max", "modes", "n1", "n2", "size",
                 "conj_idx", "omega", "_index", "_grid")

    def __init__(self, n1_max: int, n2_max: int):
        if n1_max < 1 or n2_max < 0:
            raise ValueError("need n1_max >= 1 and n2_max >= 0")
        self.n1_max = int(n1_max)
        self.n2_max = int(n2_max)
        modes = [(a, b)
                 for a in range(-self.n1_max, self.n1_max + 1) if a != 0
                 for b in range(-self.n2_max, self.n2_max + 1)]
        self.modes = np.array(modes, dtype=np.int64)
        self.n1 = self.modes[:, 0].copy()
        self.n2 = self.modes[:, 1].copy()
        self.size = len(modes)
        self._index = {m: i for i, m in enumerate(modes)}
        # Offset-indexed lookup grid, -1 marks vectors outside the box.
        grid = np.full((2 * self.n1_max + 1, 2 * self.n2_max + 1), -1,
                       dtype=np.int64)
        grid[self.n1 + self.n1_max, self.n2 + self.n2_max] = \
            np.arange(self.size)
        self._grid = grid
        self.conj_idx = self.lookup(-self.n1, -self.n2)
        self.omega = omega((self.n1, self.n2))

    def index(self, n) -> int:
        """Position of mode n in the canonical ordering."""
        try:
            return self._index[(int(n[0]), int(n[1]))]
        except KeyError:
            raise ValueError(f"mode {tuple(n)} is outside {self!r}") from None

    def lookup(self, a1, a2):
        """Vectorized index lookup; returns -1 where (a1, a2) is not in the box."""
        a1 = np.asarray(a1, dtype=np.int64)
        a2 = np.asarray(a2, dtype=np.int64)
        inside = (np.abs(a1) >= 1) & (np.abs(a1) <= self.n1_max) \
            & (np.abs(a2) <= self.n2_max)
        out = np.full(np.broadcast(a1, a2).shape, -1, dtype=np.int64)
        out[inside] = self._grid[a1[inside] + self.n1_max,
                                 a2[inside] + self.n2_max]
        return out

    def __contains__(self, n) -> bool:
        return (int(n[0]), int(n[1])) in self._index

    def __eq__(self, other):
        return (isinstance(other, LatticeBox)
                and self.n1_max == other.n1_max
                and self.n2_max == other.n2_max)

    def __hash__(self):
        return hash((self.n1_max, self.n2_max))

    def __repr__(self):
        return f"LatticeBox({self.n1_max}, {self.n2_max})"


def _symmetry_defect(box: LatticeBox, coeffs: np.ndarray):
    """Largest |u_n - conj(u_{-n})| of each field (last axis) and the
    scale max(1, max |u_n|) it is measured against.  n and -n have the
    same defect, so the n1 > 0 half is measured, in one temporary."""
    half = box.size // 2
    dev = coeffs[..., box.conj_idx[half:]]
    np.conjugate(dev, out=dev)
    np.subtract(coeffs[..., half:], dev, out=dev)
    dev = np.abs(dev)
    scale = np.maximum(1.0, np.max(np.abs(coeffs), axis=-1, initial=0.0))
    return np.max(dev, axis=-1, initial=0.0), scale


def hs_weights(box: LatticeBox, s: float):
    """Sobolev weights (|n1| + |n2|)**(2 s) on the modes of a box."""
    mag = np.abs(box.n1) + np.abs(box.n2)
    return mag.astype(float) ** (2.0 * s)


def hs_norm(box: LatticeBox, U: np.ndarray, s: float):
    """Sobolev norm sqrt(sum (|n1|+|n2|)**(2s) |u_n|**2) of each field."""
    w = hs_weights(box, s)
    return np.sqrt(np.sum(w * np.abs(U) ** 2, axis=-1))


def apply_free_flow(box: LatticeBox, U: np.ndarray, t: float) -> np.ndarray:
    """Propagate by the linear group, multiplying each mode by e^{i omega t}."""
    return U * np.exp(1j * box.omega * t)


def phi1(theta, t):
    """Oscillatory integral (e^{i theta t} - 1) / (i theta), elementwise.

    Evaluated as t e^{ix} sin(x) / x with x = theta t / 2 and the quotient
    taken as 1 where x = 0: no cancellation at small theta t, exactly t at
    theta = 0, and no division by theta, which may be subnormal.
    """
    x = 0.5 * np.multiply(theta, t, dtype=float)
    quotient = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
    return t * np.exp(1j * x) * quotient
