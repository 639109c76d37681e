"""Bilinear and trilinear interaction operators on a truncated lattice.

All operators are convolution sums restricted to a LatticeBox.  They take
and return coefficient arrays whose last axis holds the box modes, in the
box ordering; leading axes are broadcast through, and an operand whose
last axis is not box.size raises ValueError.

Each sum over the splits k + l = n here is a segment sum over the pair
table, which enumerates the splits of a box once (_split_sum): plain in
dx_product, weighted by 1/delta, which does not factor, in s_map.  The
nested splits of the Picard layer are grouped from it
(picard._NestedPlan).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import LatticeBox

__all__ = [
    "PairTable",
    "pair_table",
    "segment_sum",
    "dx_product",
    "s_map",
    "f_map",
]


@dataclass(frozen=True)
class PairTable:
    """Flat enumeration of splits k + l = n with n, k, l all in the box.

    Entries are sorted by the output mode; seg_starts[i]:seg_starts[i+1]
    slices the entries producing mode i.  delta holds the three-wave
    phase omega(k) + omega(l) - omega(n) per entry, which never vanishes.
    """

    box: LatticeBox
    out_idx: np.ndarray
    k_idx: np.ndarray
    l_idx: np.ndarray
    delta: np.ndarray
    inv_delta: np.ndarray
    seg_starts: np.ndarray

    def __len__(self):
        return len(self.out_idx)


@lru_cache(maxsize=None)
def pair_table(box: LatticeBox) -> PairTable:
    """Build (and cache) the pair interaction table of a box."""
    om = box.omega
    # All (n, k) combinations; l = n - k must land back in the box.
    l1 = box.n1[:, None] - box.n1[None, :]
    l2 = box.n2[:, None] - box.n2[None, :]
    l_idx = box.lookup(l1, l2)
    # np.nonzero lists the entries in row-major order, sorted by n.
    out_g, k_g = np.nonzero(l_idx >= 0)
    l_g = l_idx[out_g, k_g]
    dlt = om[k_g] + om[l_g] - om[out_g]
    counts = np.bincount(out_g, minlength=box.size)
    return PairTable(
        box=box,
        out_idx=out_g,
        k_idx=k_g,
        l_idx=l_g,
        delta=dlt,
        inv_delta=1.0 / dlt,
        seg_starts=np.append(0, np.cumsum(counts)),
    )


def segment_sum(values: np.ndarray, seg_starts: np.ndarray) -> np.ndarray:
    """Sum contiguous segments of the last axis.

    seg_starts has one more entry than there are segments and ends at
    values.shape[-1]; empty segments yield zero.
    """
    out = np.zeros(values.shape[:-1] + (len(seg_starts) - 1,),
                   dtype=values.dtype)
    full = np.flatnonzero(np.diff(seg_starts))
    if full.size:
        # Only empty segments lie between two non-empty ones, so each
        # reduceat slice ends where its own segment ends.
        out[..., full] = np.add.reduceat(values, seg_starts[full], axis=-1)
    return out


def _split_sum(box: LatticeBox, U: np.ndarray, V: np.ndarray,
               weight=None) -> np.ndarray:
    """sum_{k+l=n} U_k V_l, each split times its weight, over the pair table.

    Raises ValueError unless the last axis of U and of V holds box.size
    modes.
    """
    for X in (U, V):
        if np.shape(X)[-1:] != (box.size,):
            raise ValueError(f"expected {box.size} modes of {box!r} in the "
                             f"last axis, got shape {np.shape(X)}")
    pt = pair_table(box)
    prods = U[..., pt.k_idx] * V[..., pt.l_idx]
    if weight is not None:
        prods *= weight
    return segment_sum(prods, pt.seg_starts)


def dx_product(box: LatticeBox, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Derivative of the projected product: i n1 sum_{k+l=n} u_k v_l."""
    return 1j * box.n1 * _split_sum(box, U, V)


def s_map(box: LatticeBox, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Phase-weighted symmetric form (n1/2) sum_{k+l=n} u_k v_l / delta.

    This is the bilinear kernel of the normal form change of variables;
    delta is the three-wave phase of the split, bounded away from zero.
    """
    return 0.5 * box.n1 * _split_sum(box, U, V, pair_table(box).inv_delta)


def f_map(box: LatticeBox, A: np.ndarray, B: np.ndarray, C: np.ndarray
          ) -> np.ndarray:
    """Trilinear resonant interaction, realized as -s_map(C, dx_product(A, B)).

    The composition keeps the operator consistent with s_map and
    dx_product so that the commutator and flow identities hold exactly on
    the truncated lattice, not only up to discretization.
    """
    return -s_map(box, C, dx_product(box, A, B))
