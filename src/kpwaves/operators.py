"""Bilinear and trilinear interaction operators on a truncated lattice.

All operators are convolution sums restricted to a LatticeBox; leading
axes of the coefficient arrays are broadcast through.  The plain
convolution is a product of FFTs on a zero-padded grid (see convolve).
The phase-weighted forms carry split weights such as 1/delta that do not
factor, so they are weighted segment sums over the pair and triple
tables, which enumerate the admissible index combinations once per box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import LatticeBox, SpectralField

__all__ = [
    "PairTable",
    "TripleTable",
    "pair_table",
    "triple_table",
    "segment_sum",
    "convolve",
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


@dataclass(frozen=True)
class TripleTable:
    """Flat enumeration of nested splits k + (j + q) = n inside the box.

    Each entry records an outer split n = k + l together with an inner
    split l = j + q, all five vectors in the box.  inner_delta and
    outer_delta are the three-wave phases of the two splits and
    four_wave is their sum omega(j) + omega(k) + omega(q) - omega(n),
    which can vanish (near-)exactly and is handled by phi1 downstream.
    """

    box: LatticeBox
    out_idx: np.ndarray
    k_idx: np.ndarray
    j_idx: np.ndarray
    q_idx: np.ndarray
    l1: np.ndarray
    inner_delta: np.ndarray
    outer_delta: np.ndarray
    four_wave: np.ndarray
    seg_starts: np.ndarray

    def __len__(self):
        return len(self.out_idx)


def _starts_from_sorted(out_idx: np.ndarray, n_out: int) -> np.ndarray:
    counts = np.bincount(out_idx, minlength=n_out)
    starts = np.zeros(n_out + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    return starts


@lru_cache(maxsize=None)
def pair_table(box: LatticeBox) -> PairTable:
    """Build (and cache) the pair interaction table of a box."""
    om = box.dispersion().values
    # All (n, k) combinations; l = n - k must land back in the box.
    l1 = box.n1[:, None] - box.n1[None, :]
    l2 = box.n2[:, None] - box.n2[None, :]
    l_idx = box.lookup(l1, l2)
    out_g, k_g = np.nonzero(l_idx >= 0)
    l_g = l_idx[out_g, k_g]
    order = np.argsort(out_g, kind="stable")
    out_g, k_g, l_g = out_g[order], k_g[order], l_g[order]
    dlt = om[k_g] + om[l_g] - om[out_g]
    return PairTable(
        box=box,
        out_idx=out_g,
        k_idx=k_g,
        l_idx=l_g,
        delta=dlt,
        inv_delta=1.0 / dlt,
        seg_starts=_starts_from_sorted(out_g, box.size),
    )


@lru_cache(maxsize=None)
def triple_table(box: LatticeBox) -> TripleTable:
    """Build (and cache) the nested-split table by composing the pair table."""
    pt = pair_table(box)
    om = box.dispersion().values
    counts = np.diff(pt.seg_starts)
    # For every outer entry (n, k, l), expand the inner splits of l.
    lens = counts[pt.l_idx]
    total = int(lens.sum())
    rep = np.repeat(np.arange(len(pt), dtype=np.int64), lens)
    pos = np.arange(total, dtype=np.int64) \
        - np.repeat(np.cumsum(lens) - lens, lens)
    inner = pt.seg_starts[pt.l_idx][rep] + pos
    out_idx = pt.out_idx[rep]
    k_idx = pt.k_idx[rep]
    l_idx = pt.l_idx[rep]
    j_idx = pt.k_idx[inner]
    q_idx = pt.l_idx[inner]
    inner_delta = pt.delta[inner]
    outer_delta = pt.delta[rep]
    return TripleTable(
        box=box,
        out_idx=out_idx,
        k_idx=k_idx,
        j_idx=j_idx,
        q_idx=q_idx,
        l1=box.n1[l_idx].copy(),
        inner_delta=inner_delta,
        outer_delta=outer_delta,
        four_wave=inner_delta + outer_delta,
        seg_starts=_starts_from_sorted(out_idx, box.size),
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


def _check_same_box(*fields: SpectralField) -> LatticeBox:
    box = fields[0].box
    for f in fields[1:]:
        if f.box != box:
            raise ValueError("operands live on different boxes")
    return box


@lru_cache(maxsize=None)
def _fft_embedding(box: LatticeBox) -> tuple[int, np.ndarray]:
    """Grid length L and the grid position of every mode of the box."""
    stride = 3 * box.n2_max + 1
    length = (3 * box.n1_max + 1) * stride
    return length, (box.n1 * stride + box.n2) % length


def convolve(box: LatticeBox, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Truncated convolution sum_{k+l=n} U_k V_l on raw coefficient arrays.

    Mode n sits at (n1 S + n2) mod L on a periodic 1-D grid, S = 3 N2 + 1,
    L = (3 N1 + 1) S, and the sum is the grid's cyclic convolution, by FFT.
    It is alias-free on the box: |k2 + l2| <= 2 N2 keeps rows apart, and
    the linear index of k + l differs from that of any box mode by at
    most 3 N1 S + 3 N2 < L, so it wraps onto n only if k + l = n.
    """
    # np.fft loads on first use, so commands that never convolve skip it.
    length, pos = _fft_embedding(box)
    grid = np.zeros(U.shape[:-1] + (length,), dtype=np.complex128)
    grid[..., pos] = U
    np.fft.fft(grid, out=grid)
    if V is U:
        grid *= grid
    else:
        other = np.zeros(V.shape[:-1] + (length,), dtype=np.complex128)
        other[..., pos] = V
        grid = grid * np.fft.fft(other, out=other)
    return np.fft.ifft(grid, out=grid)[..., pos]

def _dx_product(box: LatticeBox, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    return 1j * box.n1 * convolve(box, U, V)


def _s_apply(box: LatticeBox, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    pt = pair_table(box)
    prods = U[..., pt.k_idx] * V[..., pt.l_idx] * pt.inv_delta
    return 0.5 * box.n1 * segment_sum(prods, pt.seg_starts)


def dx_product(u: SpectralField, v: SpectralField) -> SpectralField:
    """Derivative of the projected product: i n1 sum_{k+l=n} u_k v_l."""
    box = _check_same_box(u, v)
    return SpectralField(box, _dx_product(box, u.coeffs, v.coeffs), copy=False)


def s_map(u: SpectralField, v: SpectralField) -> SpectralField:
    """Phase-weighted symmetric form (n1/2) sum_{k+l=n} u_k v_l / delta.

    This is the bilinear kernel of the normal form change of variables;
    delta is the three-wave phase of the split, bounded away from zero.
    """
    box = _check_same_box(u, v)
    return SpectralField(box, _s_apply(box, u.coeffs, v.coeffs), copy=False)


def _f_map_coeffs(box: LatticeBox, A: np.ndarray, B: np.ndarray,
                  C: np.ndarray) -> np.ndarray:
    return -_s_apply(box, C, _dx_product(box, A, B))


def f_map(a: SpectralField, b: SpectralField, c: SpectralField
          ) -> SpectralField:
    """Trilinear resonant interaction, realized as -s_map(c, dx_product(a, b)).

    The composition keeps the operator consistent with s_map and
    dx_product so that the commutator and flow identities hold exactly on
    the truncated lattice, not only up to discretization.
    """
    box = _check_same_box(a, b, c)
    return SpectralField(box, _f_map_coeffs(box, a.coeffs, b.coeffs, c.coeffs),
                         copy=False)
