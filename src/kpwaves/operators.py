"""Bilinear and trilinear interaction operators on a truncated lattice.

All operators are convolution sums restricted to a LatticeBox.  They take
and return coefficient arrays whose last axis holds the box modes, in the
box ordering; leading axes are broadcast through, and an operand whose
last axis is not box.size raises ValueError.

A sum over the splits k + l = n takes one of two forms.  The integrator
squares a real field on a zero-padded 1-D grid whose length is the
smallest 5-smooth number past the alias-free bound
3 N1 (3 N2 + 1) + 3 N2 (_fft_embedding), spanned by the
H = N1 (2 N2 + 1) modes with n1 > 0, L the grid length (_squarer).
While H L <= _DENSE_MAX = 4096 (2x1, 2x2 and 3x3) the two transforms
are real matrix products with the grid's DFT on those modes
(_dense_embedding): grid = X E, square, spec = grid F; larger boxes
keep an irfft/rfft pair on the grid's half-spectrum (_positive_rows).
The BLAS rounds a sample differently with the number of samples in its
call, so the samples go in zero-padded blocks of _BLOCK_ROWS = 32
through products of one fixed shape, with the grid of at most
_GRID_BLOCKS = 16 blocks held at a time to cap its memory, and a
sample's bits do not depend on its batch.
The two paths agree to roundoff, not bitwise.  One square on one core
(medians of 40 rounds of 50 calls) cost 39 us against 111 us for the
FFT pair at 2x2 (250 samples) and 467 against 839 us at 3x3 (1000
samples); blocks of 8 rows cost 48 and 523 us.  A lone sample pays for
the padding: 22 us at 3x3 against 12 us in blocks of 8 and 19 us by
FFT, and 237 us against 28 by FFT at 6x6.
The stepper's gauge phases fold into the dense path's matrices, P into
the rows of E and Q into the columns of F, so that a right-hand side
Q square(P X) is two products and a square of the state itself; a
block keeps its samples in columns, and the products run as E^T X^T
and F^T grid^T, which the BLAS ran 10-15% faster than X E and grid F
at 1 and 32 blocks of 2x2 and 3x3.  The FFT path
multiplies the phases in.  A right-hand side took 135 us at 2x2 and
450 us at 3x3 (1000 samples), against 226 and 700 us with the phases
multiplied into the state and the square, and 22 against 32 us for a
lone sample at 3x3; folding the 5 stage times of a chunk of 2 steps
took 12 and 26 us for 1000 samples, against 20 and 62 us for the 17 of
a chunk of 8 (medians of 40 rounds of 50 calls).
Every other split sum is a segment sum over the pair table, which
enumerates the splits of a box once (_split_sum): plain in dx_product,
weighted by 1/delta, which does not factor, in s_map.  The nested
splits of the Picard layer are grouped from it (picard._NestedPlan).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import ConfigError, LatticeBox

__all__ = [
    "PairTable",
    "pair_table",
    "segment_sum",
    "dx_product",
    "s_map",
    "f_map",
]

# The dense path of _squarer: samples per block of the matrix products
# (the last block padded with zero samples), the largest H L it runs at,
# and the most blocks whose grid it holds at once; see the module
# docstring.
_BLOCK_ROWS = 32
_DENSE_MAX = 4096
_GRID_BLOCKS = 16


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


def _physical_memory() -> int:
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(need: int, what: str) -> None:
    """Raise ConfigError when `what`, which needs `need` bytes, would
    exceed physical memory; the message starts with `what`."""
    memory = _physical_memory()
    if need > memory:
        raise ConfigError(f"{what} needs {need} bytes, more than the "
                          f"{memory} bytes of physical memory")


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


def _smooth_length(n: int) -> int:
    """Smallest 5-smooth integer >= n, a fast FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@lru_cache(maxsize=None)
def _fft_embedding(box: LatticeBox) -> tuple[int, np.ndarray]:
    """Grid length L and the grid position of every mode of the box.

    Mode n sits at (n1 S + n2) mod L on a periodic 1-D grid, S = 3 N2 + 1,
    L the smallest 5-smooth length >= 3 N1 S + 3 N2 + 1, so the grid's
    cyclic convolution is alias-free on the box: |k2 + l2| <= 2 N2 keeps
    rows apart, and the linear index of k + l differs from that of any box
    mode by at most 3 N1 S + 3 N2 < L, so it wraps onto n only if
    k + l = n.  The n1 > 0 modes sit at 1..N1 S + N2, inside the
    half-spectrum 0..L/2 of a real grid.
    """
    stride = 3 * box.n2_max + 1
    length = _smooth_length(3 * box.n1_max * stride + 3 * box.n2_max + 1)
    return length, (box.n1 * stride + box.n2) % length


@lru_cache(maxsize=None)
def _dense_embedding(box: LatticeBox) -> tuple[np.ndarray, np.ndarray]:
    """Real DFT matrices of the grid on the H modes of the box with n1 > 0.

    E is (2 H, L) and F is (L, 2 H), real and imaginary parts interleaved
    as in a complex array viewed as float.  For the n1 > 0 half u of a real
    field, u.view(float) @ E is the real grid of its half-spectrum (the
    irfft of _positive_rows's buffer), and (grid @ F).view(complex) the
    rfft of a real grid at those modes, both with norm="forward".
    """
    length, pos = _fft_embedding(box)
    # p x is reduced mod L in integers, so every angle lies in [0, 2 pi).
    phase = np.outer(pos[box.size // 2:], np.arange(length)) % length
    theta = (2.0 * np.pi / length) * phase
    cos, sin = np.cos(theta), np.sin(theta)
    E = np.empty((2 * len(theta), length))
    E[0::2], E[1::2] = 2.0 * cos, -2.0 * sin
    F = np.empty((length, 2 * len(theta)))
    F[:, 0::2], F[:, 1::2] = cos.T / length, -sin.T / length
    # Every caller gets the cached pair.
    E.flags.writeable = F.flags.writeable = False
    return E, F


def _positive_rows(box: LatticeBox, half_spectrum: np.ndarray) -> np.ndarray:
    """View of the n1 > 0 modes in the last axis of a half-spectrum of the
    grid (length L // 2 + 1), shaped (..., N1, 2 N2 + 1) in box order."""
    stride = 3 * box.n2_max + 1
    lo = stride - box.n2_max
    rows = half_spectrum[..., lo:lo + box.n1_max * stride]
    rows = rows.reshape(rows.shape[:-1] + (box.n1_max, stride))
    return rows[..., :2 * box.n2_max + 1]


def _squarer(box: LatticeBox, modes: np.ndarray, times: int):
    """State and quadratic kernel of the gauged flow for a batch of states.

    modes holds the n1 > 0 modes of a batch of real fields, shaped
    batch + (N1, 2 N2 + 1).  Returns (state, read, stages): state holds
    them in the kernel's layout, read(a, out) writes the modes of an
    array of that layout into out, shaped (batch size, H) with its last
    axis contiguous, and zeroed arrays of the same layout serve as the
    stepper's other registers.  stages(P, Q) takes the gauge phases of
    up to `times` stage times, shaped (T, N1, 2 N2 + 1), and returns
    rhs(j, Y, out), which writes Q[j] times the spectrum of the square of
    the grid of P[j] Y into the register out; out may be Y.  Padding
    stays zero under linear combinations of registers.  The buffers are
    allocated per call, so calls are independent.
    """
    half = box.size // 2
    batch = modes.shape[:-2]
    length = _fft_embedding(box)[0]
    if half * length <= _DENSE_MAX:
        E, F = _dense_embedding(box)
        n = math.prod(batch)
        blocks = -(-n // _BLOCK_ROWS)
        # A block holds its samples in columns, the real and imaginary
        # part of mode h in rows 2h and 2h + 1: its grid is E^T block and
        # the spectrum of the square F^T grid, with the operands the BLAS
        # multiplies fastest (see the module docstring).
        state = np.zeros((blocks, 2 * half, _BLOCK_ROWS))
        given = np.ascontiguousarray(modes).reshape(n, half).view(float)
        for b, lo in enumerate(range(0, n, _BLOCK_ROWS)):
            state[b, :, :n - lo] = given[lo:lo + _BLOCK_ROWS].T
        grid = np.empty((min(_GRID_BLOCKS, blocks), length, _BLOCK_ROWS))
        groups = [(slice(lo, lo + _GRID_BLOCKS), grid[:blocks - lo])
                  for lo in range(0, blocks, _GRID_BLOCKS)]
        # Per mode h, rows 2h and 2h + 1 of E (which take Re u_h and
        # Im u_h) and of F^T (which give the spectrum's Re and Im at h),
        # and the same rows for a factor i: c + i s folds in as c times
        # the first pair plus s times the second.
        FT = np.ascontiguousarray(F.T)
        pairs_e = np.stack([E.reshape(half, 2 * length),
                            np.hstack([E[1::2], -E[0::2]])], axis=1)
        pairs_f = np.stack([FT.reshape(half, 2 * length),
                            np.hstack([-FT[1::2], FT[0::2]])], axis=1)
        stage_e = np.empty((times,) + E.shape)
        stage_f = np.empty_like(stage_e)

        def fold(phases, pairs, out):
            # One product per mode of its (c, s) over the stage times.
            T = len(phases)
            np.matmul(phases.view(float).reshape(T, half, 2)
                      .transpose(1, 0, 2), pairs,
                      out=out[:T].reshape(T, half, -1).transpose(1, 0, 2))

        def stages(P, Q):
            # P folds into E and Q into F: the stage's square is then two
            # real matrix products of the state.
            fold(P, pairs_e, stage_e)
            fold(Q, pairs_f, stage_f)

            def rhs(j, Y, out):
                # Each block is its own GEMM, and every GEMM has one shape.
                for part, x in groups:
                    np.matmul(stage_e[j].T, Y[part], out=x)
                    np.square(x, out=x)
                    np.matmul(stage_f[j], x, out=out[part])

            return rhs

        def read(a, out):
            dst = out.view(float)
            for b, lo in enumerate(range(0, n, _BLOCK_ROWS)):
                dst[lo:lo + _BLOCK_ROWS] = a[b, :, :n - lo].T

        return state, read, stages
    # Half-spectrum of the real grid (zero off the box), the grid, and the
    # spectrum of its square.
    state = np.ascontiguousarray(modes, dtype=np.complex128)
    buf = np.zeros(batch + (length // 2 + 1,), dtype=np.complex128)
    grid = np.empty(batch + (length,))
    spec = np.empty_like(buf)
    src, dst = _positive_rows(box, buf), _positive_rows(box, spec)

    def stages(P, Q):
        def rhs(j, Y, out):
            np.multiply(P[j], Y, out=src)
            # irfft gives the grid with its index reversed, which the
            # square and the forward rfft undo: spec is the cyclic
            # convolution of buf.
            np.fft.irfft(buf, length, norm="forward", out=grid)
            np.square(grid, out=grid)
            np.fft.rfft(grid, norm="forward", out=spec)
            np.multiply(Q[j], dst, out=out)

        return rhs

    def read(a, out):
        out[...] = a.reshape(-1, half)

    return state, read, stages


def _squarer_bytes(box: LatticeBox, times: int, rows: int) -> int:
    """Bytes _squarer holds past its per-sample arrays for `rows` samples
    over `times` stage times: on the dense path the DFT matrices, their
    per-mode pairs, the stage matrices and a grid of the blocks of rows,
    at most _GRID_BLOCKS; none on the FFT path, whose buffers are all per
    sample."""
    half = box.size // 2
    length = _fft_embedding(box)[0]
    if half * length > _DENSE_MAX:
        return 0
    blocks = min(_GRID_BLOCKS, -(-rows // _BLOCK_ROWS))
    return 8 * ((14 + 4 * times) * half * length
                + blocks * _BLOCK_ROWS * length)


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
