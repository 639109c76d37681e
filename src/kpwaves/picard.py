"""Picard expansion of the truncated flow and the normal form inversion.

For initial data u0 the flow map is expanded as

    u(t) = a(t) + eps b(t) + eps^2 c(t) + eps^3 d(t),

where a is the free evolution and b, c have closed forms as oscillatory
sums over the interaction tables.  b sums over the splits k + l = n of
the pair table; c and the Duhamel integral f of the resonant trilinear
term sum over the nested splits k + (j + q) = n, grouped by the inner
mode l = j + q into the pair table's own segments.  One pass computes b,
c and f for a batch of initial data (_picard_coeffs): b as a segment sum
of the pair products U_k U_l, c and f as one complex matrix product per
segment, over fixed blocks of sample rows and chunks of at most
_CHUNK_SPLITS splits.  phi1(theta, t) = (e^{i theta t} - 1) / (i theta),
the lattice module's, is taken once per four-wave phase that occurs; the
plan (_NestedPlan) numbers the phases by pairs of pair-key ranks and
holds nothing per nested split.  _check_contraction counts the plan's
build before it, and the pass from the built plan before the pass.

Fields are coefficient arrays as in the lattice module: the last axis
holds the box modes, leading axes are broadcast.  A PicardBundle holds
the box, the initial data u0 and the arrays (a, b, c, f) of one initial
condition; PicardBundle.build_batch builds one per row of an array in
that one pass.  The remainder d is defined by exact subtraction.  The
gauged variable v = u + eps s_map(u, u) satisfies a flow equation whose
eps^3 coefficient w admits an algebraic decomposition in terms of a, b,
c, d; lambda_eps is the resulting polynomial map d -> w and
invert_lambda_eps recovers d from w by fixed-point iteration.

The exact identities behind the normal form, which hold to roundoff, are
measured by resonance_margin, identity_residuals and w_residual, which
take the caller's bundle; both `kpwaves verify` and the acceptance suite
call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import operators
from .lattice import ConfigError, LatticeBox, apply_free_flow, hs_norm, phi1
from .operators import pair_table, segment_sum, s_map, dx_product, f_map

__all__ = [
    "extract_d",
    "extract_w",
    "PicardBundle",
    "lambda_eps",
    "invert_lambda_eps",
    "NonContractionError",
    "MaxIterExceededError",
    "PhaseKeyOverflowError",
    "resonance_margin",
    "identity_residuals",
    "w_residual",
]

# Byte budget of one block of samples in the Picard passes, the most rows
# a block takes, and the complex arrays over the whole pair table per row
# that set them (rows are counted over the whole table, so every box keeps
# its block shape); the most splits of a chunk (_chunks).  The tables of
# 2x2 and 3x3 stay one chunk: with a chunk per group, a pass over 250
# samples at 2x2 took 11.6 ms against 4.0 ms, and over 1000 at 3x3 136 ms
# against 64 ms (medians of 10, one core).  The entries per _lower_sums.
_BLOCK_BYTES = 1 << 23
_MAX_ROWS = 64
_BLOCK_ARRAYS = 4
_CHUNK_SPLITS = 1024
_ITEM = np.dtype(np.complex128).itemsize
_SUM_BLOCK = 1 << 13


class NonContractionError(RuntimeError):
    """Fixed-point residual stopped contracting; eps is too large."""


class MaxIterExceededError(RuntimeError):
    """Fixed-point iteration hit its iteration cap before converging."""


class PhaseKeyOverflowError(ConfigError):
    """The exact four-wave phase keys of a box do not fit in int64."""


def _omega_keys(box: LatticeBox) -> tuple[int, np.ndarray]:
    """Denominator D = lcm(1..N1) and the integers D omega(n) of the modes.

    D omega(n) = D n1^3 - (D / n1) n2^2 is exact, so a sum of frequencies
    is an exact integer key of D times its value.  Raises
    PhaseKeyOverflowError when a four-wave key could exceed int64.
    """
    denom = math.lcm(*range(1, box.n1_max + 1))
    bound = 4 * denom * (box.n1_max ** 3 + box.n2_max ** 2)
    if bound > np.iinfo(np.int64).max:
        raise PhaseKeyOverflowError(
            f"four-wave phase keys of {box!r} reach {bound}, past int64")
    return denom, denom * box.n1 ** 3 - (denom // box.n1) * box.n2 ** 2


@dataclass(frozen=True)
class _NestedPlan:
    """Nested splits k + (j + q) = n of a box, grouped by the inner mode l.

    The box is closed under n -> -n, so (n, k) -> (-k, n) pairs the outer
    splits n = k + l of l one-to-one with its inner splits l = j + q, the
    pair-table segment m0:m1 of l (_groups), where the table sorted stably
    by l holds the outer splits of l.  For each chunk l0:l1 (_chunks), the
    slice m0:m1 of its segments, outer[m0:m1] holds its outer splits in
    pair-table order, back[m0:m1] the place of each among them sorted by
    l, and out_starts its segments by output mode.  phases holds the
    four-wave phases that occur, in key order.  A four-wave key is the sum
    of the inner and outer pair keys, so rank, each entry's rank among the
    K distinct pair keys (_key_ranks), and the K x K table of phase
    numbers, in the smallest unsigned type that holds their count, number
    every nested split (_chunk_numbers); none reads an unjoined pair's.
    """

    chunks: tuple
    outer: np.ndarray
    back: np.ndarray
    out_starts: tuple
    phases: np.ndarray
    rank: np.ndarray
    table: np.ndarray


def _pair_keys(box: LatticeBox) -> tuple:
    """D and the integer D delta of every pair-table entry."""
    pt, (denom, dw) = pair_table(box), _omega_keys(box)
    return denom, dw[pt.k_idx] + dw[pt.l_idx] - dw[pt.out_idx]


def _group_sizes(box: LatticeBox) -> np.ndarray:
    """Nested splits per inner mode l: its segment's length squared."""
    return np.diff(pair_table(box).seg_starts) ** 2


def _groups(box: LatticeBox) -> list:
    """Extents (m0, m1) of the nonempty pair-table segments, in mode
    order: the groups of the nested-split plan."""
    starts = pair_table(box).seg_starts.tolist()
    return [(m0, m1) for m0, m1 in zip(starts, starts[1:]) if m1 > m0]


def _chunks(box: LatticeBox) -> list:
    """Mode extents (l0, l1) of the chunks of the Picard pass, in mode
    order: consecutive modes whose segments, whole groups of the plan,
    hold at most _CHUNK_SPLITS splits together, or one larger group."""
    starts = pair_table(box).seg_starts.tolist()
    chunks, l0 = [], 0
    for l in range(1, len(starts) - 1):
        if (starts[l + 1] - starts[l0] > _CHUNK_SPLITS
                and starts[l] > starts[l0]):
            chunks.append((l0, l))
            l0 = l
    chunks.append((l0, len(starts) - 1))
    return chunks


def _first_of_runs(ordered: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one
    before: the first of each run of equal values."""
    new = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    return new


@lru_cache(maxsize=None)
def _key_ranks(box: LatticeBox) -> tuple:
    """D, each pair-table entry's rank among the distinct pair keys of
    box and those keys in order; the pre-flight counts them first."""
    denom, key = _pair_keys(box)
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    new = _first_of_runs(ordered)
    rank = np.empty_like(order)
    rank[order] = np.cumsum(new) - 1
    return denom, rank, ordered[new]


def _lower_sums(keys: np.ndarray, joined: np.ndarray):
    """Yield (block, lower, sums) over blocks of about _SUM_BLOCK entries
    of the K x K mask joined: the slice of rows r and columns c <= r, the
    mask of its entries c <= r that joined marks and their key sums."""
    rows = max(1, _SUM_BLOCK // max(1, len(keys)))
    for r0 in range(0, len(keys), rows):
        lower = np.tril(joined[r0:r0 + rows, :r0 + rows], r0)
        sums = np.add.outer(keys[r0:r0 + rows], keys[:r0 + rows])
        yield np.s_[r0:r0 + rows, :r0 + rows], lower, sums[lower]


@lru_cache(maxsize=None)
def _nested_plan(box: LatticeBox) -> _NestedPlan:
    """Build (and cache) the nested-split plan of a box."""
    pt = pair_table(box)
    denom, rank, keys = _key_ranks(box)
    outer = np.argsort(pt.l_idx, kind="stable")
    # Mark the (inner, outer) rank pairs that nested splits join.  The mask
    # is symmetric: k + (j + q) = n through l = j + q has the partner
    # j + (k + (-n)) = -q through -l, with the inner and outer keys swapped.
    joined = np.zeros((len(keys), len(keys)), dtype=bool)
    for m0, m1 in _groups(box):
        joined.ravel()[rank[m0:m1, None] * len(keys)
                       + rank[outer[m0:m1]]] = True
    # The four-wave keys that occur, numbered in key order by one sort, and
    # each joined pair's number, both ways round; no nested split reads the
    # zeros of the pairs that none joins.
    sums = np.concatenate([part for _, _, part in _lower_sums(keys, joined)]
                          + [keys[:0]])
    sums.sort()
    distinct = sums[_first_of_runs(sums)]
    del sums
    table = np.zeros(joined.shape, dtype=np.min_scalar_type(len(distinct)))
    for block, lower, part in _lower_sums(keys, joined):
        table[block][lower] = table.T[block][lower] = np.searchsorted(
            distinct, part)
    del joined
    # Each chunk's outer splits back to pair-table order, in place.
    chunks = _chunks(box)
    back = np.empty_like(outer)
    out_starts = []
    for l0, l1 in chunks:
        m0, m1 = pt.seg_starts[l0], pt.seg_starts[l1]
        back[m0:m1] = np.argsort(outer[m0:m1])
        outer[m0:m1].sort()
        counts = np.bincount(pt.out_idx[outer[m0:m1]], minlength=box.size)
        out_starts.append(np.append(0, np.cumsum(counts)))
    phases = distinct.view(np.float64)  # in place, a block at a time
    for i in range(0, len(distinct), _SUM_BLOCK):
        np.divide(distinct[i:i + _SUM_BLOCK], denom,
                  out=phases[i:i + _SUM_BLOCK])
    return _NestedPlan(tuple(chunks), outer, back, tuple(out_starts),
                       phases, rank, table)


def _chunk_numbers(box: LatticeBox, plan: _NestedPlan, l0: int, l1: int
                   ) -> list:
    """The groups of chunk l0:l1 of the plan as (g0, g1, numbers): the
    group's place g0:g1 in the chunk's pair-table slice and its nested
    splits' numbers in plan.phases, inner x outer (the outer splits sorted
    stably by l), one flat gather from plan.table."""
    starts = pair_table(box).seg_starts
    m0, m1 = int(starts[l0]), int(starts[l1])
    # The inner splits' rows of the table, and the outer splits' ranks in
    # the groups' order.
    rows = plan.rank[m0:m1] * len(plan.table)
    ranks = np.empty(m1 - m0, dtype=np.intp)
    ranks[plan.back[m0:m1]] = plan.rank[plan.outer[m0:m1]]
    table = plan.table.ravel()
    segments = (starts[l0:l1 + 1] - m0).tolist()
    return [(g0, g1, table[rows[g0:g1, None] + ranks[g0:g1]])
            for g0, g1 in zip(segments, segments[1:]) if g1 > g0]


def _row_block(box: LatticeBox) -> int:
    """Sample rows per block of the Picard passes: the largest power of two
    up to _MAX_ROWS whose _BLOCK_ARRAYS pair-table rows fit _BLOCK_BYTES."""
    rows, row = _MAX_ROWS, _BLOCK_ARRAYS * _ITEM * len(pair_table(box))
    while rows > 1 and rows * row > _BLOCK_BYTES:
        rows //= 2
    return rows


def _build_bytes(box: LatticeBox) -> int:
    """Bytes that the pair table, the key ranks and building the plan of
    box hold at most, counted before the build from the pair table's
    length n and the K distinct pair keys."""
    n, keys = len(pair_table(box)), len(_key_ranks(box)[2])
    sizes, square = _group_sizes(box), keys ** 2
    # The joined pairs c <= r, and so the phases, are at most the
    # unordered pairs of distinct keys and the nested splits.
    pairs = min(keys * (keys + 1) // 2, int(sizes.sum()))
    number = np.min_scalar_type(pairs).itemsize
    # Held: the pair table (40 B per entry), the ranks and the keys.
    # Ranking takes 48 B per entry; then outer (8 B) and the largest of:
    # the mask and the largest group's int64 offsets; the mask and the
    # sums of the joined pairs, twice, with their run mask; the mask, the
    # table, the distinct sums and one block of sums (40 B an entry); the
    # table, the phases, back and the chunks' sorts.
    build = max(48 * n, 8 * n + max(
        square + 8 * int(sizes.max(initial=0)), square + 17 * pairs,
        (1 + number) * square + 8 * pairs + 40 * (_SUM_BLOCK + keys),
        number * square + 8 * pairs + 24 * n))
    return 48 * n + 8 * (box.size + 1 + keys) + build + (1 << 18)


def _pass_bytes(box: LatticeBox, batch: int) -> int:
    """Bytes that the pair table, the plan of box and one _picard_coeffs
    call on `batch` fields hold at most, counted from the built plan's
    phases and chunk widths before the call forms anything."""
    pt, plan, rows = pair_table(box), _nested_plan(box), _row_block(box)
    starts, sizes = pt.seg_starts, _group_sizes(box)
    width = max(starts[l1] - starts[l0] for l0, l1 in plan.chunks)
    nested = max(int(sizes[l0:l1].sum()) for l0, l1 in plan.chunks)
    longest = math.isqrt(int(sizes.max(initial=0)))
    distinct, number = len(plan.phases), plan.table.itemsize
    # Held: the pair table, the ranks and keys, the plan's outer and back
    # (16 B per entry), table, phases and chunks' segments.  One call: phi1
    # of each phase with its transients (64 B); per split of the widest
    # chunk its operands (80 B) and outer ranks (16 B), and the chunk's
    # nested splits' numbers; a block's three arrays over that chunk and
    # nine rows per sample over the modes (samples, inner and outer sums,
    # segment sums); the largest group's int64 index and complex kernel
    # and numpy's copy of the block rows its product overwrites; B, C and
    # F.  256 KiB for small arrays and numpy's ufunc buffers.
    held = (64 * len(pt) + 8 * (box.size + 1 + len(plan.table))
            + plan.table.nbytes + 8 * distinct
            + 8 * len(plan.chunks) * (box.size + 1))
    call = (64 * distinct + 96 * int(width) + number * nested
            + _ITEM * rows * (3 * int(width) + 9 * box.size)
            + 24 * longest ** 2 + 2 * _ITEM * rows * longest
            + 3 * _ITEM * batch * box.size)
    return held + call + (1 << 18)


def _check_contraction(box: LatticeBox, batch: int) -> None:
    """Raise ConfigError when building the plan of box (counted before the
    build) or a Picard pass over `batch` fields (counted from the built
    plan) would exceed physical memory; a failed check caches no plan."""
    what = f"Picard contraction of {box!r} over {batch} samples"
    operators._check_memory(_build_bytes(box), what)
    try:
        operators._check_memory(_pass_bytes(box, batch), what)
    except ConfigError:
        _nested_plan.cache_clear()
        raise


def _picard_coeffs(box: LatticeBox, U0: np.ndarray, t: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Picard corrections B and C and the Duhamel integral F of a batch U0.

    B is the Duhamel integral of the quadratic interaction along the free
    flow, b_n = -(n1/2) e^{i omega_n t} sum_{k+l=n} i phi1(delta, t) U_k U_l,
    a segment sum over the pair table of the products P below.  F solves
    df/dt - L f = f_map(a, a, a), f(0) = 0, along the free flow a, and
    c = -2 s_map(a, b) + f: sums over the nested splits
    k + (j + q) = n weighted by phi1 of the four-wave phase.  Over the
    inner splits i of l, P_i = U_j U_q and Q_i = l1 P_i / (2 delta_i); the
    outer splits o of l take Y_o = sum_i phi1(delta_i + delta_o, t)
    [P_i | Q_i], one complex matrix product per l.  Then
    F_n ~ sum_o U_k l1 Yf_o / (2 delta_o) and
    C_n ~ sum_o U_k (Yc_o - phi1(delta_o, t) sum_i Q_i).  The samples go
    in zero-padded blocks of _row_block(box) rows, so each product has one
    shape and a sample's bits do not depend on its batch.  The pass runs
    each of the plan's chunks over every block: P and Q over its inner
    splits, B and the inner sums of its modes, and its outer splits' share
    of F and C, summed by output mode and added in chunk order.
    """
    pt = pair_table(box)
    plan = _nested_plan(box)
    rows = _row_block(box)
    starts = pt.seg_starts
    phase4 = phi1(plan.phases, t)
    rotation = np.exp(1j * box.omega * t)
    coef_b = -0.5 * box.n1 * rotation
    coef = 1j * box.n1 * rotation
    width = max(starts[l1] - starts[l0] for l0, l1 in plan.chunks)
    X = U0.reshape(-1, box.size)
    B = np.empty(X.shape, dtype=np.complex128)
    C = np.empty_like(B)
    F = np.empty_like(B)
    block = np.zeros((rows, box.size), dtype=np.complex128)
    buf = np.empty(3 * rows * width, dtype=np.complex128)

    def contract(l0, l1, out_starts, first):
        # One chunk over every block: C and F add its outer splits' share
        # to their rows (the first chunk's assigned, signed zeros too).  Its
        # operands are freed on return, before the next chunk's form; the
        # factors are complex, so that no product casts through a buffer.
        m0, m1 = int(starts[l0]), int(starts[l1])
        inner = starts[l0:l1 + 1] - m0
        outer, back = plan.outer[m0:m1], plan.back[m0:m1]
        l_outer = pt.l_idx[outer]
        fac_outer = (box.n1[l_outer] / (2.0 * pt.delta[outer])
                     ).astype(complex)
        l_outer -= l0
        k_outer = pt.k_idx[outer]
        phi_outer = phi1(pt.delta[outer], t)
        kernel_b = phi1(pt.delta[m0:m1], t)
        np.multiply(1j, kernel_b, out=kernel_b)
        fac_inner = (box.n1[pt.out_idx[m0:m1]] / (2.0 * pt.delta[m0:m1])
                     ).astype(complex)
        own = _chunk_numbers(box, plan, l0, l1)
        # Every product names its operands in a fixed order through out=:
        # numpy's complex a * b and b * a can differ in the last bit, and
        # it elides a large temporary by computing X * (tmp) as tmp *= X,
        # so an inline product could round a sample differently in
        # another batch.  np.take copies out= through a buffer unless mode
        # is "clip" (every index here is in range).
        for s in range(0, len(X), rows):
            n = min(rows, len(X) - s)
            block[:n] = X[s:s + n]
            block[n:] = 0.0
            # P, Q and S stacked: P | Q for the products, Q | S for the
            # segment sums, each taken in one call.
            PQS = buf[:3 * rows * (m1 - m0)].reshape(3 * rows, m1 - m0)
            P, Q, S = PQS[:rows], PQS[rows:2 * rows], PQS[2 * rows:]
            np.take(block, pt.k_idx[m0:m1], axis=1, out=P, mode="clip")
            np.take(block, pt.l_idx[m0:m1], axis=1, out=Q, mode="clip")
            np.multiply(P, Q, out=P)
            # The terms of the inner sums in Q, of B in S.
            np.multiply(P, fac_inner, out=Q)
            np.multiply(P, kernel_b, out=S)
            sums = segment_sum(PQS[rows:], inner)
            np.multiply(coef_b[l0:l1], sums[rows:rows + n],
                        out=B[s:s + n, l0:l1])
            # Each product over its own operands: numpy copies the overlap.
            for g0, g1, numbers in own:
                np.matmul(PQS[:2 * rows, g0:g1],
                          np.take(phase4, numbers, mode="clip"),
                          out=PQS[:2 * rows, g0:g1])
            # To pair-table order: Yf in S and Yc in P, less the inner
            # sums' term; U_k in Q.  Then the terms of C in Q, F's in S.
            np.take(P, back, axis=1, out=S, mode="clip")
            np.take(Q, back, axis=1, out=P, mode="clip")
            np.take(sums[:rows], l_outer, axis=1, out=Q, mode="clip")
            np.multiply(Q, phi_outer, out=Q)
            np.subtract(P, Q, out=P)
            np.take(block, k_outer, axis=1, out=Q, mode="clip")
            np.multiply(S, fac_outer, out=S)
            np.multiply(Q, S, out=S)
            np.multiply(Q, P, out=Q)
            part = segment_sum(PQS[rows:], out_starts)
            if first:
                C[s:s + n] = part[:n]
                F[s:s + n] = part[rows:rows + n]
            else:
                np.add(C[s:s + n], part[:n], out=C[s:s + n])
                np.add(F[s:s + n], part[rows:rows + n], out=F[s:s + n])

    for i, ((l0, l1), out_starts) in enumerate(zip(plan.chunks,
                                                   plan.out_starts)):
        contract(l0, l1, out_starts, i == 0)
    np.multiply(coef, C, out=C)
    np.multiply(-coef, F, out=F)
    return B.reshape(U0.shape), C.reshape(U0.shape), F.reshape(U0.shape)


def extract_d(u_t: np.ndarray, bundle: PicardBundle) -> np.ndarray:
    """Order-three Picard remainder (u(t) - a - eps b - eps^2 c) / eps^3.

    a, b, c and eps come from the bundle of the initial data at time t.
    """
    eps = bundle.eps
    if eps == 0:
        raise ValueError("remainder extraction requires eps != 0")
    return (u_t - bundle.a - eps * bundle.b - eps ** 2 * bundle.c) / eps ** 3


def extract_w(u_t: np.ndarray, bundle: PicardBundle) -> np.ndarray:
    """Order-three coefficient of the gauged variable v = u + eps s_map(u, u).

    w = (v(t) - a - eps U(t) s_map(u0, u0) - eps^2 f) / eps^3 with f the
    Duhamel integral of f_map(a, a, a); the subtraction is exact because
    the lower orders of v have those closed forms.  u0, a, f and eps come
    from the bundle of the initial data at time t.
    """
    eps = bundle.eps
    if eps == 0:
        raise ValueError("remainder extraction requires eps != 0")
    box, u0 = bundle.box, bundle.u0
    v = u_t + eps * s_map(box, u_t, u_t)
    s00 = apply_free_flow(box, s_map(box, u0, u0), bundle.t)
    return (v - bundle.a - eps * s00 - eps ** 2 * bundle.f) / eps ** 3


@dataclass(frozen=True)
class PicardBundle:
    """Picard data (a, b, c) and the Duhamel integral f of one initial
    condition u0 on box at one time, as coefficient arrays."""

    box: LatticeBox
    u0: np.ndarray
    t: float
    eps: float
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    f: np.ndarray

    @classmethod
    def build_batch(cls, box: LatticeBox, U0: np.ndarray, t: float,
                    eps: float) -> list:
        """Bundles of the rows of U0, initial conditions on box, in one pass."""
        A = apply_free_flow(box, U0, t)
        B, C, F = _picard_coeffs(box, U0, t)
        return [cls(box=box, u0=u, t=t, eps=eps, a=a, b=b, c=c, f=f)
                for u, a, b, c, f in zip(U0, A, B, C, F)]

    @classmethod
    def build(cls, box: LatticeBox, u0: np.ndarray, t: float,
              eps: float) -> "PicardBundle":
        return cls.build_batch(box, u0[None], t, eps)[0]


def lambda_eps(d: np.ndarray, bundle: PicardBundle) -> np.ndarray:
    """Polynomial map sending the remainder d to the gauged coefficient w.

    lambda_eps(d) = d + 2 eps (s_map(a, d) + eps s_map(b, d)
                    + eps^2 s_map(c, d)) + eps^4 s_map(d, d)
                  = d + s_map(2 eps a_eps + eps^4 d, d),
    with a_eps = a + eps b + eps^2 c, the second-order Picard field:
    one split sum, since s_map is linear in its first argument.
    """
    box, eps = bundle.box, bundle.eps
    a_eps = bundle.a + eps * bundle.b + eps ** 2 * bundle.c
    return d + s_map(box, 2.0 * eps * a_eps + eps ** 4 * d, d)


def invert_lambda_eps(g: np.ndarray, bundle: PicardBundle,
                      tol: float = 1e-12, max_iter: int = 200
                      ) -> np.ndarray:
    """Solve lambda_eps(d) = g by fixed-point iteration, starting from d = g.

    Each step replaces d by g minus the perturbative part of lambda_eps;
    for small eps the map is a contraction and the residual decays
    geometrically.  Raises NonContractionError if the residual is not
    finite or fails to shrink by a factor of 0.9 across five consecutive
    iterations, and MaxIterExceededError if the tolerance is not met
    within max_iter, and ValueError, before iterating, if max_iter < 1.
    numpy stays silent about an iterate that overflows.  The residual is
    hs_norm(lambda_eps(d) - g, 0), the l2 norm of the coefficients.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    d = g.copy()
    history: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            image = lambda_eps(d, bundle)
            res = hs_norm(bundle.box, image - g, 0.0)
            if res <= tol:
                return d
            history.append(res)
            if not np.isfinite(res) or (
                    len(history) > 5 and history[-1] > 0.9 * history[-6]):
                raise NonContractionError(
                    f"residual {res:.3e} is not contracting; eps="
                    f"{bundle.eps} is likely outside the contraction regime")
            d = g - (image - d)
    raise MaxIterExceededError(
        f"no convergence to {tol:.1e} within {max_iter} iterations "
        f"(last residual {history[-1]:.3e})")


# ---------------------------------------------------------------------------
# exact identities

def resonance_margin(box: LatticeBox) -> float:
    """Smallest |Delta| - 3 |n1 k1 l1| over the splits k + l = n of the box.

    The three-wave bound says it is >= 0; inf when the box has no splits.
    """
    pt = pair_table(box)
    if not len(pt):
        return np.inf
    rhs = 3.0 * np.abs(box.n1[pt.out_idx] * box.n1[pt.k_idx]
                       * box.n1[pt.l_idx])
    return float(np.min(np.abs(pt.delta) - rhs))


def _rel(resid: np.ndarray, *refs: np.ndarray) -> float:
    """Max |resid| relative to the largest coefficient of refs (at least 1)."""
    scale = max([1.0] + [float(np.abs(f).max()) for f in refs])
    return float(np.abs(resid).max()) / scale


def identity_residuals(bundle: PicardBundle, v: np.ndarray) -> dict:
    """Relative residuals, by name, of the field-pair identities:

    commutator         L s(u, v) - s(Lu, v) - s(u, Lv) = -dx(uv)/2
    cubic-composition  f(u, v, u) = -s(u, dx(uv))
    b-decomposition    b = U(t) s(u, u) - s(a, a)
    c-decomposition    c = f - 2 s(a, b)
    lambda-roundtrip   invert_lambda_eps(lambda_eps(v / 10)) = v / 10

    L is the linear part, s = s_map, f = f_map, dx = dx_product, u is
    the initial data of the bundle and a, b, c, f are its Picard data at
    (t, eps).
    """
    box, u, t = bundle.box, bundle.u0, bundle.t

    def lin(x):
        return 1j * box.omega * x

    def s(x, y):
        return s_map(box, x, y)

    a, b, c = bundle.a, bundle.b, bundle.c
    out = {}
    r = (lin(s(u, v)) - s(lin(u), v) - s(u, lin(v))
         + 0.5 * dx_product(box, u, v))
    out["commutator"] = _rel(r, u, v)
    r = f_map(box, u, v, u) + s(u, dx_product(box, u, v))
    out["cubic-composition"] = _rel(r, u, v)
    r = b + s(a, a) - apply_free_flow(box, s(u, u), t)
    out["b-decomposition"] = _rel(r, u, b)
    r = c + 2.0 * s(a, b) - bundle.f
    out["c-decomposition"] = _rel(r, u, c)
    d_true = v * 0.1
    rec = invert_lambda_eps(lambda_eps(d_true, bundle), bundle, tol=1e-13)
    out["lambda-roundtrip"] = _rel(rec - d_true, d_true)
    return out


def w_residual(u_t: np.ndarray, bundle: PicardBundle) -> float:
    """Relative residual of the cubic remainder decomposition at u_t.

    extract_w must equal s(b, b) + 2 s(a, c) + 2 eps s(b, c)
    + eps^2 s(c, c) + lambda_eps(extract_d) for any state u_t, the bundle
    being that of the initial data; one split sum takes the s(., c) terms.
    """
    box, eps = bundle.box, bundle.eps
    a, b, c = bundle.a, bundle.b, bundle.c
    w = extract_w(u_t, bundle)
    d = extract_d(u_t, bundle)
    recon = (s_map(box, b, b)
             + s_map(box, 2.0 * a + 2.0 * eps * b + eps * eps * c, c)
             + lambda_eps(d, bundle))
    return _rel(w - recon, w)
