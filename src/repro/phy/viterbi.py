"""Viterbi decoder for the 802.11 rate-1/2 K=7 convolutional code.

Hard-decision decoding with full traceback; sized for the short frames
the reproduction exercises.  Punctured positions (marked
:data:`repro.phy.convcode.ERASURE` by ``depuncture``) contribute zero
branch metric, which is how the rate-2/3 / 3/4 / 5/6 802.11n MCSs
decode.

The add-compare-select recursion is processed in radix-16 blocks of
``_K = 4`` trellis steps: because K-1 = 6 > 4, a destination state
fixes the block's four input bits (its low nibble), and the 16
candidate paths into it differ only in the start state's high nibble.
Block branch sums come from tables indexed by the received pair type
(each coded pair is one of 9 (bit, bit/erasure) combinations), so the
Python-level loop runs once per 4 steps instead of once per step.  The
candidate ordering is chosen so that ``argmin`` ties resolve exactly
like the per-step recursion (predecessor slot 0 preferred, latest step
most significant), keeping decisions bit-identical to the scalar
reference implementation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import perf
from repro.core import contracts
from repro.phy.batch import require_batch
from repro.phy.convcode import CONSTRAINT, ERASURE, G0, G1
from repro.types import BitArray

__all__ = ["decode", "decode_soft", "decode_batch", "decode_soft_batch"]

_N_STATES = 1 << (CONSTRAINT - 1)  # 64
_K = 4  # trellis steps per vectorized block


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per (state, input) next-state and output-pair tables."""
    next_state = np.empty((_N_STATES, 2), dtype=np.int64)
    outputs = np.empty((_N_STATES, 2, 2), dtype=np.uint8)
    for state in range(_N_STATES):
        for b in (0, 1):
            window = (b << 0) | (state << 1)
            a = bin(window & G0).count("1") & 1
            c = bin(window & G1).count("1") & 1
            next_state[state, b] = window & (_N_STATES - 1)
            outputs[state, b, 0] = a
            outputs[state, b, 1] = c
    return next_state, outputs


_NEXT, _OUT = _build_tables()

# Per destination state, its two (prev_state, input) predecessors --
# slot 0 is the smaller predecessor, which the serial recursion prefers
# on metric ties.
_PREV = np.full((_N_STATES, 2, 2), -1, dtype=np.int64)  # [dst, k] = (src, bit)
for _s in range(_N_STATES):
    for _b in (0, 1):
        _dst = _NEXT[_s, _b]
        slot = 0 if _PREV[_dst, 0, 0] == -1 else 1
        _PREV[_dst, slot, 0] = _s
        _PREV[_dst, slot, 1] = _b


def _build_block_tables() -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]
]:
    """Tables for the radix-16 blocked ACS.

    Writing the start state as ``s5..s0`` and the destination as
    ``d = (s1 s0 b1 b2 b3 b4)``, the path states are

    ====  =========================
    step  state entering the step
    ====  =========================
    1     ``s5 s4 s3 s2 s1 s0``
    2     ``s4 s3 s2 s1 s0 b1``
    3     ``s3 s2 s1 s0 b1 b2``
    4     ``s2 s1 s0 b1 b2 b3``
    ====  =========================

    so step j's branch only depends on the free bits ``s_{6-j}..s2``
    (and d).  The predecessor slot chosen at step j equals start bit
    ``s_{6-j}``; matching the serial tie rule (slot 0 wins, latest step
    decides first) therefore requires the candidate index to be
    ``c = (s2 s3 s4 s5)`` with s2 most significant, and first-``argmin``
    over c.

    Returns ``(bmtab, g12, g34, src, bits, idx_dc)``:

    * ``bmtab[pt, state*2+bit]`` -- single-step branch metric for
      received pair type ``pt = 3*a + b`` (a, b in {0, 1, erasure});
    * ``g12[p1*9+p2, d, c]`` / ``g34[p3*9+p4, d, c']`` -- combined
      branch sums for steps (1, 2) over all 16 candidates and steps
      (3, 4) over the 4 relevant bits ``(s2 s3)``;
    * ``src[d, c]`` -- block start state; ``bits[d]`` -- the 4 decoded
      bits fixed by d;
    * ``idx_dc`` -- per-step ``bmtab`` column indices in
      (dst, candidate) layout for the soft decoder.
    """
    d = np.arange(_N_STATES)
    s1s0 = d >> 4
    b = [(d >> (3 - j)) & 1 for j in range(_K)]

    idx_steps = []
    for j, nbits in zip(range(_K), (4, 3, 2, 1)):
        idx = np.empty((1 << nbits, _N_STATES), dtype=np.intp)
        for c in range(1 << nbits):
            sbits = [(c >> (nbits - 1 - i)) & 1 for i in range(nbits)]
            s = {2 + i: sbits[i] for i in range(nbits)}
            if j == 0:
                state = (s[5] << 5) | (s[4] << 4) | (s[3] << 3) | (s[2] << 2) | s1s0
            elif j == 1:
                state = (s[4] << 5) | (s[3] << 4) | (s[2] << 3) | (s1s0 << 1) | b[0]
            elif j == 2:
                state = (s[3] << 5) | (s[2] << 4) | (s1s0 << 2) | (b[0] << 1) | b[1]
            else:
                state = (s[2] << 5) | (s1s0 << 3) | (b[0] << 2) | (b[1] << 1) | b[2]
            idx[c] = state * 2 + b[j]
        idx_steps.append(idx)

    bmtab = np.empty((9, 2 * _N_STATES), dtype=np.int32)
    for pa in range(3):
        for pb in range(3):
            for st in range(_N_STATES):
                for bit in range(2):
                    m = 0
                    if pa != 2:
                        m += int(_OUT[st, bit, 0] != pa)
                    if pb != 2:
                        m += int(_OUT[st, bit, 1] != pb)
                    bmtab[3 * pa + pb, st * 2 + bit] = m

    g = [bmtab[:, idx] for idx in idx_steps]  # (9, n_free_j, 64)
    # Combine step pairs over the 81 pair-type combinations; duplicate
    # along the candidate axis where the later step has fewer free bits
    # (candidate c of step 1 maps to c >> 1 of step 2, etc.).
    g12 = g[0][:, None, :, :] + np.repeat(g[1], 2, axis=1)[None, :, :, :]
    g12 = g12.reshape(81, 16, _N_STATES).transpose(0, 2, 1).copy()
    g34 = g[2][:, None, :, :] + np.repeat(g[3], 2, axis=1)[None, :, :, :]
    g34 = g34.reshape(81, 4, _N_STATES).transpose(0, 2, 1).copy()

    src = np.empty((_N_STATES, 16), dtype=np.intp)
    for c in range(16):
        s2, s3, s4, s5 = (c >> 3) & 1, (c >> 2) & 1, (c >> 1) & 1, c & 1
        src[:, c] = (s5 << 5) | (s4 << 4) | (s3 << 3) | (s2 << 2) | s1s0
    bits = np.empty((_N_STATES, _K), dtype=np.uint8)
    for dst in range(_N_STATES):
        bits[dst] = [(dst >> 3) & 1, (dst >> 2) & 1, (dst >> 1) & 1, dst & 1]

    # Per-step float index tables in (dst, candidate) layout for the
    # soft decoder (it gathers per-step LLR branch metrics directly).
    idx_dc = [idx.T.copy() for idx in idx_steps]
    return bmtab, g12, g34, src, bits, idx_dc


_BMTAB, _G12, _G34, _SRC, _BITS, _IDX_DC = _build_block_tables()
# Every block sum is at most 2 * _K = 8, so the scalar decoder's
# per-chunk gathers can use int8 copies (a quarter of the bytes).
_G12_I8 = _G12.astype(np.int8)
_G34_I8 = _G34.astype(np.int8)
# Blocks per branch-sum chunk in the scalar decoder: bounds its working
# set to a (64, 64, 16) int8 tensor whatever the frame length.
_CHUNK = 64
# Below this many streams ``decode_batch`` loops over the scalar
# decoder: the loop is ~8x faster at B=1 and the two break even near
# B=16 (measured crossover table in docs/PERFORMANCE.md).
_BATCH_MIN = 16

_SRC0 = _PREV[:, 0, 0]
_BIT0 = _PREV[:, 0, 1]
_SRC1 = _PREV[:, 1, 0]
_BIT1 = _PREV[:, 1, 1]
_PACK0 = (_SRC0 << 1) | _BIT0
_PACK1 = (_SRC1 << 1) | _BIT1
_BM0 = _SRC0 * 2 + _BIT0  # bmtab columns via predecessor 0
_BM1 = _SRC1 * 2 + _BIT1


@contracts.shapes("64 ; nblk,64 ; rem,64")
def _traceback(
    metrics: np.ndarray,
    surv_blocks: np.ndarray,
    surv_tail: np.ndarray,
    n_steps: int,
    n_info: int,
) -> np.ndarray:
    n_blocks = surv_blocks.shape[0]
    rem = surv_tail.shape[0]
    state = int(np.argmin(metrics))
    decoded = np.empty(n_steps, dtype=np.uint8)
    for i in range(rem - 1, -1, -1):
        packed = surv_tail[i, state]
        decoded[n_blocks * _K + i] = packed & 1
        state = int(packed >> 1)
    for nblk in range(n_blocks - 1, -1, -1):
        c = int(surv_blocks[nblk, state])
        decoded[nblk * _K : (nblk + 1) * _K] = _BITS[state]
        state = int(_SRC[state, c])
    return decoded[:n_info]


@contracts.shapes("n_coded ->")
def decode(coded: np.ndarray | list[int], *, n_info: int | None = None) -> BitArray:
    """Hard-decision Viterbi decode of a rate-1/2 coded stream.

    ``coded`` holds interleaved (A, B) values in {0, 1, ERASURE};
    ``n_info`` truncates the decoded output (defaults to
    ``len(coded) // 2``).  The trellis is assumed to start in state
    zero, matching :func:`repro.phy.convcode.encode`; the end state is
    unconstrained.
    """
    perf.dispatch("viterbi.decode", 1, batched=False)
    arr = np.asarray(coded, dtype=np.uint8)
    if arr.size % 2:
        arr = np.concatenate([arr, np.array([ERASURE], dtype=np.uint8)])
    n_steps = arr.size // 2
    if n_info is None:
        n_info = n_steps
    if n_steps == 0:
        return np.zeros(0, dtype=np.uint8)

    pairs = arr.reshape(n_steps, 2).astype(np.intp)
    ptype = pairs[:, 0] * 3 + pairs[:, 1]

    n_blocks = n_steps // _K
    rem = n_steps - n_blocks * _K

    metrics = np.full(_N_STATES, 1 << 28, dtype=np.int32)
    metrics[0] = 0
    surv_blocks = np.empty((n_blocks, _N_STATES), dtype=np.uint8)
    states = np.arange(_N_STATES)

    pt = ptype[: n_blocks * _K].reshape(n_blocks, _K)
    i12 = pt[:, 0] * 9 + pt[:, 1]
    i34 = pt[:, 2] * 9 + pt[:, 3]
    for start in range(0, n_blocks, _CHUNK):
        stop = min(start + _CHUNK, n_blocks)
        # ``repeat(g34, 4)[..., j] == g34[..., j // 4]``, so a broadcast
        # add over a (64, 4, 4) view gives the same exact int8 sums.
        g12 = _G12_I8[i12[start:stop]]  # (chunk, 64, 16)
        g34 = _G34_I8[i34[start:stop]]  # (chunk, 64, 4)
        block_bm = (
            g12.reshape(-1, _N_STATES, 4, 4) + g34[:, :, :, None]
        ).reshape(-1, _N_STATES, 16)
        for nblk in range(start, stop):
            cand = metrics[_SRC] + block_bm[nblk - start]
            cidx = cand.argmin(axis=1)
            surv_blocks[nblk] = cidx
            metrics = cand[states, cidx]

    surv_tail = np.empty((rem, _N_STATES), dtype=np.int64)
    for i in range(rem):
        bm = _BMTAB[ptype[n_blocks * _K + i]]
        cand0 = metrics[_SRC0] + bm[_BM0]
        cand1 = metrics[_SRC1] + bm[_BM1]
        take1 = cand1 < cand0
        metrics = np.where(take1, cand1, cand0)
        surv_tail[i] = np.where(take1, _PACK1, _PACK0)

    return _traceback(metrics, surv_blocks, surv_tail, n_steps, n_info)


@contracts.shapes("n_llrs ->")
def decode_soft(llrs: np.ndarray, *, n_info: int | None = None) -> BitArray:
    """Soft-decision Viterbi decode of a rate-1/2 LLR stream.

    ``llrs`` holds per-coded-bit log-likelihood ratios (positive =
    bit 1 more likely); punctured positions carry LLR 0, which costs
    nothing either way -- so soft depuncturing is just zero insertion.

    Uses the same radix-16 blocked recursion as :func:`decode`; block
    branch sums group float additions differently from the step-by-step
    reference, so path metrics can differ by rounding epsilons (the
    decoded bits only change on exact metric ties, which continuous
    LLRs do not produce).
    """
    perf.dispatch("viterbi.decode_soft", 1, batched=False)
    arr = np.asarray(llrs, dtype=float)
    if arr.size % 2:
        arr = np.concatenate([arr, [0.0]])
    n_steps = arr.size // 2
    if n_info is None:
        n_info = n_steps
    if n_steps == 0:
        return np.zeros(0, dtype=np.uint8)
    pairs = arr.reshape(n_steps, 2)

    # Per-step branch metrics for every (state, input): the expected
    # outputs in bipolar form scored against the LLR pair (max-log ML).
    exp_a = 2.0 * _OUT[:, :, 0].astype(float).reshape(-1) - 1.0  # (128,)
    exp_b = 2.0 * _OUT[:, :, 1].astype(float).reshape(-1) - 1.0
    bm_all = -(pairs[:, :1] * exp_a[None, :] + pairs[:, 1:] * exp_b[None, :])

    n_blocks = n_steps // _K
    rem = n_steps - n_blocks * _K

    metrics = np.full(_N_STATES, 1e18)
    metrics[0] = 0.0
    surv_blocks = np.empty((n_blocks, _N_STATES), dtype=np.intp)
    states = np.arange(_N_STATES)

    if n_blocks:
        steps = bm_all[: n_blocks * _K].reshape(n_blocks, _K, 2 * _N_STATES)
        a1 = steps[:, 0][:, _IDX_DC[0]]  # (n_blocks, 64, 16)
        a2 = steps[:, 1][:, _IDX_DC[1]]  # (n_blocks, 64, 8)
        a3 = steps[:, 2][:, _IDX_DC[2]]  # (n_blocks, 64, 4)
        a4 = steps[:, 3][:, _IDX_DC[3]]  # (n_blocks, 64, 2)
        nb = a1.shape[0]
        block_bm = (
            a1.reshape(nb, _N_STATES, 8, 2)
            + (
                a2.reshape(nb, _N_STATES, 4, 2, 1)
                + (
                    a3.reshape(nb, _N_STATES, 2, 2, 1)
                    + a4.reshape(nb, _N_STATES, 2, 1, 1)
                ).reshape(nb, _N_STATES, 4, 1, 1)
            ).reshape(nb, _N_STATES, 8, 1)
        ).reshape(nb, _N_STATES, 16)
        for nblk in range(n_blocks):
            cand = metrics[_SRC] + block_bm[nblk]
            cidx = cand.argmin(axis=1)
            surv_blocks[nblk] = cidx
            metrics = cand[states, cidx]

    surv_tail = np.empty((rem, _N_STATES), dtype=np.int64)
    for i in range(rem):
        bm = bm_all[n_blocks * _K + i]
        cand0 = metrics[_SRC0] + bm[_BM0]
        cand1 = metrics[_SRC1] + bm[_BM1]
        take1 = cand1 < cand0
        metrics = np.where(take1, cand1, cand0)
        surv_tail[i] = np.where(take1, _PACK1, _PACK0)

    return _traceback(metrics, surv_blocks, surv_tail, n_steps, n_info)


# ----------------------------------------------------------------------
# batched entry points
# ----------------------------------------------------------------------
def _stack_batch(
    batch: Sequence[np.ndarray | list[int]] | np.ndarray,
    dtype: np.dtype,
    where: str,
) -> np.ndarray:
    """Stack equal-length streams into a ``(B, L)`` array.

    Batched decoding requires one shared stream length; ragged batches
    must be grouped by length upstream (see :mod:`repro.phy.batch`).
    """
    arrs = [np.asarray(item, dtype=dtype) for item in batch]
    require_batch(arrs, where)
    lengths = {a.size for a in arrs}
    if len(lengths) != 1:
        raise ValueError(
            f"{where}: streams have mixed lengths {sorted(lengths)}; "
            "group ragged batches by length before dispatching"
        )
    return np.stack(arrs)


@contracts.shapes("b,64 ; b,nblk,64 ; b,nblk ; b,nblk ; b,rem,64")
def _traceback_batch_hard(
    metrics: np.ndarray,
    mprev: np.ndarray,
    i12: np.ndarray,
    i34: np.ndarray,
    surv_tail: np.ndarray,
    n_steps: int,
    n_info: int,
) -> list[BitArray]:
    """Lazy batch traceback for the hard path.

    The forward pass stores only each block's entry metrics; the 16
    candidates of the one state actually visited per packet are
    recomputed here from the same int32 tables, so ``argmin`` sees the
    exact row the forward pass would have stored and the survivor
    choice (first-minimum tie rule included) is bit-identical.
    """
    n_batch = metrics.shape[0]
    n_blocks = mprev.shape[1]
    rem = surv_tail.shape[1]
    rows = np.arange(n_batch)
    state = metrics.argmin(axis=1)
    decoded = np.empty((n_batch, n_steps), dtype=np.uint8)
    for i in range(rem - 1, -1, -1):
        packed = surv_tail[rows, i, state]
        decoded[:, n_blocks * _K + i] = packed & 1
        state = packed >> 1
    for nblk in range(n_blocks - 1, -1, -1):
        g12 = _G12[i12[:, nblk], state]  # (B, 16)
        g34 = _G34[i34[:, nblk], state]  # (B, 4)
        bm = (g12.reshape(n_batch, 4, 4) + g34[:, :, None]).reshape(n_batch, 16)
        cand = mprev[rows[:, None], nblk, _SRC[state]] + bm
        c = cand.argmin(axis=1)
        decoded[:, nblk * _K : (nblk + 1) * _K] = _BITS[state]
        state = _SRC[state, c]
    return [decoded[b, :n_info].copy() for b in range(n_batch)]


@contracts.shapes("b,64 ; b,nblk,64 ; b,rem,64")
def _traceback_batch(
    metrics: np.ndarray,
    surv_blocks: np.ndarray,
    surv_tail: np.ndarray,
    n_steps: int,
    n_info: int,
) -> list[BitArray]:
    """Batch traceback: all packets walk their trellises in lockstep."""
    n_batch = metrics.shape[0]
    n_blocks = surv_blocks.shape[1]
    rem = surv_tail.shape[1]
    rows = np.arange(n_batch)
    state = metrics.argmin(axis=1)
    decoded = np.empty((n_batch, n_steps), dtype=np.uint8)
    for i in range(rem - 1, -1, -1):
        packed = surv_tail[rows, i, state]
        decoded[:, n_blocks * _K + i] = packed & 1
        state = packed >> 1
    for nblk in range(n_blocks - 1, -1, -1):
        c = surv_blocks[rows, nblk, state]
        decoded[:, nblk * _K : (nblk + 1) * _K] = _BITS[state]
        state = _SRC[state, c]
    return [decoded[b, :n_info].copy() for b in range(n_batch)]


@contracts.shapes("[n_coded] ->")
def decode_batch(
    coded_batch: Sequence[np.ndarray | list[int]] | np.ndarray,
    *,
    n_info: int | None = None,
) -> list[BitArray]:
    """Hard-decision decode of N equal-length coded streams at once.

    Semantically identical to ``[decode(c, n_info=n_info) for c in
    coded_batch]``, and below ``_BATCH_MIN`` streams it is exactly
    that loop.  From ``_BATCH_MIN`` up the ACS recursion advances all N
    trellises per block step, and because every quantity is integer the
    batched path is *bit-identical* to the scalar loop (``argmin`` keeps
    the same first-occurrence tie rule along the candidate axis).
    """
    arr = _stack_batch(coded_batch, np.dtype(np.uint8), "viterbi.decode_batch")
    n_batch = arr.shape[0]
    if n_batch < _BATCH_MIN:
        # Small batches: the scalar loop is faster, and it records its
        # own (scalar) dispatches.
        return [decode(row, n_info=n_info) for row in arr]
    perf.dispatch("viterbi.decode", n_batch, batched=True)
    if arr.shape[1] % 2:
        pad = np.full((n_batch, 1), ERASURE, dtype=np.uint8)
        arr = np.concatenate([arr, pad], axis=1)
    n_steps = arr.shape[1] // 2
    if n_info is None:
        n_info = n_steps
    if n_steps == 0:
        return [np.zeros(0, dtype=np.uint8) for _ in range(n_batch)]

    pairs = arr.reshape(n_batch, n_steps, 2).astype(np.intp)
    ptype = pairs[:, :, 0] * 3 + pairs[:, :, 1]

    n_blocks = n_steps // _K
    rem = n_steps - n_blocks * _K

    metrics = np.full((n_batch, _N_STATES), 1 << 28, dtype=np.int32)
    metrics[:, 0] = 0
    # Entry metrics per block, for the lazy traceback; no survivor
    # indices are stored, so the forward ACS is add + min only.
    mprev = np.empty((n_batch, n_blocks, _N_STATES), dtype=np.int32)
    i12 = np.zeros((n_batch, n_blocks), dtype=np.intp)
    i34 = np.zeros((n_batch, n_blocks), dtype=np.intp)

    if n_blocks:
        pt = ptype[:, : n_blocks * _K].reshape(n_batch, n_blocks, _K)
        i12 = pt[:, :, 0] * 9 + pt[:, :, 1]
        i34 = pt[:, :, 2] * 9 + pt[:, :, 3]
        for nblk in range(n_blocks):
            # Same int32 table sums as the scalar path, one batch row
            # per packet.  ``repeat(g34, 4)[..., j] == g34[..., j // 4]``,
            # so the broadcast add over a (64, 4, 4) view reproduces the
            # scalar ``repeat`` sums without materializing the repeat;
            # per-block (B, 64, 16) working sets stay cache-resident,
            # which beats precomputing all blocks upfront.  min(axis)
            # returns the same value take-at-argmin would, and the
            # survivor index is recovered lazily during traceback.
            g12 = _G12[i12[:, nblk]]  # (B, 64, 16)
            g34 = _G34[i34[:, nblk]]  # (B, 64, 4)
            mprev[:, nblk] = metrics
            # Incremental minimum over the 16 candidates: all-integer
            # adds and mins are exact in any evaluation order, and the
            # (B, 64) working set per candidate stays cache-resident
            # where a materialized (B, 64, 16) candidate tensor does
            # not.
            new = metrics[:, _SRC[:, 0]] + g12[:, :, 0] + g34[:, :, 0]
            for j in range(1, 16):
                np.minimum(
                    new,
                    metrics[:, _SRC[:, j]] + g12[:, :, j] + g34[:, :, j >> 2],
                    out=new,
                )
            metrics = new

    surv_tail = np.empty((n_batch, rem, _N_STATES), dtype=np.int64)
    for i in range(rem):
        bm = _BMTAB[ptype[:, n_blocks * _K + i]]
        cand0 = metrics[:, _SRC0] + bm[:, _BM0]
        cand1 = metrics[:, _SRC1] + bm[:, _BM1]
        take1 = cand1 < cand0
        metrics = np.where(take1, cand1, cand0)
        surv_tail[:, i] = np.where(take1, _PACK1, _PACK0)

    return _traceback_batch_hard(
        metrics, mprev, i12, i34, surv_tail, n_steps, n_info
    )


@contracts.shapes("[n_llrs] ->")
def decode_soft_batch(
    llrs_batch: Sequence[np.ndarray] | np.ndarray,
    *,
    n_info: int | None = None,
) -> list[BitArray]:
    """Soft-decision decode of N equal-length LLR streams at once.

    Bit-identical to ``[decode_soft(x, n_info=n_info) for x in
    llrs_batch]``: the float branch-sum tree nests additions exactly
    like the scalar blocked recursion (only a leading batch axis is
    added), so even the path-metric epsilons match.
    """
    arr = _stack_batch(
        llrs_batch, np.dtype(np.float64), "viterbi.decode_soft_batch"
    )
    n_batch = arr.shape[0]
    perf.dispatch("viterbi.decode_soft", n_batch, batched=True)
    if arr.shape[1] % 2:
        arr = np.concatenate([arr, np.zeros((n_batch, 1))], axis=1)
    n_steps = arr.shape[1] // 2
    if n_info is None:
        n_info = n_steps
    if n_steps == 0:
        return [np.zeros(0, dtype=np.uint8) for _ in range(n_batch)]
    pairs = arr.reshape(n_batch, n_steps, 2)

    exp_a = 2.0 * _OUT[:, :, 0].astype(float).reshape(-1) - 1.0
    exp_b = 2.0 * _OUT[:, :, 1].astype(float).reshape(-1) - 1.0
    bm_all = -(
        pairs[:, :, :1] * exp_a[None, None, :]
        + pairs[:, :, 1:] * exp_b[None, None, :]
    )

    n_blocks = n_steps // _K
    rem = n_steps - n_blocks * _K

    metrics = np.full((n_batch, _N_STATES), 1e18)
    metrics[:, 0] = 0.0
    surv_blocks = np.empty((n_batch, n_blocks, _N_STATES), dtype=np.intp)
    rows = np.arange(n_batch)[:, None]
    states = np.arange(_N_STATES)[None, :]

    for nblk in range(n_blocks):
        steps = bm_all[:, nblk * _K : (nblk + 1) * _K]
        # The float branch-sum tree nests additions exactly like the
        # scalar blocked recursion (elementwise, so the added batch
        # axis cannot change any rounding).
        a1 = steps[:, 0][:, _IDX_DC[0]]  # (B, 64, 16)
        a2 = steps[:, 1][:, _IDX_DC[1]]  # (B, 64, 8)
        a3 = steps[:, 2][:, _IDX_DC[2]]  # (B, 64, 4)
        a4 = steps[:, 3][:, _IDX_DC[3]]  # (B, 64, 2)
        nb = n_batch
        block_bm = (
            a1.reshape(nb, _N_STATES, 8, 2)
            + (
                a2.reshape(nb, _N_STATES, 4, 2, 1)
                + (
                    a3.reshape(nb, _N_STATES, 2, 2, 1)
                    + a4.reshape(nb, _N_STATES, 2, 1, 1)
                ).reshape(nb, _N_STATES, 4, 1, 1)
            ).reshape(nb, _N_STATES, 8, 1)
        ).reshape(nb, _N_STATES, 16)
        cand = metrics[:, _SRC] + block_bm
        cidx = cand.argmin(axis=2)
        surv_blocks[:, nblk] = cidx
        metrics = cand[rows, states, cidx]

    surv_tail = np.empty((n_batch, rem, _N_STATES), dtype=np.int64)
    for i in range(rem):
        bm = bm_all[:, n_blocks * _K + i]
        cand0 = metrics[:, _SRC0] + bm[:, _BM0]
        cand1 = metrics[:, _SRC1] + bm[:, _BM1]
        take1 = cand1 < cand0
        metrics = np.where(take1, cand1, cand0)
        surv_tail[:, i] = np.where(take1, _PACK1, _PACK0)

    return _traceback_batch(metrics, surv_blocks, surv_tail, n_steps, n_info)
