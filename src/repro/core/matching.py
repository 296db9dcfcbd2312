"""Template correlation and the blind / ordered matching rules (§2.3).

The matcher consumes ADC captures.  Full-precision scoring is the
normalized correlation of the (DC-removed, normalized) matching window
with the template; quantized scoring replaces samples and template with
their +-1 signs, which is what lets the FPGA trade all multipliers for
adders (§2.3.1, Table 2).

Blind matching picks the protocol with the highest score; ordered
matching (§2.3.2) tests protocols one after another -- ZigBee, then
BLE, then 802.11b, then 802.11n -- against per-protocol thresholds,
exploiting their different resilience to quantization/downsampling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro import perf
from repro.core import contracts
from repro.core.templates import TemplateBank
from repro.phy.protocols import Protocol

__all__ = [
    "dc_estimate",
    "score_capture",
    "BlindMatcher",
    "OrderedMatcher",
    "DEFAULT_ORDER",
    "DEFAULT_THRESHOLDS",
    "search_thresholds",
]

def dc_estimate(preprocess_window: np.ndarray) -> float:
    """DC level from the settled half of the preprocessing window.

    The window sits on the packet's power-up ramp; using only its
    second half keeps the +-1 quantization threshold at the settled
    envelope level instead of being dragged low by the ramp.
    """
    arr = np.asarray(preprocess_window, dtype=float)
    return float(arr[arr.size // 2 :].mean()) if arr.size else 0.0


#: The matching order of Fig 6.
DEFAULT_ORDER: tuple[Protocol, ...] = (
    Protocol.ZIGBEE,
    Protocol.BLE,
    Protocol.WIFI_B,
    Protocol.WIFI_N,
)

#: Empirically optimized thresholds (the paper's brute-force search;
#: re-derivable with :func:`search_thresholds`).
DEFAULT_THRESHOLDS: dict[Protocol, float] = {
    Protocol.ZIGBEE: 0.55,
    Protocol.BLE: 0.45,
    Protocol.WIFI_B: 0.40,
    Protocol.WIFI_N: 0.35,
}


@contracts.shapes("n_codes ->")
def score_capture(
    codes: np.ndarray,
    bank: TemplateBank,
    *,
    quantized: bool,
    offsets: tuple[int, ...] = (0,),
) -> dict[Protocol, float]:
    """Correlation score per protocol, maximized over sample offsets.

    ``codes`` must cover ``l_p + l_m + max(offsets)`` samples; for each
    offset the first ``l_p`` samples (after the offset) estimate the DC
    level, the next ``l_m`` are correlated.
    """
    perf.dispatch("matching.score_capture", 1, batched=False)
    arr = np.asarray(codes, dtype=float)
    l_p = bank.l_p
    l_m = bank.l_m
    valid = [o for o in offsets if 0 <= o and o + l_p + l_m <= arr.size]
    scores: dict[Protocol, float] = {p: -1.0 for p in bank.templates}
    if not valid:
        return scores

    # Stack all candidate windows: rows are offsets (sliding detection,
    # as a continuously-correlating tag would do).  All templates are
    # stacked too, so one (offsets x samples) @ (samples x protocols)
    # product scores every protocol at every offset.
    off = np.asarray(valid)
    win = np.lib.stride_tricks.sliding_window_view(arr, l_p + l_m)
    sel = win[off]
    window = sel[:, l_p:]
    if quantized:
        pre = sel[:, :l_p]
        dc = pre[:, l_p // 2 :].mean(axis=1, keepdims=True)
        q = np.where(window - dc >= 0.0, 1.0, -1.0)
        protocols, mat = bank.stacked(quantized=True)
        best = (q @ mat.T).max(axis=0) / l_m
    else:
        # Normalized correlation without materializing the centered /
        # unit-norm window copies: correlate the raw windows in one
        # GEMM, then correct per offset.  With x the raw window, m a
        # template, s = sum(m):
        #   (x - mean(x)) . m / ||x - mean(x)||
        #     = (x . m - mean(x) * s) / sqrt(sum(x^2) - l_m * mean^2)
        # and the per-offset sums come from prefix sums of the capture.
        protocols, mat = bank.stacked(quantized=False)
        raw = window @ mat.T  # (n_offsets, n_protocols)
        c1 = np.concatenate([[0.0], np.cumsum(arr)])
        c2 = np.concatenate([[0.0], np.cumsum(arr * arr)])
        s = c1[off + l_p + l_m] - c1[off + l_p]
        ss = c2[off + l_p + l_m] - c2[off + l_p]
        mean = s / l_m
        norm = np.sqrt(np.maximum(ss - s * mean, 0.0))
        norm = np.where(norm <= 1e-12, 1.0, norm)
        tsum = mat.sum(axis=1)
        best = ((raw - mean[:, None] * tsum[None, :]) / norm[:, None]).max(axis=0)
    for p, v in zip(protocols, best):
        scores[p] = float(v)
    return scores


@dataclass(frozen=True)
class BlindMatcher:
    """Pick the highest-scoring protocol (the Fig 7a baseline rule)."""

    def decide(self, scores: dict[Protocol, float]) -> Protocol:
        return max(scores, key=lambda p: scores[p])


@dataclass(frozen=True)
class OrderedMatcher:
    """Sequential threshold decisions (Fig 6): the first protocol whose
    score clears its threshold wins; if none does, fall back to the
    highest score."""

    order: tuple[Protocol, ...] = DEFAULT_ORDER
    thresholds: tuple[float, ...] = tuple(
        DEFAULT_THRESHOLDS[p] for p in DEFAULT_ORDER
    )

    def __post_init__(self) -> None:
        if len(self.order) != len(self.thresholds):
            raise ValueError("order and thresholds must have equal length")

    def decide(self, scores: dict[Protocol, float]) -> Protocol:
        for protocol, threshold in zip(self.order, self.thresholds):
            if scores.get(protocol, -1.0) >= threshold:
                return protocol
        return max(scores, key=lambda p: scores[p])


def search_thresholds(
    labeled_scores: list[tuple[Protocol, dict[Protocol, float]]],
    *,
    order: tuple[Protocol, ...] = DEFAULT_ORDER,
    grid: np.ndarray | None = None,
) -> tuple[OrderedMatcher, float]:
    """Brute-force threshold search (the paper's §2.3.2 optimization).

    ``labeled_scores`` pairs each trace's true protocol with its score
    dict.  Returns the best :class:`OrderedMatcher` and its average
    per-protocol accuracy on the training data.
    """
    if grid is None:
        grid = np.arange(0.2, 0.81, 0.15)
    best: tuple[OrderedMatcher, float, float] | None = None
    for combo in itertools.product(grid, repeat=len(order) - 1):
        # The last protocol in the order is the fallback; its threshold
        # is irrelevant, keep it at -1 so it always accepts.
        matcher = OrderedMatcher(order=order, thresholds=tuple(combo) + (-1.0,))
        correct: dict[Protocol, list[bool]] = {p: [] for p in order}
        for truth, scores in labeled_scores:
            correct[truth].append(matcher.decide(scores) is truth)
        accuracies = [np.mean(v) for v in correct.values() if v]
        avg = float(np.mean(accuracies)) if accuracies else 0.0
        # Tie-break toward higher (more conservative) thresholds: early
        # protocols only claim a packet on strong evidence, which
        # generalizes better than the lowest tied combination.
        margin = float(np.sum(combo))
        if best is None or (avg, margin) > (best[1], best[2]):
            best = (matcher, avg, margin)
    assert best is not None
    return best[0], best[1]
