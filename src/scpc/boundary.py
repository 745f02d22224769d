"""Differentiable boundary detection between consecutive frame latents.

The chain is: cosine similarity of adjacent frames -> per-utterance min/max
normalized dissimilarity -> two-scale peak scores with a threshold -> a
straight-through boundary indicator (hard forward, soft backward) -> tent
-weighted segment means (``diffcore.segment_pool``), each frame weighted into
the two segments nearest its running boundary count.  All stages are tape ops,
so boundary placement participates in training; the hard segment count and
spans are read off the forward values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc

__all__ = [
    "SOFT_SLOPE",
    "HARD_SLOPE",
    "BoundaryGraph",
    "dissimilarity",
    "peak_scores",
    "boundary_indicators",
    "detect_segments",
]

SOFT_SLOPE = 10.0     # backward path: d tanh(10 p) / dp
HARD_SLOPE = 1000.0   # forward path: tanh(1000 p), saturates fast


def dissimilarity(tape: dc.Tape, frames: dc.Tensor) -> tuple[dc.Tensor, dc.Tensor]:
    """Adjacent-frame similarity and normalized dissimilarity, both length L-1.

    Dissimilarity is min/max-normalized per utterance and flipped so that 1
    marks the sharpest local change.  When every junction has identical
    similarity the normalization is degenerate and the dissimilarity is
    defined as all zeros (a constant: no gradient flows from it).
    """
    n = frames.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 frames to compare, got {n}")
    left = dc.narrow(frames, 0, n - 1)
    right = dc.narrow(frames, 1, n - 1)
    sim = dc.cosine_sim(left, right)
    lo = dc.reduce_min(sim)
    hi = dc.reduce_max(sim)
    if float(hi.data) == float(lo.data):
        return sim, tape.constant(np.zeros(n - 1, dtype=frames.dtype))
    dissim = 1.0 - dc.div(dc.sub(sim, lo), dc.sub(hi, lo))
    return sim, dissim


def _shifted(tape: dc.Tape, d: dc.Tensor, offset: int) -> dc.Tensor:
    """d shifted by ``offset`` junctions; positions beyond the ends read as zero."""
    n = d.shape[0]
    k = min(abs(offset), n)
    pad = tape.constant(np.zeros(k, dtype=d.dtype))
    if offset < 0:  # look left: prepend zeros
        return dc.concat([pad, dc.narrow(d, 0, n - k)])
    return dc.concat([dc.narrow(d, k, n - k), pad])


def peak_scores(tape: dc.Tape, dissim: dc.Tensor, thres: float) -> tuple[dc.Tensor, dc.Tensor, dc.Tensor]:
    """Two-scale thresholded peak scores (narrow, wide, final), each length L-1.

    A junction scores only if it beats both immediate neighbors (narrow scale);
    the wide +-2 scale lets a broad rise clear the threshold.  The final score
    is capped by the narrow score, so isolated strict maxima are required.
    """
    if not 0.0 <= thres <= 1.0:
        raise ValueError(f"thres must be in [0, 1], got {thres}")
    rise = lambda off: dc.relu(dc.sub(dissim, _shifted(tape, dissim, off)))
    narrow = dc.minimum(rise(-1), rise(+1))
    wide = dc.minimum(rise(-2), rise(+2))
    best = dc.maximum(narrow, wide)
    final = dc.minimum(dc.relu(best - thres), narrow)
    return narrow, wide, final


def boundary_indicators(tape: dc.Tape, scores: dc.Tensor) -> tuple[dc.Tensor, dc.Tensor, dc.Tensor]:
    """Straight-through boundary indicator: hard values, soft gradient.

    Returns (soft, hard, indicator) with indicator = soft + sg(hard - soft),
    associated as sg(hard) + (soft - sg(soft)) so the forward value equals
    tanh(1000 p) bit for bit while the backward pass sees only d tanh(10 p)/dp.
    """
    soft = dc.tanh(scores * SOFT_SLOPE)
    hard = dc.tanh(scores * HARD_SLOPE)
    indicator = dc.add(dc.stop_gradient(hard), dc.sub(soft, dc.stop_gradient(soft)))
    return soft, hard, indicator


def _spans_from_hard(hard_values: np.ndarray, n_frames: int) -> tuple[tuple[int, int], ...]:
    cuts = np.flatnonzero(hard_values > 0.5) + 1
    starts = np.concatenate([[0], cuts])
    ends = np.concatenate([cuts, [n_frames]])
    return tuple((int(s), int(e)) for s, e in zip(starts, ends))


@dataclass(frozen=True)
class BoundaryGraph:
    """What the rest of the pipeline reads from boundary detection."""

    dissimilarity: dc.Tensor    # normalized, (L-1,)
    spans: tuple[tuple[int, int], ...]
    means: dc.Tensor            # (M, frame_dim)

    @property
    def n_segments(self) -> int:
        return len(self.spans)


def detect_segments(tape: dc.Tape, frames: dc.Tensor, thres: float) -> BoundaryGraph:
    """Run the full boundary chain on frame latents (L, frame_dim), L >= 2."""
    _, dissim = dissimilarity(tape, frames)
    _, _, scores = peak_scores(tape, dissim, thres)
    _, _, indicator = boundary_indicators(tape, scores)
    spans = _spans_from_hard(indicator.data, frames.shape[0])
    return BoundaryGraph(dissim, spans, dc.segment_pool(frames, indicator, len(spans)))
