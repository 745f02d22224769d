"""Differentiable boundary detection between consecutive frame latents.

The chain is: one straight-through op on the frame latents,
``boundary_indicator`` -> tent-weighted segment means
(``diffcore.segment_pool``), each frame weighted into the two segments
nearest its running boundary count.  The op's forward takes the cosine
similarity of adjacent frames, normalizes it into a dissimilarity per
utterance, scores two-scale peaks above a threshold and saturates them into
hard indicators; its vjp follows the soft slope through the same peak rule,
the normalization and the cosine.  So boundary placement participates in
training as one tape stage, and the hard segment count and spans are read
off the forward values.  ``dissimilarity`` and ``peak_scores`` are the op's
forward stages as plain numpy functions.
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
    "boundary_indicator",
    "detect_segments",
]

SOFT_SLOPE = 10.0     # backward path: d tanh(10 p) / dp
HARD_SLOPE = 1000.0   # forward path: tanh(1000 p), saturates fast


def dissimilarity(sim: np.ndarray) -> np.ndarray:
    """Min/max-normalized similarity, flipped so that 1 marks the sharpest
    local change; all zeros when every junction has the same similarity."""
    lo, hi = sim[np.argmin(sim)], sim[np.argmax(sim)]
    if float(hi) == float(lo):
        return np.zeros_like(sim)
    return 1 - (sim - lo) / (hi - lo)


def _shift(x: np.ndarray, offset: int) -> np.ndarray:
    """x shifted by ``offset`` junctions (negative looks left); positions
    beyond the ends read as zero.  ``_shift(., -offset)`` is its adjoint."""
    n = x.size
    k = min(abs(offset), n)
    out = np.zeros_like(x)
    if offset < 0:
        out[k:] = x[: n - k]
    else:
        out[: n - k] = x[k:]
    return out


def _peak_parts(dissim: np.ndarray, thres: float):
    """The rises relu(d - shifted d) at offsets -1, +1, -2, +2, the narrow and
    wide scores, max(narrow, wide) - thres, and the final score."""
    if not 0.0 <= thres <= 1.0:
        raise ValueError(f"thres must be in [0, 1], got {thres}")
    rises = {off: np.maximum(dissim - _shift(dissim, off), 0) for off in (-1, +1, -2, +2)}
    narrow = np.minimum(rises[-1], rises[+1])
    wide = np.minimum(rises[-2], rises[+2])
    over = np.maximum(narrow, wide) - dissim.dtype.type(thres)
    final = np.minimum(np.maximum(over, 0), narrow)
    return rises, narrow, wide, over, final


def peak_scores(dissim: np.ndarray, thres: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-scale thresholded peak scores (narrow, wide, final), each length L-1.

    A junction scores only if it beats both immediate neighbors (narrow scale);
    the wide +-2 scale lets a broad rise clear the threshold.  The final score
    is capped by the narrow score, so isolated strict maxima are required.
    """
    _, narrow, wide, _, final = _peak_parts(dissim, thres)
    return narrow, wide, final


def _straight_through(s: np.ndarray, thres: float):
    """The dissimilarity of junction similarities ``s`` (L-1,), the indicator
    tanh(1000 p) of its final peak scores p, and the vjp to ``s`` (None when
    the dissimilarity is all zeros).  The vjp follows d tanh(10 p)/dp through
    the peak rule and the normalization: minimum/maximum ties go to the first
    argument, relu takes the zero branch, and the normalization's min and max
    take their first occurrence."""
    dt = s.dtype
    d = dissimilarity(s)
    rises, narrow, wide, over, final = _peak_parts(d, thres)
    soft = np.tanh(final * SOFT_SLOPE)
    indicator = np.tanh(final * HARD_SLOPE) + (soft - soft)
    if not d.any():   # a normalized dissimilarity holds a 1 at the minimum similarity
        return d, indicator, None
    i_lo, i_hi = int(np.argmin(s)), int(np.argmax(s))
    span = s[i_hi] - s[i_lo]

    def vjp(g):
        g = g * (1 - soft * soft) * SOFT_SLOPE
        take = np.maximum(over, 0) <= narrow      # final = min(relu(over), narrow)
        g_narrow = g * ~take
        g_over = g * take * (over > 0).astype(dt)
        take = narrow >= wide                     # over = max(narrow, wide) - thres
        g_narrow = g_narrow + g_over * take
        gd = None
        for k, g_scale in ((2, g_over * ~take), (1, g_narrow)):
            take = rises[-k] <= rises[k]          # scale k = min(rise(-k), rise(+k))
            for off, g_rise in ((k, g_scale * ~take), (-k, g_scale * take)):
                g_rise = g_rise * (rises[off] > 0).astype(dt)
                gd = g_rise if gd is None else gd + g_rise
                gd = gd + _shift(-g_rise, -off)
        g_a = -gd / span                          # d = 1 - (s - lo) / span
        g_span = np.asarray((gd * (s - s[i_lo]) / (span * span)).sum(dtype=np.float64), dtype=dt)
        g_lo = -g_span - np.asarray(g_a.sum(dtype=np.float64), dtype=dt)
        g_sim = g_a
        for i, g_i in ((i_hi, g_span), (i_lo, g_lo)):
            one_hot = np.zeros_like(s)
            one_hot[i] = g_i
            g_sim = g_sim + one_hot
        return g_sim

    return d, indicator, vjp


def boundary_indicator(frames: np.ndarray, thres: float):
    """Straight-through boundary indicator from frame latents (L, d), L >= 2:
    the dissimilarity and the indicator, each (L-1,), and a vjp that chains
    ``_straight_through``'s into ``dc.cosine``'s of ``frames[:-1]`` and
    ``frames[1:]``: two zero-padded (L, d) terms, rows 1 .. L-1 first.  An
    all-zero dissimilarity gives a constant indicator and no vjp (None)."""
    sim, cos_vjp = dc.cosine(frames[:-1], frames[1:])
    d, indicator, vjp = _straight_through(sim, thres)
    if vjp is None:
        return d, indicator, None

    def frames_vjp(g):
        g_a, g_b = cos_vjp(vjp(g))   # of frames[:-1] and frames[1:]
        pad_b, pad_a = np.zeros_like(frames), np.zeros_like(frames)
        pad_b[1:], pad_a[:-1] = g_b, g_a
        return pad_b, pad_a

    return d, indicator, frames_vjp


def _spans_from_hard(hard_values: np.ndarray, n_frames: int) -> tuple[tuple[int, int], ...]:
    cuts = np.flatnonzero(hard_values > 0.5) + 1
    starts = np.concatenate([[0], cuts])
    ends = np.concatenate([cuts, [n_frames]])
    return tuple((int(s), int(e)) for s, e in zip(starts, ends))


@dataclass(frozen=True)
class BoundaryGraph:
    """What the rest of the pipeline reads from boundary detection."""

    dissimilarity: np.ndarray   # normalized, (L-1,)
    spans: tuple[tuple[int, int], ...]
    means: np.ndarray           # (M, frame_dim)

    @property
    def n_segments(self) -> int:
        return len(self.spans)


def detect_segments(frames: np.ndarray, thres: float, tape: dc.Tape | None = None) -> BoundaryGraph:
    """Run the full boundary chain on frame latents (L, frame_dim), L >= 2;
    a constant indicator records no stage, so it passes no gradient."""
    n = frames.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 frames to compare, got {n}")
    dissim, indicator, vjp = boundary_indicator(frames, thres)
    spans = _spans_from_hard(indicator, n)
    means, pool_vjp = dc.segment_pool(frames, indicator, len(spans))
    if tape is not None:
        if vjp is not None:
            tape.record(("frames", "frames"), "indicator", vjp)
        tape.record(("frames", "indicator"), "means", pool_vjp)
    return BoundaryGraph(dissim, spans, means)
