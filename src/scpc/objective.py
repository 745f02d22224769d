"""Contrastive training objectives at the frame and segment level.

Both losses are the same noise-contrastive estimate: an anchor must pick its
true successor out of k distractors drawn uniformly without replacement from
the same utterance.  One integer table of shape (n - 1, k + 1) holds every
anchor's candidates, the positive in column 0; the gather, the cosine scores,
the cross-entropy and the mean are one hand-written function with its vjp.
Frame anchors predict the next frame latent; segment anchors are causal
context states predicting the next segment latent.  The segment loss joins
the total only from a configured epoch onward, giving the frame encoder a
head start.  The total, both terms together, is one tape stage for any k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import diffcore as dc

__all__ = [
    "LossReport",
    "sample_distractors",
    "utterance_loss",
]


@dataclass(frozen=True)
class LossReport:
    """Scalar loss values for logging; ``nsc`` is None while inactive."""

    nfc: float
    nsc: float | None
    total: float


def sample_distractors(rng: np.random.Generator, n_items: int, k: int) -> np.ndarray:
    """Distractor indices for the anchors 0 .. n_items - 2, shape (n_items - 1, k).

    Row i holds k distinct draws from range(n_items) minus {i, i + 1}, its
    anchor and positive; every k-subset is equally likely.  Floyd's algorithm,
    vectorised over rows, draws k indices from the n_items - 2 others in one
    ``rng.integers`` call and shifts them past the anchor and the positive,
    in O(n_items * k) memory and O(n_items * k^2) time; the draw depends on
    nothing but the generator, n_items and k.
    """
    n = n_items - 2
    if k < 0 or k > n:
        raise ValueError(f"cannot draw {k} distractors from {n_items} items minus anchor and positive")
    top = np.arange(n - k, n)
    out = rng.integers(0, top + 1, size=(n_items - 1, k))
    for c in range(1, k):
        taken = (out[:, :c] == out[:, c : c + 1]).any(axis=1)
        out[taken, c] = top[c]
    return out + 2 * (out >= np.arange(n_items - 1)[:, None])


def _successor_loss(sources: np.ndarray, pool: np.ndarray, k: int, rng: np.random.Generator):
    """Mean cross-entropy of each source row i < n - 1 picking pool row i + 1,
    as a 0-d array of the sources' dtype, and its vjp to (sources, pool).

    The candidates of anchor i are pool rows: the positive i + 1, then k
    distractors.  Logits are cosines (``dc.COS_EPS`` in the denominator,
    via ``dc.cosine``), the cross-entropy against column 0 is max-shifted,
    and the mean accumulates in float64.  The backward scatters the
    candidates' gradients into the pool with one sparse product, each
    row's sum in table order.
    """
    n, dt = pool.shape[0], sources.dtype
    table = np.column_stack([np.arange(1, n), sample_distractors(rng, n, k)])
    # anchors (n - 1, 1, d) against candidates (n - 1, k + 1, d)
    logits, cos_vjp = dc.cosine(sources[: n - 1, None, :], pool[table])
    shift = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - shift)
    z = ex.sum(axis=1, dtype=np.float64).astype(dt)
    losses = np.log(z) + shift[:, 0] - logits[:, 0]

    def vjp(g):
        p = ex / z[:, None]
        p[:, 0] -= 1
        ga, gb = cos_vjp(p * np.full_like(losses, g / losses.size)[:, None])   # of the logits
        g_sources = np.zeros_like(sources)
        g_sources[: n - 1] = ga.sum(axis=1, dtype=np.float64)
        gb = gb.reshape(table.size, -1)
        select = scipy.sparse.csr_array((np.ones(table.size, gb.dtype), (table.ravel(), np.arange(table.size))), shape=(n, table.size))
        return g_sources, select @ gb

    return np.asarray(losses.mean(dtype=np.float64).astype(dt)), vjp


def utterance_loss(frames: np.ndarray, segments: np.ndarray, contexts: np.ndarray, k_frame: int, k_seg: int, nsc_active: bool, rng: np.random.Generator, tape: dc.Tape | None = None) -> tuple[np.ndarray, LossReport]:
    """Total objective for one utterance: the next-frame loss (NFC) plus,
    once active, the next-segment loss (NSC), summed in the latents' dtype
    (float32 in training).

    NFC anchors are the frames but the last, each picking the next frame out
    of k_frame distractors; it needs k_frame + 2 frames (callers skip shorter
    utterances).  NSC anchors are the contexts, each picking the next
    segment out of min(k_seg, M - 2); with fewer than two segments it is
    None.  On a ``tape`` the total is one stage that writes "loss" and reads
    ("frames", "frames"), plus ("contexts", "segments") with NSC, whose
    branch is not even built while inactive; NFC draws its distractors
    first.
    """
    n, m = frames.shape[0], segments.shape[0]
    if n < k_frame + 2:
        raise ValueError(f"utterance has {n} frames; next-frame loss needs at least k + 2 = {k_frame + 2}")
    nfc, nfc_vjp = _successor_loss(frames, frames, k_frame, rng)
    if not nsc_active or m < 2:
        if tape is not None:
            tape.record(("frames", "frames"), "loss", nfc_vjp)
        return nfc, LossReport(nfc=float(nfc), nsc=None, total=float(nfc))
    if segments.shape != contexts.shape:
        raise ValueError(f"segments {segments.shape} and contexts {contexts.shape} must match")
    nsc, nsc_vjp = _successor_loss(contexts, segments, min(k_seg, m - 2), rng)
    total = np.asarray(nfc + nsc)
    if tape is not None:
        tape.record(("frames", "frames", "contexts", "segments"), "loss", lambda g: nfc_vjp(g) + nsc_vjp(g))
    return total, LossReport(nfc=float(nfc), nsc=float(nsc), total=float(total))
