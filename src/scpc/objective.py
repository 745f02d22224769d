"""Contrastive training objectives at the frame and segment level.

Both losses are the same noise-contrastive estimate: an anchor must pick its
true successor out of k distractors drawn uniformly without replacement from
the same utterance.  One integer table of shape (n - 1, k + 1) holds every
anchor's candidates, the positive in column 0; the gather, the cosine scores,
the cross-entropy and the mean are one hand-written function with its vjp.
Frame anchors predict the next frame latent; segment anchors are causal
context states predicting the next segment latent.  The segment loss joins
the total only from a configured epoch onward, giving the frame encoder a
head start.  The total, both terms together, records one tape node for any k.
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
    distractors.  Logits are cosines (float64 dot products, ``dc.COS_EPS``
    in the denominator), the cross-entropy against column 0 is max-shifted,
    and the mean accumulates in float64.  The backward scatters the
    candidates' gradients into the pool with one sparse product, each
    row's sum in table order.
    """
    n = pool.shape[0]
    table = np.column_stack([np.arange(1, n), sample_distractors(rng, n, k)])
    a = sources[: n - 1, None, :]   # (n - 1, 1, d) anchors
    b = pool[table]                 # (n - 1, k + 1, d) candidates
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("contrastive loss: zero vector has no direction")
    dt = sources.dtype
    dot = (a * b).sum(axis=-1, dtype=np.float64).astype(dt)
    denom = (na * nb + dc.COS_EPS).astype(dt)
    logits = dot / denom
    shift = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - shift)
    z = ex.sum(axis=1, dtype=np.float64).astype(dt)
    losses = np.log(z) + shift[:, 0] - logits[:, 0]

    def vjp(g):
        p = ex / z[:, None]
        p[:, 0] -= 1
        g = p * np.full_like(losses, g / losses.size)[:, None]   # d loss / d logits
        gc = (g / denom)[..., None]
        sc = (g * dot / denom**2)[..., None]
        g_sources = np.zeros_like(sources)
        g_sources[: n - 1] = (gc * b - sc * (nb / na)[..., None] * a).sum(axis=1, dtype=np.float64)
        gb = (gc * a - sc * (na / nb)[..., None] * b).reshape(table.size, -1)
        select = scipy.sparse.csr_array((np.ones(table.size, gb.dtype), (table.ravel(), np.arange(table.size))), shape=(n, table.size))
        return g_sources, select @ gb

    return np.asarray(losses.mean(dtype=np.float64).astype(dt)), vjp


def utterance_loss(frames: dc.Tensor, segments: dc.Tensor, contexts: dc.Tensor, k_frame: int, k_seg: int, nsc_active: bool, rng: np.random.Generator) -> tuple[dc.Tensor, LossReport]:
    """Total objective for one utterance, as one tape node: the next-frame
    loss (NFC) plus, once active, the next-segment loss (NSC), summed in the
    latents' dtype (float32 in training).

    NFC anchors are the frames but the last, each picking the next frame out
    of k_frame distractors; it needs k_frame + 2 frames (callers skip shorter
    utterances).  NSC anchors are the contexts, each picking the next
    segment out of min(k_seg, M - 2); with fewer than two segments it is
    None.  The node's inputs are (frames, frames), plus (contexts, segments)
    with NSC, whose branch is not even built while inactive; NFC draws its
    distractors first.
    """
    n, m = frames.shape[0], segments.shape[0]
    if n < k_frame + 2:
        raise ValueError(f"utterance has {n} frames; next-frame loss needs at least k + 2 = {k_frame + 2}")
    nfc, nfc_vjp = _successor_loss(frames.data, frames.data, k_frame, rng)
    if not nsc_active or m < 2:
        return frames.tape._record((frames, frames), nfc, nfc_vjp), LossReport(nfc=float(nfc), nsc=None, total=float(nfc))
    if segments.shape != contexts.shape:
        raise ValueError(f"segments {segments.shape} and contexts {contexts.shape} must match")
    nsc, nsc_vjp = _successor_loss(contexts.data, segments.data, min(k_seg, m - 2), rng)
    total = nfc + nsc
    report = LossReport(nfc=float(nfc), nsc=float(nsc), total=float(total))
    return frames.tape._record((frames, frames, contexts, segments), np.asarray(total), lambda g: nfc_vjp(g) + nsc_vjp(g)), report
