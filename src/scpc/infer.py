"""Boundary prediction from a trained model.

Phoneme boundaries are prominence-filtered peaks of the normalized
dissimilarity between adjacent frame latents.  Word boundaries are peaks of
the dissimilarity between each causal context state and the following
segment latent, emitted at the end time of the segment the context has seen,
which is where the phoneme rule places the same frame junction.  Both
curves' peaks and prominences come from ``_find_peaks``, a numpy peak
finder that returns what ``scipy.signal.find_peaks(curve, prominence=0)``
does, bit for bit, without importing ``scipy.signal``.
One ``predict(profile, level, prominence)`` serves both levels and every
caller (``segment``, ``tune`` and validation); its result is a plain,
strictly increasing float64 array of times in seconds.
Inference is forward-only: it runs the model without a tape, so each op's
vjp is dropped and each intermediate freed once consumed; only the score
curves are kept, so sweeping prominence never reruns the model.  ``tune``
hands every peak, scored by its prominence, to ``metrics.evaluate_grid``,
which matches each utterance once per distinct kept set and scores ``eval``
by the same loop.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import audio
from . import diffcore as dc
from . import metrics
from . import model
from . import parallel

__all__ = [
    "DEFAULT_PROMINENCE",
    "PROMINENCE_GRID",
    "UtteranceProfile",
    "TuneResult",
    "profile_utterance",
    "profile_corpus",
    "profile_with",
    "predict",
    "tune_prominence",
    "write_predictions",
    "read_predictions",
]

DEFAULT_PROMINENCE = 0.1
PROMINENCE_GRID = tuple(i / 100 for i in range(51))
LEVELS = audio.LEVELS


@dataclass(frozen=True)
class UtteranceProfile:
    """Score curves for one utterance, precomputed once per checkpoint.

    ``dissimilarity`` has one entry per frame junction; ``word_scores`` one
    per segment junction.  Both are empty when the utterance is too short to
    encode two frames.
    """

    id: str
    dissimilarity: np.ndarray        # (L-1,)
    word_scores: np.ndarray          # (M-1,)
    segment_ends: np.ndarray         # (M,) end of each segment's span, one past its last frame


@dataclass(frozen=True)
class TuneResult:
    prominence: float
    r_value: float | None
    rows: tuple[tuple[float, float | None], ...]  # (prominence, r_value) per grid point


def profile_utterance(net: model.SCPCModel, samples: np.ndarray, utt_id: str, threads: int = 1) -> UtteranceProfile:
    """Run the model forward, its frame encoder on ``threads`` threads, and
    keep only what peak picking needs.

    Segmentation uses the threshold stored in the model config.  Utterances
    shorter than two frames cannot produce a junction; they yield an empty
    profile and a warning.
    """
    empty = np.empty(0, dtype=np.float64)
    if samples.size < model.RECEPTIVE_FIELD + model.TOTAL_STRIDE:
        warnings.warn(f"utterance {utt_id}: {samples.size} samples is too short to segment; emitting no boundaries")
        return UtteranceProfile(utt_id, empty, empty, np.empty(0, dtype=np.int64))

    graph = model.analyze_utterance(net.params, samples, net.config.thres, threads)

    dissim = graph.boundaries.dissimilarity.astype(np.float64)
    spans = graph.boundaries.spans
    ends = np.array([e for _, e in spans], dtype=np.int64)
    m = len(spans)
    if m >= 2:
        word_scores = 1.0 - dc.cosine(graph.contexts[: m - 1].astype(np.float64), graph.segments[1:].astype(np.float64))[0]
    else:
        word_scores = empty
    return UtteranceProfile(utt_id, dissim, word_scores, ends)


def _profile_item(_inherited, threads: int, net: model.SCPCModel, entry: tuple[str, str]) -> UtteranceProfile:
    return profile_utterance(net, audio.load_wav(entry[0]).samples, entry[1], threads)


def profile_corpus(net: model.SCPCModel, entries: list[tuple[str, str]], workers: int = 1) -> list[UtteranceProfile]:
    """Profiles for (wav_path, utterance_id) pairs, in input order, on
    ``workers`` cores; identical to the sequential path.

    One process per file up to ``workers``, each with the cores left over
    as encoder threads (``parallel.ForkGroup``): a one-file manifest runs
    on ``workers`` threads.  The children are forked once per call, which
    is once per ``segment`` or ``tune`` command, and exit when it returns.
    """
    with parallel.ForkGroup(workers, len(entries)) as group:
        return profile_with(group, net, entries)


def profile_with(group: parallel.ForkGroup, net: model.SCPCModel, entries: list[tuple[str, str]]) -> list[UtteranceProfile]:
    """``profile_corpus`` on an open group, which a training run forks once
    and reuses for validation every epoch: the entries are dealt to the
    processes as they come free, largest file first, each process receives
    the model once per call and runs the encoder on the group's threads.

    Audio is read one utterance at a time, so only the profiles accumulate.
    """
    return list(group.map(_profile_item, entries, [os.path.getsize(wav) for wav, _ in entries], net))


def _find_peaks(curve: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and prominence of every peak of ``curve``, in float64, equal in
    bytes to ``scipy.signal.find_peaks(curve, prominence=0)``.

    A peak is an interior run of equal values strictly above the runs on
    both sides, reported at its middle sample (rounded down).  On each side
    its base is the minimum from the peak up to the nearest sample strictly
    higher than the peak, or NaN, or the curve's end; its prominence is its
    value minus the higher base.  The walk may stop at the nearest strictly
    higher peak instead, as any dip below the base beyond the first higher
    sample would leave a higher peak nearer still: one stack over the peaks
    finds both stops, and one ``minimum.reduceat`` takes both minima.
    """
    x = np.asarray(curve, dtype=np.float64)
    n = x.size
    b = np.flatnonzero(x[1:] != x[:-1]) + 1   # where each run but the first starts
    lo, hi = b[:-1], b[1:]                    # the interior runs, x[lo:hi]
    top = x[lo]
    run = np.flatnonzero((top > x[lo - 1]) & (top > x[hi]))
    peaks = (lo[run] + hi[run] - 1) // 2
    heights, pos = x[peaks].tolist(), peaks.tolist()
    # Per peak, the first sample of its left walk and one past its right walk.
    left, right = [0] * len(pos), [n] * len(pos)
    stack: list[int] = []
    for i, h in enumerate(heights):
        while stack and heights[stack[-1]] < h:
            right[stack.pop()] = pos[i]
        if stack:
            t = stack[-1]
            left[i] = left[t] if heights[t] == h else pos[t] + 1
        stack.append(i)
    # Rows (left, peak + 1, peak, right): x[left:peak + 1] and x[peak:right].
    bounds = np.empty((len(pos), 4), dtype=np.intp)
    bounds[:, 0], bounds[:, 1], bounds[:, 2], bounds[:, 3] = left, peaks + 1, peaks, right
    gaps = np.flatnonzero(np.isnan(x))
    if gaps.size:   # a walk also stops at a NaN
        k = np.searchsorted(gaps, peaks)
        np.maximum(bounds[:, 0], np.concatenate(([-1], gaps))[k] + 1, out=bounds[:, 0])
        np.minimum(bounds[:, 3], np.concatenate((gaps, [n]))[k], out=bounds[:, 3])
    mins = np.minimum.reduceat(np.concatenate((x, [0.0])), bounds.ravel())   # the pad makes index n valid
    return peaks, x[peaks] - np.maximum(mins[0::4], mins[2::4])


def _peaks(profile: UtteranceProfile, level: str) -> tuple[np.ndarray, np.ndarray]:
    """Time (s) and prominence of every peak of one level's score curve.

    Time conventions, with frames 10 ms apart (``model.FRAME_HOP_S``):
    - phoneme: junction t lies between frames t and t + 1, and a peak there
      is reported at (t + 1) * 10 ms, the start of frame t + 1;
    - word: junction t follows segment t, and a peak there is reported at
      e * 10 ms, where e is the end of segment t's span, so the first frame
      of segment t + 1: the phoneme rule's time for the junction between
      frames e - 1 and e.  Fewer than three segments give at most two
      scores, which hold no interior peak.
    Both arrays are strictly increasing.  ``_find_peaks`` returns every
    peak with its prominence, and the boundaries at prominence p are the
    peaks whose prominence is >= p, so these serve every prominence.
    """
    if level == "phoneme":
        idx, prominences = _find_peaks(profile.dissimilarity)
        times = (idx + 1) * model.FRAME_HOP_S
    elif level == "word":
        idx, prominences = _find_peaks(profile.word_scores)
        times = profile.segment_ends[idx] * model.FRAME_HOP_S
    else:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    return times.astype(np.float64), prominences


def _check_prominence(prominence: float) -> None:
    if not 0 <= prominence < np.inf:
        raise ValueError(f"prominence must be >= 0 and finite, got {prominence}")


def predict(profile: UtteranceProfile, level: str, prominence: float = DEFAULT_PROMINENCE) -> np.ndarray:
    """Boundary times (s) of the ``level`` peaks whose prominence is >= ``prominence``."""
    _check_prominence(prominence)
    times, prominences = _peaks(profile, level)
    return times[prominences >= prominence]


def tune_prominence(
    profiles: list[UtteranceProfile],
    refs: dict[str, np.ndarray],
    level: str,
    durations: dict[str, float] | None = None,
    tolerance: float = metrics.DEFAULT_TOLERANCE,
) -> TuneResult:
    """Search ``PROMINENCE_GRID`` for the prominence maximizing the pooled
    R-value on a labeled set.

    Ties break toward the larger prominence (fewer boundaries).  Grid points
    where no boundaries are predicted score as negative infinity.  Each
    curve's peaks are found once, scored by their prominence, and
    ``metrics.evaluate_grid`` scores them at every grid point as
    ``metrics.evaluate`` scores ``predict``'s boundaries with ``durations``.
    """
    if not profiles:
        raise ValueError("tune_prominence: empty validation set")
    reports = metrics.evaluate_grid({p.id: _peaks(p, level) for p in profiles}, refs, PROMINENCE_GRID, tolerance, durations)
    rows = tuple((prom, report.r_value) for prom, report in zip(PROMINENCE_GRID, reports))
    # max keeps the first of equal scores, so the reversed grid breaks ties upward.
    prominence, r_value = max(reversed(rows), key=lambda row: -np.inf if row[1] is None else row[1])
    return TuneResult(prominence, r_value, rows)


def write_predictions(preds: Mapping[str, np.ndarray], out_dir: str | Path, level: str) -> Path:
    """One boundary-time file per utterance plus a manifest and a count report.

    ``preds`` maps utterance ids to boundary times and is written in its
    insertion order.  Each ``<id>.txt`` holds one time per line with six
    decimals, in the subdirectories an id such as ``DR1/FCJF0/SX127``
    implies; the manifest ``predictions.tsv`` maps ids to files and
    ``report.json`` records counts.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_lines = []
    counts = []
    for utt_id, times in preds.items():
        fname = f"{utt_id}.txt"
        (out / fname).parent.mkdir(parents=True, exist_ok=True)
        (out / fname).write_text("".join(f"{t:.6f}\n" for t in times))
        manifest_lines.append(f"{utt_id}\t{fname}")
        counts.append({"id": utt_id, "n_boundaries": int(times.size)})
    manifest = out / "predictions.tsv"
    manifest.write_text("".join(line + "\n" for line in manifest_lines))
    report = {
        "level": level,
        "n_utterances": len(preds),
        "total_boundaries": int(sum(c["n_boundaries"] for c in counts)),
        "utterances": counts,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return manifest


def read_predictions(pred_dir: str | Path) -> dict[str, np.ndarray]:
    """Load a predictions directory back into an id -> times mapping."""
    pred_dir = Path(pred_dir)
    manifest = pred_dir / "predictions.tsv"
    if not manifest.is_file():
        raise FileNotFoundError(f"no predictions.tsv in {pred_dir}")
    out: dict[str, np.ndarray] = {}
    lines: dict[str, int] = {}   # utterance id -> line number
    for n, line in enumerate(manifest.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{manifest}:{n}: expected '<id><TAB><file>', got {line!r}")
        utt_id, fname = parts
        if lines.setdefault(utt_id, n) != n:
            raise ValueError(f"{manifest}:{n}: utterance id {utt_id!r} repeats line {lines[utt_id]}")
        path = pred_dir / fname
        try:
            times = np.array([float(v) for v in path.read_text().split()], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric boundary time ({exc})") from exc
        if not (np.isfinite(times).all() and np.all(np.diff(times) > 0)):
            raise ValueError(f"{path}: boundary times must be finite and strictly increasing")
        out[utt_id] = times
    return out
