"""Boundary prediction from a trained model.

Phoneme boundaries are prominence-filtered peaks of the normalized
dissimilarity between adjacent frame latents.  Word boundaries are peaks of
the dissimilarity between each causal context state and the following
segment latent, emitted at the end time of the segment the context has seen.
One ``predict(profile, level, prominence)`` serves both levels and every
caller (``segment``, ``tune`` and validation); its result is a plain,
strictly increasing float64 array of times in seconds.
Inference is forward-only: parameters enter the tape as constants, so the
tape records nothing and each intermediate is freed once consumed; only the
score curves are kept, so sweeping prominence never reruns the model.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy.signal import find_peaks

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
    segment_end_frames: np.ndarray   # (M,) last frame index of each segment


@dataclass(frozen=True)
class TuneResult:
    prominence: float
    r_value: float | None
    rows: tuple[tuple[float, float | None], ...]  # (prominence, r_value) per grid point


def _rowwise_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    num = (a * b).sum(axis=1)
    den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1) + 1e-8
    return num / den


def profile_utterance(net: model.SCPCModel, samples: np.ndarray, utt_id: str) -> UtteranceProfile:
    """Run the model forward and keep only what peak picking needs.

    Segmentation uses the threshold stored in the model config.  Utterances
    shorter than two frames cannot produce a junction; they yield an empty
    profile and a warning.
    """
    empty = np.empty(0, dtype=np.float64)
    if samples.size < model.RECEPTIVE_FIELD + model.TOTAL_STRIDE:
        warnings.warn(f"utterance {utt_id}: {samples.size} samples is too short to segment; emitting no boundaries")
        return UtteranceProfile(utt_id, empty, empty, np.empty(0, dtype=np.int64))

    tape = dc.Tape()
    leaves = {name: tape.constant(arr) for name, arr in net.params.items()}
    graph = model.analyze_utterance(tape, leaves, samples, net.config.thres)

    dissim = graph.boundaries.dissimilarity.astype(np.float64)
    spans = graph.boundaries.spans
    end_frames = np.array([e - 1 for _, e in spans], dtype=np.int64)
    m = len(spans)
    if m >= 2:
        seg = graph.segments.data
        ctx = graph.contexts.data
        word_scores = 1.0 - _rowwise_cosine(ctx[: m - 1], seg[1:])
    else:
        word_scores = empty
    return UtteranceProfile(utt_id, dissim, word_scores, end_frames)


def _profile_share(_inherited, net: model.SCPCModel, entries: list[tuple[str, str]]) -> list[UtteranceProfile]:
    return [profile_utterance(net, audio.load_wav(wav).samples, utt_id) for wav, utt_id in entries]


def profile_corpus(net: model.SCPCModel, entries: list[tuple[str, str]], workers: int = 1) -> list[UtteranceProfile]:
    """Profiles for (wav_path, utterance_id) pairs, in input order, on up
    to ``workers`` processes; identical to the sequential path."""
    with parallel.ForkGroup(min(workers, len(entries))) as group:
        return profile_with(group, net, entries)


def profile_with(group: parallel.ForkGroup, net: model.SCPCModel, entries: list[tuple[str, str]]) -> list[UtteranceProfile]:
    """``profile_corpus`` on an open group: the entries are split by file
    size, and each process receives the model once.

    Audio is read one utterance at a time, so only the profiles accumulate.
    """
    return group.map(_profile_share, entries, [os.path.getsize(wav) for wav, _ in entries], net)


def _peaks(profile: UtteranceProfile, level: str) -> tuple[np.ndarray, np.ndarray]:
    """Time (s) and prominence of every peak of one level's score curve.

    Time conventions, with frames 10 ms apart (``model.FRAME_HOP_S``):
    - phoneme: junction t lies between frames t and t + 1, and a peak there
      is reported at (t + 1) * 10 ms, the start of frame t + 1;
    - word: junction t follows segment t, and a peak there is reported at
      e * 10 ms, where e is the last frame index of segment t, so one hop
      earlier than the phoneme rule would place the same junction.
      Fewer than three segments give at most two scores, which hold no
      interior peak.
    Both arrays are strictly increasing.  ``find_peaks(curve,
    prominence=p)`` returns exactly the peaks whose prominence is >= p, so
    these serve every prominence.
    """
    if level == "phoneme":
        idx, props = find_peaks(profile.dissimilarity, prominence=0)
        times = (idx + 1) * model.FRAME_HOP_S
    elif level == "word":
        idx, props = find_peaks(profile.word_scores, prominence=0)
        times = profile.segment_end_frames[idx] * model.FRAME_HOP_S
    else:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    return times.astype(np.float64), props["prominences"]


def predict(profile: UtteranceProfile, level: str, prominence: float = DEFAULT_PROMINENCE) -> np.ndarray:
    """Boundary times (s) of the ``level`` peaks whose prominence is >= ``prominence``."""
    if prominence < 0:
        raise ValueError(f"prominence must be >= 0, got {prominence}")
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
    where no boundaries are predicted score as negative infinity.  Scores
    are those of ``metrics.evaluate`` with ``durations``.  Each curve's peaks
    are found and edge-stripped once and filtered by prominence at each grid
    point, and the references are prepared once.
    """
    if not profiles:
        raise ValueError("tune_prominence: empty validation set")
    peaks = {p.id: _peaks(p, level) for p in profiles}
    if durations is not None:
        # A peak's time and prominence are kept or dropped together.
        for k, (times, prominences) in peaks.items():
            keep = np.isin(times, metrics.strip_edges(times, durations[k]))
            peaks[k] = times[keep], prominences[keep]
        refs = {k: metrics.strip_edges(r, durations[k]) for k, r in refs.items()}
    pooled = metrics.scorer(refs, tolerance)
    best_prom, best_rv, best_score = None, None, -np.inf
    rows = []
    for prom in PROMINENCE_GRID:
        report = pooled({k: times[prominences >= prom] for k, (times, prominences) in peaks.items()})
        rows.append((prom, report.r_value))
        score = -np.inf if report.r_value is None else report.r_value
        if score >= best_score:
            best_prom, best_rv, best_score = prom, report.r_value, score
    return TuneResult(best_prom, best_rv, tuple(rows))


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
    for n, line in enumerate(manifest.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{manifest}:{n}: expected '<id><TAB><file>', got {line!r}")
        utt_id, fname = parts
        path = pred_dir / fname
        try:
            times = np.array([float(v) for v in path.read_text().split()], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}: non-numeric boundary time ({exc})") from exc
        if not (np.isfinite(times).all() and np.all(np.diff(times) > 0)):
            raise ValueError(f"{path}: boundary times must be finite and strictly increasing")
        out[utt_id] = times
    return out
