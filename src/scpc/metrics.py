"""Boundary detection metrics: hit matching, precision/recall/F1, and R-value.

Predicted and reference boundaries are matched greedily in temporal order,
one-to-one, within a tolerance window (20 ms by default).  Corpus scores pool
hit/prediction/reference counts over all utterances before computing rates,
as the paper reports them.  The R-value combines the hit rate with the
over-segmentation rate so that degenerate high-recall predictors score
poorly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "MatchResult",
    "EvalReport",
    "match",
    "precision_recall_f1",
    "over_segmentation",
    "r_value",
    "strip_edges",
    "evaluate",
    "periodic_boundaries",
    "random_boundaries",
    "format_pct",
    "format_report",
]

DEFAULT_TOLERANCE = 0.020
_EDGE_EPS = 1e-6   # seconds; a boundary this close to an utterance edge is on it


@dataclass(frozen=True)
class MatchResult:
    """Hit counts from matching one predicted set against one reference set."""

    n_hit: int
    n_pred: int
    n_ref: int

    def __add__(self, other: "MatchResult") -> "MatchResult":
        return MatchResult(self.n_hit + other.n_hit, self.n_pred + other.n_pred, self.n_ref + other.n_ref)


@dataclass(frozen=True)
class EvalReport:
    """Aggregate scores for one boundary level.

    ``os`` and ``r_value`` are ``None`` when precision is zero, where the
    over-segmentation rate is undefined.  Rates are fractions, not percent.
    """

    precision: float
    recall: float
    f1: float
    os: float | None
    r_value: float | None
    n_hit: int
    n_pred: int
    n_ref: int
    n_utterances: int
    tolerance: float


def _check_sorted(times: np.ndarray, name: str) -> None:
    if times.size > 1 and np.any(np.diff(times) < 0):
        raise ValueError(f"{name} boundary times must be sorted ascending")


def match(pred: Sequence[float], ref: Sequence[float], tolerance: float = DEFAULT_TOLERANCE) -> MatchResult:
    """Greedy in-order one-to-one matching of two sorted boundary lists.

    Walking both lists left to right, a pair within ``tolerance`` seconds is
    counted as a hit and both sides advance; otherwise the earlier time
    advances.  Each boundary participates in at most one hit, and the hit
    count is symmetric in the two arguments.

    Parameters
    ----------
    pred, ref : sequences of boundary times in seconds, sorted ascending.
    tolerance : maximum absolute time difference for a hit, in seconds.
    """
    p = np.asarray(pred, dtype=np.float64)
    r = np.asarray(ref, dtype=np.float64)
    _check_sorted(p, "predicted")
    _check_sorted(r, "reference")
    _check_tolerance(tolerance)
    return MatchResult(_hits(p, r, tolerance), int(p.size), int(r.size))


def _check_tolerance(tolerance: float) -> None:
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be nonnegative and finite, got {tolerance}")


def _hits(p: np.ndarray, r: np.ndarray, tolerance: float) -> int:
    # The greedy walk of ``match`` over two arrays already checked sorted.
    i = j = hits = 0
    while i < p.size and j < r.size:
        if abs(p[i] - r[j]) <= tolerance:
            hits += 1
            i += 1
            j += 1
        elif p[i] < r[j]:
            i += 1
        else:
            j += 1
    return hits


def precision_recall_f1(counts: MatchResult) -> tuple[float, float, float]:
    """Rates from pooled counts; zero denominators yield zero rates."""
    p = counts.n_hit / counts.n_pred if counts.n_pred else 0.0
    r = counts.n_hit / counts.n_ref if counts.n_ref else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def over_segmentation(precision: float, recall: float) -> float | None:
    """Over-segmentation rate R/P - 1; undefined (None) when precision is 0."""
    if precision == 0:
        return None
    return recall / precision - 1.0


def r_value(recall: float, os: float) -> float:
    """Segmentation R-value from hit rate and over-segmentation rate.

    Both arguments are fractions.  Perfect segmentation (recall 1, os 0)
    scores 1; heavy over-segmentation drives the value far negative.
    """
    r1 = math.sqrt((1.0 - recall) ** 2 + os**2)
    r2 = (-os + recall - 1.0) / math.sqrt(2.0)
    return 1.0 - (abs(r1) + abs(r2)) / 2.0


def strip_edges(times: Sequence[float], duration: float) -> np.ndarray:
    """Drop boundaries at the utterance start (0) and end (duration).

    Annotations store segment end times, so the final reference boundary
    coincides with the utterance end and never counts toward scoring.
    """
    t = np.asarray(times, dtype=np.float64)
    return t[(t > _EDGE_EPS) & (t < duration - _EDGE_EPS)]


def evaluate(
    pred: Mapping[str, Sequence[float]],
    ref: Mapping[str, Sequence[float]],
    tolerance: float = DEFAULT_TOLERANCE,
    durations: Mapping[str, float] | None = None,
) -> EvalReport:
    """Score predicted boundaries against references over a corpus.

    ``pred`` and ``ref`` map utterance ids to sorted boundary-time lists and
    must cover exactly the same ids.  When ``durations`` is given, boundaries
    at each utterance's start or end are excluded from both sides before
    matching.  Hit, prediction and reference counts are pooled over the
    corpus before the rates are computed.
    """
    for times in pred.values():
        _check_sorted(np.asarray(times, dtype=np.float64), "predicted")
    refs = _references(ref, pred, tolerance, durations)
    total = MatchResult(0, 0, 0)
    for utt_id, r_times in refs.items():
        p_times = np.asarray(pred[utt_id], dtype=np.float64)
        if durations is not None:
            p_times = strip_edges(p_times, durations[utt_id])
        total = total + MatchResult(_hits(p_times, r_times, tolerance), int(p_times.size), int(r_times.size))
    return _report(total, len(refs), tolerance)


def _references(
    ref: Mapping[str, Sequence[float]],
    pred: Mapping[str, object],
    tolerance: float,
    durations: Mapping[str, float] | None,
) -> dict[str, np.ndarray]:
    """``evaluate``'s references by sorted id, edge-stripped with
    ``durations`` and checked sorted, after checking ``tolerance``; the
    ids must be those of ``pred``."""
    _check_tolerance(tolerance)
    refs = {}
    for utt_id in sorted(ref):
        r_times = np.asarray(ref[utt_id], dtype=np.float64)
        if durations is not None:
            r_times = strip_edges(r_times, durations[utt_id])
        _check_sorted(r_times, "reference")
        refs[utt_id] = r_times
    missing = sorted(set(refs) - set(pred))
    extra = sorted(set(pred) - set(refs))
    if missing or extra:
        raise ValueError(f"utterance id mismatch between predictions and references: missing {missing}, unexpected {extra}")
    if not refs:
        raise ValueError("evaluate() needs at least one utterance")
    return refs


def _report(total: MatchResult, n_utterances: int, tolerance: float) -> EvalReport:
    """The rates of pooled counts, as ``evaluate`` reports them."""
    p, r, f1 = precision_recall_f1(total)
    os = over_segmentation(p, r)
    rv = r_value(r, os) if os is not None else None
    return EvalReport(p, r, f1, os, rv, total.n_hit, total.n_pred, total.n_ref, n_utterances, tolerance)


def periodic_boundaries(duration: float, period: float = 0.040) -> np.ndarray:
    """Interior boundaries every ``period`` seconds: a high-recall, low-precision baseline."""
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    n = int(np.ceil(duration / period)) - 1
    return (np.arange(1, max(n, 0) + 1) * period).astype(np.float64)


def random_boundaries(duration: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` boundaries drawn uniformly inside the utterance, sorted."""
    return np.sort(rng.uniform(0.0, duration, size=count))


def format_pct(x: float | None) -> str:
    """A fraction as a one-decimal percent; ``"n/a"`` for None."""
    return "n/a" if x is None else f"{100.0 * x:.1f}"


def format_report(report: EvalReport, label: str = "") -> str:
    """Aligned text summary with rates in percent (one decimal)."""
    head = f"{label} " if label else ""
    lines = [
        f"{head}boundaries: {report.n_utterances} utterances, tolerance {report.tolerance * 1000:.0f} ms",
        f"  hits {report.n_hit}  predicted {report.n_pred}  reference {report.n_ref}",
        f"  precision {format_pct(report.precision):>7}  recall {format_pct(report.recall):>7}  F1 {format_pct(report.f1):>7}",
        f"  over-segmentation {format_pct(report.os):>7}  R-value {format_pct(report.r_value):>7}",
    ]
    return "\n".join(lines)
