"""Contract tests for boundary matching and segmentation scores."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpc import metrics

times_lists = st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=0, max_size=30).map(sorted)


class TestMatch:
    def test_hit_within_tolerance(self):
        assert metrics.match([0.100], [0.115], 0.020).n_hit == 1

    def test_miss_beyond_tolerance(self):
        assert metrics.match([0.100], [0.125], 0.020).n_hit == 0

    def test_boundary_used_at_most_once(self):
        # Both predictions are within 20 ms of the single reference.
        result = metrics.match([0.100, 0.110], [0.105], 0.020)
        assert result == metrics.MatchResult(1, 2, 1)

    def test_in_order_matching(self):
        result = metrics.match([0.10, 0.20, 0.30], [0.10, 0.20, 0.30], 0.020)
        assert result.n_hit == 3

    def test_empty_sides(self):
        assert metrics.match([], [0.1]).n_hit == 0
        assert metrics.match([0.1], []).n_hit == 0
        assert metrics.match([], []) == metrics.MatchResult(0, 0, 0)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            metrics.match([0.2, 0.1], [0.1])
        with pytest.raises(ValueError, match="sorted"):
            metrics.match([0.1], [0.5, 0.2])

    @given(times_lists, times_lists)
    @settings(max_examples=200, deadline=None)
    def test_hit_count_symmetric(self, a, b):
        fwd = metrics.match(a, b, 0.02)
        rev = metrics.match(b, a, 0.02)
        assert fwd.n_hit == rev.n_hit
        assert fwd.n_hit <= min(len(a), len(b))

    @given(times_lists, times_lists)
    @settings(max_examples=100, deadline=None)
    def test_counts_echo_input_sizes(self, a, b):
        m = metrics.match(a, b, 0.02)
        assert (m.n_pred, m.n_ref) == (len(a), len(b))


class TestRates:
    def test_perfect(self):
        p, r, f1 = metrics.precision_recall_f1(metrics.MatchResult(5, 5, 5))
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_zero_predictions_reports_zero_precision(self):
        p, r, f1 = metrics.precision_recall_f1(metrics.MatchResult(0, 0, 4))
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_over_segmentation_undefined_at_zero_precision(self):
        assert metrics.over_segmentation(0.0, 0.0) is None
        assert metrics.over_segmentation(0.5, 1.0) == pytest.approx(1.0)

    def test_r_value_perfect(self):
        assert metrics.r_value(1.0, 0.0) == pytest.approx(1.0)

    def test_r_value_heavy_oversegmentation(self):
        # Recall 81.0 %, over-segmentation 421.4 %: a degenerate predictor
        # scores far below zero despite high recall.
        assert metrics.r_value(0.810, 4.214) == pytest.approx(-2.666, abs=0.001)

    def test_r_value_penalizes_os_at_equal_recall(self):
        assert metrics.r_value(0.9, 0.5) < metrics.r_value(0.9, 0.0)


class TestEvaluate:
    def test_identical_pred_and_ref_scores_one(self):
        pred = {"a": [0.1, 0.2], "b": [0.3]}
        report = metrics.evaluate(pred, pred)
        assert report.precision == report.recall == report.f1 == 1.0
        assert report.os == pytest.approx(0.0)
        assert report.r_value == pytest.approx(1.0)

    def test_pooled_counts(self):
        pred = {"a": [0.1], "b": [0.5, 0.9]}
        ref = {"a": [0.1], "b": [0.5, 0.7]}
        report = metrics.evaluate(pred, ref)
        assert (report.n_hit, report.n_pred, report.n_ref) == (2, 3, 3)
        assert report.n_utterances == 2

    def test_id_mismatch_lists_ids(self):
        with pytest.raises(ValueError, match=r"missing \['b'\].*unexpected \['c'\]"):
            metrics.evaluate({"a": [], "c": []}, {"a": [], "b": []})

    def test_unsorted_predictions_rejected(self):
        ref = {"a": [0.1, 0.5], "b": [0.3]}
        with pytest.raises(ValueError, match="predicted boundary times must be sorted"):
            metrics.evaluate({"a": [0.5, 0.1], "b": [0.3]}, ref)
        with pytest.raises(ValueError, match="predicted boundary times must be sorted"):
            metrics.evaluate({"a": [0.1, 0.5], "b": [0.4, 0.3]}, ref, durations={"a": 1.0, "b": 1.0})

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            metrics.evaluate({}, {})

    def test_edge_stripping_with_durations(self):
        # The final reference time sits at the utterance end and is excluded,
        # as is anything at time zero.
        pred = {"a": [0.0, 0.25, 1.0]}
        ref = {"a": [0.25, 0.5, 1.0]}
        report = metrics.evaluate(pred, ref, durations={"a": 1.0})
        assert (report.n_hit, report.n_pred, report.n_ref) == (1, 1, 2)

    def test_zero_predictions_gives_none_os_and_r_value(self):
        report = metrics.evaluate({"a": []}, {"a": [0.1, 0.2]})
        assert report.precision == 0.0
        assert report.os is None
        assert report.r_value is None


def _pooled_by_hand(pred, ref, tolerance, durations):
    """The corpus report built step by step from the public parts: edges
    stripped on both sides, one ``match`` per utterance, counts summed."""
    n_hit = n_pred = n_ref = 0
    for utt_id in ref:
        p, r = pred[utt_id], ref[utt_id]
        if durations is not None:
            p, r = metrics.strip_edges(p, durations[utt_id]), metrics.strip_edges(r, durations[utt_id])
        counts = metrics.match(p, r, tolerance)
        n_hit, n_pred, n_ref = n_hit + counts.n_hit, n_pred + counts.n_pred, n_ref + counts.n_ref
    precision, recall, f1 = metrics.precision_recall_f1(metrics.MatchResult(n_hit, n_pred, n_ref))
    os = metrics.over_segmentation(precision, recall)
    rv = None if os is None else metrics.r_value(recall, os)
    return metrics.EvalReport(precision, recall, f1, os, rv, n_hit, n_pred, n_ref, len(ref), tolerance)


def test_pooled_scores_equal_an_explicit_loop_at_every_threshold():
    # Times on a 10 ms grid, edges included, with scores that tie, so
    # several thresholds keep the same set; the top thresholds keep none.
    rng = np.random.default_rng(5)
    grid = tuple(i / 20 for i in range(12))
    seen_empty = 0
    for _ in range(20):
        scored, ref, durations = {}, {}, {}
        for u in range(int(rng.integers(1, 5))):
            n_frames = int(rng.integers(1, 60))
            frames = np.arange(n_frames + 1)
            times = np.sort(rng.choice(frames, size=int(rng.integers(0, n_frames + 2)), replace=False)) * 0.01
            scored[f"u{u}"] = times, np.round(0.5 * rng.random(times.size), 1)
            n_ref = int(rng.integers(0, 10))
            jittered = rng.choice(frames, size=n_ref) * 0.01 + rng.uniform(-0.012, 0.012, n_ref)
            ref[f"u{u}"] = np.sort(jittered).clip(0.0, n_frames * 0.01)
            durations[f"u{u}"] = n_frames * 0.01
        for tolerance in (0.010, 0.020):
            for durs in (None, durations):
                rows = metrics.evaluate_grid(scored, ref, grid, tolerance, durs)
                expected = [_pooled_by_hand({k: t[s >= g] for k, (t, s) in scored.items()}, ref, tolerance, durs) for g in grid]
                assert rows == expected
                pred = {k: t for k, (t, _) in scored.items()}
                assert metrics.evaluate(pred, ref, tolerance, durs) == _pooled_by_hand(pred, ref, tolerance, durs)
                seen_empty += rows[-1].n_pred == 0
    assert seen_empty


class TestBaselines:
    def test_periodic_interior_only(self):
        times = metrics.periodic_boundaries(0.200, period=0.040)
        np.testing.assert_allclose(times, [0.04, 0.08, 0.12, 0.16])

    def test_periodic_excludes_endpoint(self):
        times = metrics.periodic_boundaries(0.120, period=0.040)
        np.testing.assert_allclose(times, [0.04, 0.08])

    def test_random_count_matched(self):
        rng = np.random.default_rng(0)
        times = metrics.random_boundaries(2.0, 7, rng)
        assert times.shape == (7,)
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0 and times.max() <= 2.0

    def test_periodic_predictor_has_high_recall_low_r_value(self):
        # References every 95 ms; a 40 ms grid almost always lands within
        # tolerance of each reference but triples the boundary count.
        ref = {"u": list(np.arange(1, 20) * 0.095)}
        pred = {"u": list(metrics.periodic_boundaries(1.9, 0.040))}
        report = metrics.evaluate(pred, ref)
        assert report.recall > 0.8
        assert report.r_value < metrics.r_value(report.recall, 0.0) - 0.5


class TestFormatting:
    def test_percent_one_decimal(self):
        report = metrics.evaluate({"a": [0.1, 0.2]}, {"a": [0.1, 0.2]})
        text = metrics.format_report(report, label="phoneme")
        assert "100.0" in text
        assert "phoneme" in text

    def test_none_rendered_as_na(self):
        report = metrics.evaluate({"a": []}, {"a": [0.1]})
        assert "n/a" in metrics.format_report(report)
