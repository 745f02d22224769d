"""Boundary-detection math: hand-worked cases, brute-force oracles, gradients."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import numeric_grad, rel_err

from scpc import boundary
from scpc import diffcore as dc


def unit_rows_with_cosines(cosines):
    """Rows on the unit circle whose consecutive cosine similarities are given."""
    angles = np.concatenate([[0.0], np.cumsum([np.arccos(c) for c in cosines])])
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def peak_oracle(d, thres):
    """Transcription of the two-scale peak rule, one junction at a time."""
    n = d.size
    get = lambda i: d[i] if 0 <= i < n else 0.0
    p1 = np.empty(n)
    p2 = np.empty(n)
    p = np.empty(n)
    for t in range(n):
        p1[t] = min(max(d[t] - get(t - 1), 0.0), max(d[t] - get(t + 1), 0.0))
        p2[t] = min(max(d[t] - get(t - 2), 0.0), max(d[t] - get(t + 2), 0.0))
        p[t] = min(max(max(p1[t], p2[t]) - thres, 0.0), p1[t])
    return p1, p2, p


def means_oracle(z, hard):
    """Per-segment frame means via explicit python slicing."""
    cuts = list(np.flatnonzero(hard) + 1)
    starts = [0] + cuts
    ends = cuts + [len(z)]
    return np.stack([z[s:e].mean(axis=0) for s, e in zip(starts, ends)])


class TestDissimilarity:
    def test_normalization_maps_extremes(self):
        tape = dc.Tape()
        z = tape.tensor(unit_rows_with_cosines([0.9, 0.1, 0.9]))
        sim, dissim = boundary.dissimilarity(tape, z)
        np.testing.assert_allclose(sim.data, [0.9, 0.1, 0.9], atol=1e-12)
        np.testing.assert_allclose(dissim.data, [0.0, 1.0, 0.0], atol=1e-7)

    def test_normalization_linear(self):
        tape = dc.Tape()
        z = tape.tensor(unit_rows_with_cosines([0.0, 0.5, 1.0 - 1e-12]))
        _, dissim = boundary.dissimilarity(tape, z)
        np.testing.assert_allclose(dissim.data, [1.0, 0.5, 0.0], atol=1e-6)

    def test_degenerate_constant_similarity(self):
        tape = dc.Tape()
        z = tape.tensor(np.tile([1.0, 2.0], (5, 1)))
        _, dissim = boundary.dissimilarity(tape, z)
        np.testing.assert_array_equal(dissim.data, np.zeros(4))
        assert not dissim.requires_grad

    def test_range_bounds(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            tape = dc.Tape()
            z = tape.tensor(rng.standard_normal((12, 5)) + 0.1)
            _, dissim = boundary.dissimilarity(tape, z)
            assert dissim.data.min() >= -1e-7
            assert dissim.data.max() <= 1.0 + 1e-7

    def test_needs_two_frames(self):
        tape = dc.Tape()
        z = tape.tensor(np.ones((1, 4)))
        with pytest.raises(ValueError, match="at least 2"):
            boundary.dissimilarity(tape, z)

    def test_gradient_matches_finite_differences(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            z0 = rng.standard_normal((6, 4)) + 0.2
            w = rng.standard_normal(5)

            def f(arrs):
                t = dc.Tape()
                _, dis = boundary.dissimilarity(t, t.tensor(arrs[0]))
                return float((dis.data * w).mean())

            tape = dc.Tape()
            z = tape.tensor(z0, requires_grad=True)
            _, dissim = boundary.dissimilarity(tape, z)
            tape.backward(dc.mean_axis(dc.mul(dissim, tape.constant(w))))
            err = rel_err(z.grad, numeric_grad(f, [z0])[0])
            assert err <= 1e-4, f"seed {seed}: rel err {err:.2e}"


class TestPeakScores:
    def test_hand_case_single_sharp_peak(self):
        tape = dc.Tape()
        d = tape.tensor(np.array([0.0, 0.2, 1.0, 0.1, 0.0]))
        narrow, wide, final = boundary.peak_scores(tape, d, thres=0.05)
        np.testing.assert_allclose(narrow.data, [0.0, 0.0, 0.8, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(final.data, [0.0, 0.0, 0.8, 0.0, 0.0], atol=1e-12)

    def test_hand_case_isolated_spike(self):
        tape = dc.Tape()
        d = tape.tensor(np.array([0.0, 1.0, 0.0]))
        _, _, final = boundary.peak_scores(tape, d, thres=0.05)
        np.testing.assert_allclose(final.data, [0.0, 0.95, 0.0], atol=1e-12)

    def test_matches_oracle_exactly(self):
        rng = np.random.default_rng(42)
        for case in range(1000):
            n = int(rng.integers(1, 40))
            d = rng.uniform(0.0, 1.0, n)
            thres = float(rng.choice([0.0, 0.05, 0.3]))
            tape = dc.Tape()
            narrow, wide, final = boundary.peak_scores(tape, tape.tensor(d), thres)
            o1, o2, op = peak_oracle(d, thres)
            np.testing.assert_array_equal(narrow.data, o1, err_msg=f"case {case}")
            np.testing.assert_array_equal(wide.data, o2, err_msg=f"case {case}")
            np.testing.assert_array_equal(final.data, op, err_msg=f"case {case}")

    def test_score_positive_requires_narrow_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = rng.uniform(0, 1, int(rng.integers(2, 30)))
            tape = dc.Tape()
            narrow, _, final = boundary.peak_scores(tape, tape.tensor(d), 0.05)
            assert np.all(final.data >= 0)
            assert np.all(narrow.data[final.data > 0] > 0)

    def test_monotone_dissimilarity_has_no_peaks(self):
        tape = dc.Tape()
        d = tape.tensor(np.linspace(0, 1, 8))
        _, _, final = boundary.peak_scores(tape, d, 0.0)
        # The last junction beats its left neighbor but has no strict right
        # drop inside the range; the zero padding beyond the end lets it score.
        assert np.all(final.data[:-1] == 0)

    def test_bad_thres_rejected(self):
        tape = dc.Tape()
        d = tape.tensor(np.zeros(3))
        with pytest.raises(ValueError, match="thres"):
            boundary.peak_scores(tape, d, -0.1)


class TestStraightThrough:
    def test_forward_equals_hard(self):
        tape = dc.Tape()
        p = tape.tensor(np.array([0.0, 0.001, 0.005, 0.05, 0.8]))
        soft, hard, ind = boundary.boundary_indicators(tape, p)
        np.testing.assert_array_equal(ind.data, np.tanh(1000.0 * p.data))
        assert ind.data[0] == 0.0
        assert ind.data[2] >= 0.9999
        assert ind.data[4] >= 1.0 - 1e-12

    def test_values_bounded(self):
        tape = dc.Tape()
        p = tape.tensor(np.linspace(0, 1, 50))
        _, _, ind = boundary.boundary_indicators(tape, p)
        assert np.all(ind.data >= 0.0)
        assert np.all(ind.data <= 1.0)

    def test_backward_follows_soft_path(self):
        p0 = np.array([0.0, 0.01, 0.1, 0.8])
        w = np.array([1.0, 1.0, 1.0, 1.0])
        tape = dc.Tape()
        p = tape.tensor(p0, requires_grad=True)
        _, _, ind = boundary.boundary_indicators(tape, p)
        tape.backward(dc.mean_axis(dc.mul(ind, tape.constant(w))))   # each junction weighs 1/4
        expected = 10.0 * (1.0 - np.tanh(10.0 * p0) ** 2) / 4
        np.testing.assert_allclose(p.grad, expected, rtol=1e-12)
        assert p.grad[3] == pytest.approx(4.5014e-6 / 4, rel=1e-3)

        def f(arrs):
            t = dc.Tape()
            soft = dc.tanh(t.tensor(arrs[0]) * boundary.SOFT_SLOPE)
            return float((soft.data * w).mean())

        err = rel_err(p.grad, numeric_grad(f, [p0])[0])
        assert err <= 1e-4


def pooled_weights(tape, indicator, n_segments):
    """The tent weights of ``dc.segment_pool``, (n_segments, n_frames): pooled
    one-hot frames make row j of the means segment j's weight per frame."""
    eye = tape.constant(np.eye(indicator.shape[0] + 1, dtype=indicator.dtype))
    return dc.segment_pool(eye, indicator, n_segments)


def dense_tent_indicator_grad(z, indicator, n_segments, g):
    """d sum(means * g) / d indicator through a dense (L, M) tent matrix,
    worked by hand in numpy; relu and abs take the zero branch at kinks."""
    c = np.concatenate([[0.0], np.cumsum(indicator)])
    u = c[:, None] - np.arange(n_segments)
    pre = 1.0 - np.abs(u)
    tent = np.maximum(pre, 0.0)
    s = tent.sum(axis=0) + 1e-8
    dw = z @ g.T                                   # d loss / d weight[t, j]
    dtent = dw / s - (dw * tent).sum(axis=0) / s**2
    dc_ = (-np.sign(u) * (pre > 0) * dtent).sum(axis=1)
    return np.cumsum(dc_[:0:-1])[::-1]


class TestSegmentWeights:
    """The tent weights behind ``dc.segment_pool``, read through its means."""

    def test_hand_case_two_segments(self):
        tape = dc.Tape()
        b = tape.tensor(np.array([0.0, 0.0, 0.0, 1.0, 0.0]))
        assert boundary._spans_from_hard(b.data, 6) == ((0, 4), (4, 6))
        weights = pooled_weights(tape, b, 2).data
        np.testing.assert_allclose(weights[0], [0.25, 0.25, 0.25, 0.25, 0.0, 0.0], atol=1e-7)
        np.testing.assert_allclose(weights[1], [0.0, 0.0, 0.0, 0.0, 0.5, 0.5], atol=1e-7)

    def test_hand_case_means(self):
        tape = dc.Tape()
        z = tape.tensor(np.array([[1.0], [1.0], [1.0], [1.0], [5.0], [7.0]]))
        b = tape.tensor(np.array([0.0, 0.0, 0.0, 1.0, 0.0]))
        means = dc.segment_pool(z, b, 2)
        np.testing.assert_allclose(means.data, [[1.0], [6.0]], atol=1e-6)

    def test_all_boundaries_gives_identity(self):
        tape = dc.Tape()
        b = tape.tensor(np.array([1.0, 1.0]))
        assert boundary._spans_from_hard(b.data, 3) == ((0, 1), (1, 2), (2, 3))
        np.testing.assert_allclose(pooled_weights(tape, b, 3).data, np.eye(3), atol=1e-7)

    def test_matches_means_oracle(self):
        rng = np.random.default_rng(11)
        for case in range(200):
            n = int(rng.integers(2, 25))
            hard = (rng.random(n - 1) < 0.3).astype(np.float64)
            z0 = rng.standard_normal((n, 4))
            tape = dc.Tape()
            means = dc.segment_pool(tape.tensor(z0), tape.tensor(hard), len(boundary._spans_from_hard(hard, n)))
            np.testing.assert_allclose(means.data, means_oracle(z0, hard), atol=1e-6, err_msg=f"case {case}")

    def test_hard_weight_matrix_properties(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 25))
            hard = (rng.random(n - 1) < 0.3).astype(np.float64)
            spans = boundary._spans_from_hard(hard, n)
            tape = dc.Tape()
            w = pooled_weights(tape, tape.tensor(hard), len(spans)).data.T
            np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-6)
            assert np.all((w > 0).sum(axis=1) == 1)  # each frame in exactly one segment
            for j, (s, e) in enumerate(spans):
                np.testing.assert_allclose(w[s:e, j], 1.0 / (e - s), atol=1e-7)

    def test_gradient_through_soft_indicators(self):
        b0 = np.array([0.6, 0.7])
        rng = np.random.default_rng(5)
        w_loss = rng.standard_normal((3, 3))

        def f(arrs):
            t = dc.Tape()
            return float((pooled_weights(t, t.tensor(arrs[0]), 3).data * w_loss).mean())

        tape = dc.Tape()
        b = tape.tensor(b0, requires_grad=True)
        weights = pooled_weights(tape, b, 3)
        tape.backward(dc.mean_axis(dc.mul(weights, tape.constant(w_loss))))
        err = rel_err(b.grad, numeric_grad(f, [b0])[0])
        assert err <= 1e-4

    def test_integer_coordinates_match_dense_tent_gradient(self):
        # Quarter steps make many running sums exact integers, where the
        # tent's kinks are; there the zero branch passes no gradient.
        rng = np.random.default_rng(17)
        n_zero = 0
        for case in range(100):
            n = int(rng.integers(2, 30))
            ind = rng.choice([0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.0], n - 1)
            m = max(1, int(ind.sum()) + int(rng.integers(-1, 3)))
            z = rng.standard_normal((n, 3))
            g = rng.standard_normal((m, 3))
            tape = dc.Tape()
            b = tape.tensor(ind, requires_grad=True)
            means = dc.segment_pool(tape.tensor(z), b, m)
            tape.backward(dc.mean_axis(dc.mul(means, tape.constant(g * g.size)), axis=None))
            np.testing.assert_allclose(b.grad, dense_tent_indicator_grad(z, ind, m, g), rtol=0, atol=1e-12, err_msg=f"case {case}")
            n_zero += int(np.sum(b.grad == 0))
        assert n_zero > 0

    def test_shape_mismatch_rejected(self):
        tape = dc.Tape()
        with pytest.raises(ValueError, match="does not match"):
            dc.segment_pool(tape.tensor(np.zeros((4, 1))), tape.tensor(np.zeros(4)), 4)


class TestDetectSegments:
    def test_pipeline_consistency(self):
        rng = np.random.default_rng(21)
        tape = dc.Tape()
        z = tape.tensor(rng.standard_normal((30, 8)).astype(np.float32) + 0.1, requires_grad=True)
        graph = boundary.detect_segments(tape, z, thres=0.05)
        n_seg = graph.n_segments
        assert graph.means.shape == (n_seg, 8)
        assert graph.spans[0][0] == 0 and graph.spans[-1][1] == 30
        for (a, b), (c, d) in zip(graph.spans, graph.spans[1:]):
            assert b == c

    def test_segment_branch_gradient_reaches_frames(self):
        rng = np.random.default_rng(22)
        tape = dc.Tape()
        z = tape.tensor(rng.standard_normal((30, 8)).astype(np.float32) + 0.1, requires_grad=True)
        graph = boundary.detect_segments(tape, z, thres=0.05)
        tape.backward(dc.mean_axis(graph.means, axis=None))
        assert z.grad is not None
        assert np.abs(z.grad).max() > 0
