"""Boundary-detection math: hand-worked cases, brute-force oracles, gradients."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from helpers import mean_grad, numeric_grad, rel_err

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


def junction_sim(z):
    """Cosine similarity of adjacent rows of ``z``, as the pipeline computes it."""
    return dc.cosine(z[:-1], z[1:])[0]


def soft_loss(sim, w, thres):
    """mean(w * tanh(10 * final)) of the peak scores of ``sim``: the function
    whose gradient the straight-through op passes back."""
    final = boundary.peak_scores(boundary.dissimilarity(sim), thres)[2]
    return float((w * np.tanh(boundary.SOFT_SLOPE * final)).mean())


def indicator_grad(sim0, w, thres):
    """d mean(w * indicator) / d sim through the op's straight-through stage."""
    return boundary._straight_through(sim0, thres)[2](w / w.size)


def indicator_grad_oracle(sim, w, thres, flip=()):
    """d soft_loss / d sim from a dense Jacobian per stage, each kink resolved
    by the documented rule: minimum and maximum ties go to the first
    argument, relu takes the zero branch, and the normalization's min and
    max take their first occurrence.  ``flip`` names rules to invert
    ("lo", "hi", "rise", "best", "final"), to show that a case tells them apart.
    """
    n = sim.size
    eye = np.eye(n)
    i_lo = n - 1 - np.argmin(sim[::-1]) if "lo" in flip else np.argmin(sim)
    i_hi = n - 1 - np.argmax(sim[::-1]) if "hi" in flip else np.argmax(sim)
    lo, span = sim[i_lo], sim[i_hi] - sim[i_lo]
    d = 1 - (sim - lo) / span
    j_d = -((eye - eye[i_lo]) / span - np.outer(sim - lo, eye[i_hi] - eye[i_lo]) / span**2)
    rises = {}
    for off in (-1, +1, -2, +2):
        shift = np.eye(n, k=off)   # (shift @ d)[t] = d[t + off], zero beyond the ends
        pre = d - shift @ d
        rises[off] = (np.maximum(pre, 0), (pre > 0)[:, None] * ((eye - shift) @ j_d))

    def minimum(k):   # min(rise(-k), rise(+k)) and its Jacobian
        (a, j_a), (b, j_b) = rises[-k], rises[k]
        take = a < b if "rise" in flip else a <= b
        return np.minimum(a, b), np.where(take[:, None], j_a, j_b)

    (narrow, j_narrow), (wide, j_wide) = minimum(1), minimum(2)
    take = narrow > wide if "best" in flip else narrow >= wide
    over = np.maximum(narrow, wide) - thres
    j_rb = (over > 0)[:, None] * np.where(take[:, None], j_narrow, j_wide)
    rb = np.maximum(over, 0)
    take = rb < narrow if "final" in flip else rb <= narrow
    final = np.minimum(rb, narrow)
    j_final = np.where(take[:, None], j_rb, j_narrow)
    return j_final.T @ (w * boundary.SOFT_SLOPE * (1 - np.tanh(boundary.SOFT_SLOPE * final) ** 2) / n)


class TestDissimilarity:
    def test_normalization_maps_extremes(self):
        sim = junction_sim(unit_rows_with_cosines([0.9, 0.1, 0.9]))
        dissim = boundary.dissimilarity(sim)
        np.testing.assert_allclose(sim, [0.9, 0.1, 0.9], atol=1e-12)
        np.testing.assert_allclose(dissim, [0.0, 1.0, 0.0], atol=1e-7)

    def test_normalization_linear(self):
        dissim = boundary.dissimilarity(junction_sim(unit_rows_with_cosines([0.0, 0.5, 1.0 - 1e-12])))
        np.testing.assert_allclose(dissim, [1.0, 0.5, 0.0], atol=1e-6)

    def test_degenerate_constant_similarity(self):
        frames = np.tile([1.0, 2.0], (5, 1))
        np.testing.assert_array_equal(boundary.dissimilarity(junction_sim(frames)), np.zeros(4))
        dissim, indicator, vjp = boundary.boundary_indicator(frames, 0.09)
        np.testing.assert_array_equal(dissim, np.zeros(4))
        np.testing.assert_array_equal(indicator, np.zeros(4))
        assert vjp is None
        tape = dc.Tape()
        boundary.detect_segments(frames, 0.09, tape)
        assert [writes for _, writes, _ in tape._stages] == ["means"]   # no boundary stage

    def test_range_bounds(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            dissim = boundary.dissimilarity(junction_sim(rng.standard_normal((12, 5)) + 0.1))
            assert dissim.min() >= -1e-7
            assert dissim.max() <= 1.0 + 1e-7

    def test_needs_two_frames(self):
        with pytest.raises(ValueError, match="at least 2"):
            boundary.detect_segments(np.ones((1, 4)), 0.09)

    def test_gradient_matches_finite_differences(self):
        # The op over frames (junction cosine and straight-through stage, one
        # vjp), against finite differences of the soft path
        # mean(w * tanh(10 * final)) of the frames' junction similarities.
        for seed, thres in itertools.product(range(30), (0.0, 0.09)):
            rng = np.random.default_rng(seed)
            z0 = rng.standard_normal((8, 4)) + 0.2
            w = rng.standard_normal(7)

            def f(arrs):
                return soft_loss(junction_sim(arrs[0]), w, thres)

            _, indicator, vjp = boundary.boundary_indicator(z0, thres)
            g_b, g_a = vjp(mean_grad(indicator, w))
            err = rel_err(g_b + g_a, numeric_grad(f, [z0])[0])
            assert err <= 1e-4, f"seed {seed}: rel err {err:.2e}"


class TestPeakScores:
    def test_hand_case_single_sharp_peak(self):
        d = np.array([0.0, 0.2, 1.0, 0.1, 0.0])
        narrow, wide, final = boundary.peak_scores(d, thres=0.05)
        np.testing.assert_allclose(narrow, [0.0, 0.0, 0.8, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(final, [0.0, 0.0, 0.8, 0.0, 0.0], atol=1e-12)

    def test_hand_case_isolated_spike(self):
        _, _, final = boundary.peak_scores(np.array([0.0, 1.0, 0.0]), thres=0.05)
        np.testing.assert_allclose(final, [0.0, 0.95, 0.0], atol=1e-12)

    def test_matches_oracle_exactly(self):
        rng = np.random.default_rng(42)
        for case in range(1000):
            n = int(rng.integers(1, 40))
            d = rng.uniform(0.0, 1.0, n)
            thres = float(rng.choice([0.0, 0.05, 0.3]))
            narrow, wide, final = boundary.peak_scores(d, thres)
            o1, o2, op = peak_oracle(d, thres)
            np.testing.assert_array_equal(narrow, o1, err_msg=f"case {case}")
            np.testing.assert_array_equal(wide, o2, err_msg=f"case {case}")
            np.testing.assert_array_equal(final, op, err_msg=f"case {case}")

    def test_score_positive_requires_narrow_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = rng.uniform(0, 1, int(rng.integers(2, 30)))
            narrow, _, final = boundary.peak_scores(d, 0.05)
            assert np.all(final >= 0)
            assert np.all(narrow[final > 0] > 0)

    def test_monotone_dissimilarity_has_no_peaks(self):
        _, _, final = boundary.peak_scores(np.linspace(0, 1, 8), 0.0)
        # The last junction beats its left neighbor but has no strict right
        # drop inside the range; the zero padding beyond the end lets it score.
        assert np.all(final[:-1] == 0)

    def test_bad_thres_rejected(self):
        with pytest.raises(ValueError, match="thres"):
            boundary.peak_scores(np.zeros(3), -0.1)


def tie_case(d):
    """Similarities whose dissimilarity is exactly ``d`` (which holds a 0 and a 1)."""
    d = np.asarray(d, dtype=np.float64)
    sim = 1.0 - d
    np.testing.assert_array_equal(boundary.dissimilarity(sim), d)
    return sim


# d, thres, the rule each case ties and the junction its loss reads; each
# case needs the rule to get that junction's gradient right.
TIE_CASES = {
    # junction 2: rise(-1) = rise(+1) = 0.5, and the final score is the narrow one
    "equal-rises": ([0.0, 0.5, 1.0, 0.5, 0.25], 0.09, "rise", 2),
    # junction 2: narrow = wide = 0.5, and the final score is relu(best - thres)
    "narrow-equals-wide": ([0.0, 0.5, 1.0, 0.25, 0.5], 0.09, "best", 2),
    # junction 2: narrow 0.5 < wide 0.625, and relu(wide - 0.125) = 0.5 = narrow
    "relu-equals-narrow": ([0.0, 0.5, 1.0, 0.375, 0.375, 0.75], 0.125, "final", 2),
    # the minimum similarity (dissimilarity 1) at junctions 1 and 3
    "tied-min": ([0.0, 1.0, 0.5, 1.0, 0.25], 0.09, "lo", 1),
    # the maximum similarity (dissimilarity 0) at junctions 0 and 4
    "tied-max": ([0.0, 0.5, 1.0, 0.25, 0.0], 0.09, "hi", 2),
}


class TestStraightThrough:
    def test_forward_equals_hard(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            frames = rng.standard_normal((13, 4))
            dissim, ind, _ = boundary.boundary_indicator(frames, 0.05)
            final = boundary.peak_scores(dissim, 0.05)[2]
            np.testing.assert_array_equal(dissim, boundary.dissimilarity(junction_sim(frames)))
            np.testing.assert_array_equal(ind, np.tanh(boundary.HARD_SLOPE * final))
        hard = np.tanh(boundary.HARD_SLOPE * np.array([0.0, 0.001, 0.005, 0.05, 0.8]))
        assert hard[0] == 0.0
        assert hard[2] >= 0.9999
        assert hard[4] >= 1.0 - 1e-12

    def test_values_bounded(self):
        rng = np.random.default_rng(4)
        for thres in np.linspace(0, 1, 11):
            _, ind, _ = boundary.boundary_indicator(rng.standard_normal((51, 4)), float(thres))
            assert np.all(ind >= 0.0)
            assert np.all(ind <= 1.0)

    def test_backward_follows_soft_path(self):
        # Kink-free similarities: the op's gradient is that of the soft path.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            sim0 = rng.uniform(-1, 1, 9)
            w = rng.standard_normal(9)
            grad = indicator_grad(sim0, w, 0.05)
            np.testing.assert_allclose(grad, indicator_grad_oracle(sim0, w, 0.05), rtol=1e-12, atol=1e-15)
            err = rel_err(grad, numeric_grad(lambda arrs: soft_loss(arrs[0], w, 0.05), [sim0.copy()])[0])
            assert err <= 1e-4, f"seed {seed}: rel err {err:.2e}"

    @pytest.mark.parametrize("case", sorted(TIE_CASES))
    def test_tie_follows_convention(self, case):
        d, thres, rule, junction = TIE_CASES[case]
        sim = tie_case(d)
        w = np.eye(sim.size)[junction]
        grad = indicator_grad(sim, w, thres)
        np.testing.assert_allclose(grad, indicator_grad_oracle(sim, w, thres), rtol=1e-12, atol=1e-15)
        flipped = indicator_grad_oracle(sim, w, thres, flip=(rule,))
        assert np.abs(flipped - grad).max() > 0.1 * np.abs(grad).max()


def pooled_weights(indicator, n_segments):
    """The tent weights of ``dc.segment_pool``, (n_segments, n_frames), and
    their vjp: pooled one-hot frames make row j of the means segment j's
    weight per frame."""
    return dc.segment_pool(np.eye(indicator.shape[0] + 1, dtype=indicator.dtype), indicator, n_segments)


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
        b = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
        assert boundary._spans_from_hard(b, 6) == ((0, 4), (4, 6))
        weights, _ = pooled_weights(b, 2)
        np.testing.assert_allclose(weights[0], [0.25, 0.25, 0.25, 0.25, 0.0, 0.0], atol=1e-7)
        np.testing.assert_allclose(weights[1], [0.0, 0.0, 0.0, 0.0, 0.5, 0.5], atol=1e-7)

    def test_hand_case_means(self):
        z = np.array([[1.0], [1.0], [1.0], [1.0], [5.0], [7.0]])
        means, _ = dc.segment_pool(z, np.array([0.0, 0.0, 0.0, 1.0, 0.0]), 2)
        np.testing.assert_allclose(means, [[1.0], [6.0]], atol=1e-6)

    def test_all_boundaries_gives_identity(self):
        b = np.array([1.0, 1.0])
        assert boundary._spans_from_hard(b, 3) == ((0, 1), (1, 2), (2, 3))
        np.testing.assert_allclose(pooled_weights(b, 3)[0], np.eye(3), atol=1e-7)

    def test_matches_means_oracle(self):
        rng = np.random.default_rng(11)
        for case in range(200):
            n = int(rng.integers(2, 25))
            hard = (rng.random(n - 1) < 0.3).astype(np.float64)
            z0 = rng.standard_normal((n, 4))
            means, _ = dc.segment_pool(z0, hard, len(boundary._spans_from_hard(hard, n)))
            np.testing.assert_allclose(means, means_oracle(z0, hard), atol=1e-6, err_msg=f"case {case}")

    def test_hard_weight_matrix_properties(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 25))
            hard = (rng.random(n - 1) < 0.3).astype(np.float64)
            spans = boundary._spans_from_hard(hard, n)
            w = pooled_weights(hard, len(spans))[0].T
            np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-6)
            assert np.all((w > 0).sum(axis=1) == 1)  # each frame in exactly one segment
            for j, (s, e) in enumerate(spans):
                np.testing.assert_allclose(w[s:e, j], 1.0 / (e - s), atol=1e-7)

    def test_gradient_through_soft_indicators(self):
        b0 = np.array([0.6, 0.7])
        rng = np.random.default_rng(5)
        w_loss = rng.standard_normal((3, 3))

        def f(arrs):
            return float((pooled_weights(arrs[0], 3)[0] * w_loss).mean())

        weights, vjp = pooled_weights(b0, 3)
        _, g_b = vjp(mean_grad(weights, w_loss))
        err = rel_err(g_b, numeric_grad(f, [b0])[0])
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
            means, vjp = dc.segment_pool(z, ind, m)
            _, g_b = vjp(mean_grad(means, g * g.size))
            np.testing.assert_allclose(g_b, dense_tent_indicator_grad(z, ind, m, g), rtol=0, atol=1e-12, err_msg=f"case {case}")
            n_zero += int(np.sum(g_b == 0))
        assert n_zero > 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            dc.segment_pool(np.zeros((4, 1)), np.zeros(4), 4)


class TestDetectSegments:
    def test_pipeline_consistency(self):
        rng = np.random.default_rng(21)
        graph = boundary.detect_segments(rng.standard_normal((30, 8)).astype(np.float32) + 0.1, thres=0.05)
        n_seg = graph.n_segments
        assert graph.means.shape == (n_seg, 8)
        assert graph.spans[0][0] == 0 and graph.spans[-1][1] == 30
        for (a, b), (c, d) in zip(graph.spans, graph.spans[1:]):
            assert b == c

    def test_segment_branch_gradient_reaches_frames(self):
        rng = np.random.default_rng(22)
        tape = dc.Tape()
        graph = boundary.detect_segments(rng.standard_normal((30, 8)).astype(np.float32) + 0.1, 0.05, tape)
        assert [stage[:2] for stage in tape._stages] == [(("frames", "frames"), "indicator"), (("frames", "indicator"), "means")]
        tape.record(("means",), "loss", lambda g: (g * mean_grad(graph.means, np.float32(1)),))
        g_frames = tape.backward(np.float32(0))["frames"]
        assert np.abs(g_frames).max() > 0
