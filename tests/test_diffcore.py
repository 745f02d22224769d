"""Gradient checks for the array ops and contract checks for the tape.

Every op's vjp is validated against central finite differences in float64
at 100 random points, sampled away from subgradient kinks.
"""

from __future__ import annotations

import ast
import dataclasses
import gc
import importlib
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from helpers import mean_grad, numeric_grad, only_stage, rel_err, weighted_mean

from scpc import audio, boundary, infer, model, parallel
from scpc import diffcore as dc
from scpc import objective as obj

GRAD_TOL = 1e-4
N_POINTS = 100


def run_gradcheck(build, n_points=N_POINTS, tol=GRAD_TOL):
    """Compare an op's vjp on a weighted-sum loss against finite differences.

    ``build(rng)`` returns ``(arrays, apply)`` where ``apply(arrays)`` runs
    the op and returns its ``(output, vjp)``; the vjp's gradients come in
    the order of ``arrays``.  The loss is mean(output * w) for a fixed
    random weight array, which exercises every output coordinate.
    """
    for seed in range(n_points):
        rng = np.random.default_rng(seed)
        arrays, apply = build(rng)
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        out, vjp = apply(arrays)
        w = rng.standard_normal(out.shape)
        grads = vjp(mean_grad(out, w))
        numeric = numeric_grad(lambda arrs: float((apply(arrs)[0] * w).mean()), arrays)
        assert len(grads) == len(arrays)
        for g, num in zip(grads, numeric):
            assert g is not None
            err = rel_err(g, num)
            assert err <= tol, f"seed {seed}: gradient mismatch (rel err {err:.2e})"


def tent_case(rng, n=7, d=3, steps=(0, 1), spare=1):
    """Frames (n, d) and an indicator (n - 1,) for ``segment_pool``, plus a
    segment count.

    The running sums of the indicator take integer steps drawn from
    ``steps`` plus a fractional part in [0.1, 0.9], so every coordinate is
    clear of the tent's kinks.  The segment count is floor(max coordinate)
    + ``spare``: 2 keeps every touched column, less drops the top ones.
    """
    coord = np.cumsum(rng.choice(steps, n - 1)) + rng.uniform(0.1, 0.9, n - 1)
    n_segments = max(1, int(np.floor(coord.max())) + spare)
    return [rng.standard_normal((n, d)), np.diff(coord, prepend=0.0)], n_segments


def scan_case(rng, n=5, d=3, q=4):
    """Inputs (x, w_in, w_h, b) for ``tanh_scan``."""
    return [rng.standard_normal((n, d)), 0.5 * rng.standard_normal((d, q)),
            0.5 * rng.standard_normal((q, q)), 0.5 * rng.standard_normal(q)]


def scan_loop(x, w_in, w_h, b, g):
    """The recurrence and the gradients of sum(h * g), one row at a time in
    numpy: a forward loop over the rows, then a reverse loop that carries
    the gradient of each state into the one before it."""
    n, q = x.shape[0], w_h.shape[0]
    h = np.zeros((n + 1, q), x.dtype)   # h[i + 1] is h_i; h[0] is h_{-1} = 0
    for i in range(n):
        h[i + 1] = np.tanh(x[i] @ w_in + h[i] @ w_h + b)
    grads = [np.zeros_like(a) for a in (x, w_in, w_h, b)]
    carry = np.zeros(q, x.dtype)
    for i in range(n - 1, -1, -1):
        dpre = (g[i] + carry) * (1 - h[i + 1] * h[i + 1])
        grads[0][i] = w_in @ dpre
        grads[1] += np.outer(x[i], dpre)
        grads[2] += np.outer(h[i], dpre)
        grads[3] += dpre
        carry = w_h @ dpre
    return [h[1:]] + grads


class TestElementwiseGrads:
    def test_add_passes_no_gradient_to_a_constant(self, monkeypatch):
        # The LATENT_EPS shift adds a number, not an input: it records no
        # stage, and the last conv layer's stage writes "frames" itself,
        # as the shift's vjp would pass the gradient through unchanged.
        net = model.SCPCModel.init(model.ModelConfig(frame_dim=4, segment_dim=4), seed=0)
        outputs = []
        real_conv1d = dc.conv1d

        def spy(*args, **kwargs):
            outputs.append(real_conv1d(*args, **kwargs)[0])
            return outputs[-1], lambda g: (None, None, None)

        monkeypatch.setattr(dc, "conv1d", spy)
        tape = dc.Tape()
        out = model.frame_latents(net.params, np.zeros(1000, np.float32), tape=tape)
        assert [(reads, writes) for reads, writes, _ in tape._stages] == [
            (("samples" if i == 0 else f"conv{i - 1}", f"frame_conv{i}_w", f"frame_conv{i}_b"),
             "frames" if i == len(model.KERNELS) - 1 else f"conv{i}") for i in range(len(model.KERNELS))]
        np.testing.assert_array_equal(out, outputs[-1] + np.float32(model.LATENT_EPS))


class TestLinalgGrads:
    def test_narrow(self):
        # The boundary op reads the frames twice, as rows 1 .. L-1 and rows
        # 0 .. L-2 of the junction cosine; its vjp returns one zero-padded
        # (L, d) term per read, the rows 1 .. L-1 term first, which the tape
        # adds in that order.
        rng = np.random.default_rng(0)
        f = rng.standard_normal((6, 3))
        g = rng.standard_normal(5)
        _, _, vjp = boundary.boundary_indicator(f, 0.0)
        g_b, g_a = vjp(g)
        assert g_b.shape == g_a.shape == f.shape
        assert not g_b[0].any() and not g_a[-1].any()
        tape = dc.Tape()
        tape.record(("x", "x"), "loss", lambda one: vjp(one * g))
        np.testing.assert_array_equal(tape.backward(np.float64(0))["x"], g_b + g_a)


def conv_reference(x, w, b, stride):
    """Direct-loop pre-activation conv + bias in (t, c) layout."""
    c_out, _, k = w.shape
    t_out = 1 + (x.shape[0] - k) // stride
    out = np.empty((t_out, c_out))
    for i in range(t_out):
        out[i] = np.einsum("jc,ocj->o", x[i * stride : i * stride + k], w) + b
    return out


def conv_case(rng, stride, t=17, c_in=2, c_out=3, k=4):
    """Inputs (x, weight, bias) for the fused conv layer, float64.

    Each channel's bias splits its pre-activations at the widest gap in their
    middle half, so every case has rows on both sides of the relu; the case
    asserts that no pre-activation lies within 1e-3 of the kink.
    """
    x = rng.standard_normal((t, c_in))
    w = rng.standard_normal((c_out, c_in, k))
    pre = conv_reference(x, w, np.zeros(c_out), stride)
    v = np.sort(pre, axis=0)
    lo, hi = v.shape[0] // 4, v.shape[0] - v.shape[0] // 4 - 1
    split = lo + np.argmax(v[lo + 1 : hi + 1] - v[lo:hi], axis=0)
    ch = np.arange(c_out)
    b = -(v[split, ch] + v[split + 1, ch]) / 2
    assert np.abs(pre + b).min() >= 1e-3, "pre-activation within 1e-3 of the relu kink"
    return x, w, b


@pytest.fixture
def fast_switching():
    """Threads hand over the interpreter lock every microsecond, so a lost
    update or a misordered sum between them is likely to show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class TestConv1dGrads:
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_conv1d(self, stride):
        def build(rng):
            return list(conv_case(rng, stride)), lambda xs: dc.conv1d(xs[0], xs[1], xs[2], stride)

        run_gradcheck(build, n_points=40)

    @pytest.mark.parametrize("k, stride", [(2, 3), (5, 2)])
    def test_conv1d_kernel_not_multiple_of_stride(self, k, stride):
        # The kernel, and here the input too, are zero-padded to whole
        # polyphase blocks of stride taps.
        def build(rng):
            return list(conv_case(rng, stride, k=k)), lambda xs: dc.conv1d(xs[0], xs[1], xs[2], stride)

        run_gradcheck(build, n_points=40)

    @pytest.mark.parametrize("stride, k, t, c_in, c_out", [
        pytest.param(1, 4, 17, 2, 3, id="1"),
        pytest.param(2, 4, 17, 2, 3, id="2"),
        pytest.param(3, 4, 17, 2, 3, id="3"),
        pytest.param(3, 2, 17, 2, 3, id="k2-s3"),
        # the encoder's first two layers; 3 input rows lie past the last window
        pytest.param(5, 10, 24003, 1, 64, id="k10-s5"),
        pytest.param(4, 8, 4799, 64, 64, id="k8-s4"),
    ])
    def test_conv1d_matches_direct_loop(self, stride, k, t, c_in, c_out):
        x, w, b = conv_case(np.random.default_rng(stride), stride, t=t, c_in=c_in, c_out=c_out, k=k)
        out, _ = dc.conv1d(x, w, b, stride)
        np.testing.assert_allclose(out, np.maximum(conv_reference(x, w, b, stride), 0), rtol=1e-12, atol=1e-12)

    def test_conv1d_hand_case(self):
        # Windows [1, 2] and [3, 4]; channel 1 clips its first pre-activation (-1) to 0.
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        w = np.array([[[1.0, 1.0]], [[2.0, -1.0]]])
        b = np.array([0.5, -1.0])
        out, vjp = dc.conv1d(x, w, b, stride=2)
        np.testing.assert_array_equal(out, [[3.5, 0.0], [7.5, 1.0]])
        gx, gw, gb = vjp(mean_grad(out, np.ones((2, 2))))   # each output weighs 1/4
        np.testing.assert_array_equal(gb, [0.5, 0.25])
        np.testing.assert_array_equal(gw, [[[1.0, 1.5]], [[0.75, 1.0]]])
        np.testing.assert_array_equal(gx, [[0.25], [0.25], [0.75], [0.0]])

    def test_conv1d_constant_input_gets_no_gradient(self):
        # Raw audio needs no gradient: grad_input=False skips it and leaves
        # the weight and bias gradients as they were.
        rng = np.random.default_rng(0)
        x, w, b = conv_case(rng, stride=2)
        g = rng.standard_normal((7, 3))
        grads = []
        for grad_input in (False, True):
            out, vjp = dc.conv1d(x, w, b, stride=2, grad_input=grad_input)
            grads.append(vjp(mean_grad(out, g)))
        (gx_const, gw_const, gb_const), (gx, gw, gb) = grads
        assert gx_const is None and gx is not None
        np.testing.assert_array_equal(gw_const, gw)
        np.testing.assert_array_equal(gb_const, gb)

    # Each thread holds one block-sized product of the input gradient, so at
    # this 1.5 s shape a third thread would pass the bound.
    @pytest.mark.parametrize("threads", [1, 2])
    def test_conv1d_memory_stays_below_one_window_matrix(self, threads, monkeypatch):
        # Encoder layer 1 on 1.5 s of audio: 4799 x 64 in, k = 8, stride 4.
        # Forward and backward together allocate less than one im2col window
        # matrix, t_out x (c_in * k) float32, would take on its own.
        monkeypatch.setattr(dc, "_THREAD_ROWS", 1)   # threads even below their row floor
        t, c, k, stride = 4799, 64, 8, 4
        t_out = 1 + (t - k) // stride
        rng = np.random.default_rng(0)
        x = rng.standard_normal((t, c)).astype(np.float32)
        w = rng.standard_normal((c, c, k)).astype(np.float32)
        b = np.zeros(c, np.float32)
        tracemalloc.start()
        try:
            out, vjp = dc.conv1d(x, w, b, stride, threads=threads)
            gx, gw, _ = vjp(mean_grad(out, np.float32(1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gx.shape == (t, c) and gw.shape == (c, c, k)
        assert peak < t_out * c * k * 4, f"peak {peak} bytes"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_conv1d_backward_masks_its_gradient_in_place(self, threads):
        # Encoder layer 0 on 15 s of audio, whose input needs no gradient:
        # the vjp owns the gradient it is handed (the tape's rule) and masks
        # it in place, so it allocates no second gradient-sized array; the
        # relu mask, one byte per element, is a quarter of one.
        k, stride = model.KERNELS[0], model.STRIDES[0]
        rng = np.random.default_rng(0)
        x = rng.standard_normal((15 * 16000, 1)).astype(np.float32)
        w = (rng.standard_normal((64, 1, k)) / np.sqrt(k)).astype(np.float32)
        out, vjp = dc.conv1d(x, w, np.full(64, 0.01, np.float32), stride, threads=threads, grad_input=False)
        assert out.shape[0] >= dc._THREAD_ROWS and 0 < np.count_nonzero(out) < out.size
        g = rng.standard_normal(out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            gx, _, _ = vjp(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gx is None
        assert peak < g.nbytes / 2, f"peak {peak / g.nbytes:.2f} x the incoming gradient"

    # t_out of one row block, of several, and of whole blocks plus a one-row
    # tail (1025 = 2 * 512 = 8 * 128 = 4 * 256, plus 1), which OpenBLAS
    # multiplies on its one-row path.  Every encoder layer has m = 2, where
    # a row on the seam of two runs sums two products in either order; with
    # k = 6, stride 2 (m = 3) it sums three, so the order shows in the bits.
    @pytest.mark.parametrize("t_out", [100, 1200, 1025])
    @pytest.mark.parametrize("k, stride, c_in", [(k, s, 1 if i == 0 else 64) for i, (k, s) in enumerate(zip(model.KERNELS, model.STRIDES))]
                             + [(6, 2, 64)])
    def test_conv1d_threads_give_identical_bits(self, k, stride, c_in, t_out, fast_switching, monkeypatch):
        monkeypatch.setattr(dc, "_THREAD_ROWS", 1)   # threads even below their row floor
        rng = np.random.default_rng(t_out)
        x0 = rng.standard_normal(((t_out - 1) * stride + k + stride - 1, c_in)).astype(np.float32)
        w0 = (rng.standard_normal((64, c_in, k)) / np.sqrt(c_in * k)).astype(np.float32)
        b0 = rng.standard_normal(64).astype(np.float32)
        g = rng.standard_normal((t_out, 64)).astype(np.float32)
        for x_grad in (True, False):   # False: a constant input, as raw audio
            runs = []
            for threads in (1, 2, 3):
                out, vjp = dc.conv1d(x0, w0, b0, stride, threads=threads, grad_input=x_grad)
                runs.append([None if a is None else a.tobytes() for a in (out, *vjp(mean_grad(out, g)))])
            assert 0 < np.count_nonzero(out) < out.size
            assert (runs[0][1] is None) == (not x_grad)
            assert runs[1] == runs[0] and runs[2] == runs[0]

    @pytest.mark.parametrize("t_out, helpers", [(dc._THREAD_ROWS - 1, 0), (dc._THREAD_ROWS, 1)])
    def test_conv1d_threads_start_at_their_row_floor(self, t_out, helpers, monkeypatch):
        calls = []
        fan_out = parallel.fan_out
        monkeypatch.setattr(parallel, "fan_out", lambda fn, n: (calls.append(n), fan_out(fn, n)))
        x = np.ones(((t_out - 1) * 2 + 4, 64), np.float32)
        out, vjp = dc.conv1d(x, np.ones((64, 64, 4), np.float32), np.zeros(64, np.float32), 2, threads=2)
        vjp(mean_grad(out, np.float32(1)))
        assert max(calls) == 1 + helpers

    def test_conv1d_output_length(self):
        out, _ = dc.conv1d(np.zeros((100, 1), np.float32), np.zeros((4, 1, 10), np.float32), np.zeros(4, np.float32), stride=5)
        assert out.shape == (19, 4)

    def test_conv1d_rejects_mismatched_shapes(self):
        x = np.zeros((20, 2))
        w = np.zeros((4, 2, 3))
        with pytest.raises(ValueError, match=r"expected \(t, c_in\)"):
            dc.conv1d(np.zeros((20, 3)), w, np.zeros(4), stride=1)
        with pytest.raises(ValueError, match=r"expected \(t, c_in\)"):
            dc.conv1d(x, w, np.zeros(3), stride=1)


class TestFusedOps:
    def test_tanh_scan(self):
        run_gradcheck(lambda rng: (scan_case(rng), lambda xs: dc.tanh_scan(*xs)))

    @pytest.mark.parametrize("steps, spare", [((0, 1), 2), ((0, 1), 0), ((-1, 0, 1), 1)],
                             ids=["all-columns", "dropped-columns", "negative-coordinates"])
    def test_segment_pool(self, steps, spare):
        def build(rng):
            arrays, m = tent_case(rng, steps=steps, spare=spare)
            return arrays, lambda xs: dc.segment_pool(xs[0], xs[1], m)

        run_gradcheck(build)

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_tanh_scan_matches_step_loop(self, dtype, tol):
        # 176 segments of width 64, as on a 16.5 s utterance.
        rng = np.random.default_rng(4)
        arrays = [a.astype(dtype) for a in scan_case(rng, n=176, d=64, q=64)]
        arrays[1:3] = [a / 8 for a in arrays[1:3]]
        g = rng.standard_normal((176, 64)).astype(dtype)
        out, vjp = dc.tanh_scan(*arrays)
        fused = [out] + [grad * g.size for grad in vjp(mean_grad(out, g))]
        for fused, loop in zip(fused, scan_loop(*arrays, g)):
            assert fused.dtype == dtype
            np.testing.assert_allclose(fused, loop, rtol=tol, atol=tol)

    def test_tanh_scan_records_one_node(self):
        # The context recurrence is one tape stage whatever the segment count.
        net = model.SCPCModel.init(model.ModelConfig(frame_dim=3, segment_dim=4), seed=0)
        tape = dc.Tape()
        model.context_states(net.params, scan_case(np.random.default_rng(0), n=40, d=4)[0], tape)
        assert only_stage(tape)[:2] == (("segments", "ctx_w_in", "ctx_w_h", "ctx_b"), "contexts")

    def test_segment_pool_memory_stays_below_one_dense_tent(self):
        # 60 s of frames in 600 segments: forward and backward together
        # allocate less than one dense L x M float32 tent (14.4 MB) would.
        n, m, d = 6000, 600, 64
        rng = np.random.default_rng(0)
        hard = np.zeros(n - 1, np.float32)
        hard[rng.choice(n - 1, m - 1, replace=False)] = 1.0
        frames = rng.standard_normal((n, d)).astype(np.float32)
        tracemalloc.start()
        try:
            means, vjp = dc.segment_pool(frames, hard, m)
            g_frames, g_indicator = vjp(mean_grad(means, np.float32(1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert means.shape == (m, d) and g_frames.shape == (n, d) and g_indicator.shape == (n - 1,)
        assert peak < n * m * 4, f"peak {peak} bytes"

    def test_segment_pool_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="does not match"):
            dc.segment_pool(np.zeros((4, 2)), np.zeros(4), 2)

    def test_segment_pool_non_finite_indicator_gives_nan_means(self):
        frames = np.ones((5, 2), np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (np.nan, np.inf):
                out, _ = dc.segment_pool(frames, np.array([0.0, bad, 1.0, 0.0], np.float32), 2)
                assert np.isnan(out).all()


class TestCosineGrads:
    """``dc.cosine``: the boundary op's junction cosine and the losses' logits."""

    def test_rowwise(self):
        run_gradcheck(lambda rng: ([rng.standard_normal((5, 3)) + 0.2, rng.standard_normal((5, 3)) + 0.2],
                                   lambda xs: dc.cosine(xs[0], xs[1])))

    def test_broadcast_over_leading_axes(self):
        # The losses' shape: one anchor row against k + 1 candidate rows.
        # Each gradient comes at its input's shape; the anchor's sums over
        # its candidates.
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((4, 1, 3)), rng.standard_normal((4, 5, 3))
        value, vjp = dc.cosine(a, b)
        g = rng.standard_normal((4, 5))
        g_a, g_b = vjp(g)
        assert value.shape == (4, 5) and g_a.shape == (4, 1, 3) and g_b.shape == (4, 5, 3)
        for i in (0, 3):
            row_a = np.zeros(3)
            for j in range(5):
                row, row_vjp = dc.cosine(a[i, 0], b[i, j])
                assert row == pytest.approx(value[i, j], abs=1e-15)
                ra, rb = row_vjp(g[i, j])
                np.testing.assert_allclose(g_b[i, j], rb, rtol=1e-12)
                row_a += ra
            np.testing.assert_allclose(g_a[i, 0], row_a, rtol=1e-12)
        f = lambda arrs: float((dc.cosine(*arrs)[0] * g).sum())
        num_a, num_b = numeric_grad(f, [a, b])
        assert rel_err(g_a, num_a) <= GRAD_TOL
        assert rel_err(g_b, num_b) <= GRAD_TOL

    def test_known_values(self):
        frames = np.array([[1.0, 1.0], [1.0, 0.0], [5.0, 0.0], [0.0, 1.0]])
        sim, _ = dc.cosine(frames[:-1], frames[1:])
        np.testing.assert_allclose(sim, [0.70710678, 1.0, 0.0], atol=1e-6)
        assert sim[2] == 0.0

    def test_zero_vector_rejected(self):
        frames = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="zero vector"):
            boundary.boundary_indicator(frames, 0.09)


class TestTapeContracts:
    def test_square_gradient(self):
        # x is read three times by one stage, as the input, the input weight
        # and the recurrent weight: h = tanh(x * x), so the gradient sums
        # both product-rule terms.
        x = np.array([[0.5]])
        h, vjp = dc.tanh_scan(x, x, x, np.zeros(1))
        tape = dc.Tape()
        tape.record(("x", "x", "x", "b"), "h", vjp)
        loss, mean_vjp = weighted_mean(h, np.ones((1, 1)))
        tape.record(("h",), "loss", mean_vjp)
        grads = tape.backward(loss)
        assert float(loss) == pytest.approx(np.tanh(0.25))
        assert grads["x"] == pytest.approx(2 * 0.5 * (1 - np.tanh(0.25) ** 2))

    def test_unreached_name_gets_no_gradient(self):
        # A stage whose output the loss does not read is skipped, so its
        # inputs get no entry; the training step zero-fills such parameters.
        tape = dc.Tape()
        tape.record(("x",), "unused", lambda g: pytest.fail("replayed a stage the loss does not reach"))
        loss, vjp = weighted_mean(np.array([2.0]), 2.0)
        tape.record(("y",), "loss", vjp)
        grads = tape.backward(loss)
        assert float(loss) == pytest.approx(4.0)
        assert "x" not in grads and "unused" not in grads
        assert grads["y"] == pytest.approx(2.0)

    def test_backward_requires_scalar(self):
        tape = dc.Tape()
        y, vjp = dc.tanh_scan(np.ones((2, 1)), np.ones((1, 1)), np.zeros((1, 1)), np.zeros(1))
        tape.record(("x", "w_in", "w_h", "b"), "y", vjp)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_backward_twice_errors(self):
        tape = dc.Tape()
        loss, vjp = weighted_mean(np.array([2.0]), 2.0)
        tape.record(("x",), "loss", vjp)
        tape.backward(loss)
        assert not tape._stages   # released as replayed
        with pytest.raises(RuntimeError, match="replayed once"):
            tape.backward(loss)

    def test_shape_mismatch_names_both_shapes(self):
        frames = np.zeros((2, 3), dtype=np.float32)
        indicator = np.zeros((4, 5), dtype=np.float32)
        with pytest.raises(ValueError, match=r"\(4, 5\).*\(2, 3\)"):
            dc.segment_pool(frames, indicator, 1)

    def test_grad_accumulates_across_uses(self):
        # x feeds two stages: s = tanh(x), then h = tanh(s * x), so
        # dh/dx = (1 - h^2) (s + x (1 - s^2)) sums a term from each.
        x = np.array([[0.5]])
        zero, one = np.zeros((1, 1)), np.ones((1, 1))
        tape = dc.Tape()
        s, vjp = dc.tanh_scan(x, one, zero, np.zeros(1))
        tape.record(("x", "one", "zero", "b"), "s", vjp)
        h, vjp = dc.tanh_scan(s, x, zero, np.zeros(1))
        tape.record(("s", "x", "zero", "b"), "h", vjp)
        loss, vjp = weighted_mean(h, 1.0)
        tape.record(("h",), "loss", vjp)
        grads = tape.backward(loss)
        s0 = np.tanh(0.5)
        h0 = np.tanh(s0 * 0.5)
        assert grads["x"] == pytest.approx((1 - h0**2) * (s0 + 0.5 * (1 - s0**2)))

    def test_forward_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(123)
            x = rng.standard_normal((8, 8)).astype(np.float32)
            w = rng.standard_normal((8, 8, 1)).astype(np.float32)
            h, vjp = dc.conv1d(x, w, np.zeros(8, np.float32), stride=1)
            loss, mean_vjp = weighted_mean(h, np.float32(1))
            return loss, vjp(mean_vjp(np.ones_like(loss))[0])[0]

        l1, g1 = run()
        l2, g2 = run()
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(g1, g2)


class TestGraphLifetime:
    """The tape holds only what backward needs, and frees it as it goes.

    The cyclic collector is off in these tests, so anything that stays alive
    is held by a reference cycle or a live name, not by collector timing.
    """

    @pytest.fixture(autouse=True)
    def no_cyclic_gc(self):
        gc.disable()
        yield
        gc.enable()

    @staticmethod
    def _utterance():
        spec = dataclasses.replace(audio.default_spec(seed=0), words_per_utterance=(2, 2))
        return audio.generate_utterance(spec, 0).waveform.samples

    def test_training_graph_freed_by_refcount_after_backward(self, monkeypatch):
        conv_outputs = []
        real_conv1d = dc.conv1d

        def spy(*args, **kwargs):
            out, vjp = real_conv1d(*args, **kwargs)
            conv_outputs.append(weakref.ref(out))
            return out, vjp

        monkeypatch.setattr(dc, "conv1d", spy)
        net = model.SCPCModel.init(model.ModelConfig(frame_dim=8, segment_dim=8), seed=0)
        tape = dc.Tape()
        graph = model.analyze_utterance(net.params, self._utterance(), 0.0, tape=tape)
        total, _ = obj.utterance_loss(graph.frames, graph.segments, graph.contexts,
                                      4, 2, True, np.random.default_rng(0), tape)
        assert len(conv_outputs) == len(model.KERNELS)
        assert all(ref() is not None for ref in conv_outputs)   # held for backward
        grads = tape.backward(total)
        # Freed as their stages were replayed, while the caller still holds
        # the forward's outputs.
        assert all(ref() is None for ref in conv_outputs)
        assert set(net.params) <= set(grads)
        assert all(np.all(np.isfinite(grads[k])) for k in net.params)

    def test_inference_records_no_nodes(self, monkeypatch):
        tapes = []
        monkeypatch.setattr(dc.Tape, "__init__", lambda self: tapes.append(self))
        net = model.SCPCModel.init(model.ModelConfig(frame_dim=8, segment_dim=8), seed=0)
        profile = infer.profile_utterance(net, self._utterance(), "u")
        assert profile.dissimilarity.size > 0
        assert not tapes


class TestConventions:
    def test_relu_zero_input_zero_grad(self):
        # conv1d's pre-activations are 0, -1 and 1 (windows [1, 2], [0, 2], [3, 1]).
        x = np.array([[1.0], [2.0], [0.0], [2.0], [3.0], [1.0]])
        out, vjp = dc.conv1d(x, np.ones((1, 1, 2)), np.array([-3.0]), stride=2)
        gx, _, gb = vjp(mean_grad(out, np.ones((3, 1))))
        np.testing.assert_array_equal(gb, [1.0 / 3])
        np.testing.assert_array_equal(gx, [[0.0], [0.0], [0.0], [0.0], [1.0 / 3], [1.0 / 3]])

    def test_mean_accumulates_in_float64(self):
        # A contrastive loss over 2^18 identical anchors is each anchor's
        # loss exactly; a float32 running sum would drift from it.
        def nfc(frames):
            return obj.utterance_loss(frames, frames, frames, 1, 1, False, np.random.default_rng(0))[0]

        frames = np.tile(np.float32([0.3, -0.7]), (2**18 + 1, 1))
        one = nfc(frames[:3])
        assert np.full(2**18, one).mean(dtype=np.float32) != one
        assert nfc(frames) == one

    # Public names the pipeline never uses, each kept for a stated reader.
    NO_PIPELINE_CALLER = {
        "metrics.match": "the matching rule's unit API; scoring runs the same walk inside metrics.evaluate and infer.tune_prominence",
        "metrics.periodic_boundaries": "a baseline the acceptance gate scores the model against",
        "metrics.random_boundaries": "a baseline the acceptance gate scores the model against",
        "boundary.peak_scores": "boundary_indicator's forward stage, which the tests and the demo read",
    }

    def test_every_public_op_has_a_pipeline_caller(self):
        # A name in any module's __all__ that nothing in src/scpc uses
        # outside its own definition is dead code, unless listed above.
        src = Path(dc.__file__).parent
        used = set()
        for path in src.glob("*.py"):
            for stmt in ast.parse(path.read_text()).body:
                own = getattr(stmt, "name", None)
                for node in ast.walk(stmt):
                    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                        name = node.id if isinstance(node, ast.Name) else node.attr
                        if name != own:
                            used.add(name)
        public = [f"{path.stem}.{name}" for path in sorted(src.glob("*.py"))
                  for name in getattr(importlib.import_module(f"scpc.{path.stem}"), "__all__", ())]
        assert len(public) > len(dc.__all__)
        assert sorted(q for q in public if q.split(".")[1] not in used) == sorted(self.NO_PIPELINE_CALLER)

    # Parameters with a default, dataclass fields with a default, and public
    # methods and properties that nothing in src/scpc passes or reads, each
    # kept for a stated reader.  The module-level exceptions above are
    # skipped whole: nothing calls them, so nothing passes their parameters.
    NO_MEMBER_CALLER = {
        "cli.main(argv)": "tests and the benchmark drive the CLI in-process",
        "audio.SynthSpec.words_per_utterance": "the benchmark and tests shorten utterances with it",
        "audio.SynthSpec.silence_prob": "a test turns silences on; its draw is part of every utterance's random stream",
        "trainer.TrainConfig.*": "resolve_config sets every field by name from the config file",
    }

    def test_every_public_parameter_and_member_has_a_pipeline_caller(self):
        # Below module level: a parameter or dataclass field with a default
        # must be passed, by name or position, in some call of its function
        # or class in src/scpc, and a public method or property must be read
        # there.  Calls and reads are matched by name, as above.
        src = Path(dc.__file__).parent
        trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
        calls: dict[str, list[ast.Call]] = {}
        read = set()
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    calls.setdefault(func.id if isinstance(func, ast.Name) else getattr(func, "attr", ""), []).append(node)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)

        def passed(callee: str, position: int | None, name: str) -> bool:
            for call in calls.get(callee, []):
                if name in {k.arg for k in call.keywords}:
                    return True
                if position is not None and (len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)):
                    return True
            return False

        def unpassed(fn: ast.FunctionDef, callee: str, skip_first: bool) -> list[str]:
            positional = fn.args.posonlyargs + fn.args.args
            first_default = len(positional) - len(fn.args.defaults)
            found = [a.arg for i, a in enumerate(positional) if i >= first_default
                     and not passed(callee, i - skip_first, a.arg)]
            found += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                      if d is not None and not passed(callee, None, a.arg)]
            return found

        found = []
        for stem, tree in trees.items():
            public = set(getattr(importlib.import_module(f"scpc.{stem}"), "__all__", ()))
            for stmt in tree.body:
                qual = f"{stem}.{getattr(stmt, 'name', '')}"
                if getattr(stmt, "name", None) not in public or qual in self.NO_PIPELINE_CALLER:
                    continue
                if isinstance(stmt, ast.FunctionDef):
                    found += [f"{qual}({p})" for p in unpassed(stmt, stmt.name, False)]
                if not isinstance(stmt, ast.ClassDef):
                    continue
                fields = [s for s in stmt.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                found += [f"{qual}.{f.target.id}" for i, f in enumerate(fields)
                          if f.value is not None and not passed(stmt.name, i, f.target.id)]
                for fn in (s for s in stmt.body if isinstance(s, ast.FunctionDef)):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                    if fn.name == "__init__":
                        found += [f"{qual}({p})" for p in unpassed(fn, stmt.name, True)]
                    elif not fn.name.startswith("_"):
                        if fn.name not in read:
                            found.append(f"{qual}.{fn.name}")
                        found += [f"{qual}.{fn.name}({p})" for p in unpassed(fn, fn.name, not static)]
        wildcards = tuple(k[:-1] for k in self.NO_MEMBER_CALLER if k.endswith(".*"))
        assert any(q.startswith(wildcards) for q in found)
        assert sorted(q for q in found if not q.startswith(wildcards)) == sorted(k for k in self.NO_MEMBER_CALLER if not k.endswith(".*"))
