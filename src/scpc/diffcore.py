"""Array ops with hand-written vjps, and the tape that replays them.

Every op is a function on numpy arrays that returns ``(output, vjp)``:
``vjp(g)`` maps the gradient of the output to one gradient per input, in
argument order, None for an input it skips.  A training step records each
op it runs on a :class:`Tape` as a stage, (names read, name written, vjp),
and :meth:`Tape.backward` replays the stages in reverse, so gradients are
deterministic for a fixed op sequence.  Inference calls the same ops and
drops the vjps.  Only the ops the pipeline calls live here: the fused
encoder layer, the cosine, the segment pooling and the context scan; the
boundary detector's op, the segment MLP and the loss return their vjps from
their own modules.  Shapes are validated eagerly and mismatches raise with both
offending shapes in the message.  A vjp owns the gradient it is handed and may
overwrite it (see :class:`Tape`), and returns each gradient at its input's
shape.

Conventions:

* arrays are float32 or float64; reductions accumulate in float64;
* subgradients at kinks (relu, the segment_pool tent) take the zero branch;
* ``conv1d`` is a whole encoder layer, relu(conv + bias), channels-last,
  in polyphase form: a sum of ceil(k / stride) GEMMs over a zero-copy view
  of the input as rows of stride samples.  The kernel is zero-padded to a
  multiple of the stride, and the input too when those taps reach past it.
  Its forward is not bit-identical to one GEMM over an im2col window matrix,
  because the sum is split over the GEMMs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse

from . import parallel

__all__ = [
    "Tape",
    "COS_EPS",
    "conv1d",
    "cosine",
    "tanh_scan",
    "segment_pool",
]


class Tape:
    """The stages of one training step in forward order, each (names read,
    name written, vjp); parameters are read by their checkpoint names.

    :meth:`backward` pops each stage as it replays it, freeing its arrays,
    so a tape is replayed once.  Confine each tape to one thread; a vjp may
    fan out to helper threads (``parallel.fan_out``) joined before it returns.

    Ownership: backward hands each vjp a gradient no other live array
    shares, and the vjp may overwrite it.  So a vjp returns arrays sharing
    memory with nothing still live, bar its incoming gradient passed on whole.
    """

    def __init__(self) -> None:
        self._stages: list[tuple[tuple[str, ...], str, Callable]] = []

    def record(self, reads: tuple[str, ...], writes: str, vjp: Callable) -> None:
        self._stages.append((reads, writes, vjp))

    def backward(self, loss: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of the scalar ``loss``, the last stage's output, by name;
        a name that gets none is absent.  A stage whose output got no gradient
        is skipped, and a name read more than once sums in replay order."""
        if np.ndim(loss) != 0:
            raise ValueError(f"backward() needs a scalar loss, got shape {np.shape(loss)}")
        if not self._stages:
            raise RuntimeError("backward() found no stages: a tape is replayed once, after its stages are recorded")
        grads = {self._stages[-1][1]: np.ones_like(loss)}
        while self._stages:
            reads, writes, vjp = self._stages.pop()
            g_out = grads.pop(writes, None)
            if g_out is None:
                continue
            for name, g in zip(reads, vjp(g_out)):
                if g is not None:
                    grads[name] = g if name not in grads else grads[name] + g
        return grads


# Elements per temporary product in conv1d.  numpy has no in-place GEMM
# accumulate, so the output and the input gradient are summed a block of
# rows at a time: no temporary grows with the input, and each stays in cache.
_CONV_BLOCK = 1 << 15

# Fewer output rows run on one thread: on 2 cores, threads lost time on
# every layer measured below this (15 s layer 4, 1498 rows: forward 0.6 ->
# 0.9 ms, backward 1.4 -> 1.9 ms) and saved it on every one above.
_THREAD_ROWS = 2048


def _runs(n_rows: int, rows: int, threads: int) -> list[range]:
    """The block starts 0, rows, 2 * rows, ... below ``n_rows``, dealt into
    at most ``threads`` contiguous runs of whole blocks."""
    starts = range(0, n_rows, rows)
    n = min(threads, len(starts))
    return [starts[q * len(starts) // n : (q + 1) * len(starts) // n] for q in range(n)]


def _add_rows(buf: np.ndarray, row: int, p: np.ndarray, own: int, held: list) -> None:
    """``buf[row : row + len(p)] += p``, except that the rows of ``p`` that
    land before row ``own`` are appended to ``held`` for the caller to add.
    A product passed straight in is freed on return, before the next one."""
    cut = min(max(own - row, 0), p.shape[0])
    if cut:
        held.append((row, p[:cut].copy()))
    buf[row + cut : row + p.shape[0]] += p[cut:]


def conv1d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, stride: int, threads: int = 1, grad_input: bool = True) -> tuple[np.ndarray, Callable]:
    """One encoder layer: relu of a valid-mode strided 1-D convolution plus bias.

    Channels-last: ``x`` has shape (t, c_in), ``weight`` (c_out, c_in, k) and
    ``bias`` (c_out,); the result has shape (1 + (t - k) // stride, c_out).
    No padding is applied to the convolution.  The vjp returns the input,
    weight and bias gradients; the input's is None unless ``grad_input``,
    which raw audio does not need.  The vjp masks the gradient it is handed
    in place (the tape's ownership rule), so backward holds one copy of it.

    Polyphase form: with m = ceil(k / stride), the first
    (t_out + m - 1) * stride input rows are viewed, without a copy, as a
    (t_out + m - 1, stride * c_in) matrix X, and the weight, zero-padded
    from k to m * stride taps, as m blocks W_j of shape (stride * c_in,
    c_out).  The output is relu(sum_j X[j : j + t_out] @ W_j + b).  Backward
    is m GEMMs X[j : j + t_out].T @ g for the weight gradient, returned as a
    (c_out, c_in, k) view of their blocks, and m products g @ W_j.T added
    into rows j .. j + t_out of a zeroed buffer of X's shape, which is
    returned as the (t, c_in) input gradient.  When k is not a multiple of
    the stride, the padded taps can reach past the input, which is then
    zero-padded to match.  The forward sums over m GEMMs, so it is not
    bit-identical to one GEMM over the (t_out, c_in * k) window matrix.

    ``threads`` > 1 spreads the work over that many threads once the output
    has ``_THREAD_ROWS`` rows, every result bit-identical to one thread's:
    every GEMM keeps its operands and row count (OpenBLAS rounds a one-row
    product differently), the row blocks
    are dealt into contiguous runs, and the input-gradient rows where two
    runs meet are summed after the join in the one-thread order.
    """
    if x.ndim != 2 or weight.ndim != 3 or weight.shape[1] != x.shape[1] or bias.shape != weight.shape[:1]:
        raise ValueError(f"conv1d: expected (t, c_in), (c_out, c_in, k) and (c_out,), got {x.shape}, {weight.shape} and {bias.shape}")
    t, c_in = x.shape
    c_out, _, k = weight.shape
    if stride < 1 or threads < 1:
        raise ValueError(f"conv1d: stride and threads must be positive, got {stride} and {threads}")
    if t < k:
        raise ValueError(f"conv1d: input length {t} shorter than kernel {k}")
    t_out = 1 + (t - k) // stride
    if t_out < _THREAD_ROWS:
        threads = 1
    m = -(-k // stride)
    n = (t_out + m - 1) * stride
    xs = x[:n]
    if n > t:
        xs = np.pad(xs, ((0, n - t), (0, 0)))
    xb = xs.reshape(t_out + m - 1, stride * c_in)
    w = weight
    if m * stride != k:
        w = np.pad(w, ((0, 0), (0, 0), (0, m * stride - k)))
    # wb[j, r * c_in + c, o] = weight[o, c, j * stride + r]
    wb = w.transpose(2, 1, 0).reshape(m, stride * c_in, c_out)
    out = np.empty((t_out, c_out), np.result_type(xb, wb))
    runs = _runs(t_out, max(1, _CONV_BLOCK // c_out), threads)

    def forward(q):
        for i in runs[q]:
            o = out[i : i + runs[q].step]
            np.matmul(xb[i : i + o.shape[0]], wb[0], out=o)
            for j in range(1, m):
                o += xb[i + j : i + j + o.shape[0]] @ wb[j]
            o += bias
            np.maximum(o, 0, out=o)

    parallel.fan_out(forward, len(runs))

    def vjp(g):
        # relu: out > 0 exactly where the pre-activation is; g is the vjp's own, so masked in place
        spans = [slice(r.start, r.stop) for r in runs]
        parallel.fan_out(lambda q: np.multiply(g[spans[q]], out[spans[q]] > 0, out=g[spans[q]]), len(spans))
        gwb = np.empty((m, stride * c_in, c_out), out.dtype)
        gb = []
        n_gw = min(threads, m)

        def weight_grad(q):
            if q == 0:
                gb.append(g.sum(axis=0, dtype=np.float64).astype(g.dtype))
            for j in range(q, m, n_gw):
                np.matmul(xb[j : j + t_out].T, g, out=gwb[j])

        parallel.fan_out(weight_grad, n_gw)
        gx = None
        if grad_input:
            gx = np.zeros((max(n, t), c_in), out.dtype)
            gxb = gx[:n].reshape(t_out + m - 1, stride * c_in)
            gx_runs = _runs(t_out, max(1, _CONV_BLOCK // (stride * c_in)), threads)
            seams = [[] for _ in gx_runs]

            def input_grad(q):
                run = gx_runs[q]
                own = run.start + m - 1 if q else 0   # the first row no earlier run reaches
                for i in run:
                    gi = g[i : i + run.step]
                    for j in range(m):
                        _add_rows(gxb, i + j, gi @ wb[j].T, own, seams[q])

            parallel.fan_out(input_grad, len(gx_runs))
            for held in seams:   # after every run, in the one-thread order
                for r, p in held:
                    gxb[r : r + p.shape[0]] += p
            gx = gx[:t]
        # A (c_out, c_in, k) view of the blocks, inverting wb's layout; a
        # contiguous copy would add a weight-sized buffer at the layer's peak.
        gw = gwb.reshape(m * stride, c_in, c_out).transpose(2, 1, 0)[:, :, :k]
        return gx, gw, gb[0]

    return out, vjp


# The epsilon in every cosine denominator: the boundary op's junction cosine
# and the losses.
COS_EPS = 1e-8


def cosine(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, Callable]:
    """Cosine similarity of ``a`` and ``b`` along their last axis, broadcast
    over the leading ones: float64 dot products, ``COS_EPS`` in the
    denominator, an exactly zero vector rejected.  The vjp returns each
    gradient at its input's shape: an input broadcast along an axis gets
    the float64 sum over that axis, taken before the other input's
    gradient is formed, so only one broadcast-shaped gradient is held.
    """
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("cosine: zero vector has no direction")
    dt = np.result_type(a, b)
    dot = (a * b).sum(axis=-1, dtype=np.float64).astype(dt)
    denom = (na * nb + COS_EPS).astype(dt)

    def grad(gc, sc, x, y, nx, ny):   # of x, summed over its broadcast axes in float64
        gx = gc * y
        gx -= sc * (ny / nx)[..., None] * x
        axes = tuple(i for i, n in enumerate((1,) * (gx.ndim - x.ndim) + x.shape) if n < gx.shape[i])
        return gx.sum(axis=axes, dtype=np.float64).reshape(x.shape).astype(dt) if axes else gx

    def vjp(g):
        gc = (g / denom)[..., None]
        sc = (g * dot / denom**2)[..., None]
        return grad(gc, sc, a, b, na, nb), grad(gc, sc, b, a, nb, na)   # a's summed before b's exists

    return dot / denom, vjp


def tanh_scan(x: np.ndarray, w_in: np.ndarray, w_h: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, Callable]:
    """Causal tanh recurrence h_i = tanh(x_i @ w_in + h_{i-1} @ w_h + b), h_{-1} = 0.

    ``x`` is (n, d), ``w_in`` (d, q), ``w_h`` (q, q) and ``b`` (q,); the
    result stacks h_0 .. h_{n-1} as (n, q).  The input projection is one
    GEMM and the recurrence a loop over the rows.  Backward is one reverse
    loop (backpropagation through time) for the pre-activation gradient,
    then one product per input.  One vjp whatever n is.
    """
    q = w_h.shape[-1]
    if x.ndim != 2 or w_in.shape != (x.shape[1], q) or w_h.shape != (q, q) or b.shape != (q,):
        raise ValueError(f"tanh_scan: expected (n, d), (d, q), (q, q) and (q,), got {x.shape}, {w_in.shape}, {w_h.shape} and {b.shape}")
    xw = x @ w_in
    h = np.empty_like(xw)
    prev = np.zeros(q, xw.dtype)
    for i in range(h.shape[0]):
        prev = np.tanh(xw[i] + prev @ w_h + b, out=h[i])

    def vjp(g):
        dpre = np.empty_like(h)
        carry = np.zeros(q, h.dtype)
        for i in range(h.shape[0] - 1, -1, -1):
            dpre[i] = (g[i] + carry) * (1 - h[i] * h[i])
            carry = dpre[i] @ w_h.T
        gb = dpre.sum(axis=0, dtype=np.float64).astype(dpre.dtype)
        return dpre @ w_in.T, x.T @ dpre, h[:-1].T @ dpre[1:], gb

    return h, vjp


_COLSUM_EPS = 1e-8


def segment_pool(frames: np.ndarray, indicator: np.ndarray, n_segments: int) -> tuple[np.ndarray, Callable]:
    """Tent-weighted frame means per segment, shape (n_segments, frame_dim).

    ``frames`` is (L, d) and ``indicator`` (L - 1,) soft boundary values.
    The coordinate c = [0, cumsum(indicator)] (accumulated in float64) puts
    frame t at weight relu(1 - |c_t - j|) in column j, and each column is
    normalized by its float64 sum plus 1e-8.  Only columns floor(c_t) and
    floor(c_t) + 1 can be nonzero, so each frame carries two weights and the
    L x n_segments matrix is never built: the means are one sparse product,
    and the backward gathers two gradient rows per frame.  Columns outside
    [0, n_segments) are dropped.  At the tent's kinks the subgradient takes
    the zero branch, so a frame whose coordinate is an exact integer passes
    no gradient to the indicator.  A non-finite coordinate makes every mean
    NaN.  The vjp returns the frames' and the indicator's gradients.
    """
    n = frames.shape[0]
    if frames.ndim != 2 or indicator.shape != (n - 1,):
        raise ValueError(f"segment_pool: indicator shape {indicator.shape} does not match {frames.shape} frames")
    m, dt = n_segments, indicator.dtype
    c = np.concatenate([np.zeros(1, dt), np.cumsum(indicator, dtype=np.float64).astype(dt)])
    k = np.floor(np.nan_to_num(c))   # finite, so the column cast below cannot warn
    tent = np.stack([1 - (c - k), 1 - ((k + 1) - c)], axis=1)   # (L, 2): columns k, k + 1
    # Columns shifted by one into [0, m + 2): rows 0 and m + 1 collect the dropped weights.
    cols = np.clip(k[:, None] + (0, 1), -1, m).astype(np.intp) + 1
    colsum = np.bincount(cols.ravel(), tent.ravel(), minlength=m + 2)
    if not np.isfinite(c).all():
        colsum[:] = np.nan
    s = (colsum.astype(dt) + dt.type(_COLSUM_EPS))[cols]   # each weight's column sum
    w = tent / s
    pool = scipy.sparse.csc_array((w.ravel(), cols.ravel(), np.arange(0, 2 * n + 1, 2)), shape=(m + 2, n))
    out = (pool @ frames)[1 : m + 1]

    def vjp(g):
        gp = np.zeros((m + 2, g.shape[1]), g.dtype)
        gp[1 : m + 1] = g
        dw = np.einsum("tcd,td->tc", gp[cols], frames)   # g . frame, per weight
        # d/d tent of tent / s, with s = the column sum: dw / s - sum(dw * tent / s^2).
        ds = np.bincount(cols.ravel(), (-dw * tent / (s * s)).ravel(), minlength=m + 2).astype(dt)
        dtent = (dw / s + ds[cols]) * (tent > 0)
        dcoord = dtent[:, 1] - dtent[:, 0] * (c > k)
        return pool.T @ gp, np.cumsum(dcoord[:0:-1])[::-1].astype(dt)

    return out, vjp
