"""Tests for the contrastive objectives.

Hand-built latent geometries pin exact loss values (uniform similarities
give log(K+1); two-candidate setups give log(1 + e^margin)).  Distractor
sampling is checked for exclusion, determinism, uniformity over indices and
over k-subsets, generator consumption and linear memory; composite
finite-difference checks cover the loss stage with the segment term on and
off, and tape-stage counts pin one stage for both terms.  The frame and
segment terms are read through ``utterance_loss``, the one entry point.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from helpers import numeric_grad, only_stage, rel_err

from scpc import audio
from scpc import diffcore as dc
from scpc import model
from scpc import objective as obj
from scpc import trainer


def f64(arr):
    return np.asarray(arr, dtype=np.float64)


def nfc(frames, k, rng, tape=None):
    """The next-frame loss alone: ``utterance_loss`` with its segment branch off."""
    return obj.utterance_loss(frames, frames, frames, k, 1, False, rng, tape)[0]


def nsc(segments, contexts, k, rng, tape=None):
    """``utterance_loss`` with its segment branch on, over three fixed
    frames: the total and the report, whose ``nsc`` is the segment term."""
    frames = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return obj.utterance_loss(frames, segments, contexts, 1, k, True, rng, tape)


# ---------------------------------------------------------------- sampling

def test_spec_defaults_and_validation():
    # The distractor counts fed to utterance_loss live on TrainConfig.
    config = trainer.TrainConfig()
    assert config.k_frame == 10 and config.k_seg == 5
    with pytest.raises(ValueError, match="k_frame"):
        trainer.TrainConfig(k_frame=0)
    with pytest.raises(ValueError, match="k_seg"):
        trainer.TrainConfig(k_seg=-1)


def test_sample_distractors_exact_complement():
    # k = n - 2 forces every row to be exactly the complement of {anchor, positive}.
    out = obj.sample_distractors(np.random.default_rng(0), 12, 10)
    assert out.shape == (11, 10) and out.dtype == np.int64
    for i in range(11):
        assert set(out[i]) == set(range(12)) - {i, i + 1}


def test_sample_distractors_excludes_and_dedups():
    out = obj.sample_distractors(np.random.default_rng(1), 31, 7)
    assert out.shape == (30, 7)
    for i in range(30):
        row = out[i]
        assert len(set(row.tolist())) == 7
        assert i not in row and i + 1 not in row
        assert row.min() >= 0 and row.max() < 31


def test_sample_distractors_deterministic():
    a = obj.sample_distractors(np.random.default_rng(42), 10, 4)
    b = obj.sample_distractors(np.random.default_rng(42), 10, 4)
    c = obj.sample_distractors(np.random.default_rng(43), 10, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_distractors_roughly_uniform():
    # Row 2 of 8 items draws one of the six indices outside {2, 3}.
    rng = np.random.default_rng(7)
    counts = np.zeros(8, dtype=int)
    n_draws = 6000
    for _ in range(n_draws):
        counts[obj.sample_distractors(rng, 8, 1)[2, 0]] += 1
    assert counts[2] == 0 and counts[3] == 0
    valid = counts[[0, 1, 4, 5, 6, 7]]
    # expected 1000 per index; +-200 is over 6 sigma
    assert valid.min() > 800 and valid.max() < 1200


def test_sample_distractors_k_subsets_uniform():
    # Row 0 of 7 items draws 2 of {2, ..., 6}: each of the 10 pairs is equally likely.
    rng = np.random.default_rng(8)
    counts: dict[tuple[int, int], int] = {}
    for _ in range(6000):
        pair = tuple(sorted(obj.sample_distractors(rng, 7, 2)[0].tolist()))
        counts[pair] = counts.get(pair, 0) + 1
    assert sorted(counts) == [(a, b) for a in range(2, 7) for b in range(a + 1, 7)]
    # expected 600 per pair; +-200 is over 8 sigma
    assert all(abs(n - 600) <= 200 for n in counts.values()), counts


def test_sample_distractors_k_too_large():
    with pytest.raises(ValueError, match="distractors"):
        obj.sample_distractors(np.random.default_rng(0), 5, 4)


def test_sample_distractors_negative_k():
    with pytest.raises(ValueError, match="distractors"):
        obj.sample_distractors(np.random.default_rng(0), 5, -1)


@pytest.mark.parametrize("n_items, k", [(6, 0), (6, 3), (6, 4), (50, 10)])
def test_sample_distractors_draws_once_per_shape(n_items, k):
    # The whole draw is one integers call of shape (n_items - 1, k), bounded
    # per column by Floyd's algorithm; k = 0 leaves the generator untouched.
    r0, r1 = np.random.default_rng(5), np.random.default_rng(5)
    obj.sample_distractors(r0, n_items, k)
    r1.integers(0, np.arange(n_items - 2 - k, n_items - 2) + 1, size=(n_items - 1, k))
    assert r0.bit_generator.state == r1.bit_generator.state
    if k == 0:
        assert r0.bit_generator.state == np.random.default_rng(5).bit_generator.state


def test_sample_distractors_memory_linear():
    # An L x L key matrix for 4000 items would take 128 MB; the table is 4000 x 10.
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        obj.sample_distractors(rng, 4000, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


# -------------------------------------------------------------- frame loss

def test_nfc_uniform_similarities_gives_log_k_plus_1():
    loss = nfc(f64(np.tile([0.3, -0.7, 0.2], (12, 1))), 10, np.random.default_rng(0))
    assert abs(float(loss) - np.log(11.0)) <= 1e-6


def test_nfc_hand_value():
    # Three frames on a line: cos(f0,f1)=1, cos(f0,f2)=cos(f1,f2)=-1.
    # Anchor 0: logits (1, -1) -> log(1 + e^-2); anchor 1: logits (-1, 1) flipped
    # to positive-first (-1 vs distractor 1) -> log(1 + e^2).
    loss = nfc(f64([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]), 1, np.random.default_rng(0))
    expected = (np.log1p(np.exp(-2.0)) + np.log1p(np.exp(2.0))) / 2
    assert abs(float(loss) - expected) <= 1e-6


def test_nfc_short_utterance_raises():
    with pytest.raises(ValueError, match="at least"):
        nfc(f64(np.ones((4, 2))), 3, np.random.default_rng(0))


def test_nfc_gradient_matches_fd():
    base = np.random.default_rng(3).normal(size=(6, 3)).astype(np.float64)

    def f(arrays):
        return float(nfc(arrays[0], 2, np.random.default_rng(7)))

    tape = dc.Tape()
    grads = tape.backward(nfc(base, 2, np.random.default_rng(7), tape))
    num = numeric_grad(f, [base])[0]
    assert rel_err(grads["frames"], num) <= 1e-4


def test_nfc_matches_per_column_loop(monkeypatch):
    # Reference: one gather and one cosine per candidate column, concatenated.
    base = np.random.default_rng(4).normal(size=(12, 5)).astype(np.float32)
    table = obj.sample_distractors(np.random.default_rng(6), 12, 3)
    monkeypatch.setattr(obj, "sample_distractors", lambda rng, n_items, k: table)

    tape = dc.Tape()
    loss = nfc(base, 3, np.random.default_rng(0), tape)
    grad = tape.backward(loss)["frames"]

    # The reference in numpy, in the ops' float32 arithmetic: each column's
    # cosines, cross-entropy against column 0, and the mean.
    anchors = base[:11]
    columns = [np.arange(1, 12)] + [table[:, j] for j in range(3)]
    norm_a = np.linalg.norm(anchors, axis=-1)
    logits = np.empty((11, 4), np.float32)
    for j, c in enumerate(columns):
        dot = (anchors * base[c]).sum(axis=-1, dtype=np.float64).astype(np.float32)
        logits[:, j] = dot / (norm_a * np.linalg.norm(base[c], axis=-1) + 1e-8).astype(np.float32)
    shift = logits.max(axis=1, keepdims=True)
    ex = np.exp(logits - shift)
    z = ex.sum(axis=1, dtype=np.float64).astype(np.float32)
    ref = (np.log(z) + shift[:, 0] - logits[:, 0]).mean(dtype=np.float64).astype(np.float32)
    # Its gradient in float64: d loss / d logits = (softmax - onehot_0) / 11,
    # and d cos(a, b) / d a = b / (|a| |b|) - cos(a, b) a / |a|^2.
    g_logits = ex / z[:, None]
    g_logits[:, 0] -= 1
    g_logits /= 11
    ref_grad = np.zeros((12, 5))
    a64 = anchors.astype(np.float64)
    for j, c in enumerate(columns):
        b64 = base[c].astype(np.float64)
        na, nb = np.linalg.norm(a64, axis=1, keepdims=True), np.linalg.norm(b64, axis=1, keepdims=True)
        cos = (a64 * b64).sum(axis=1, keepdims=True) / (na * nb)
        g = g_logits[:, j : j + 1]
        ref_grad[:11] += g * (b64 / (na * nb) - cos * a64 / na**2)
        np.add.at(ref_grad, c, g * (a64 / (na * nb) - cos * b64 / nb**2))

    assert loss == ref
    np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-6)


@pytest.mark.parametrize("k", [2, 10])
def test_nfc_records_one_tape_node(k):
    tape = dc.Tape()
    nfc(f64(np.random.default_rng(0).normal(size=(30, 4))), k, np.random.default_rng(1), tape)
    assert only_stage(tape)[:2] == (("frames", "frames"), "loss")


# ------------------------------------------------------------ segment loss

def test_nsc_hand_value():
    # Anchor c0 = [1,0]: positive s1 cos 1, distractor s2 cos 0 -> log(1 + e^-1).
    # Anchor c1 = [1,0]: positive s2 cos 0, distractor s0 cos 1 -> log(1 + e^1).
    segments = f64([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    contexts = f64([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    _, report = nsc(segments, contexts, 5, np.random.default_rng(0))
    expected = (np.log1p(np.exp(-1.0)) + np.log1p(np.exp(1.0))) / 2
    assert abs(report.nsc - expected) <= 1e-6


def test_nsc_uniform_similarities_gives_log_k_plus_1():
    same = f64(np.tile([0.5, 0.5], (9, 1)))
    _, report = nsc(same, same, 5, np.random.default_rng(0))
    assert abs(report.nsc - np.log(6.0)) <= 1e-6


def test_nsc_single_segment_gives_none():
    one = f64([[1.0, 0.0]])
    _, report = nsc(one, one, 5, np.random.default_rng(0))
    assert report.nsc is None and report.total == report.nfc


def test_nsc_two_segments_zero_loss():
    # Only one candidate (the positive): cross-entropy over a single logit is 0.
    segments = f64([[1.0, 0.0], [0.0, 1.0]])
    contexts = f64([[0.5, 0.5], [0.5, 0.5]])
    _, report = nsc(segments, contexts, 5, np.random.default_rng(0))
    assert report.nsc == 0.0


def test_nsc_shape_mismatch_raises():
    with pytest.raises(ValueError, match="match"):
        nsc(f64(np.ones((3, 2))), f64(np.ones((2, 2))), 5, np.random.default_rng(0))


def test_nsc_gradient_matches_fd():
    rng = np.random.default_rng(11)
    seg0 = rng.normal(size=(5, 3)).astype(np.float64)
    ctx0 = rng.normal(size=(5, 3)).astype(np.float64)

    def f(arrays):
        return nsc(arrays[0], arrays[1], 2, np.random.default_rng(13))[1].nsc

    tape = dc.Tape()
    loss, _ = nsc(seg0, ctx0, 2, np.random.default_rng(13), tape)
    grads = tape.backward(loss)
    nums = numeric_grad(f, [seg0, ctx0])
    assert rel_err(grads["segments"], nums[0]) <= 1e-4
    assert rel_err(grads["contexts"], nums[1]) <= 1e-4


@pytest.mark.parametrize("k", [0, 5])
def test_nsc_records_one_tape_node(k):
    tape = dc.Tape()
    rng = np.random.default_rng(2)
    nsc(rng.normal(size=(9, 4)), rng.normal(size=(9, 4)), k, np.random.default_rng(3), tape)
    assert only_stage(tape)[:2] == (("frames", "frames", "contexts", "segments"), "loss")


# ------------------------------------------------------------- total loss

def _tiny_graph():
    frames = f64([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    segments = f64([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    contexts = f64([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    return frames, segments, contexts


def test_utterance_loss_inactive_skips_segment_branch():
    frames, segments, contexts = _tiny_graph()
    total, report = obj.utterance_loss(frames, segments, contexts, 1, 1, False, np.random.default_rng(0))
    assert report.nsc is None
    assert report.total == report.nfc == float(total)


def test_utterance_loss_active_adds_both():
    frames, segments, contexts = _tiny_graph()
    total, report = obj.utterance_loss(frames, segments, contexts, 1, 1, True, np.random.default_rng(0))
    nfc_expected = (np.log1p(np.exp(-2.0)) + np.log1p(np.exp(2.0))) / 2
    nsc_expected = (np.log1p(np.exp(-1.0)) + np.log1p(np.exp(1.0))) / 2
    assert abs(report.nfc - nfc_expected) <= 1e-6
    assert abs(report.nsc - nsc_expected) <= 1e-6
    assert abs(float(total) - (nfc_expected + nsc_expected)) <= 1e-6


@pytest.mark.parametrize("nsc_active", [False, True])
def test_utterance_loss_gradient_matches_fd(nsc_active):
    # One stage over (frames, frames) or (frames, frames, contexts, segments):
    # every input's gradient against finite differences of the total.
    rng = np.random.default_rng(17)
    base = [rng.normal(size=(8, 3)), rng.normal(size=(5, 3)), rng.normal(size=(5, 3))]

    def run(arrays, tape=None):
        return obj.utterance_loss(*arrays, 2, 2, nsc_active, np.random.default_rng(19), tape)

    tape = dc.Tape()
    total, report = run(base, tape)
    assert (report.nsc is not None) == nsc_active
    grads = tape.backward(total)
    names = ["frames", "segments", "contexts"] if nsc_active else ["frames"]
    nums = numeric_grad(lambda arrays: run(arrays)[1].total, base)
    for name, num in zip(names, nums):
        assert rel_err(grads[name], num) <= 1e-4
    assert sorted(grads) == sorted(names)


def test_utterance_loss_sums_both_terms_in_float32():
    rng = np.random.default_rng(23)
    frames, segments, contexts = (rng.normal(size=shape).astype(np.float32) for shape in ((12, 4), (6, 4), (6, 4)))
    total, report = obj.utterance_loss(frames, segments, contexts, 3, 2, True, np.random.default_rng(0))
    assert total.dtype == np.float32 and total.shape == ()
    assert total == np.float32(report.nfc) + np.float32(report.nsc) == np.float32(report.total)


def test_full_model_all_parameters_receive_gradient():
    """End-to-end: waveform -> frames -> segments -> contexts -> both losses.

    A zero threshold keeps every local dissimilarity peak, so a two-word
    utterance yields enough segments for the recurrent weights to matter.
    """
    spec = dataclasses.replace(audio.default_spec(seed=0), words_per_utterance=(2, 2))
    utt = audio.generate_utterance(spec, 0)
    net = model.SCPCModel.init(model.ModelConfig(frame_dim=16, segment_dim=16), seed=1)

    tape = dc.Tape()
    graph = model.analyze_utterance(net.params, utt.waveform.samples, 0.0, tape=tape)
    m = graph.segments.shape[0]
    assert m >= 3, f"expected several segments at thres 0, got {m}"
    total, report = obj.utterance_loss(
        graph.frames, graph.segments, graph.contexts,
        10, 5, True, np.random.default_rng(0), tape)
    assert np.isfinite(report.total)
    assert report.nsc is not None
    grads = tape.backward(total)
    for name in net.params:
        assert name in grads and np.any(grads[name] != 0), f"no gradient reached {name}"
