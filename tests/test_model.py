"""Encoder geometry, recurrence causality, and checkpoint contracts."""

from __future__ import annotations

import gc
import json
import warnings

import numpy as np
import pytest

from helpers import only_stage

from scpc import boundary as bd
from scpc import diffcore as dc
from scpc import model
from scpc import objective as obj


def small_model(seed=0, p=8, q=6):
    return model.SCPCModel.init(model.ModelConfig(frame_dim=p, segment_dim=q), seed=seed)


def encode(m, samples):
    return model.frame_latents(m.params, samples)


class TestFrameEncoderGeometry:
    def test_output_length_formula(self):
        m = small_model()
        rng = np.random.default_rng(0)
        for t in rng.integers(model.RECEPTIVE_FIELD, 8000, size=50):
            samples = rng.standard_normal(int(t)).astype(np.float32) * 0.1
            z = encode(m, samples)
            assert z.shape == ((int(t) - 465) // 160 + 1, 8), f"T={t}"

    def test_single_receptive_field(self):
        m = small_model()
        samples = np.random.default_rng(1).standard_normal(465).astype(np.float32)
        assert encode(m, samples).shape == (1, 8)

    def test_one_second_gives_98_frames(self):
        assert model.n_frames(16000) == 98

    def test_too_short_rejected(self):
        m = small_model()
        with pytest.raises(ValueError, match="465"):
            encode(m, np.zeros(464, dtype=np.float32))

    def test_hop_is_10ms(self):
        assert model.FRAME_HOP_S == pytest.approx(0.010)

    def test_prefix_causality(self):
        # Frame t depends only on its own 465-sample window: encoding a
        # prefix reproduces the leading frames bitwise.
        m = small_model(seed=3)
        rng = np.random.default_rng(2)
        samples = rng.standard_normal(465 + 160 * 9).astype(np.float32) * 0.2
        full = encode(m, samples)
        head = encode(m, samples[: 465 + 160 * 4])
        np.testing.assert_array_equal(head, full[:5])

    def test_one_tape_node_per_layer(self):
        # Each conv layer is one fused op and one stage; the LATENT_EPS shift
        # adds none, so the last layer writes "frames".
        m = small_model()
        tape = dc.Tape()
        model.frame_latents(m.params, np.zeros(2000, dtype=np.float32), tape=tape)
        assert len(tape._stages) == len(model.KERNELS) and tape._stages[-1][1] == "frames"

    def test_silence_latents_nonzero(self):
        m = small_model()
        z = encode(m, np.zeros(2000, dtype=np.float32))
        assert np.all(np.linalg.norm(z, axis=1) > 0)

    def test_dead_relu_stack_still_nonzero(self):
        # Trained biases can kill every relu in a window; the output epsilon
        # must keep the latents usable by cosine similarity anyway.
        m = small_model()
        for i in range(len(model.KERNELS)):
            m.params[f"frame_conv{i}_b"] = np.full(8, -10.0, dtype=np.float32)
        z = encode(m, np.random.default_rng(0).standard_normal(2000).astype(np.float32))
        assert np.all(np.linalg.norm(z, axis=1) > 0)
        dissim, _, _ = bd.boundary_indicator(z, 0.09)
        assert np.all(np.isfinite(dissim))

    def test_dead_segment_mlp_still_nonzero(self):
        m = small_model()
        m.params["seg_b1"] = np.full(6, -10.0, dtype=np.float32)  # dead hidden layer
        means = np.random.default_rng(1).standard_normal((4, 8)).astype(np.float32)
        s = model.segment_latents(m.params, means)
        assert np.all(np.linalg.norm(s, axis=1) > 0)


class TestInit:
    def test_seed_determinism(self):
        a, b = small_model(seed=5), small_model(seed=5)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    def test_seed_changes_weights(self):
        a, b = small_model(seed=5), small_model(seed=6)
        assert not np.array_equal(a.params["frame_conv0_w"], b.params["frame_conv0_w"])

    def test_all_params_float32(self):
        m = small_model()
        assert all(v.dtype == np.float32 for v in m.params.values())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="thres"):
            model.ModelConfig(thres=1.5)
        with pytest.raises(ValueError, match="dims"):
            model.ModelConfig(frame_dim=0)


class TestSegmentAndContext:
    def test_segment_latents_shape(self):
        m = small_model()
        out = model.segment_latents(m.params, np.random.default_rng(0).standard_normal((4, 8)).astype(np.float32))
        assert out.shape == (4, 6)

    def test_segment_latents_match_layer_chain_bitwise(self):
        # Reference: the MLP one layer at a time in numpy, each gradient the
        # expression of the generic op it once was.  Hidden unit 0 has a
        # pre-activation of exactly 0 and so passes no gradient.
        rng = np.random.default_rng(5)
        m = small_model(seed=2)
        m.params["seg_w1"][:, 0] = 0
        m.params["seg_b1"] = np.concatenate([[0], rng.standard_normal(5)]).astype(np.float32)
        m.params["seg_b2"] = rng.standard_normal(6).astype(np.float32)
        means0 = rng.standard_normal((7, 8)).astype(np.float32)
        g = rng.standard_normal((7, 6)).astype(np.float32)
        tape = dc.Tape()
        out = model.segment_latents(m.params, means0, tape)
        reads, writes, vjp = only_stage(tape)
        assert reads == ("means", "seg_w1", "seg_b1", "seg_w2", "seg_b2") and writes == "segments"
        fused = [out, *vjp(g)]

        w1, b1, w2, b2 = (m.params[k] for k in ("seg_w1", "seg_b1", "seg_w2", "seg_b2"))
        pre = means0 @ w1 + b1
        h = np.maximum(pre, 0)
        g_pre = (g @ w2.T) * (pre > 0).astype(np.float32)
        ref = [h @ w2 + b2 + np.float32(model.LATENT_EPS),
               g_pre @ w1.T, means0.T @ g_pre, g_pre.sum(axis=0, dtype=np.float64).astype(np.float32),
               h.T @ g, g.sum(axis=0, dtype=np.float64).astype(np.float32)]
        assert np.all(pre[:, 0] == 0) and 0 < np.count_nonzero(pre > 0) < pre.size
        for a, b in zip(fused, ref):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert fused[3][0] == 0 and not fused[2][:, 0].any()

    def test_context_is_causal(self):
        m = small_model(seed=1)
        rng = np.random.default_rng(3)
        segs = rng.standard_normal((5, 6)).astype(np.float32)

        def run(arr):
            return model.context_states(m.params, arr)

        base = run(segs)
        bumped = segs.copy()
        bumped[2] += 1.0
        changed = run(bumped)
        np.testing.assert_array_equal(changed[:2], base[:2])
        assert not np.array_equal(changed[2], base[2])
        assert not np.array_equal(changed[4], base[4])

    def test_context_bounded_by_tanh(self):
        m = small_model()
        segs = np.random.default_rng(4).standard_normal((7, 6)).astype(np.float32) * 10
        assert np.all(np.abs(model.context_states(m.params, segs)) <= 1.0)

    def test_training_step_tape_size_independent_of_segment_count(self):
        # Noise through an untrained encoder at threshold 0 gives about one
        # segment per three frames; 0.7 s and 6.3 s give ~20 and ~180.
        m = small_model(q=8)
        sizes = {}
        for seconds in (0.7, 6.3):
            samples = np.random.default_rng(0).standard_normal(int(seconds * 16000)).astype(np.float32)
            tape = dc.Tape()
            graph = model.analyze_utterance(m.params, samples, 0.0, tape=tape)
            obj.utterance_loss(graph.frames, graph.segments, graph.contexts, 4, 2, True, np.random.default_rng(0), tape)
            sizes[graph.boundaries.n_segments] = [writes for _, writes, _ in tape._stages]
        (few, stages_few), (many, stages_many) = sorted(sizes.items())
        assert 15 <= few <= 25 and 160 <= many <= 200, sizes
        assert stages_few == stages_many == ["conv0", "conv1", "conv2", "conv3", "frames", "indicator", "means", "segments", "contexts", "loss"], sizes


class TestCheckpoint:
    @pytest.mark.parametrize("content", [b"", b"not a checkpoint\n", b"PK\x03\x04" + bytes(40)], ids=["empty", "text", "bad_zip"])
    def test_rejected_file_is_closed(self, tmp_path, content):
        # numpy raises BadZipFile for the last one after it has taken over
        # the file; the handle must still be closed, not left to the collector.
        bad = tmp_path / "bad.npz"
        bad.write_bytes(content)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ValueError, match="bad.npz: not an npz checkpoint"):
                model.load_checkpoint(bad)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_round_trip(self, tmp_path):
        m = small_model(seed=9)
        extras = {"adam_m/seg_w1": np.ones((8, 6), dtype=np.float32)}
        train_cfg = {"lr": 0.001, "epochs": 10}
        path = tmp_path / "ckpt.npz"
        model.save_checkpoint(path, m, extra_arrays=extras, train_config=train_cfg)
        loaded, extras_back, train_back = model.load_checkpoint(path)
        assert loaded.config == m.config
        assert train_back == train_cfg
        for name in m.params:
            np.testing.assert_array_equal(loaded.params[name], m.params[name])
        np.testing.assert_array_equal(extras_back["adam_m/seg_w1"], extras["adam_m/seg_w1"])

    def test_other_sample_rate_rejected(self, tmp_path):
        # The model echo ends with the one rate the encoder takes.
        path = tmp_path / "ckpt.npz"
        model.save_checkpoint(path, small_model())
        with np.load(path, allow_pickle=False) as data:
            payload = {k: data[k] for k in data.files}
        echo = json.loads(str(payload["config_json"]))
        assert list(echo["model"].items())[-1] == ("sample_rate", 16000)
        echo["model"]["sample_rate"] = 44100
        payload["config_json"] = np.asarray(json.dumps(echo))
        np.savez(path, **payload)
        with pytest.raises(ValueError, match=r"ckpt.npz: checkpoint model takes sample_rate 44100; only 16000 Hz"):
            model.load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        m = small_model()
        path = tmp_path / "ckpt.npz"
        model.save_checkpoint(path, m)
        with np.load(path, allow_pickle=False) as data:
            payload = {k: data[k] for k in data.files}
        payload["format_version"] = np.asarray(99)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="version mismatch"):
            model.load_checkpoint(path)

    def test_missing_param_rejected(self, tmp_path):
        m = small_model()
        path = tmp_path / "ckpt.npz"
        model.save_checkpoint(path, m)
        with np.load(path, allow_pickle=False) as data:
            payload = {k: data[k] for k in data.files if k != "param/ctx_b"}
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="ctx_b"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("name, corrupt, found", [
        ("frame_conv1_w", lambda a: a[:, :, :-1], "(8, 8, 7)"),
        ("seg_b1", lambda a: a.astype(np.float64), "float64"),
    ])
    def test_wrong_shape_or_dtype_rejected(self, tmp_path, name, corrupt, found):
        m = small_model()
        path = tmp_path / "ckpt.npz"
        model.save_checkpoint(path, m)
        with np.load(path, allow_pickle=False) as data:
            payload = {k: data[k] for k in data.files}
        payload[f"param/{name}"] = corrupt(payload[f"param/{name}"])
        np.savez(path, **payload)
        with pytest.raises(ValueError) as err:
            model.load_checkpoint(path)
        msg = str(err.value)
        expected = m.params[name]
        assert str(path) in msg and name in msg and found in msg
        assert str(expected.shape) in msg and str(expected.dtype) in msg
