"""Tests for configuration handling and the training loop.

Training runs here use a deliberately tiny corpus and model so the whole
file stays fast; the desk-scale quality gates live in the acceptance tests.
"""

from __future__ import annotations

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from scpc import audio
from scpc import boundary
from scpc import cli
from scpc import diffcore as dc
from scpc import infer
from scpc import model
from scpc import trainer

TINY = trainer.TrainConfig(
    batch_size=5, epochs=3, add_nsc_epoch=1, k_frame=4, k_seg=2,
    frame_dim=8, segment_dim=8, thres=0.02, seed=0,
)


# ------------------------------------------------------------ configuration

def test_parse_config_text_basics():
    text = "# comment\nlr = 0.01\n\nepochs = 4   # trailing comment\n"
    assert trainer.parse_config_text(text, "t.cfg") == {"lr": "0.01", "epochs": "4"}


def test_parse_config_text_rejects_malformed():
    with pytest.raises(ValueError, match="^t.cfg:1: expected"):
        trainer.parse_config_text("just words\n", "t.cfg")
    with pytest.raises(ValueError, match="^t.cfg:2: duplicate"):
        trainer.parse_config_text("lr = 1\nlr = 2\n", "t.cfg")
    with pytest.raises(ValueError, match="^t.cfg:1: empty"):
        trainer.parse_config_text("lr =\n", "t.cfg")


def test_resolve_config_defaults():
    assert trainer.resolve_config() == trainer.TrainConfig()


def test_resolve_config_precedence(tmp_path):
    cfg_file = tmp_path / "train.cfg"
    cfg_file.write_text("lr = 0.01\nepochs = 4\nbatch_size = 2\n")
    # the file beats the defaults; keys it leaves out keep them
    cfg = trainer.resolve_config(cfg_file)
    assert cfg == dataclasses.replace(trainer.TrainConfig(), lr=0.01, epochs=4, batch_size=2)


def test_resolve_config_ignores_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("SCPC_LR", "0.5")
    monkeypatch.setenv("SCPC_EPOCHS", "2")
    assert trainer.resolve_config() == trainer.TrainConfig()
    cfg_file = tmp_path / "train.cfg"
    cfg_file.write_text("lr = 0.01\n")
    assert trainer.resolve_config(cfg_file).lr == 0.01


def test_resolve_config_lists_unknown_keys(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("foo = 1\nlr = 0.1\nbar = 2\n")
    with pytest.raises(ValueError, match="bar, foo"):
        trainer.resolve_config(cfg_file)


def test_resolve_config_bad_value_names_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("epochs = soon\n")
    with pytest.raises(ValueError, match="epochs"):
        trainer.resolve_config(cfg_file)


def test_config_text_roundtrip(tmp_path):
    cfg = dataclasses.replace(trainer.TrainConfig(), lr=0.003, k_seg=3, epochs=7)
    path = tmp_path / "echo.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in dataclasses.asdict(cfg).items()))
    assert trainer.resolve_config(path) == cfg


def test_train_config_validation():
    with pytest.raises(ValueError, match="thres"):
        trainer.TrainConfig(thres=1.5)
    with pytest.raises(ValueError, match="add_nsc_epoch"):
        trainer.TrainConfig(add_nsc_epoch=-1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        trainer.TrainConfig(seed=-1)


# -------------------------------------------------------------------- data

@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec = dataclasses.replace(audio.default_spec(seed=21), words_per_utterance=(2, 3))
    train_manifest = audio.save_corpus(audio.generate_corpus(spec, 10), root / "train")
    val_manifest = audio.save_corpus(audio.generate_corpus(spec, 3, start_index=1000), root / "val")
    return train_manifest, val_manifest


def test_load_dataset(corpus, tmp_path):
    waves = trainer.load_dataset(corpus[0])
    assert list(waves) == list(audio.read_manifest(corpus[0]))
    for samples in waves.values():
        assert samples.dtype == np.float32 and samples.ndim == 1
    # Annotations must exist but are never parsed for training.
    bad = tmp_path / "bad.phn"
    bad.write_text("not a line\n")
    audio.write_manifest([(wav, bad, bad) for wav, _, _ in audio.read_manifest(corpus[0]).values()], tmp_path / "manifest.tsv")
    assert len(trainer.load_dataset(tmp_path / "manifest.tsv")) == len(waves)


# ---------------------------------------------------------------- training

@pytest.fixture(scope="module")
def run(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    return trainer.train(corpus[0], TINY, out, corpus[1])


def test_train_smoke(run):
    assert run.checkpoint.is_file()
    lines = run.metrics_log.read_text().splitlines()
    assert len(lines) == 3
    records = [json.loads(line) for line in lines]
    assert records == run.history
    assert records[0]["l_nsc"] is None          # segment loss inactive in epoch 0
    assert records[1]["l_nsc"] is not None      # active from add_nsc_epoch on
    for rec in records:
        assert rec["l_nfc"] > 0
        assert rec["mean_segments"] >= 1
        assert "val_r_phoneme" in rec and "val_r_word" in rec


def test_validation_streams_val_audio_once_per_epoch(corpus, tmp_path, monkeypatch):
    val_dir = corpus[1].resolve().parent
    real_load_wav = audio.load_wav
    val_reads = []

    def counting(path):
        if Path(path).resolve().parent == val_dir:
            val_reads.append(path)
        return real_load_wav(path)

    monkeypatch.setattr(audio, "load_wav", counting)
    cfg = dataclasses.replace(TINY, epochs=2)
    trainer.train(corpus[0], cfg, tmp_path / "out", corpus[1])
    assert len(val_reads) == cfg.epochs * len(audio.read_manifest(corpus[1]))


def test_checkpoint_carries_training_state(run):
    net, extras, echoed = model.load_checkpoint(run.checkpoint)
    assert int(extras["epoch"]) == 3
    assert trainer.TrainConfig(**echoed) == TINY
    init = model.SCPCModel.init(net.config, seed=TINY.seed)
    changed = any(not np.array_equal(net.params[k], init.params[k]) for k in net.params)
    assert changed, "training left every parameter at its initial value"


def test_checkpoint_roundtrip_identical_forward(run, corpus):
    loaded, _, _ = model.load_checkpoint(run.checkpoint)
    utt_id, samples = next(iter(trainer.load_dataset(corpus[1]).items()))
    a = infer.profile_utterance(run.model, samples, utt_id)
    b = infer.profile_utterance(loaded, samples, utt_id)
    assert np.array_equal(a.dissimilarity, b.dissimilarity)
    assert np.array_equal(a.word_scores, b.word_scores)


def test_training_is_bitwise_deterministic(run, corpus, tmp_path):
    again = trainer.train(corpus[0], TINY, tmp_path / "again", corpus[1])
    for k in run.model.params:
        assert np.array_equal(run.model.params[k], again.model.params[k])
    assert run.history == again.history


def test_resume_matches_uninterrupted_run(corpus, tmp_path):
    full_cfg = dataclasses.replace(TINY, epochs=4)
    straight = trainer.train(corpus[0], full_cfg, tmp_path / "straight", corpus[1])
    part_cfg = dataclasses.replace(TINY, epochs=2)
    partial = trainer.train(corpus[0], part_cfg, tmp_path / "resumed", corpus[1])
    resumed = trainer.train(corpus[0], full_cfg, tmp_path / "resumed", corpus[1], resume_from=partial.checkpoint)
    for k in straight.model.params:
        assert np.array_equal(straight.model.params[k], resumed.model.params[k])
    assert straight.history[2:] == resumed.history
    assert straight.metrics_log.read_text() == resumed.metrics_log.read_text()


def test_resume_rejects_changed_math(corpus, tmp_path):
    partial = trainer.train(corpus[0], dataclasses.replace(TINY, epochs=1), tmp_path / "a")
    with pytest.raises(ValueError, match="lr"):
        trainer.train(corpus[0], dataclasses.replace(TINY, epochs=2, lr=0.5), tmp_path / "b", resume_from=partial.checkpoint)
    with pytest.raises(ValueError, match="nothing to resume"):
        trainer.train(corpus[0], dataclasses.replace(TINY, epochs=1), tmp_path / "c", resume_from=partial.checkpoint)


def _with_extra(run, tmp_path, name, value):
    """A copy of ``run``'s checkpoint whose optimizer-state array ``name``
    is ``value``, or missing when ``value`` is None."""
    with np.load(run.checkpoint) as data:
        arrays = {k: a for k, a in data.items() if k != f"extra/{name}"}
    if value is not None:
        arrays[f"extra/{name}"] = np.asarray(value, dtype=np.int64)
    path = tmp_path / "state.npz"
    np.savez(path, **arrays)
    return path


@pytest.mark.parametrize("epochs, lr, extra, message", [
    (4, 0.5, None, "resume config differs from checkpoint on: lr"),
    (4, TINY.lr, ("adam_t", None), "optimizer state extra/adam_t is missing"),
    (3, TINY.lr, None, "checkpoint already covers 3 epochs"),
    (4, TINY.lr, ("epoch", -1), "state.npz: optimizer state extra/epoch is -1, expected >= 0; cannot resume"),
    (4, TINY.lr, ("adam_t", -3), "state.npz: optimizer state extra/adam_t is -3, expected >= 0; cannot resume"),
], ids=["config", "optimizer-state", "epochs", "negative-epoch", "negative-adam-t"])
def test_resume_fails_before_reading_audio(run, corpus, tmp_path, monkeypatch, capsys, epochs, lr, extra, message):
    ckpt = run.checkpoint if extra is None else _with_extra(run, tmp_path, *extra)
    reads, load_wav = [], audio.load_wav
    monkeypatch.setattr(audio, "load_wav", lambda path: (reads.append(path), load_wav(path))[1])
    config = dataclasses.replace(TINY, epochs=epochs, lr=lr)
    out = tmp_path / "a"
    with pytest.raises(ValueError, match=message):
        trainer.train(corpus[0], config, out, corpus[1], resume_from=ckpt)
    assert not out.exists()
    # The command fails alike and leaves the echo of the run in --out as it was.
    out.mkdir()
    earlier = b'{"command": "train"}\n'
    (out / "config_resolved.json").write_bytes(earlier)
    cfg_file = tmp_path / "resume.cfg"
    cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in dataclasses.asdict(config).items()))
    code = cli.main(["train", "--manifest", str(corpus[0]), "--val", str(corpus[1]), "--config", str(cfg_file),
                     "--out", str(out), "--resume", str(ckpt)])
    assert code == 1 and message in capsys.readouterr().err
    assert (out / "config_resolved.json").read_bytes() == earlier
    assert sorted(p.name for p in out.iterdir()) == ["config_resolved.json"]
    assert reads == []


@pytest.mark.parametrize("key, value", [("optimizer", "adam"), ("beta1", 0.9)], ids=["optimizer", "beta1"])
def test_resume_rejects_unknown_config_keys(run, corpus, tmp_path, capsys, key, value):
    # Keys that checkpoints of older builds carry.
    with np.load(run.checkpoint) as data:
        arrays = dict(data)
    echo = json.loads(str(arrays["config_json"]))
    echo["train"][key] = value
    arrays["config_json"] = np.asarray(json.dumps(echo))
    old = tmp_path / "old.npz"
    np.savez(old, **arrays)
    with pytest.raises(ValueError, match=f"unknown keys: {key}"):
        trainer.train(corpus[0], dataclasses.replace(TINY, epochs=4), tmp_path / "a", resume_from=old)
    code = cli.main(["train", "--manifest", str(corpus[0]), "--out", str(tmp_path / "b"), "--resume", str(old)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err


def _echo_train_config(run, tmp_path, edit):
    """A copy of ``run``'s checkpoint whose echoed training config is ``edit``'s result."""
    with np.load(run.checkpoint) as data:
        arrays = dict(data)
    echo = json.loads(str(arrays["config_json"]))
    echo["train"] = edit(echo["train"])
    arrays["config_json"] = np.asarray(json.dumps(echo))
    path = tmp_path / "echo.npz"
    np.savez(path, **arrays)
    return path


@pytest.mark.parametrize("train_echo, message", [(5, "no training config object (found 5)"), ([1, 2], "no training config object (found [1, 2])")],
                         ids=["number", "list"])
def test_resume_rejects_a_train_config_that_is_not_an_object(run, corpus, tmp_path, train_echo, message):
    ckpt = _echo_train_config(run, tmp_path, lambda echo: train_echo)
    with pytest.raises(ValueError) as err:
        trainer.train(corpus[0], dataclasses.replace(TINY, epochs=4), tmp_path / "a", resume_from=ckpt)
    assert str(err.value).startswith(f"{ckpt}: checkpoint carries {message}")
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("key, value, message", [
    ("lr", "fast", "lr must be float, got 'fast'"),
    ("batch_size", 5.5, "batch_size must be int, got 5.5"),
    ("add_nsc_epoch", True, "add_nsc_epoch must be int, got True"),
    ("lr", -1, "lr must be positive"),
    ("lr", float("nan"), "lr must be positive and finite, got nan"),
    ("lr", float("inf"), "lr must be positive and finite, got inf"),
    ("seed", -1, "seed must be >= 0, got -1"),
], ids=["str-for-float", "float-for-int", "bool-for-int", "bad-value", "nan-lr", "inf-lr", "negative-seed"])
def test_resume_rejects_wrongly_typed_train_config_values(run, corpus, tmp_path, capsys, key, value, message):
    ckpt = _echo_train_config(run, tmp_path, lambda echo: {**echo, key: value})
    with pytest.raises(ValueError) as err:
        trainer.train(corpus[0], dataclasses.replace(TINY, epochs=4), tmp_path / "a", resume_from=ckpt)
    assert str(err.value).startswith(f"{ckpt}: checkpoint training config: {message}")
    code = cli.main(["train", "--manifest", str(corpus[0]), "--out", str(tmp_path / "b"), "--resume", str(ckpt)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1


def test_train_config_rejects_wrongly_typed_values():
    # A float field takes an int, as a JSON echo of 1.0 can be; bool fits neither.
    assert trainer.TrainConfig(lr=1).lr == 1
    with pytest.raises(ValueError, match="epochs must be int, got 2.0"):
        trainer.TrainConfig(epochs=2.0)
    with pytest.raises(ValueError, match="thres must be float, got False"):
        trainer.TrainConfig(thres=False)


def test_divergence_names_utterance_and_keeps_checkpoint(corpus, tmp_path, monkeypatch):
    out = tmp_path / "diverge"
    good = trainer.train(corpus[0], dataclasses.replace(TINY, epochs=1), out)

    bad_dir = tmp_path / "bad_data"
    spec = dataclasses.replace(audio.default_spec(seed=21), words_per_utterance=(2, 3))
    utts = audio.generate_corpus(spec, 5)
    manifest = audio.save_corpus(utts, bad_dir)
    victim = audio.read_manifest(manifest)["u00002"][0]
    n = audio.load_wav(victim).samples.size
    wavfile.write(victim, 16000, np.full(n, np.nan, dtype=np.float32))
    # A NaN file is refused when it is read ...
    with pytest.raises(ValueError, match=f"{victim.name}: float32 samples must be finite"):
        trainer.train(manifest, dataclasses.replace(TINY, epochs=1), out)

    # ... so hand the NaN samples to training past that check.
    load_wav = audio.load_wav

    def load_nan(path):
        if Path(path) == victim:
            return audio.Waveform(np.full(n, np.nan, dtype=np.float32), 16000)
        return load_wav(path)

    monkeypatch.setattr(audio, "load_wav", load_nan)
    with pytest.raises(trainer.DivergenceError, match="non-finite loss on utterance u00002 "):
        trainer.train(manifest, dataclasses.replace(TINY, epochs=1), out)
    kept, _, _ = model.load_checkpoint(out / "checkpoint.npz")
    for k in kept.params:
        assert np.array_equal(kept.params[k], good.model.params[k])


def test_one_process_folds_each_gradient_before_the_next_step(tmp_path, monkeypatch):
    # At one worker a batch of 8 holds no more per-utterance gradients at
    # its peak than a batch of 1 does.  The longest utterance, whose step
    # sets the peak, comes last in the batch, after 7 gradients.  tracemalloc
    # does not see the shared mapping, so its slot count is checked too.
    spec = dataclasses.replace(audio.default_spec(seed=7), words_per_utterance=(6, 12))
    rows = list(audio.read_manifest(audio.save_corpus(audio.generate_corpus(spec, 8), tmp_path / "corpus")).values())
    rows.sort(key=lambda row: audio.load_wav(row[0]).samples.size)
    last = int(np.random.default_rng([0, 0]).permutation(8)[-1])
    rows.insert(last, rows.pop())
    manifest = tmp_path / "manifest.tsv"
    audio.write_manifest(rows, manifest)
    peaks, slots = {}, {}
    arena = trainer._arena

    def counted(net, n_slots):
        params, held = arena(net, n_slots)
        slots[batch_size] = held.shape[0]
        return params, held

    monkeypatch.setattr(trainer, "_arena", counted)
    for batch_size in (1, 8):
        config = trainer.TrainConfig(epochs=1, batch_size=batch_size, add_nsc_epoch=0)
        tracemalloc.start()
        try:
            trainer.train(manifest, config, tmp_path / f"batch{batch_size}", workers=1)
            peaks[batch_size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    gradient = sum(p.nbytes for p in model.SCPCModel.init(model.ModelConfig()).params.values())
    assert peaks[8] - peaks[1] < gradient, f"peaks {peaks}, one gradient {gradient} bytes"
    assert slots == {1: 1, 8: 1}


def _long_samples(seconds):
    """``seconds`` of synthetic speech, utterances joined end to end."""
    spec = audio.default_spec(seed=0)
    samples = np.concatenate([u.waveform.samples for u in audio.generate_corpus(spec, 4 * seconds)])[: seconds * 16000]
    assert samples.size == seconds * 16000
    return samples


def test_a_training_step_peaks_below_2_3_mb_per_audio_second():
    # One 20 s step with the segment loss on, one thread: the traced peak,
    # activations held for backward and the gradients together, grows
    # linearly with length.  It reads 2.11 MB per audio second, as backward
    # frees each stage once replayed and each vjp overwrites the gradient it
    # owns instead of copying it (2.60 while the conv vjp masked a copy and
    # the cosine vjp returned broadcast-shaped gradients, 3.68 while the
    # tape held every stage until it finished); a vjp that kept a buffer
    # alive by mistake would push it up.
    net = model.SCPCModel.init(model.ModelConfig(), seed=0)
    samples = _long_samples(20)
    tracemalloc.start()
    try:
        grads, report, _ = trainer._utterance_step(net.params, samples, trainer.TrainConfig(), True, np.random.default_rng(0), 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grads is not None and report.nsc is not None
    assert peak / 2**20 / 20 <= 2.3, f"peak {peak / 2**20:.1f} MB for 20 s"


@pytest.mark.parametrize("threads", [1, 2])
def test_vjps_may_overwrite_the_gradients_they_are_handed(threads, monkeypatch):
    # The tape's ownership rule: each vjp is handed a gradient no other live
    # array shares, so overwriting it (as the conv vjp masks it in place)
    # changes nothing else.  A step whose vjps each get a private copy gives
    # the same bytes; a vjp that returned an array aliasing another gradient
    # would let a later overwrite reach that gradient and break the match.
    net = model.SCPCModel.init(model.ModelConfig(), seed=0)
    short = audio.generate_utterance(audio.default_spec(seed=0), 3).waveform.samples
    for samples in (short, _long_samples(15)):
        def step():
            grads, report, _ = trainer._utterance_step(net.params, samples, trainer.TrainConfig(), True, np.random.default_rng(0), threads)
            assert report.nsc is not None
            return {k: g.tobytes() for k, g in grads.items()}

        shared = step()
        record = dc.Tape.record
        with monkeypatch.context() as mp:
            mp.setattr(dc.Tape, "record", lambda self, reads, writes, vjp: record(self, reads, writes, lambda g: vjp(g.copy())))
            private = step()
        assert shared.keys() == private.keys() == net.params.keys()
        for k in shared:
            assert shared[k] == private[k], k


# ------------------------------------------------------- one training step

STEP_CONFIG = trainer.TrainConfig(thres=0.0, k_frame=4, k_seg=2, frame_dim=8, segment_dim=8)


@pytest.fixture(scope="module")
def step_case():
    """A two-word utterance and a small model's parameters; threshold 0
    keeps every dissimilarity peak, so the utterance has several segments."""
    spec = dataclasses.replace(audio.default_spec(seed=0), words_per_utterance=(2, 2))
    samples = audio.generate_utterance(spec, 0).waveform.samples
    return model.SCPCModel.init(model.ModelConfig(frame_dim=8, segment_dim=8), seed=1).params, samples


def _step(params, samples, nsc_active):
    return trainer._utterance_step(params, samples, STEP_CONFIG, nsc_active, np.random.default_rng(3), 1)


@pytest.mark.parametrize("name, nsc_active", [("frame_conv0_w", False), ("frame_conv4_w", False), ("seg_w1", True), ("ctx_w_h", True)])
def test_step_gradient_matches_finite_differences(step_case, name, nsc_active):
    # The whole step in float64, one parameter of each stage kind: the
    # first and last conv layers, the segment MLP and the recurrence, along
    # random directions.  The boundary op's straight-through gradient is not
    # the derivative of its hard forward, so the conv layers are checked
    # with the segment loss off, where no gradient reaches that op, and the
    # segment blocks with it on, whose perturbation leaves the spans fixed.
    params = {k: p.astype(np.float64) for k, p in step_case[0].items()}
    samples = step_case[1].astype(np.float64)
    grads, report, n_segments = _step(params, samples, nsc_active)
    assert n_segments >= 3 and (report.nsc is not None) == nsc_active
    assert grads[name].dtype == np.float64
    rng, h = np.random.default_rng(0), 1e-5
    for _ in range(3):
        v = rng.standard_normal(params[name].shape)
        v /= np.linalg.norm(v)
        f = [_step({**params, name: params[name] + sign * h * v}, samples, nsc_active)[1].total for sign in (1, -1)]
        numeric = (f[0] - f[1]) / (2 * h)
        assert abs(float((grads[name] * v).sum()) - numeric) <= 1e-6 * abs(numeric), name


def test_step_without_the_segment_loss_gives_exact_zero_segment_gradients(step_case):
    # The segment MLP and the recurrence are recorded, but the loss reads
    # neither, so their stages are skipped and the step zero-fills them.
    params, samples = step_case
    grads, report, n_segments = _step(params, samples, False)
    assert report.nsc is None and n_segments >= 3
    for k, p in params.items():
        assert grads[k].dtype == p.dtype and grads[k].shape == p.shape
        if k.startswith(("seg_", "ctx_")):
            assert (grads[k] == 0).all() and not np.signbit(grads[k]).any(), k
        else:
            assert grads[k].any(), k


def test_a_constant_indicator_passes_no_boundary_gradient(step_case, monkeypatch):
    params, samples = step_case
    # Silence encodes to identical frames, so every junction has the same
    # similarity and the indicator is constant: no boundary stage is
    # recorded, and the pool's indicator gradient has no reader.
    written = []
    record = dc.Tape.record
    with monkeypatch.context() as mp:
        mp.setattr(dc.Tape, "record", lambda self, reads, writes, vjp: (written.append(writes), record(self, reads, writes, vjp)))
        grads, _, n_segments = _step(params, np.zeros(8000, np.float32), True)
    assert n_segments == 1 and "means" in written and "indicator" not in written
    assert all(np.isfinite(g).all() for g in grads.values())

    # The same on a live utterance, with the op's vjp dropped: the step's
    # gradients equal those of a boundary vjp that returns zeros, and
    # differ from the real op's.
    real = boundary.boundary_indicator

    def step_with(stub):
        def indicator(frames, thres):
            d, ind, vjp = real(frames, thres)
            return d, ind, stub(frames, vjp)

        monkeypatch.setattr(boundary, "boundary_indicator", indicator)
        return _step(params, samples, True)[0]

    constant = step_with(lambda frames, vjp: None)
    zero = step_with(lambda frames, vjp: lambda g: (np.zeros_like(frames), np.zeros_like(frames)))
    live = step_with(lambda frames, vjp: vjp)
    for k in params:
        np.testing.assert_array_equal(constant[k], zero[k], err_msg=k)
    assert not np.array_equal(constant["frame_conv4_w"], live["frame_conv4_w"])
    assert np.array_equal(constant["seg_w1"], live["seg_w1"])   # downstream of the indicator


def test_short_utterances_are_skipped_not_fatal(corpus, tmp_path):
    data = tmp_path / "with_tiny"
    spec = dataclasses.replace(audio.default_spec(seed=22), words_per_utterance=(2, 2))
    manifest = audio.save_corpus(audio.generate_corpus(spec, 5), data)
    audio.write_wav(data / "tiny.wav", audio.Waveform(np.zeros(700, dtype=np.float32), 16000))
    (data / "tiny.phn").write_text("0 700 p0\n")
    (data / "tiny.wrd").write_text("0 700 w0\n")
    with open(manifest, "a") as f:
        f.write("tiny.wav\ttiny.phn\ttiny.wrd\n")
    result = trainer.train(manifest, dataclasses.replace(TINY, epochs=1), tmp_path / "out")
    assert result.history[0]["n_skipped"] == 1


def test_loss_decreases_over_training(corpus, tmp_path):
    cfg = dataclasses.replace(TINY, add_nsc_epoch=0, epochs=4)
    result = trainer.train(corpus[0], cfg, tmp_path / "learn")
    first = result.history[0]["l_nfc"] + result.history[0]["l_nsc"]
    last = result.history[-1]["l_nfc"] + result.history[-1]["l_nsc"]
    assert last < first


def test_train_requires_enough_utterances(corpus, tmp_path):
    with pytest.raises(ValueError) as err:
        trainer.train(corpus[1], TINY, tmp_path / "small")  # val split has 3 < batch 5
    assert str(err.value) == f"{corpus[1]}: need at least batch_size=5 utterances, got 3"
    assert not (tmp_path / "small").exists()


# ------------------------------------------------------------------ sweeps

def test_sweep_grids_match_reference():
    assert len(trainer.SWEEP_GRIDS["thres"]) == 11
    assert trainer.SWEEP_GRIDS["thres"][0] == 0.0
    assert trainer.SWEEP_GRIDS["thres"][-1] == pytest.approx(0.10)
    assert trainer.SWEEP_GRIDS["nsc_epoch"] == tuple(range(11))


def test_sweep_single_point_equals_plain_train(corpus, tmp_path):
    rows = trainer.sweep(corpus[0], corpus[1], TINY, "thres", tmp_path / "sweep", values=(TINY.thres,))
    assert len(rows) == 1
    plain = trainer.train(corpus[0], TINY, tmp_path / "plain", corpus[1])
    last = plain.history[-1]
    assert rows[0]["phoneme_r_value"] == last["val_r_phoneme"]
    assert rows[0]["word_r_value"] == last["val_r_word"]
    assert rows[0]["mean_segments"] == last["mean_segments"]
    table = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert table == rows


def test_sweep_points_name_their_directories():
    points = trainer.sweep_points(TINY, "nsc_epoch", (0, 3))
    assert [(name, value, config.add_nsc_epoch) for name, value, config in points] == [("nsc_epoch_0", 0, 0), ("nsc_epoch_3", 3, 3)]
    with pytest.raises(ValueError, match="grid points 0.1 and 0.1 both map to the directory thres_0.10"):
        trainer.sweep_points(TINY, "thres", (0.1, 0.1))


def test_sweep_rejects_unknown_grid(corpus, tmp_path):
    with pytest.raises(ValueError, match="grid"):
        trainer.sweep(corpus[0], corpus[1], TINY, "learning_rate", tmp_path / "x")
