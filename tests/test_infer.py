"""Tests for peak-picking inference and its file formats."""

from __future__ import annotations

import numpy as np
import pytest

from scpc import audio
from scpc import infer
from scpc import model


def make_profile(utt_id="u0", dissim=(), word=(), ends=(), duration=1.0):
    return infer.UtteranceProfile(
        utt_id,
        np.asarray(dissim, dtype=np.float64),
        np.asarray(word, dtype=np.float64),
        np.asarray(ends, dtype=np.int64),
        duration,
    )


def test_config_validation():
    with pytest.raises(ValueError, match="prominence"):
        infer.PeakPickConfig(prominence=-0.1)
    with pytest.raises(ValueError, match="level"):
        infer.PeakPickConfig(level="frame")
    assert infer.PeakPickConfig().prominence == 0.1


def test_predicted_boundaries_must_increase():
    with pytest.raises(ValueError, match="increasing"):
        infer.PredictedBoundaries("u", "phoneme", np.array([0.1, 0.1]))


def test_single_peak_lands_at_20ms():
    profile = make_profile(dissim=[0.0, 1.0, 0.0])
    out = infer.phoneme_boundaries(profile, infer.PeakPickConfig(prominence=0.5))
    assert np.allclose(out.times, [0.020])


def test_monotone_dissimilarity_gives_no_boundaries():
    profile = make_profile(dissim=np.linspace(0, 1, 10))
    out = infer.phoneme_boundaries(profile, infer.PeakPickConfig(prominence=0.0))
    assert out.times.size == 0


def test_zero_prominence_keeps_every_local_maximum():
    profile = make_profile(dissim=[0.0, 0.5, 0.2, 0.8, 0.1])
    out = infer.phoneme_boundaries(profile, infer.PeakPickConfig(prominence=0.0))
    assert np.allclose(out.times, [0.020, 0.040])


def test_empty_profile_gives_empty_output():
    profile = make_profile()
    assert infer.phoneme_boundaries(profile, infer.PeakPickConfig()).times.size == 0
    assert infer.word_boundaries(profile, infer.PeakPickConfig(level="word")).times.size == 0


def test_higher_prominence_never_adds_boundaries():
    rng = np.random.default_rng(0)
    for _ in range(20):
        profile = make_profile(dissim=rng.random(50))
        counts = []
        for prom in np.linspace(0, 1, 21):
            out = infer.phoneme_boundaries(profile, infer.PeakPickConfig(prominence=float(prom)))
            counts.append(out.times.size)
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_emitted_boundaries_are_strict_local_maxima():
    rng = np.random.default_rng(1)
    d = rng.random(200)
    profile = make_profile(dissim=d)
    out = infer.phoneme_boundaries(profile, infer.PeakPickConfig(prominence=0.0))
    assert out.times.size > 0
    for t in out.times:
        idx = int(round(t / model.FRAME_HOP_S)) - 1
        assert d[idx] > d[idx - 1] and d[idx] > d[idx + 1]


def test_word_boundary_at_segment_end_time():
    profile = make_profile(word=[0.1, 0.9, 0.2], ends=[3, 7, 12, 20])
    out = infer.word_boundaries(profile, infer.PeakPickConfig(prominence=0.5, level="word"))
    assert np.allclose(out.times, [0.070])


def test_word_needs_three_segments():
    profile = make_profile(word=[0.9], ends=[3, 8])
    out = infer.word_boundaries(profile, infer.PeakPickConfig(prominence=0.0, level="word"))
    assert out.times.size == 0


def test_prominence_above_max_gives_empty():
    profile = make_profile(word=[0.1, 0.9, 0.2], ends=[3, 7, 12, 20])
    out = infer.word_boundaries(profile, infer.PeakPickConfig(prominence=2.0, level="word"))
    assert out.times.size == 0


def test_predict_dispatches_on_level():
    profile = make_profile(dissim=[0.0, 1.0, 0.0], word=[0.1, 0.9, 0.2], ends=[0, 1, 2, 3])
    assert infer.predict(profile, infer.PeakPickConfig(level="phoneme")).level == "phoneme"
    assert infer.predict(profile, infer.PeakPickConfig(level="word")).level == "word"


# ------------------------------------------------------------- model pass

@pytest.fixture(scope="module")
def small_net():
    return model.SCPCModel.init(model.ModelConfig(frame_dim=8, segment_dim=8, thres=0.02), seed=3)


@pytest.fixture(scope="module")
def synth_utt():
    return audio.generate_utterance(audio.default_spec(seed=5), 0)


def test_profile_shapes_are_consistent(small_net, synth_utt):
    profile = infer.profile_utterance(small_net, synth_utt.waveform.samples, "u0")
    n = model.n_frames(synth_utt.waveform.samples.size)
    assert profile.dissimilarity.shape == (n - 1,)
    m = profile.segment_end_frames.size
    assert m >= 1
    assert profile.segment_end_frames[-1] == n - 1
    assert profile.word_scores.shape == ((m - 1) if m >= 2 else 0,)
    assert profile.duration_s == synth_utt.waveform.samples.size / 16000


def test_profiles_are_bit_reproducible(small_net, synth_utt):
    a = infer.profile_utterance(small_net, synth_utt.waveform.samples, "u0")
    b = infer.profile_utterance(small_net, synth_utt.waveform.samples, "u0")
    assert np.array_equal(a.dissimilarity, b.dissimilarity)
    assert np.array_equal(a.word_scores, b.word_scores)
    assert np.array_equal(a.segment_end_frames, b.segment_end_frames)
    pa = infer.phoneme_boundaries(a, infer.PeakPickConfig())
    pb = infer.phoneme_boundaries(b, infer.PeakPickConfig())
    assert np.array_equal(pa.times, pb.times)


def test_short_utterance_warns_and_is_empty(small_net):
    with pytest.warns(UserWarning, match="too short"):
        profile = infer.profile_utterance(small_net, np.zeros(500, dtype=np.float32), "tiny")
    assert profile.dissimilarity.size == 0
    assert infer.phoneme_boundaries(profile, infer.PeakPickConfig()).times.size == 0


def test_profile_corpus_matches_sequential(small_net, tmp_path):
    spec = audio.default_spec(seed=9)
    utts = audio.generate_corpus(spec, 3)
    manifest = audio.save_corpus(utts, tmp_path / "data")
    entries = [(str(wav), wav.stem) for wav, _, _ in audio.read_manifest(manifest)]
    seq = infer.profile_corpus(small_net, entries, workers=1)
    par = infer.profile_corpus(small_net, entries, workers=2)
    assert [p.id for p in seq] == [p.id for p in par]
    for a, b in zip(seq, par):
        assert np.array_equal(a.dissimilarity, b.dissimilarity)
        assert np.array_equal(a.word_scores, b.word_scores)


def test_profile_corpus_rejects_wrong_rate(small_net, tmp_path):
    wav = tmp_path / "slow.wav"
    audio.write_wav(wav, audio.Waveform(np.zeros(8000, dtype=np.float32), 8000))
    with pytest.raises(ValueError, match="resample"):
        infer.profile_corpus(small_net, [(str(wav), "slow")], workers=1)


# ----------------------------------------------------------------- tuning

def test_tune_finds_grid_max_and_breaks_ties_up():
    # One clear peak of prominence 0.4 and one minor peak of prominence 0.1:
    # any prominence in (0.1, 0.4] keeps only the major peak, which is the
    # sole reference, so the whole winning range ties and the largest wins.
    profile = make_profile(dissim=[0.0, 0.1, 0.0, 0.5, 0.1])
    refs = {"u0": np.array([0.040])}
    result = infer.tune_prominence([profile], refs, "phoneme")
    assert result.prominence == 0.40
    assert result.r_value == pytest.approx(1.0)
    assert len(result.rows) == 51
    by_prom = dict(result.rows)
    assert by_prom[0.1] < 1.0  # minor peak still present at the default


def test_tune_single_point_grid():
    profile = make_profile(dissim=[0.0, 1.0, 0.0])
    refs = {"u0": np.array([0.020])}
    result = infer.tune_prominence([profile], refs, "phoneme", grid=(0.25,))
    assert result.prominence == 0.25


def test_tune_beats_default_by_construction(small_net):
    spec = audio.default_spec(seed=11)
    utts = audio.generate_corpus(spec, 4)
    profiles = [infer.profile_utterance(small_net, u.waveform.samples, u.phoneme.id) for u in utts]
    refs = {u.phoneme.id: u.phoneme.times for u in utts}
    durations = {u.phoneme.id: u.waveform.samples.size / 16000 for u in utts}
    result = infer.tune_prominence(profiles, refs, "phoneme", durations=durations)
    default_cfg = infer.PeakPickConfig()
    preds = {p.id: infer.phoneme_boundaries(p, default_cfg).times for p in profiles}
    from scpc import metrics
    default_report = metrics.evaluate(preds, refs, durations=durations)
    if default_report.r_value is not None and result.r_value is not None:
        assert result.r_value >= default_report.r_value


def test_tune_rejects_empty_inputs():
    with pytest.raises(ValueError, match="empty validation"):
        infer.tune_prominence([], {}, "phoneme")
    with pytest.raises(ValueError, match="empty grid"):
        infer.tune_prominence([make_profile(dissim=[0, 1, 0])], {"u0": np.array([0.02])}, "phoneme", grid=())


# ------------------------------------------------------------ file formats

def test_write_and_read_predictions_roundtrip(tmp_path):
    preds = [
        infer.PredictedBoundaries("a", "phoneme", np.array([0.02, 0.10000049])),
        infer.PredictedBoundaries("b", "phoneme", np.empty(0)),
    ]
    manifest = infer.write_predictions(preds, tmp_path / "out", "phoneme")
    assert manifest.name == "predictions.tsv"
    text = (tmp_path / "out" / "a.txt").read_text()
    assert text == "0.020000\n0.100000\n"
    assert (tmp_path / "out" / "b.txt").read_text() == ""
    loaded = infer.read_predictions(tmp_path / "out")
    assert set(loaded) == {"a", "b"}
    assert np.allclose(loaded["a"], [0.02, 0.1])
    assert loaded["b"].size == 0

    import json
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["level"] == "phoneme"
    assert report["total_boundaries"] == 2
    assert {c["id"]: c["n_boundaries"] for c in report["utterances"]} == {"a": 2, "b": 0}


def test_read_predictions_requires_manifest(tmp_path):
    with pytest.raises(FileNotFoundError, match="predictions.tsv"):
        infer.read_predictions(tmp_path)


def test_read_predictions_rejects_unsorted(tmp_path):
    out = tmp_path / "bad"
    out.mkdir()
    (out / "u.txt").write_text("0.5\n0.4\n")
    (out / "predictions.tsv").write_text("u\tu.txt\n")
    with pytest.raises(ValueError, match="increasing"):
        infer.read_predictions(out)
