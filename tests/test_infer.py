"""Tests for peak-picking inference and its file formats."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from scpc import audio
from scpc import infer
from scpc import metrics
from scpc import model


def make_profile(utt_id="u0", dissim=(), word=(), ends=()):
    return infer.UtteranceProfile(
        utt_id,
        np.asarray(dissim, dtype=np.float64),
        np.asarray(word, dtype=np.float64),
        np.asarray(ends, dtype=np.int64),
    )


def test_config_validation():
    # The prediction settings are a level and a prominence, checked where used.
    profile = make_profile(dissim=[0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="prominence must be >= 0"):
        infer.predict(profile, "phoneme", -0.1)
    for bad in ("frame", "words"):
        with pytest.raises(ValueError, match="level must be one of"):
            infer.predict(profile, bad)
        with pytest.raises(ValueError, match="level must be one of"):
            infer.tune_prominence([profile], {"u0": np.array([0.02])}, bad)
    assert infer.LEVELS == audio.LEVELS == ("phoneme", "word")
    assert infer.DEFAULT_PROMINENCE == 0.1


curves = st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=0, max_size=60)


@given(curves, st.lists(st.integers(1, 3), min_size=61, max_size=61), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_predicted_boundaries_must_increase(curve, gaps, lo, hi):
    # At both levels: times strictly increasing, and a higher prominence
    # keeps a subset of the boundaries of a lower one.
    lo, hi = min(lo, hi), max(lo, hi)
    ends = np.cumsum(gaps[: len(curve) + 1]) - 1
    profile = make_profile(dissim=curve, word=curve, ends=ends)
    for level in infer.LEVELS:
        low, high = infer.predict(profile, level, lo), infer.predict(profile, level, hi)
        for times in (low, high):
            assert times.dtype == np.float64
            assert np.all(np.diff(times) > 0)
        assert np.isin(high, low).all()


def assert_peaks_match_scipy(curve: np.ndarray) -> None:
    # scipy's find_peaks is the oracle: equal dtypes and equal bytes.
    idx, prominences = infer._find_peaks(curve)
    want_idx, props = find_peaks(curve, prominence=0)
    want = props["prominences"]
    assert idx.dtype == want_idx.dtype and idx.tobytes() == want_idx.tobytes(), (curve, idx, want_idx)
    assert prominences.dtype == want.dtype and prominences.tobytes() == want.tobytes(), (curve, prominences, want)


# Few integer levels give plateaus and ties; the specials cover signed
# zeros, infinities and NaN, where a base walk stops.
peak_values = st.one_of(
    st.integers(0, 3).map(float),
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
)


@given(st.lists(peak_values, max_size=60), st.sampled_from([np.float32, np.float64]))
@settings(max_examples=1000, deadline=None)
def test_find_peaks_equals_scipy_in_bytes(values, dtype):
    assert_peaks_match_scipy(np.array(values, dtype=dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("values", [
    [], [1.0], [0.0, 1.0], [1.0, 1.0],                      # lengths 0 to 2
    [0.5] * 7, list(range(9)), list(range(9, 0, -1)),       # constant and monotone
    [2.0, 2.0, 0.0, 1.0, 1.0, 0.0, 2.0, 2.0],               # edge plateaus around an interior one
    [0.0, 1.0, 1.0], [1.0, 1.0, 0.0],                       # a plateau at either end is no peak
    [0.0, 3.0, 1.0, 3.0, 1.0, 3.0, 0.0],                    # tied peaks: the walk passes through them
    [0.0, 2.0, 2.0, 2.0, 2.0, 0.0],                         # even plateau: its middle rounds down
    [1.0, 0.0, 2.0, np.nan, 3.0, 1.0, 2.0, 0.0],            # NaN ends a walk
])
def test_find_peaks_equals_scipy_on_named_shapes(values, dtype):
    assert_peaks_match_scipy(np.array(values, dtype=dtype))


def test_no_scpc_process_loads_scipy_signal():
    src = Path(infer.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", "import sys, scpc.cli; print('scipy.signal' in sys.modules)"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_single_peak_lands_at_20ms():
    profile = make_profile(dissim=[0.0, 1.0, 0.0])
    assert np.allclose(infer.predict(profile, "phoneme", 0.5), [0.020])


def test_monotone_dissimilarity_gives_no_boundaries():
    profile = make_profile(dissim=np.linspace(0, 1, 10))
    assert infer.predict(profile, "phoneme", 0.0).size == 0


def test_zero_prominence_keeps_every_local_maximum():
    profile = make_profile(dissim=[0.0, 0.5, 0.2, 0.8, 0.1])
    assert np.allclose(infer.predict(profile, "phoneme", 0.0), [0.020, 0.040])


def test_empty_profile_gives_empty_output():
    profile = make_profile()
    assert infer.predict(profile, "phoneme").size == 0
    assert infer.predict(profile, "word").size == 0


def test_higher_prominence_never_adds_boundaries():
    rng = np.random.default_rng(0)
    for _ in range(20):
        profile = make_profile(dissim=rng.random(50))
        counts = [infer.predict(profile, "phoneme", float(prom)).size for prom in np.linspace(0, 1, 21)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_emitted_boundaries_are_strict_local_maxima():
    rng = np.random.default_rng(1)
    d = rng.random(200)
    profile = make_profile(dissim=d)
    times = infer.predict(profile, "phoneme", 0.0)
    assert times.size > 0
    for t in times:
        idx = int(round(t / model.FRAME_HOP_S)) - 1
        assert d[idx] > d[idx - 1] and d[idx] > d[idx + 1]


def test_word_boundary_at_segment_end_time():
    # Segment 1 spans frames [4, 8): the junction after it is reported at
    # 80 ms, the start of frame 8, as the phoneme rule reports junction 7.
    profile = make_profile(word=[0.1, 0.9, 0.2], ends=[4, 8, 13, 21])
    assert np.allclose(infer.predict(profile, "word", 0.5), [0.080])


def test_word_needs_three_segments():
    profile = make_profile(word=[0.9], ends=[4, 9])
    assert infer.predict(profile, "word", 0.0).size == 0


def test_prominence_above_max_gives_empty():
    profile = make_profile(word=[0.1, 0.9, 0.2], ends=[4, 8, 13, 21])
    assert infer.predict(profile, "word", 2.0).size == 0


def test_predict_dispatches_on_level():
    # The same junction index maps to different times at the two levels.
    profile = make_profile(dissim=[0.0, 1.0, 0.0], word=[0.1, 0.9, 0.2], ends=[1, 5, 10, 13])
    assert np.allclose(infer.predict(profile, "phoneme"), [0.020])
    assert np.allclose(infer.predict(profile, "word"), [0.050])


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
    m = profile.segment_ends.size
    assert m >= 1
    assert profile.segment_ends[-1] == n
    assert profile.word_scores.shape == ((m - 1) if m >= 2 else 0,)


def test_profile_memory_is_linear_in_audio_length():
    # Inference needs no chunking or length cap: its traced peak is about
    # 1.0 MB (2^20 bytes) per second of audio, 5.1 / 19.8 / 58.8 / 293 MB
    # at 5 / 20 / 60 / 300 s for the default model, so a 10-minute file
    # needs about 0.6 GB.  The bound at 20 s leaves 25% headroom.
    net = model.SCPCModel.init(model.ModelConfig(), seed=0)
    spec = audio.default_spec(seed=0)
    samples = np.concatenate([u.waveform.samples for u in audio.generate_corpus(spec, 80)])[: 20 * 16000]
    assert samples.size == 20 * 16000
    tracemalloc.start()
    try:
        infer.profile_utterance(net, samples, "long")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 / 20 < 1.25, f"peak {peak / 2**20:.1f} MB for 20 s"


def test_profiles_are_bit_reproducible(small_net, synth_utt):
    a = infer.profile_utterance(small_net, synth_utt.waveform.samples, "u0")
    b = infer.profile_utterance(small_net, synth_utt.waveform.samples, "u0")
    assert np.array_equal(a.dissimilarity, b.dissimilarity)
    assert np.array_equal(a.word_scores, b.word_scores)
    assert np.array_equal(a.segment_ends, b.segment_ends)
    assert np.array_equal(infer.predict(a, "phoneme"), infer.predict(b, "phoneme"))


def test_short_utterance_warns_and_is_empty(small_net):
    with pytest.warns(UserWarning, match="too short"):
        profile = infer.profile_utterance(small_net, np.zeros(500, dtype=np.float32), "tiny")
    assert profile.dissimilarity.size == 0
    assert infer.predict(profile, "phoneme").size == 0


def test_profile_corpus_matches_sequential(small_net, tmp_path):
    spec = audio.default_spec(seed=9)
    utts = audio.generate_corpus(spec, 3)
    manifest = audio.save_corpus(utts, tmp_path / "data")
    entries = [(str(wav), utt_id) for utt_id, (wav, _, _) in audio.read_manifest(manifest).items()]
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


def test_tune_beats_default_by_construction(small_net):
    spec = audio.default_spec(seed=11)
    utts = audio.generate_corpus(spec, 4)
    profiles = [infer.profile_utterance(small_net, u.waveform.samples, u.waveform.id) for u in utts]
    refs = {u.waveform.id: u.phoneme_times for u in utts}
    durations = {u.waveform.id: u.waveform.samples.size / 16000 for u in utts}
    result = infer.tune_prominence(profiles, refs, "phoneme", durations=durations)
    preds = {p.id: infer.predict(p, "phoneme") for p in profiles}
    default_report = metrics.evaluate(preds, refs, durations=durations)
    if default_report.r_value is not None and result.r_value is not None:
        assert result.r_value >= default_report.r_value


def _random_corpus(rng, n_utts):
    """Profiles whose curves stay below 0.4, so the top grid points predict
    nothing, and references on or near the frame grid, edges included."""
    profiles, refs, durations = [], {}, {}
    for u in range(n_utts):
        n = int(rng.integers(0, 40))
        curve = 0.4 * rng.random(n)
        ends = np.cumsum(rng.integers(1, 4, n + 1))
        profiles.append(make_profile(f"u{u}", dissim=curve, word=curve, ends=ends))
        duration = ends[-1] * model.FRAME_HOP_S
        frames = rng.choice(np.arange(ends[-1] + 1), size=min(int(rng.integers(1, 12)), ends[-1] + 1), replace=False)
        refs[f"u{u}"] = np.sort(frames * model.FRAME_HOP_S + rng.uniform(-0.015, 0.015, frames.size)).clip(0, duration)
        durations[f"u{u}"] = duration
    return profiles, refs, durations


def test_tune_rows_equal_evaluate_at_every_grid_point():
    # Brute force: each row is metrics.evaluate of the predictions at its
    # prominence, and the winner is the largest prominence of the best row.
    rng = np.random.default_rng(2)
    seen = {"none": 0, "tie": 0}
    for trial in range(12):
        profiles, refs, durations = _random_corpus(rng, int(rng.integers(1, 6)))
        for level in infer.LEVELS:
            for durs in (None, durations):
                result = infer.tune_prominence(profiles, refs, level, durations=durs, tolerance=0.01)
                expected = []
                for prom in infer.PROMINENCE_GRID:
                    preds = {p.id: infer.predict(p, level, prom) for p in profiles}
                    expected.append((prom, metrics.evaluate(preds, refs, tolerance=0.01, durations=durs).r_value))
                assert result.rows == tuple(expected)
                scores = [-np.inf if r is None else r for _, r in expected]
                winners = [p for (p, _), s in zip(expected, scores) if s == max(scores)]
                assert result.prominence == winners[-1]
                assert result.r_value == dict(expected)[result.prominence]
                seen["none"] += expected[-1][1] is None
                seen["tie"] += len(winners) > 1 and max(scores) > -np.inf
    assert seen["none"] and seen["tie"]


def test_tune_rejects_empty_inputs():
    with pytest.raises(ValueError, match="empty validation"):
        infer.tune_prominence([], {}, "phoneme")


# ------------------------------------------------------------ file formats

def test_write_and_read_predictions_roundtrip(tmp_path):
    preds = {"b": np.empty(0), "a": np.array([0.02, 0.10000049])}
    manifest = infer.write_predictions(preds, tmp_path / "out", "phoneme")
    assert manifest.name == "predictions.tsv"
    assert manifest.read_text() == "b\tb.txt\na\ta.txt\n"   # insertion order
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
