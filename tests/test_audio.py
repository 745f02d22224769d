"""Waveform I/O, alignment parsing, and synthetic corpus contracts."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.io import wavfile

from scpc import audio


@pytest.fixture
def tiny_wave():
    rng = np.random.default_rng(7)
    samples = (rng.uniform(-0.5, 0.5, 1600)).astype(np.float32)
    return audio.Waveform(samples, 16000, id="tiny")


class TestWavIO:
    def test_pcm16_round_trip_exact(self, tmp_path, tiny_wave):
        # Quantize first so the on-disk values are exactly representable.
        ints = np.round(tiny_wave.samples.astype(np.float64) * 32768).clip(-32768, 32767)
        wave = audio.Waveform((ints / 32768).astype(np.float32), 16000, id="q")
        path = tmp_path / "q.wav"
        audio.write_wav(path, wave)
        back = audio.load_wav(path)
        np.testing.assert_array_equal(back.samples, wave.samples)
        assert back.sample_rate == 16000

    def test_pcm16_scaling(self, tmp_path):
        path = tmp_path / "s.wav"
        wavfile.write(path, 16000, np.array([32767, -32768, 0], dtype=np.int16))
        wave = audio.load_wav(path)
        assert wave.samples[0] == pytest.approx(0.99997, abs=1e-5)
        assert wave.samples[1] == -1.0
        assert wave.samples[2] == 0.0

    def test_float32_round_trip(self, tmp_path, tiny_wave):
        path = tmp_path / "f.wav"
        wavfile.write(path, 16000, tiny_wave.samples)
        back = audio.load_wav(path)
        np.testing.assert_array_equal(back.samples, tiny_wave.samples)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5, -1.0001])
    def test_float32_nonfinite_or_out_of_range_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.wav"
        wavfile.write(path, 16000, np.array([0.0, -1.0, bad, 1.0], dtype=np.float32))
        with pytest.raises(ValueError, match="bad.wav: float32 samples must be finite and within"):
            audio.load_wav(path)

    def test_float32_full_scale_accepted(self, tmp_path):
        path = tmp_path / "full.wav"
        samples = np.array([-1.0, 0.0, 1.0], dtype=np.float32)
        wavfile.write(path, 16000, samples)
        np.testing.assert_array_equal(audio.load_wav(path).samples, samples)

    def test_other_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "r8k.wav"
        wavfile.write(path, 8000, np.zeros(800, dtype=np.int16))
        with pytest.raises(ValueError, match="r8k.wav: sample rate 8000 != 16000; resample first"):
            audio.load_wav(path)

    def test_multichannel_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        wavfile.write(path, 16000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(ValueError, match="mono"):
            audio.load_wav(path)

    def test_unsupported_format_rejected(self, tmp_path):
        path = tmp_path / "i32.wav"
        wavfile.write(path, 16000, np.zeros(100, dtype=np.int32))
        with pytest.raises(ValueError, match="unsupported sample format"):
            audio.load_wav(path)

    def test_truncated_file_rejected(self, tmp_path, tiny_wave):
        path = tmp_path / "t.wav"
        audio.write_wav(path, tiny_wave)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match="unreadable|unsupported"):
            audio.load_wav(path)

    def test_waveform_validation(self):
        with pytest.raises(ValueError, match="mono"):
            audio.Waveform(np.zeros((2, 10), dtype=np.float32), 16000)
        with pytest.raises(ValueError, match="float32"):
            audio.Waveform(np.zeros(10, dtype=np.float64), 16000)


class TestAlignmentParsing:
    def test_timit_end_times(self, tmp_path):
        path = tmp_path / "x.phn"
        path.write_text("0 1600 a\n1600 4800 b\n")
        times = audio.parse_alignment_file(path)
        np.testing.assert_allclose(times, [0.1, 0.3])

    def test_timit_duplicate_ends_collapsed(self, tmp_path):
        path = tmp_path / "x.phn"
        path.write_text("0 100 a\n100 200 b\n200 200000 c\n")
        times = audio.parse_alignment_file(path)
        assert times.size == 3
        assert np.all(np.diff(times) > 0)

    def test_timit_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "x.phn"
        path.write_text("0 100 a\nnot a line\n")
        with pytest.raises(ValueError, match=r":2:"):
            audio.parse_alignment_file(path)

    def test_timit_nonmonotone_rejected(self, tmp_path):
        path = tmp_path / "x.phn"
        path.write_text("0 300 a\n100 400 b\n")
        with pytest.raises(ValueError, match=r":2:.*before previous end"):
            audio.parse_alignment_file(path)

    def test_timit_empty_span_rejected(self, tmp_path):
        path = tmp_path / "x.phn"
        path.write_text("100 100 a\n")
        with pytest.raises(ValueError, match="empty or negative"):
            audio.parse_alignment_file(path)

    def test_load_references(self, tmp_path):
        audio.write_wav(tmp_path / "utt7.wav", audio.Waveform(np.zeros(4800, dtype=np.float32), 16000))
        (tmp_path / "utt7.phn").write_text("0 1600 a\n1600 4800 b\n")
        (tmp_path / "utt7.wrd").write_text("0 4800 w\n")
        manifest = tmp_path / "m.tsv"
        manifest.write_text("utt7.wav\tutt7.phn\tutt7.wrd\n")
        refs, durations = audio.load_references(manifest, "phoneme")
        np.testing.assert_array_equal(refs["utt7"], [0.1, 0.3])
        assert refs["utt7"].dtype == np.float64
        assert durations == {"utt7": 0.3}
        refs, durations = audio.load_references(manifest, "word")
        np.testing.assert_array_equal(refs["utt7"], [0.3])
        with pytest.raises(ValueError, match="level must be one of"):
            audio.load_references(manifest, "frame")


class TestSynthSpecValidation:
    def test_default_spec_valid(self):
        spec = audio.default_spec()
        assert len(spec.phones) == 5
        assert len(spec.lexicon) == 8

    def test_default_lexicon_structure(self):
        # Word-initial and word-final phone classes are disjoint, so word
        # joins always produce a spectral change; repeated adjacent phones
        # never occur, so phone joins do too.
        spec = audio.default_spec()
        initials = {w[0] for w in spec.lexicon}
        finals = {w[-1] for w in spec.lexicon}
        assert initials.isdisjoint(finals)
        for word in spec.lexicon:
            assert all(a != b for a, b in zip(word, word[1:]))

    def test_bad_word_length_rejected(self):
        with pytest.raises(ValueError, match="2-4"):
            audio.SynthSpec(phones=((100.0,),), lexicon=((0,),))

    def test_nyquist_guard(self):
        with pytest.raises(ValueError, match="frequencies"):
            audio.SynthSpec(phones=((9000.0,),), lexicon=((0, 0),))


class TestSynthGeneration:
    def test_deterministic_per_seed_and_index(self):
        spec = audio.default_spec(seed=5)
        a = audio.generate_utterance(spec, 3)
        b = audio.generate_utterance(spec, 3)
        np.testing.assert_array_equal(a.waveform.samples, b.waveform.samples)
        np.testing.assert_array_equal(a.phoneme_times, b.phoneme_times)

    def test_index_changes_content(self):
        spec = audio.default_spec(seed=5)
        a = audio.generate_utterance(spec, 0)
        b = audio.generate_utterance(spec, 1)
        assert a.waveform.samples.shape != b.waveform.samples.shape or not np.array_equal(a.waveform.samples, b.waveform.samples)

    def test_boundary_counts(self):
        spec = audio.default_spec(seed=1)
        for idx in range(10):
            utt = audio.generate_utterance(spec, idx)
            n_words = len(utt.word_labels)
            n_phones = sum(lbl != "sil" for lbl in utt.phone_labels)
            assert spec.words_per_utterance[0] <= n_words <= spec.words_per_utterance[1]
            assert n_phones == sum(len(spec.lexicon[int(lbl[1:])]) for lbl in utt.word_labels)
            # End-time annotations: one entry per segment, last one at the
            # utterance end; internal boundary count is phones - 1 (+1 per silence).
            assert utt.phoneme_times.size == len(utt.phone_labels)
            assert utt.phoneme_times[-1] == pytest.approx(utt.waveform.samples.size / audio.SAMPLE_RATE)
            assert utt.word_times.size == n_words

    def test_word_ends_are_phone_ends(self):
        spec = audio.default_spec(seed=2)
        utt = audio.generate_utterance(spec, 4)
        assert set(np.round(utt.word_times, 9)) <= set(np.round(utt.phoneme_times, 9))

    def test_phone_durations_at_least_60ms(self):
        spec = audio.default_spec(seed=3)
        utt = audio.generate_utterance(spec, 0)
        spans = np.diff([0] + [e for _, e in utt.phone_spans])
        # Spans run between fade onsets, so the first span is one fade
        # half-width short of its rendered segment; allow exactly that.
        half = round(audio.CROSSFADE_MS * audio.SAMPLE_RATE / 2000.0)
        assert spans.min() >= 0.060 * audio.SAMPLE_RATE - half - 1

    def test_crossfade_attenuates_join(self):
        spec = audio.default_spec(seed=4)
        utt = audio.generate_utterance(spec, 0)
        onset = utt.phone_spans[0][1]  # span end marks fade onset
        half = round(audio.CROSSFADE_MS * audio.SAMPLE_RATE / 2000.0)
        x = utt.waveform.samples
        assert abs(x[onset + half - 1]) < 0.01  # first phone fully faded out
        interior = np.abs(x[onset + half + 400 : onset + half + 800]).max()
        assert interior > 0.05

    def test_silences_inserted_between_words(self):
        spec = audio.default_spec(seed=6)
        spec = audio.SynthSpec(**{**spec.__dict__, "silence_prob": 1.0})
        utt = audio.generate_utterance(spec, 0)
        n_words = len(utt.word_labels)
        assert utt.phone_labels.count("sil") == n_words - 1
        # Silence adds one extra internal boundary per occurrence.
        n_phones = sum(lbl != "sil" for lbl in utt.phone_labels)
        internal = utt.phoneme_times.size - 1
        assert internal == (n_phones - 1) + (n_words - 1)

    def test_samples_bounded(self):
        spec = audio.default_spec(seed=8)
        for idx in range(5):
            utt = audio.generate_utterance(spec, idx)
            assert np.abs(utt.waveform.samples).max() <= 1.0


class TestCorpusIO:
    def test_save_and_reload(self, tmp_path):
        spec = audio.default_spec(seed=9)
        utts = audio.generate_corpus(spec, 3)
        manifest = audio.save_corpus(utts, tmp_path / "corpus")
        records = audio.read_manifest(manifest)
        assert list(records) == [u.waveform.id for u in utts]   # a flat corpus keeps its stems
        wav, phn, wrd = records[utts[0].waveform.id]
        assert audio.load_wav(wav).sample_rate == 16000
        phn_times = audio.parse_alignment_file(phn)
        np.testing.assert_allclose(phn_times, utts[0].phoneme_times)
        wrd_times = audio.parse_alignment_file(wrd)
        np.testing.assert_allclose(wrd_times, utts[0].word_times)

    def test_disjoint_splits_by_index(self):
        spec = audio.default_spec(seed=10)
        train = audio.generate_corpus(spec, 2, start_index=0)
        val = audio.generate_corpus(spec, 2, start_index=2)
        assert {u.waveform.id for u in train}.isdisjoint({u.waveform.id for u in val})

    def test_manifest_missing_file(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("a.wav\ta.phn\ta.wrd\n")
        with pytest.raises(FileNotFoundError, match="a.wav"):
            audio.read_manifest(manifest)

    def test_manifest_malformed_line(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("only_two\tfields\n")
        with pytest.raises(ValueError, match=r":1:.*3 tab-separated"):
            audio.read_manifest(manifest)

    def test_manifest_empty(self, tmp_path):
        manifest = tmp_path / "m.tsv"
        manifest.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            audio.read_manifest(manifest)


def _utterance_files(d, stem: str, n: int = 4800) -> None:
    d.mkdir(parents=True, exist_ok=True)
    audio.write_wav(d / f"{stem}.wav", audio.Waveform(np.zeros(n, dtype=np.float32), 16000))
    (d / f"{stem}.phn").write_text(f"0 1600 a\n1600 {n} b\n")
    (d / f"{stem}.wrd").write_text(f"0 {n} w\n")


class TestUtteranceIds:
    def test_shared_stems_get_distinct_ids(self, tmp_path):
        # TIMIT repeats each SX stem across speakers: ids are paths below
        # the deepest directory that holds every wav, not stems.
        for d in ("a", "b/c"):
            _utterance_files(tmp_path / "data" / d, "x")
        manifest = tmp_path / "lists" / "m.tsv"
        manifest.parent.mkdir()
        audio.write_manifest([tuple(tmp_path / "data" / d / f"x.{ext}" for ext in ("wav", "phn", "wrd")) for d in ("a", "b/c")], manifest)
        assert list(audio.read_manifest(manifest)) == ["a/x", "b/c/x"]
        refs, _ = audio.load_references(manifest, "phoneme")
        assert list(refs) == ["a/x", "b/c/x"]

    def test_one_directory_gives_stems(self, tmp_path):
        _utterance_files(tmp_path / "deep" / "dir", "only")
        manifest = tmp_path / "m.tsv"
        manifest.write_text("deep/dir/only.wav\tdeep/dir/only.phn\tdeep/dir/only.wrd\n")
        assert list(audio.read_manifest(manifest)) == ["only"]

    def test_repeated_id_names_both_lines(self, tmp_path):
        _utterance_files(tmp_path, "x")
        _utterance_files(tmp_path, "y")
        manifest = tmp_path / "m2.tsv"
        manifest.write_text("x.wav\tx.phn\tx.wrd\ny.wav\ty.phn\ty.wrd\n\n./x.wav\tx.phn\tx.wrd\n")
        with pytest.raises(ValueError, match=r"m2.tsv:4: utterance id 'x' repeats line 1$"):
            audio.read_manifest(manifest)


class TestManifestPaths:
    def test_paths_and_errors_match_full_resolution(self, tmp_path):
        # read_manifest resolves each parent directory once; every path and
        # error must still be what Path.resolve() gives for the whole path.
        for d, stem in (("real", "a"), ("other", "b"), ("third", "c"), ("real", "d")):
            _utterance_files(tmp_path / "data" / d, stem)
        lists = tmp_path / "lists"
        lists.mkdir()
        (lists / "linkdir").symlink_to(tmp_path / "data" / "other", target_is_directory=True)
        for ext in ("wav", "phn", "wrd"):
            (lists / f"s.{ext}").symlink_to(tmp_path / "data" / "third" / f"c.{ext}")
        rows = [
            [f"../data/real/a.{ext}" for ext in ("wav", "phn", "wrd")],      # a .. component
            [f"linkdir/b.{ext}" for ext in ("wav", "phn", "wrd")],           # a symlinked directory
            [f"s.{ext}" for ext in ("wav", "phn", "wrd")],                   # symlinked files
            [f"linkdir/../real/d.{ext}" for ext in ("wav", "phn", "wrd")],  # .. after a symlink
        ]
        manifest = lists / "m.tsv"
        manifest.write_text("".join("\t".join(r) + "\n" for r in rows))
        got = audio.read_manifest(manifest)
        assert list(got) == ["real/a", "other/b", "third/c", "real/d"]
        assert list(got.values()) == [tuple((lists / p).resolve() for p in r) for r in rows]

        (lists / "gone.wav").symlink_to(tmp_path / "data" / "nowhere.wav")   # a dangling symlink
        manifest.write_text("\t".join(rows[0]) + "\n" + "\t".join(["gone.wav", *rows[1][1:]]) + "\n")
        with pytest.raises(FileNotFoundError) as err:
            audio.read_manifest(manifest)
        assert str(err.value) == f"{manifest}:2: manifest references missing file {(lists / 'gone.wav').resolve()}"
        assert (lists / "gone.wav").resolve().name == "nowhere.wav"
