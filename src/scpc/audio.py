"""Waveform I/O, boundary annotations, and the synthetic evaluation corpus.

Real corpora are ingested from mono 16 kHz RIFF/WAVE files (16-bit PCM or
float32) plus TIMIT-style alignment files, listed in a manifest.  The
synthetic corpus renders each phone as a stationary mix of sine partials
over a noise floor, concatenates phones with short cross-fades, and emits
exact sample-accurate boundary annotations, which makes segmentation quality
measurable without any external data.

Boundary time convention: an annotation is a plain, strictly increasing
float64 array of segment *end* times in seconds, so the final entry
coincides with the utterance end (scoring strips it along with time zero).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy.io import wavfile

__all__ = [
    "SAMPLE_RATE",
    "Waveform",
    "SynthSpec",
    "SynthUtterance",
    "load_wav",
    "write_wav",
    "parse_alignment_file",
    "default_spec",
    "generate_utterance",
    "generate_corpus",
    "save_corpus",
    "read_manifest",
    "write_manifest",
    "load_references",
]

SAMPLE_RATE = 16000     # the only rate the model and the alignments accept
LEVELS = ("phoneme", "word")


@dataclass(frozen=True)
class Waveform:
    """Mono audio: float32 samples in [-1, 1] and their sample rate."""

    samples: np.ndarray
    sample_rate: int
    id: str = ""

    def __post_init__(self):
        if self.samples.ndim != 1:
            raise ValueError(f"waveform must be mono 1-D, got shape {self.samples.shape}")
        if self.samples.dtype != np.float32:
            raise ValueError(f"waveform samples must be float32, got {self.samples.dtype}")


def load_wav(path: str | Path) -> Waveform:
    """Read a mono 16 kHz RIFF/WAVE file (16-bit PCM or float32) as float32
    in [-1, 1].

    Truncated files are an error, not a warning: silently shortened audio
    would skew boundary scoring.  So are other sample rates, and float32
    files with non-finite samples or samples outside [-1, 1].
    """
    path = Path(path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", wavfile.WavFileWarning)
            rate, data = wavfile.read(path)
    except (ValueError, wavfile.WavFileWarning) as exc:
        raise ValueError(f"{path}: unreadable or unsupported wav file ({exc})") from exc
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono audio, got {data.shape[1]} channels")
    if rate != SAMPLE_RATE:
        raise ValueError(f"{path}: sample rate {rate} != {SAMPLE_RATE}; resample first")
    if data.dtype == np.int16:
        samples = (data / 32768.0).astype(np.float32)
    elif data.dtype == np.float32:
        samples = data
        if not np.all(np.abs(samples) <= 1.0):   # False for NaN and inf too
            raise ValueError(f"{path}: float32 samples must be finite and within [-1, 1]")
    else:
        raise ValueError(f"{path}: unsupported sample format {data.dtype}; use 16-bit PCM or float32")
    return Waveform(samples, SAMPLE_RATE)


def write_wav(path: str | Path, waveform: Waveform) -> None:
    """Write a waveform as 16-bit PCM RIFF/WAVE."""
    ints = np.clip(np.round(waveform.samples.astype(np.float64) * 32768.0), -32768, 32767)
    wavfile.write(Path(path), waveform.sample_rate, ints.astype(np.int16))


def parse_alignment_file(path: str | Path) -> np.ndarray:
    """Boundary times (seconds) from a TIMIT-style alignment file.

    Lines are ``<start_sample> <end_sample> <label>`` at 16 kHz; boundary
    times are the segment end samples divided by ``SAMPLE_RATE``.  Sample
    indices must be nonnegative, spans nonempty, and each span must start at
    or after the previous end, so the times are strictly increasing.
    """
    path = Path(path)
    times: list[float] = []
    prev_end = None
    for n, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{n}: expected '<start> <end> <label>', got {line!r}")
        try:
            start, end = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: non-integer sample index in {line!r}") from exc
        if start < 0 or end < 0:
            raise ValueError(f"{path}:{n}: negative sample index in {line!r}")
        if end <= start:
            raise ValueError(f"{path}:{n}: empty or negative span [{start}, {end})")
        if prev_end is not None and start < prev_end:
            raise ValueError(f"{path}:{n}: span starts at {start}, before previous end {prev_end}")
        prev_end = end
        times.append(end / SAMPLE_RATE)
    return np.asarray(times, dtype=np.float64)


# --- synthetic corpus ---------------------------------------------------

PHONE_MS = (60.0, 120.0)   # uniform range of phone durations
CROSSFADE_MS = 16.0        # linear fade across each interior join


@dataclass(frozen=True)
class SynthSpec:
    """Everything that determines a synthetic corpus, down to the seed.

    Each phone is a tuple of sine partial frequencies (Hz) over a noise
    floor.  Utterance ``i`` depends only on ``(seed, i)``, so corpora are
    reproducible and splits taken by index range never overlap in content.
    """

    phones: tuple[tuple[float, ...], ...]
    lexicon: tuple[tuple[int, ...], ...]
    words_per_utterance: tuple[int, int] = (3, 5)
    silence_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        nyquist = SAMPLE_RATE / 2
        for i, freqs in enumerate(self.phones):
            if any(f <= 0 or f >= nyquist for f in freqs):
                raise ValueError(f"phone {i}: partial frequencies must lie in (0, {nyquist})")
        if not self.lexicon:
            raise ValueError("lexicon must not be empty")
        for w, word in enumerate(self.lexicon):
            if not 2 <= len(word) <= 4:
                raise ValueError(f"word {w}: length must be 2-4 phones, got {len(word)}")
            if any(p < 0 or p >= len(self.phones) for p in word):
                raise ValueError(f"word {w}: phone index out of range")
        if len(set(self.lexicon)) != len(self.lexicon):
            raise ValueError("lexicon contains duplicate words")
        lo_w, hi_w = self.words_per_utterance
        if lo_w < 1 or hi_w < lo_w:
            raise ValueError(f"words_per_utterance must satisfy 1 <= lo <= hi, got {self.words_per_utterance}")
        if not 0.0 <= self.silence_prob <= 1.0:
            raise ValueError(f"silence_prob must be in [0, 1], got {self.silence_prob}")


@dataclass(frozen=True)
class SynthUtterance:
    waveform: Waveform
    phoneme_times: np.ndarray          # segment end times (s), as in the .phn file
    word_times: np.ndarray             # word end times (s), as in the .wrd file
    phone_labels: tuple[str, ...]      # one per segment, silences included
    phone_spans: tuple[tuple[int, int], ...]  # sample spans per segment
    word_labels: tuple[str, ...]
    word_spans: tuple[tuple[int, int], ...]


def default_spec(seed: int = 0) -> SynthSpec:
    """Five well-separated phones and an eight-word lexicon.

    Words follow three skeletons, (0, f, 1, f'), (1, f, 2, f'), and
    (2, 0, f), with f, f' standing for either of {3, 4}.  Treating 3 and 4 as
    one interchangeable class, every within-word transition is fully
    determined by one or two phones of history, while the word after a join
    is a fresh uniform draw: all of the prediction surprise sits at word
    joins, which is the contrast the segment-level objective turns into word
    boundaries.  Phones 3 and 4 never carry information a later transition
    depends on, so a model is free to treat them alike; each word-initial
    phone {0, 1, 2} is also a determined mid-word target somewhere, which
    keeps the join candidates mutually discriminable.  Word-initial and
    word-final phone classes are disjoint, so every join is a real spectral
    change.
    """
    phones = (
        (250.0, 2100.0),
        (420.0, 1150.0, 2600.0),
        (640.0, 1750.0),
        (880.0, 1350.0, 3000.0),
        (330.0, 3400.0),
    )
    lexicon = (
        (0, 3, 1, 3),
        (0, 3, 1, 4),
        (0, 4, 1, 3),
        (0, 4, 1, 4),
        (1, 3, 2, 4),
        (1, 4, 2, 3),
        (2, 0, 3),
        (2, 0, 4),
    )
    return SynthSpec(phones=phones, lexicon=lexicon, seed=seed)


_PHONE_AMPLITUDE = 0.3   # bound on a phone's summed partials
_PHONE_NOISE = 0.02      # noise floor under every phone
_SILENCE_NOISE = 0.0015


def _render_segment(freqs: tuple[float, ...] | None, n: int, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(n, dtype=np.float64) / SAMPLE_RATE
    if freqs is None:  # silence: noise floor only, kept nonzero on purpose
        return (_SILENCE_NOISE * rng.standard_normal(n)).astype(np.float64)
    x = np.zeros(n, dtype=np.float64)
    for f in freqs:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x += np.sin(2.0 * np.pi * f * t + phase)
    x *= _PHONE_AMPLITUDE / max(len(freqs), 1)
    x += _PHONE_NOISE * rng.standard_normal(n)
    return x


def generate_utterance(spec: SynthSpec, index: int) -> SynthUtterance:
    """Render utterance ``index``: random words, stationary phones, cross-faded joins.

    Annotated boundary times mark fade onset, the last sample at which a
    segment is still the sole signal; the acoustic transition then plays out
    over the fade.  The final boundary (utterance end) has no fade and is
    exact.
    """
    rng = np.random.default_rng([spec.seed, index])
    n_words = int(rng.integers(spec.words_per_utterance[0], spec.words_per_utterance[1] + 1))
    word_ids = [int(rng.integers(0, len(spec.lexicon))) for _ in range(n_words)]

    # Segment plan: (label, template index or None) in utterance order.
    segments: list[tuple[str, int | None]] = []
    word_of_segment: list[int | None] = []
    for w_pos, w in enumerate(word_ids):
        for p in spec.lexicon[w]:
            segments.append((f"p{p}", p))
            word_of_segment.append(w_pos)
        if w_pos < n_words - 1 and rng.random() < spec.silence_prob:
            segments.append(("sil", None))
            word_of_segment.append(None)

    lo, hi = PHONE_MS
    lengths = [int(round(rng.uniform(lo, hi) * SAMPLE_RATE / 1000.0)) for _ in segments]
    rendered = [_render_segment(spec.phones[tpl] if tpl is not None else None, n, rng) for (_, tpl), n in zip(segments, lengths)]

    # In-place linear fades across each interior join; segment lengths never
    # change, so sample bookkeeping below stays exact.
    half = max(1, int(round(CROSSFADE_MS * SAMPLE_RATE / 2000.0)))
    fades = [min(half, a.size, b.size) for a, b in zip(rendered[:-1], rendered[1:])]
    for (a, b), k in zip(zip(rendered[:-1], rendered[1:]), fades):
        a[-k:] *= np.linspace(1.0, 0.0, k + 1)[1:]
        b[:k] *= np.linspace(0.0, 1.0, k + 1)[1:]

    samples = np.concatenate(rendered)
    np.clip(samples, -1.0, 1.0, out=samples)
    wav = Waveform(samples.astype(np.float32), SAMPLE_RATE, id=f"u{index:05d}")

    # Interior boundaries land at fade onset (cumulative length minus the fade
    # half-width actually applied); the utterance end has no fade.
    ends = np.cumsum(lengths)
    ends[:-1] -= np.asarray(fades, dtype=ends.dtype)
    starts = np.concatenate([[0], ends[:-1]])
    phone_spans = tuple((int(s), int(e)) for s, e in zip(starts, ends))

    word_spans = []
    word_labels = []
    for w_pos, w in enumerate(word_ids):
        seg_idx = [i for i, owner in enumerate(word_of_segment) if owner == w_pos]
        word_spans.append((int(starts[seg_idx[0]]), int(ends[seg_idx[-1]])))
        word_labels.append(f"w{w}")

    return SynthUtterance(
        waveform=wav,
        phoneme_times=ends / SAMPLE_RATE,
        word_times=np.asarray([e for _, e in word_spans]) / SAMPLE_RATE,
        phone_labels=tuple(lbl for lbl, _ in segments),
        phone_spans=phone_spans,
        word_labels=tuple(word_labels),
        word_spans=tuple(word_spans),
    )


def generate_corpus(spec: SynthSpec, n: int, start_index: int = 0) -> list[SynthUtterance]:
    return [generate_utterance(spec, i) for i in range(start_index, start_index + n)]


def _write_spans(path: Path, spans, labels) -> None:
    lines = [f"{s} {e} {lbl}" for (s, e), lbl in zip(spans, labels)]
    path.write_text("\n".join(lines) + "\n")


def save_corpus(utterances: list[SynthUtterance], out_dir: str | Path) -> Path:
    """Write wav + TIMIT-style .phn/.wrd files and a manifest; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for utt in utterances:
        wav_path = out / f"{utt.waveform.id}.wav"
        phn_path = out / f"{utt.waveform.id}.phn"
        wrd_path = out / f"{utt.waveform.id}.wrd"
        write_wav(wav_path, utt.waveform)
        _write_spans(phn_path, utt.phone_spans, utt.phone_labels)
        _write_spans(wrd_path, utt.word_spans, utt.word_labels)
        records.append((wav_path.name, phn_path.name, wrd_path.name))
    manifest = out / "manifest.tsv"
    write_manifest(records, manifest)
    return manifest


def write_manifest(records, path: str | Path) -> None:
    """One utterance per line: wav, phoneme alignment, word alignment (tab-separated)."""
    lines = ["\t".join(str(f) for f in rec) for rec in records]
    Path(path).write_text("".join(line + "\n" for line in lines))


def read_manifest(path: str | Path) -> dict[str, tuple[Path, Path, Path]]:
    """Resolve a ``wav<TAB>phn<TAB>wrd`` manifest into utterance id -> paths,
    in manifest order; every referenced file must exist.

    An utterance's id is its wav path relative to the deepest directory that
    holds every wav of the manifest, without the suffix: the file stem for a
    flat corpus, ``DR1/FCJF0/SX127`` for a TIMIT tree.  Two rows with the
    same id are an error.
    """
    path = Path(path)
    if path.is_dir():
        raise ValueError(f"{path} is a directory; pass the manifest file inside it (e.g. {path / 'manifest.tsv'})")
    base = str(path.parent)
    dirs: dict[str, str] = {}   # parent directory as written -> resolved
    rows: dict[int, tuple[Path, Path, Path]] = {}   # line number -> files
    for n, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{n}: expected 3 tab-separated paths, got {len(parts)}")
        rows[n] = tuple(_resolve_existing(os.path.join(base, p), dirs, f"{path}:{n}") for p in parts)
    if not rows:
        raise ValueError(f"{path}: manifest is empty")
    root = Path(os.path.commonpath([wav.parent for wav, _, _ in rows.values()]))
    lines: dict[str, int] = {}   # utterance id -> line number
    for n, (wav, _, _) in rows.items():
        utt_id = wav.relative_to(root).with_suffix("").as_posix()
        if lines.setdefault(utt_id, n) != n:
            raise ValueError(f"{path}:{n}: utterance id {utt_id!r} repeats line {lines[utt_id]}")
    return dict(zip(lines, rows.values()))


def _resolve_existing(path: str, dirs: dict[str, str], where: str) -> Path:
    """``Path(path).resolve()``, which must exist, resolving each distinct
    parent directory once through ``dirs``.

    The file name is kept as written unless it is a symlink (or ``..``),
    which resolves in full.
    """
    head, name = os.path.split(path)
    if name == ".." or os.path.islink(path):
        resolved = Path(path).resolve()
    else:
        if head not in dirs:
            dirs[head] = str(Path(head).resolve())
        resolved = Path(os.path.join(dirs[head], name))
    if not resolved.exists():
        raise FileNotFoundError(f"{where}: manifest references missing file {resolved}")
    return resolved


def load_references(manifest: str | Path | Mapping[str, tuple[Path, Path, Path]], level: str) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """Reference times and durations per utterance id of a manifest, given
    as its path or as what ``read_manifest`` returned for it.

    ``level`` picks the manifest's phoneme or word alignment column.  The
    final annotated end time doubles as the duration, so no audio needs
    decoding.  An utterance with an empty annotation is an error.
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    rows = manifest if isinstance(manifest, Mapping) else read_manifest(manifest)
    refs: dict[str, np.ndarray] = {}
    durations: dict[str, float] = {}
    for utt_id, (_, phn, wrd) in rows.items():
        ann = phn if level == "phoneme" else wrd
        times = parse_alignment_file(ann)
        if times.size == 0:
            raise ValueError(f"{ann}: empty {level} annotation")
        refs[utt_id] = times
        durations[utt_id] = float(times[-1])
    return refs, durations
