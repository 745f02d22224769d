"""The demos run end to end.

Each demo is a script a reader runs by hand, so nothing else would notice an
API change that breaks one.  Each runs in a subprocess against this checkout's
``src``, with its temporary files under the test's own directory.
"""

from __future__ import annotations

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from scpc import audio

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, tmp_path, *args):
    path = [str(DEMOS.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py"), *map(str, args)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@pytest.mark.parametrize("name", ["boundary_detector_tour", "metrics_tour", "synthetic_pipeline"])
def test_demo_exits_zero(name, tmp_path):
    run_demo(name, tmp_path)


# split -> dialect region -> speakers, and the SX stems each speaker of the
# split reads besides SA1 and SA2
TIMIT_SPEAKERS = {"TRAIN": {"DR1": ("FCJF0", "MDPK0"), "DR2": ("FAEM0", "MARC0")},
                  "test": {"DR1": ("FELC0",), "DR2": ("MTAS1",)}}
TIMIT_SX = {"TRAIN": ("SX1", "SX2", "SX3"), "test": ("SX1", "SX2")}


@pytest.fixture
def timit_tree(tmp_path):
    """Synthetic utterances laid out as TIMIT: <split>/DR<d>/<speaker>/<stem>
    with .WAV, .PHN and .WRD files, every speaker reading SA1, SA2 and the
    same SX stems; the test split is named in lower case, as are its
    suffixes.  Returns the root and the (split, id) of every SX utterance."""
    layout = [(split, f"{dr}/{speaker}/{stem}") for split, regions in TIMIT_SPEAKERS.items()
              for dr, speakers in regions.items() for speaker in speakers
              for stem in ("SA1", "SA2", *TIMIT_SX[split])]
    spec = dataclasses.replace(audio.default_spec(seed=5), words_per_utterance=(2, 3))
    staged = audio.read_manifest(audio.save_corpus(audio.generate_corpus(spec, len(layout)), tmp_path / "staged"))
    root = tmp_path / "TIMIT"
    for files, (split, utt_id) in zip(staged.values(), layout):
        stem = root / split / utt_id
        stem.parent.mkdir(parents=True, exist_ok=True)
        for f in files:
            f.rename(stem.with_suffix(f.suffix.upper() if split == "TRAIN" else f.suffix))
    return root, [(split, utt_id) for split, utt_id in layout if "/SX" in utt_id]


def test_timit_recipe_runs_on_a_timit_shaped_tree(timit_tree, tmp_path):
    root, sx = timit_tree
    out = tmp_path / "out"
    stdout = run_demo("timit_recipe", tmp_path, root, out, "--epochs", 1)
    # Ids are paths under the split, so the SX stems that speakers share stay
    # apart, and the SA sentences are dropped from every split.
    wavs = [wav for name in ("train", "val") for wav, _, _ in audio.read_manifest(out / f"{name}.tsv").values()]
    assert sorted(wav.relative_to(root.resolve() / "TRAIN").with_suffix("").as_posix() for wav in wavs) == \
        sorted(utt_id for split, utt_id in sx if split == "TRAIN")
    for level in ("phoneme", "word"):
        lines = (out / f"pred_{level}" / "predictions.tsv").read_text().splitlines()
        assert [line.split("\t")[0] for line in lines] == [utt_id for split, utt_id in sx if split == "test"]
    assert re.findall(r"^(phoneme|word): F1 \S+  R-value \S+$", stdout, re.M) == ["phoneme", "word"]
