"""End-to-end walkthrough on a small synthetic corpus.

Renders disjoint train/val/test splits from one seeded spec, trains a short
run, tunes the peak-picking prominence on the validation split, segments the
test split at both levels, and scores the predictions.  Everything goes
through the command surface, so this doubles as a smoke test of the artifact
layout (manifests, checkpoints, prediction files, JSON reports).

Runs in well under a minute.  With the shipped defaults (400 training
utterances, 40 epochs) one recorded run scored phoneme F1 0.917 and word F1
0.695 on the test split; this scaled-down run lands lower but shows the same
shape.
"""

import json
import tempfile
from pathlib import Path

from scpc import cli

root = Path(tempfile.mkdtemp(prefix="scpc_demo_"))
print(f"working under {root}\n")


def run(*argv):
    argv = [str(a) for a in argv]
    print("$ scpc", " ".join(argv))
    assert cli.main(argv) == 0


# One seed, three index ranges: the splits never share an utterance.
run("synth", "--out", root / "train", "--n", 40)
run("synth", "--out", root / "val", "--n", 10, "--start-index", 40)
run("synth", "--out", root / "test", "--n", 10, "--start-index", 50)

config = root / "short.cfg"
config.write_text("epochs = 8\n")
run("train", "--manifest", root / "train" / "manifest.tsv", "--config", config,
    "--out", root / "run", "--val", root / "val" / "manifest.tsv")

# Per-epoch training record, one JSON object per line.
last = json.loads((root / "run" / "metrics.jsonl").read_text().splitlines()[-1])
print(f"\nfinal epoch: frame loss {last['l_nfc']:.3f}, segment loss {last['l_nsc']:.3f}, "
      f"mean segments/utterance {last['mean_segments']:.1f}\n")

for level in ("phoneme", "word"):
    run("tune", "--ckpt", root / "run" / "checkpoint.npz",
        "--manifest", root / "val" / "manifest.tsv", "--level", level,
        "--out", root / f"tune_{level}")
    prominence = json.loads((root / f"tune_{level}" / "tune.json").read_text())["prominence"]
    run("segment", "--ckpt", root / "run" / "checkpoint.npz",
        "--manifest", root / "test" / "manifest.tsv", "--level", level,
        "--out", root / f"pred_{level}", "--prominence", prominence)
    run("eval", "--pred", root / f"pred_{level}", "--ref", root / "test" / "manifest.tsv",
        "--level", level)
    print()
