"""Train and evaluate on a real corpus laid out like TIMIT.

Usage:
    python demos/timit_recipe.py /path/to/TIMIT /path/to/output [--epochs N]

Expects the standard layout (TRAIN/ and TEST/ trees with per-utterance
.wav/.phn/.wrd triplets, sample-indexed alignments at 16 kHz).  The audio
must be RIFF PCM; the original discs ship NIST SPHERE files, which need a
one-time conversion (for example `sph2pipe -f rif`).  The two calibration
sentences every speaker reads (SA1, SA2) are dropped so repeated sentence
text does not leak across speakers.

Every command runs on CPU, on all usable cores; expect minutes per epoch.
Boundary threshold 0.05 and a segment-loss start after epoch 2 are the
settings that work well on this corpus.  There is no pass/fail bar here: the script reports phoneme and word
R-values and leaves judgment to the reader.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from scpc import audio, cli, metrics


def find_split(root: Path, name: str) -> Path:
    for cand in (root / name, root / name.lower(), root / name.upper()):
        if cand.is_dir():
            return cand
    sys.exit(f"error: no {name} directory under {root}")


def collect(split_dir: Path) -> list[tuple[Path, Path, Path]]:
    triplets = []
    for wav in sorted(split_dir.rglob("*.[wW][aA][vV]")):
        if wav.stem.upper() in ("SA1", "SA2"):
            continue
        phn = next((p for p in (wav.with_suffix(".phn"), wav.with_suffix(".PHN")) if p.exists()), None)
        wrd = next((p for p in (wav.with_suffix(".wrd"), wav.with_suffix(".WRD")) if p.exists()), None)
        if phn and wrd:
            triplets.append((wav.resolve(), phn.resolve(), wrd.resolve()))
    if not triplets:
        sys.exit(f"error: no wav/phn/wrd triplets under {split_dir}")
    return triplets


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("timit_root", type=Path)
    ap.add_argument("out_dir", type=Path)
    ap.add_argument("--epochs", type=int, default=5)
    args = ap.parse_args()

    train_all = collect(find_split(args.timit_root, "TRAIN"))
    test = collect(find_split(args.timit_root, "TEST"))

    try:
        audio.load_wav(train_all[0][0])
    except (ValueError, OSError) as e:
        sys.exit(f"error: could not read {train_all[0][0]} ({e}); "
                 "TIMIT audio must be converted to RIFF PCM first, e.g. sph2pipe -f rif")

    # Hold out 10% of the training utterances for prominence tuning.
    rng = np.random.default_rng(0)
    order = rng.permutation(len(train_all))
    n_val = max(1, len(train_all) // 10)
    val = [train_all[i] for i in order[:n_val]]
    train = [train_all[i] for i in order[n_val:]]

    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    for name, rows in (("train", train), ("val", val), ("test", test)):
        audio.write_manifest(rows, out / f"{name}.tsv")
    print(f"{len(train)} train / {len(val)} val / {len(test)} test utterances")

    config = out / "timit.cfg"
    config.write_text(f"thres = 0.05\nadd_nsc_epoch = 2\nepochs = {args.epochs}\n")

    def run(*argv):
        if cli.main([str(a) for a in argv]) != 0:
            sys.exit(1)

    run("train", "--manifest", out / "train.tsv", "--config", config,
        "--out", out / "run", "--val", out / "val.tsv")

    for level in ("phoneme", "word"):
        run("tune", "--ckpt", out / "run" / "checkpoint.npz", "--manifest", out / "val.tsv",
            "--level", level, "--out", out / f"tune_{level}")
        prominence = json.loads((out / f"tune_{level}" / "tune.json").read_text())["prominence"]
        run("segment", "--ckpt", out / "run" / "checkpoint.npz", "--manifest", out / "test.tsv",
            "--level", level, "--out", out / f"pred_{level}",
            "--prominence", prominence)
        run("eval", "--pred", out / f"pred_{level}", "--ref", out / "test.tsv",
            "--level", level, "--out", out / f"eval_{level}")
        report = json.loads((out / f"eval_{level}" / "eval.json").read_text())
        # r_value is null when no prediction hits; format_pct prints it as n/a
        print(f"{level}: F1 {metrics.format_pct(report['f1'])}  R-value {metrics.format_pct(report['r_value'])}")


if __name__ == "__main__":
    main()
