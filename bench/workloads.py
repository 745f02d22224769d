"""One benchmark workload, run in a fresh process started by ``run.py``.

Usage (normally through run.py, which pins BLAS and clears ``SCPC_*``):

    python3 bench/workloads.py --workload train_short --seed 0 --seconds 20 \
        --trace 0 --size full --work .bench_work/x --result out.json

Each workload drives the README quick-start surface in-process through
``scpc.cli.main``, so what is timed is what a user runs.  A run sets up
once, then repeats one *pass* of the workload's commands until
``--seconds`` have elapsed and at least the workload's fixed number of
passes has run.  It sets up again at even intervals of the run; the time
spent writing corpus files is left out of ``setup_s``.  Every pass and
set-up is followed by a run of ``hostspeed``'s reference kernel, and the
gated times are scaled to the reference host speed.  Every command and
every set-up is one attempted operation; it fails when it exits nonzero or
its outputs fail the checks below.

With ``--trace 1`` untraced passes alternate with passes under
``tracing.Tracer``; the result then carries the per-layer figures and the
tracing overhead against the untraced passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import scpc
from scpc import audio, cli, infer, model, trainer

import tracing
from hostspeed import HostSpeed

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference"
SETUP_REPEATS = 11  # the first before the passes, the others spread through the run
HELD_OUT_SEED = 1009   # never used while the benchmark was tuned; for later claims

# Bars for the last-epoch frame loss.  Chance level of picking the positive
# among k_frame + 1 candidates is ln(k_frame + 1) = 2.398.  train_short makes
# 16 updates per command and ends at 1.89-2.24 over seeds 0-5 at the seed
# commit, so its bar is chance: below it, the model has learned.  A
# train_long command makes one update, which cannot show learning; its bar
# only catches a loss that diverges or breaks.  Both run the same code, so a
# change that stops learning fails train_short.
CHANCE = math.log(trainer.TrainConfig().k_frame + 1)
NFC_BAR = {"train_short": CHANCE, "train_long": CHANCE + 0.05}

# Quality floors for the reference checkpoint on the synthetic test split.
# At the seed commit, seeds 0-5 give phoneme R 0.99-1.00 and word R 0.81-0.85.
R_FLOOR = {"phoneme": 0.95, "word": 0.70}

SIZES = {
    # workload -> size -> knobs.  With "split", each pass trains on one
    # utterance of the corpus, in turn: a command over several 15 s utterances
    # keeps the tapes of earlier steps alive until the cyclic GC happens to
    # run, so its peak RSS jumps between about 1.3 and 1.8 GB from seed to
    # seed.  One utterance per command measures the working set of one long
    # step; train_short, with 128 steps per command, carries the retention.
    # "passes" is the fixed number of untraced passes that audio_s_per_s is
    # taken from, whatever the speed; a whole number of rounds over the
    # corpora, and about three quarters of what fits in run_seconds.
    "train_short": {"full": {"n": 32, "epochs": 4, "batch": 8, "passes": 7},
                    "tiny": {"n": 8, "epochs": 1, "batch": 8, "passes": 2}},
    "train_long": {"full": {"n": 8, "epochs": 1, "batch": 1, "words": (40, 50), "split": True, "passes": 48},
                   "tiny": {"n": 2, "epochs": 1, "batch": 1, "words": (8, 10), "split": True, "passes": 2}},
    "segment_tune": {"full": {"n_val": 50, "n_test": 50, "passes": 10},
                     "tiny": {"n_val": 6, "n_test": 6, "passes": 2}},
}


@dataclass
class PassResult:
    wall_s: float
    audio_s: float
    attempted: int
    failed: int
    details: dict = field(default_factory=dict)


# Seconds spent in _save_corpus since the last set-up began.  Creating the
# same few hundred small files took from 30 to 330 ms on the measurement host,
# with the swing set by the disk's state rather than by the program, and
# swamped the rest of a set-up; so setup_s leaves that time out.
_write_s = 0.0


def _save_corpus(utterances, out_dir: Path) -> Path:
    global _write_s
    t0 = time.perf_counter()
    try:
        return audio.save_corpus(utterances, out_dir)
    finally:
        _write_s += time.perf_counter() - t0


def _duration(utt) -> float:
    return utt.waveform.samples.size / utt.waveform.sample_rate


def _cli(argv: list[str]) -> int:
    """Run one scpc command in-process; a crash counts as a failed command."""
    try:
        return cli.main(argv)
    except SystemExit as e:   # argparse rejected the arguments
        return e.code if isinstance(e.code, int) and e.code else 1
    except Exception:
        traceback.print_exc()
        return 1


def _checked(check) -> tuple[object, list[str]]:
    """Run an output check; unreadable or malformed outputs fail it."""
    try:
        return check()
    except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
        return None, [f"unreadable output: {e!r}"]


class TrainWorkload:
    """``scpc train`` on a synthetic corpus, from scratch, ``add_nsc_epoch = 0``.

    Pass ``i`` trains on corpus ``i mod len(corpora)``: the whole corpus, or
    with "split" one utterance of it.  Checks per pass: the command exits 0,
    every logged loss is finite, the last-epoch ``l_nfc`` is below
    ``NFC_BAR``, and the last-epoch losses equal those of the first pass on
    the same corpus bit for bit (training is deterministic for a fixed build).
    """

    def __init__(self, name: str, seed: int, size: str):
        knobs = SIZES[name][size]
        self.seed = seed
        self.nfc_bar = NFC_BAR[name]
        self.n = knobs["n"]
        self.epochs = knobs["epochs"]
        self.batch = knobs["batch"]
        self.split = knobs.get("split", False)
        self.spec = audio.default_spec(seed)
        if "words" in knobs:
            self.spec = dataclasses.replace(self.spec, words_per_utterance=knobs["words"])
        self.first_loss: dict[int, tuple] = {}
        self.utts_per_pass = self.epochs * (1 if self.split else self.n)
        self.cycle = self.n if self.split else 1
        self.passes = knobs["passes"]

    def setup(self, root: Path) -> int:
        self.root = root
        utts = audio.generate_corpus(self.spec, self.n)
        corpora = [[u] for u in utts] if self.split else [utts]
        self.manifests = [_save_corpus(c, root / f"train{j}") for j, c in enumerate(corpora)]
        self.audio_s = [sum(_duration(u) for u in c) for c in corpora]
        self.config = root / "train.cfg"
        self.config.write_text(f"epochs = {self.epochs}\nbatch_size = {self.batch}\nadd_nsc_epoch = 0\nseed = {self.seed}\n")
        # Warm-up: one epoch of the same command on eight short utterances.
        warm = _save_corpus(audio.generate_corpus(audio.default_spec(self.seed), 8, start_index=10_000), root / "warm")
        warm_cfg = root / "warm.cfg"
        warm_cfg.write_text(f"epochs = 1\nadd_nsc_epoch = 0\nseed = {self.seed}\n")
        return 0 if _cli(["train", "--manifest", str(warm), "--config", str(warm_cfg), "--out", str(root / "warm_run")]) == 0 else 1

    def run_pass(self, i: int) -> PassResult:
        j = i % len(self.manifests)
        out = self.root / f"pass{i}"
        t0 = time.perf_counter()
        rc = _cli(["train", "--manifest", str(self.manifests[j]), "--config", str(self.config), "--out", str(out)])
        wall = time.perf_counter() - t0
        details, problems = _checked(lambda: self._check_train(out, j, wall)) if rc == 0 else ({}, [f"train exited {rc}"])
        shutil.rmtree(out, ignore_errors=True)
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        return PassResult(wall, self.audio_s[j] * self.epochs, 1, int(bool(problems)), details or {})

    def _check_train(self, out: Path, j: int, wall: float) -> tuple[dict, list[str]]:
        problems = []
        records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        losses = [r[k] for r in records for k in ("l_nfc", "l_nsc") if r[k] is not None]
        if len(records) != self.epochs or not all(math.isfinite(v) for v in losses):
            problems.append(f"expected {self.epochs} finite epoch records, got {records}")
        last = records[-1]
        if not (last["l_nfc"] is not None and last["l_nfc"] < self.nfc_bar):
            problems.append(f"last-epoch l_nfc {last['l_nfc']} not below {self.nfc_bar:.4f}")
        loss = (last["l_nfc"], last["l_nsc"])
        first = self.first_loss.setdefault(j, loss)
        if loss != first:
            problems.append(f"loss {loss} differs from {first} of the first pass on corpus {j}: "
                            "training is not deterministic")
        details = {"train_loss": last["l_nfc"] + (last["l_nsc"] or 0.0), "l_nfc": last["l_nfc"],
                   "l_nsc": last["l_nsc"], "train_s": wall}
        return details, problems


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SegmentTuneWorkload:
    """The inference half of the quick start against the committed checkpoint.

    One pass, per level: ``tune`` on the val split, ``segment`` on the test
    split at the tuned prominence, ``eval``.  Checks: each command exits 0; the
    tuned prominence lies on ``infer.PROMINENCE_GRID``; every predicted time
    is strictly increasing and inside (0, duration); eval's prediction count
    equals report.json's total and its hits do not exceed it; the R-value
    clears the floor; and every pass reproduces the first pass's outputs.
    """

    def __init__(self, name: str, seed: int, size: str):
        knobs = SIZES[name][size]
        self.spec = audio.default_spec(seed)
        self.n_val, self.n_test = knobs["n_val"], knobs["n_test"]
        self.provenance = json.loads((REFERENCE / "PROVENANCE.json").read_text())
        self.ckpt = REFERENCE / "checkpoint.npz"
        self.first: dict | None = None
        self.utts_per_pass = 0
        self.cycle = 1
        self.passes = knobs["passes"]

    def setup(self, root: Path) -> int:
        self.root = root
        val = audio.generate_corpus(self.spec, self.n_val, start_index=400)
        test = audio.generate_corpus(self.spec, self.n_test, start_index=450)
        self.val = _save_corpus(val, root / "val")
        self.test = _save_corpus(test, root / "test")
        self.val_audio_s = sum(_duration(u) for u in val)
        self.test_audio_s = sum(_duration(u) for u in test)
        self.durations = {u.waveform.id: _duration(u) for u in test}
        digest = _sha256(self.ckpt)
        if digest != self.provenance["sha256"]:
            raise SystemExit(f"{self.ckpt}: sha256 {digest} does not match PROVENANCE.json")
        try:
            net, _, _ = model.load_checkpoint(self.ckpt)
            infer.profile_utterance(net, test[0].waveform.samples, test[0].waveform.id)   # warm-up
        except Exception as e:
            traceback.print_exc()
            print(f"check failed: reference checkpoint does not load: {e!r}", file=sys.stderr)
            return 1
        return 0

    def _check_predictions(self, pred_dir: Path) -> list[str]:
        problems = []
        for utt_id, dur in self.durations.items():
            times = np.array([float(v) for v in (pred_dir / f"{utt_id}.txt").read_text().split()])
            if times.size and (np.any(np.diff(times) <= 0) or times[0] <= 0 or times[-1] >= dur):
                problems.append(f"{pred_dir.name}/{utt_id}: times not strictly increasing inside (0, {dur})")
        return problems

    def run_pass(self, i: int) -> PassResult:
        out = self.root / f"pass{i}"
        attempted = failed = 0
        walls = {"tune": 0.0, "segment": 0.0, "eval": 0.0}
        outputs = {}

        def command(kind: str, argv: list[str], check) -> dict | None:
            nonlocal attempted, failed
            attempted += 1
            t0 = time.perf_counter()
            rc = _cli([kind, *argv])
            walls[kind] += time.perf_counter() - t0
            problems = [f"{kind} {argv} exited {rc}"] if rc != 0 else []
            result = None
            if rc == 0:
                result, more = _checked(check)
                problems += more
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
            failed += int(bool(problems))
            return result if not problems else None

        for level in infer.LEVELS:
            tune_dir, pred_dir, eval_dir = out / f"tune_{level}", out / f"pred_{level}", out / f"eval_{level}"

            def check_tune():
                tuned = json.loads((tune_dir / "tune.json").read_text())
                ok = tuned["prominence"] in infer.PROMINENCE_GRID
                return tuned, [] if ok else [f"tuned prominence {tuned['prominence']} is not on PROMINENCE_GRID"]

            tuned = command("tune", ["--ckpt", str(self.ckpt), "--manifest", str(self.val), "--level", level,
                                     "--out", str(tune_dir)], check_tune)
            if tuned is None:
                continue
            seg = command("segment", ["--ckpt", str(self.ckpt), "--manifest", str(self.test), "--level", level,
                                      "--out", str(pred_dir), "--prominence", repr(tuned["prominence"])],
                          lambda: (True, self._check_predictions(pred_dir)))
            if seg is None:
                continue

            def check_eval():
                report = json.loads((pred_dir / "report.json").read_text())
                ev = json.loads((eval_dir / "eval.json").read_text())
                problems = []
                if ev["n_pred"] != report["total_boundaries"] or not 0 <= ev["n_hit"] <= ev["n_pred"]:
                    problems.append(f"eval counts hit={ev['n_hit']} pred={ev['n_pred']} disagree with "
                                    f"report.json total {report['total_boundaries']}")
                if ev["r_value"] is None or ev["r_value"] < R_FLOOR[level]:
                    problems.append(f"{level} R-value {ev['r_value']} below floor {R_FLOOR[level]}")
                return ev, problems

            ev = command("eval", ["--pred", str(pred_dir), "--ref", str(self.test), "--level", level,
                                  "--out", str(eval_dir)], check_eval)
            if ev is not None:
                outputs[level] = {"prominence": tuned["prominence"], "r_value": ev["r_value"], "f1": ev["f1"],
                                  "n_hit": ev["n_hit"], "n_pred": ev["n_pred"]}

        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            print(f"check failed: pass {i} outputs {outputs} differ from first pass {self.first}", file=sys.stderr)
            failed += 1
        shutil.rmtree(out, ignore_errors=True)
        details = {"tune_s": walls["tune"], "segment_rtf": walls["segment"] / self.test_audio_s}
        for level, o in outputs.items():
            details[f"{level}_r_value"] = o["r_value"]
            details[f"{level}_f1"] = o["f1"]
            details[f"{level}_prominence"] = o["prominence"]
        return PassResult(sum(walls.values()), 2 * (self.val_audio_s + self.test_audio_s), attempted, failed, details)


WORKLOADS = {"train_short": TrainWorkload, "train_long": TrainWorkload, "segment_tune": SegmentTuneWorkload}


def environment(seed: int) -> dict:
    """Versions, thread pins and the commit, recorded with every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.26 prints its config only
        blas = {"name": "unknown", "version": ""}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(Path.cwd()),
        "seed": seed,
        "default_seed": 0,
        "held_out_seed": HELD_OUT_SEED,
        "workers": 1,
    }


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _run_passes(wl, seconds: float, setup, host: HostSpeed, tracer: tracing.Tracer | None = None
                ) -> tuple[list[PassResult], list[PassResult]]:
    """Repeat passes until ``seconds`` have elapsed; return (untraced, traced).

    Untraced, the loop also runs until ``wl.passes`` passes are done.  With
    a tracer, blocks of ``wl.cycle`` passes (one round over the workload's
    corpora) alternate untraced and traced, and the loop stops only after a
    whole traced block, so both sides see the same inputs and the same
    spells of a noisy host.  ``setup()`` is called between passes at even
    intervals of ``seconds``, then as often as is left of ``SETUP_REPEATS``.
    ``host`` runs its reference kernel after every pass.
    """
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    start = time.perf_counter()
    setups_left = SETUP_REPEATS - 1
    i = 0

    def more() -> bool:
        if time.perf_counter() < start + seconds:
            return True
        if tracer is None:
            return len(plain) < wl.passes
        return not traced or i % (2 * wl.cycle) != 0

    while more():
        if setups_left and time.perf_counter() >= start + seconds * (SETUP_REPEATS - setups_left) / SETUP_REPEATS:
            setup()
            setups_left -= 1
        # A pass stands for one user invocation, i.e. a fresh process: collect
        # the reference cycles (tapes) earlier passes left for the gen-2 GC.
        gc.collect()
        if tracer is None or (i // wl.cycle) % 2 == 0:
            plain.append(wl.run_pass(i))
        else:
            tracer.pass_id = i
            tracer.install(scpc)
            try:
                with tracer.span("bench.pass"):
                    traced.append(wl.run_pass(i))
            finally:
                tracer.uninstall()
        host.measure()
        i += 1
    for _ in range(setups_left):
        setup()
    return plain, traced


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--work", required=True, help="scratch directory for corpora and outputs")
    ap.add_argument("--result", required=True, help="where to write the result JSON")
    ap.add_argument("--spans", help="where to write the traced spans (gzip JSON lines)")
    args = ap.parse_args(argv)

    work = Path(args.work)
    wl = WORKLOADS[args.workload](args.workload, args.seed, args.size)
    setup_s: list[float] = []       # scaled to the reference host speed
    setup_raw_s: list[float] = []
    write_s: list[float] = []
    setup_failed = 0
    host = HostSpeed()

    def setup() -> None:
        """Set up afresh; later passes use the new directory."""
        global _write_s
        nonlocal setup_failed
        gc.collect()
        root = work / f"setup{len(setup_s)}"
        _write_s = 0.0
        t0 = time.perf_counter()
        setup_failed += wl.setup(root)
        setup_raw_s.append(time.perf_counter() - t0 - _write_s)
        setup_s.append(setup_raw_s[-1] * host.measure())
        write_s.append(_write_s)
        if len(setup_s) > 1:
            shutil.rmtree(work / f"setup{len(setup_s) - 2}", ignore_errors=True)

    setup()
    result: dict = {"environment": environment(args.seed)}
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = _run_passes(wl, args.seconds, setup, host, tracer)
    attempted, failed = len(setup_s), setup_failed
    unscaled = {}
    if tracer is None:
        # Times scaled to the reference host speed (hostspeed.py).  Throughput
        # is total audio over total time of a fixed count of passes, so the
        # statistic does not depend on the speed.  The unscaled figures stay
        # in the result file.
        counted = plain[:wl.passes]
        raw = sum(p.audio_s for p in counted) / sum(p.wall_s for p in counted)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "audio_s_per_s": raw / host.run_scale(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        unscaled = {"audio_s_per_s_raw": raw,
                    "setup_s_raw": statistics.median(setup_raw_s)}
    else:
        metrics = tracing.layer_metrics(tracer, len(traced), wl.utts_per_pass)
        metrics["trace.overhead_frac"] = (statistics.median(p.wall_s / p.audio_s for p in traced)
                                          / statistics.median(p.wall_s / p.audio_s for p in plain) - 1.0)
        if args.spans:
            tracer.write(Path(args.spans))
        result["top_self_ms"] = [{"name": n, "calls": c, "total_ms": t, "self_ms": s}
                                 for n, c, t, s in tracer.summary()[:12]]
    passes = plain + traced
    attempted += sum(p.attempted for p in passes)
    failed += sum(p.failed for p in passes)
    detail_keys = sorted({k for p in passes for k in p.details})
    result.update({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_audio_s": [p.audio_s for p in passes],
        "reference_runs_s": host.runs,
        "details": {**{k: statistics.median(p.details[k] for p in passes if k in p.details) for k in detail_keys},
                    **unscaled},
        "setup_runs_s": setup_raw_s,
        "setup_write_s": write_s,
    })
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
