"""Command-line surface: synth | train | segment | eval | sweep | tune.

Every run that has an output directory echoes its fully resolved
configuration there as ``config_resolved.json``.  Errors exit nonzero with a
single-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import audio
from . import infer
from . import metrics
from . import model
from . import trainer

__all__ = ["main"]


def _keep_freed_memory() -> None:
    """Keep what a training step frees mapped for the next step instead of
    faulting it in again: glibc's mmap threshold to 32 MB and trim threshold
    to 256 MB, both, since either alone stops glibc adapting the other.
    Forked children inherit them; without glibc's ``mallopt``, nothing."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
        mallopt(-1, 256 << 20)   # M_TRIM_THRESHOLD


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _core_budget(text: str) -> int:
    """``--workers``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _echo_config(out_dir: Path, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config_resolved.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _profile_manifest(args, rows: dict[str, tuple[Path, Path, Path]]) -> list[infer.UtteranceProfile]:
    """Load the checkpoint once and profile every utterance of the read manifest ``rows``."""
    net = model.load_checkpoint(args.ckpt)[0]
    entries = [(str(wav), utt_id) for utt_id, (wav, _, _) in rows.items()]
    return infer.profile_corpus(net, entries, workers=args.workers)


def _cmd_synth(args) -> int:
    spec = audio.default_spec(args.seed)
    out = Path(args.out)
    utts = audio.generate_corpus(spec, args.n, start_index=args.start_index)
    manifest = audio.save_corpus(utts, out)
    _echo_config(out, {"command": "synth", "n": args.n, "start_index": args.start_index,
                       "spec": dataclasses.asdict(spec)})
    print(f"wrote {args.n} utterances to {manifest}")
    return 0


def _cmd_train(args) -> int:
    config = trainer.resolve_config(args.config)
    out = Path(args.out)
    _echo_config(out, {"command": "train", "manifest": str(args.manifest), "val": args.val and str(args.val),
                       "workers": args.workers, "resume": args.resume and str(args.resume),
                       "config": dataclasses.asdict(config)})
    result = trainer.train(args.manifest, config, out, val_manifest_path=args.val,
                           resume_from=args.resume, workers=args.workers)
    last = result.history[-1]
    print(f"trained {config.epochs} epochs; checkpoint {result.checkpoint}")
    print(f"final epoch: l_nfc {last['l_nfc']:.4f}  l_nsc "
          + (f"{last['l_nsc']:.4f}" if last["l_nsc"] is not None else "inactive"))
    return 0


def _cmd_segment(args) -> int:
    out = Path(args.out)
    infer._check_prominence(args.prominence)
    profiles = _profile_manifest(args, audio.read_manifest(args.manifest))
    preds = {p.id: infer.predict(p, args.level, args.prominence) for p in profiles}
    infer.write_predictions(preds, out, args.level)
    _echo_config(out, {"command": "segment", "ckpt": str(args.ckpt), "manifest": str(args.manifest),
                       "level": args.level, "prominence": args.prominence, "workers": args.workers})
    total = sum(times.size for times in preds.values())
    print(f"wrote {len(preds)} boundary files ({total} boundaries) to {out}")
    return 0


def _cmd_eval(args) -> int:
    preds = infer.read_predictions(args.pred)
    refs, durations = audio.load_references(args.ref, args.level)
    report = metrics.evaluate(preds, refs, tolerance=args.tol, durations=durations)
    print(metrics.format_report(report, label=args.level))
    if args.out:
        out = Path(args.out)
        _echo_config(out, {"command": "eval", "pred": str(args.pred), "ref": str(args.ref),
                           "level": args.level, "tol": args.tol})
        (out / "eval.json").write_text(json.dumps(dataclasses.asdict(report), indent=2) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    config = trainer.resolve_config(args.config)
    out = Path(args.out)
    kind = type(trainer.SWEEP_GRIDS[args.grid][0])   # each point has the type of the grid's reference points
    try:
        values = tuple(kind(v) for v in args.values.split(",")) if args.values else None
    except ValueError:
        raise ValueError(f"--values: cannot parse {args.values!r} as {kind.__name__} points of grid {args.grid}") from None
    trainer.sweep_points(config, args.grid, values)   # a grid that fails its check writes nothing
    _echo_config(out, {"command": "sweep", "grid": args.grid, "values": values,
                       "manifest": str(args.manifest), "val": str(args.val),
                       "workers": args.workers, "config": dataclasses.asdict(config)})
    rows = trainer.sweep(args.manifest, args.val, config, args.grid, out, values=values, workers=args.workers)
    fmt = "{:>11} {:>12} {:>12} {:>14}"
    print(fmt.format(args.grid, "phoneme_R", "word_R", "mean_segments"))
    for row in rows:
        print(fmt.format(
            f"{row['value']:.2f}" if args.grid == "thres" else str(row["value"]),
            metrics.format_pct(row["phoneme_r_value"]),
            metrics.format_pct(row["word_r_value"]),
            f"{row['mean_segments']:.2f}" if row["mean_segments"] is not None else "n/a",
        ))
    return 0


def _cmd_tune(args) -> int:
    metrics._check_tolerance(args.tol)
    rows = audio.read_manifest(args.manifest)
    refs, durations = audio.load_references(rows, args.level)
    profiles = _profile_manifest(args, rows)
    result = infer.tune_prominence(profiles, refs, args.level, durations=durations, tolerance=args.tol)
    print(f"prominence {result.prominence:.2f}  r_value {metrics.format_pct(result.r_value)}")
    if args.out:
        out = Path(args.out)
        _echo_config(out, {"command": "tune", "ckpt": str(args.ckpt), "manifest": str(args.manifest),
                           "level": args.level, "tol": args.tol, "workers": args.workers})
        payload = {"level": args.level, "prominence": result.prominence, "r_value": result.r_value,
                   "grid": [{"prominence": p, "r_value": r} for p, r in result.rows]}
        (out / "tune.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scpc", description="Joint frame/segment contrastive boundary detection.")
    sub = parser.add_subparsers(dest="command", required=True)
    workers = {"type": _core_budget, "default": _usable_cores(),
               "help": "cores (default: usable cores): first one process per utterance of a batch or manifest, "
                       "forked once per command, then the rest as threads in each encoder layer; "
                       "outputs do not depend on it"}

    p = sub.add_parser("synth", help="render the built-in synthetic corpus with reference boundaries")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True, help="number of utterances")
    p.add_argument("--start-index", type=int, default=0,
                   help="first utterance index; disjoint ranges under one seed give disjoint splits")
    p.add_argument("--seed", type=int, default=0, help="corpus seed")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("train", help="train a model from a wav manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", help="flat key = value training config")
    p.add_argument("--out", required=True)
    p.add_argument("--val", help="validation manifest for per-epoch R-values")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--workers", **workers)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("segment", help="predict boundaries with a trained model")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--level", choices=infer.LEVELS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--prominence", type=float, default=infer.DEFAULT_PROMINENCE)
    p.add_argument("--workers", **workers)
    p.set_defaults(fn=_cmd_segment)

    p = sub.add_parser("eval", help="score predicted boundaries against references")
    p.add_argument("--pred", required=True, help="directory written by `segment`")
    p.add_argument("--ref", required=True, help="reference manifest")
    p.add_argument("--level", choices=infer.LEVELS, required=True)
    p.add_argument("--tol", type=float, default=metrics.DEFAULT_TOLERANCE)
    p.add_argument("--out", help="also write eval.json here")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("sweep", help="train once per grid point and tabulate R-values")
    p.add_argument("--manifest", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--config", help="base training config")
    p.add_argument("--out", required=True)
    p.add_argument("--grid", choices=sorted(trainer.SWEEP_GRIDS), required=True)
    p.add_argument("--values", help="comma-separated grid override (default: reference grid)")
    p.add_argument("--workers", **workers)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("tune", help="grid-search peak prominence on labeled data")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True, help="labeled validation manifest")
    p.add_argument("--level", choices=infer.LEVELS, required=True)
    p.add_argument("--tol", type=float, default=metrics.DEFAULT_TOLERANCE)
    p.add_argument("--out", help="also write tune.json here")
    p.add_argument("--workers", **workers)
    p.set_defaults(fn=_cmd_tune)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _keep_freed_memory()
    try:
        return args.fn(args)
    except (OSError, ValueError, trainer.DivergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
