"""Optimization loop: joint contrastive training with a staged segment loss.

A run is determined by its data and a ``TrainConfig``: the defaults,
overridden by a flat config file, its one source of settings; nothing is
read from the environment or the command line.  A single optimizer
writer updates the parameters; per-utterance randomness is derived
functionally from (seed, epoch, utterance index), so two runs of the same
build produce bitwise-identical checkpoints, whatever the number of worker
processes and threads that compute the per-utterance gradients, and an interrupted run resumes
on the exact loss trajectory from the checkpoint written after every epoch.
The segment-level loss joins the total from ``add_nsc_epoch`` onward.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import audio
from . import diffcore as dc
from . import infer
from . import metrics
from . import model
from . import objective as obj
from . import parallel

__all__ = [
    "GRAD_CLIP_NORM",
    "ADAM_BETAS",
    "ADAM_EPS",
    "SWEEP_GRIDS",
    "TrainConfig",
    "TrainResult",
    "DivergenceError",
    "parse_config_text",
    "resolve_config",
    "load_dataset",
    "train",
    "sweep_points",
    "sweep",
]

GRAD_CLIP_NORM = 5.0    # global-norm clip; the straight-through path can spike
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8

# Reference grids: threshold 0..0.1 step 0.01, segment-loss start epoch 0..10.
SWEEP_GRIDS: dict[str, tuple] = {
    "thres": tuple(i / 100 for i in range(11)),
    "nsc_epoch": tuple(range(11)),
}


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run except the data itself:
    each setting's name, type (that of its default), default and range."""

    lr: float = 1e-3          # Adam step size
    batch_size: int = 8       # utterances per update
    epochs: int = 40
    thres: float = 0.09       # boundary peak threshold during training
    add_nsc_epoch: int = 2    # first epoch that includes the segment loss
    k_frame: int = 10
    k_seg: int = 5
    frame_dim: int = 64
    segment_dim: int = 64
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):   # a float field takes an int too; bool fits neither
            value, kind = getattr(self, f.name), type(f.default)
            if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
                raise ValueError(f"{f.name} must be {kind.__name__}, got {value!r}")
        model.ModelConfig(self.frame_dim, self.segment_dim, self.thres)   # checks thres and the widths
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.add_nsc_epoch < 0:
            raise ValueError(f"add_nsc_epoch must be >= 0, got {self.add_nsc_epoch}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.k_frame < 1 or self.k_seg < 0:
            raise ValueError(f"need k_frame >= 1 and k_seg >= 0, got {self.k_frame}, {self.k_seg}")


# ------------------------------------------------------------ configuration

def parse_config_text(text: str, path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` lines of the config file ``path``; '#' starts a
    comment, blank lines skipped.  Errors name ``path`` and the line."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValueError(f"{path}:{lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _settings(values: dict[str, object], where: str) -> TrainConfig:
    """``TrainConfig`` from ``values``, unknown keys listed together; every
    error is one line that starts with ``where``."""
    unknown = sorted(set(values) - {f.name for f in dataclasses.fields(TrainConfig)})
    try:
        if unknown:
            raise ValueError(f"unknown keys: {', '.join(unknown)}")
        return TrainConfig(**values)
    except ValueError as e:
        raise ValueError(f"{where}{e}") from e


def resolve_config(path: str | Path | None = None) -> TrainConfig:
    """The defaults, overridden by the config file ``path`` when given, each
    value parsed as its field's type.  Errors name the file; unknown keys
    are rejected together, so a typo'd config fails with the full list."""
    kinds = {f.name: type(f.default) for f in dataclasses.fields(TrainConfig)}
    typed: dict[str, object] = {}
    for name, text in (parse_config_text(Path(path).read_text(), path) if path is not None else {}).items():
        kind = kinds.get(name, str)   # an unknown key stays text for _settings to list
        try:
            typed[name] = kind(text)
        except ValueError as e:
            raise ValueError(f"{path}: config key {name!r}: cannot parse {text!r} as {kind.__name__}") from e
    return _settings(typed, f"{path}: ")


# ------------------------------------------------------------------- data

def load_dataset(manifest_path: str | Path) -> dict[str, np.ndarray]:
    """Training samples by utterance id; the annotations are never read."""
    return {utt_id: audio.load_wav(wav).samples for utt_id, (wav, _, _) in audio.read_manifest(manifest_path).items()}


# -------------------------------------------------------------- optimizer

@dataclass
class _OptState:
    t: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def _clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    total = 0.0
    for name in sorted(grads):
        g = grads[name]
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if norm > max_norm > 0:
        scale = max_norm / norm
        for name in grads:
            grads[name] *= scale
    return norm


def _apply_update(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: _OptState, config: TrainConfig) -> None:
    """One Adam step; math in float64, storage in float32."""
    beta1, beta2 = ADAM_BETAS
    state.t += 1
    bias1 = 1.0 - beta1 ** state.t
    bias2 = 1.0 - beta2 ** state.t
    for name in params:
        g = grads[name]
        m = beta1 * state.m[name].astype(np.float64) + (1.0 - beta1) * g
        v = beta2 * state.v[name].astype(np.float64) + (1.0 - beta2) * g * g
        state.m[name] = m.astype(np.float32)
        state.v[name] = v.astype(np.float32)
        step = config.lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
        params[name] = (params[name].astype(np.float64) - step).astype(np.float32)


# ------------------------------------------------------------- validation

def _validate(net: model.SCPCModel, entries: list[tuple[str, str]], refs: dict[str, tuple[dict[str, np.ndarray], dict[str, float]]], group: parallel.ForkGroup, threads: int) -> tuple[float | None, ...]:
    """Pooled R-values at the default prominence, one per level of
    ``infer.LEVELS``; ``refs`` maps a level to ``audio.load_references``'s
    (times, durations), the durations ``eval`` and ``tune`` score with.
    Each process of ``group`` runs the encoder on ``threads`` threads."""
    profiles = infer.profile_with(group, net, entries, threads)
    r_values = []
    for level in infer.LEVELS:
        preds = {p.id: infer.predict(p, level) for p in profiles}
        times, durations = refs[level]
        r_values.append(metrics.evaluate(preds, times, durations=durations).r_value)
    return tuple(r_values)


# --------------------------------------------------------------- training

def _utterance_step(params: dict[str, np.ndarray], samples: np.ndarray, config: TrainConfig, nsc_active: bool, rng: np.random.Generator, threads: int) -> tuple[dict[str, np.ndarray] | None, obj.LossReport, int]:
    """One utterance's forward and backward, the encoder on ``threads``
    threads: its float32 gradients (None when the loss is non-finite, zeros
    where it reaches no parameter), its loss terms and its segment count."""
    tape = dc.Tape()
    graph = model.analyze_utterance(params, samples, config.thres, threads, tape)
    total, report = obj.utterance_loss(graph.frames, graph.segments, graph.contexts, config.k_frame, config.k_seg, nsc_active, rng, tape)
    if not np.isfinite(report.total):
        return None, report, graph.boundaries.n_segments
    grads = tape.backward(total)
    return {k: grads[k] if k in grads else np.zeros_like(p) for k, p in params.items()}, report, graph.boundaries.n_segments


def _step_item(items: list[tuple[str, np.ndarray]], params: dict[str, np.ndarray], config: TrainConfig, epoch: int, threads: int, i: int) -> tuple:
    """``_utterance_step`` for utterance ``i`` of the training corpus
    ``items``, on its own (seed, epoch, utterance) stream."""
    return _utterance_step(params, items[i][1], config, epoch >= config.add_nsc_epoch, np.random.default_rng([config.seed, epoch, i]), threads)


@dataclass(frozen=True)
class TrainResult:
    checkpoint: Path
    metrics_log: Path
    history: list[dict]
    model: model.SCPCModel


def _save_state(path: Path, net: model.SCPCModel, state: _OptState, completed_epochs: int, config: TrainConfig) -> None:
    extras = {
        "epoch": np.asarray(completed_epochs, dtype=np.int64),
        "adam_t": np.asarray(state.t, dtype=np.int64),
    }
    for name in net.params:
        extras[f"adam_m/{name}"] = state.m[name]
        extras[f"adam_v/{name}"] = state.v[name]
    tmp = path.with_suffix(".tmp.npz")
    model.save_checkpoint(tmp, net, extra_arrays=extras, train_config=dataclasses.asdict(config))
    os.replace(tmp, path)


def _check_opt_state(path: str | Path, extras: dict[str, np.ndarray], params: dict[str, np.ndarray]) -> None:
    """Resume needs every array ``_save_state`` writes, with its shape and dtype."""
    expected = {"epoch": np.int64(0), "adam_t": np.int64(0)}
    expected.update({f"adam_{m}/{k}": p for m in "mv" for k, p in params.items()})
    for name, ref in expected.items():
        found = extras.get(name)
        if found is None or found.shape != ref.shape or found.dtype != ref.dtype:
            got = "is missing" if found is None else f"is {found.dtype} {found.shape}"
            raise ValueError(f"{path}: optimizer state extra/{name} {got}, expected {ref.dtype} {ref.shape}; cannot resume")


def train(
    manifest_path: str | Path,
    config: TrainConfig,
    out_dir: str | Path,
    val_manifest_path: str | Path | None = None,
    resume_from: str | Path | None = None,
    workers: int = 1,
) -> TrainResult:
    """Train from a manifest, logging one JSON record per epoch.

    A checkpoint is written atomically after every clean epoch, so a
    divergence (non-finite loss, reported with the offending utterance)
    leaves the last good checkpoint in place.

    ``workers`` is the run's core budget (``parallel.split_cores``): the
    run forks min(workers, batch_size) - 1 children once, each holding the
    training audio through the fork, and every process runs its encoder
    layers on the cores left over, workers // processes threads.  A
    batch's utterances are dealt to the processes as they come free,
    longest first, and their gradients, losses and divergence checks are
    folded in batch order, so every output is byte-identical for any
    ``workers``; one process folds each gradient before computing the
    next.  Validation profiles on the same processes and threads.
    """
    processes, threads = parallel.split_cores(workers, config.batch_size)
    # A resume is checked in full before any audio is read.
    if resume_from is not None:
        net, extras, echoed = model.load_checkpoint(resume_from)
        if not isinstance(echoed, dict):   # None when no training run wrote it
            raise ValueError(f"{resume_from}: checkpoint carries no training config object (found {json.dumps(echoed)}); cannot resume")
        stored = _settings(echoed, f"{resume_from}: checkpoint training config: ")
        mismatched = [   # epochs is the run's extent, not its math
            f.name for f in dataclasses.fields(TrainConfig)
            if f.name != "epochs" and getattr(stored, f.name) != getattr(config, f.name)
        ]
        if mismatched:
            raise ValueError(f"resume config differs from checkpoint on: {', '.join(mismatched)}")
        _check_opt_state(resume_from, extras, net.params)
        start_epoch = int(extras["epoch"])
        if start_epoch >= config.epochs:
            raise ValueError(f"checkpoint already covers {start_epoch} epochs; nothing to resume for epochs={config.epochs}")
        state = _OptState(
            t=int(extras["adam_t"]),
            m={k: extras[f"adam_m/{k}"] for k in net.params},
            v={k: extras[f"adam_v/{k}"] for k in net.params},
        )
    else:
        net = model.SCPCModel.init(model.ModelConfig(config.frame_dim, config.segment_dim, config.thres), seed=config.seed)
        start_epoch = 0
        state = _OptState(0, {k: np.zeros_like(p) for k, p in net.params.items()}, {k: np.zeros_like(p) for k, p in net.params.items()})

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    items = list(load_dataset(manifest_path).items())
    if len(items) < config.batch_size:
        raise ValueError(f"need at least batch_size={config.batch_size} utterances, got {len(items)}")
    min_samples = model.RECEPTIVE_FIELD + (config.k_frame + 1) * model.TOTAL_STRIDE   # the k_frame + 2 frames NFC needs
    if all(samples.size < min_samples for _, samples in items):
        raise ValueError(f"{manifest_path}: no utterance is long enough to train on; "
                         f"k_frame={config.k_frame} needs at least {min_samples} samples")
    # Validation holds only annotations; profile_corpus streams its audio each epoch.
    val_rows = audio.read_manifest(val_manifest_path) if val_manifest_path else {}
    val_entries = [(str(wav), utt_id) for utt_id, (wav, _, _) in val_rows.items()]
    val_refs = {level: audio.load_references(val_rows, level) for level in infer.LEVELS}

    params = dict(net.params)
    ckpt_path = out / "checkpoint.npz"
    metrics_path = out / "metrics.jsonl"
    history: list[dict] = []

    with parallel.ForkGroup(processes, items) as group, \
            open(metrics_path, "w" if start_epoch == 0 else "a") as log:
        for epoch in range(start_epoch, config.epochs):
            order = np.random.default_rng([config.seed, epoch]).permutation(len(items))
            nfc_sum = nsc_sum = seg_sum = 0.0
            n_used = nsc_n = skipped = 0

            for start in range(0, len(order), config.batch_size):
                batch = []
                for idx in order[start : start + config.batch_size]:
                    if items[int(idx)][1].size < min_samples:
                        skipped += 1
                    else:
                        batch.append(int(idx))
                if not batch:
                    continue
                steps = group.map(_step_item, batch, [items[idx][1].size for idx in batch], params, config, epoch, threads)
                # Fold in batch order, so the sums are the same for any group size.
                grads = {k: np.zeros(p.shape, dtype=np.float64) for k, p in params.items()}
                for idx, (utt_grads, report, n_segments) in zip(batch, steps):
                    if utt_grads is None:
                        raise DivergenceError(f"non-finite loss on utterance {items[idx][0]} in epoch {epoch}; last-good checkpoint retained")
                    for k in params:
                        grads[k] += utt_grads[k].astype(np.float64)
                    del utt_grads   # not held through the next step of a one-process group
                    n_used += 1
                    nfc_sum += report.nfc
                    seg_sum += n_segments
                    if report.nsc is not None:
                        nsc_sum += report.nsc
                        nsc_n += 1
                for k in grads:
                    grads[k] /= len(batch)
                norm = _clip_global_norm(grads, GRAD_CLIP_NORM)
                if not np.isfinite(norm):
                    raise DivergenceError(f"non-finite gradient norm in epoch {epoch}; last-good checkpoint retained")
                _apply_update(params, grads, state, config)

            net = model.SCPCModel(net.config, dict(params))
            record = {
                "epoch": epoch,
                "l_nfc": nfc_sum / n_used if n_used else None,
                "l_nsc": nsc_sum / nsc_n if nsc_n else None,
                "mean_segments": seg_sum / n_used if n_used else None,
                "n_skipped": skipped,
                "val_r_phoneme": None,
                "val_r_word": None,
            }
            if val_entries:
                record["val_r_phoneme"], record["val_r_word"] = _validate(net, val_entries, val_refs, group, threads)
            history.append(record)
            log.write(json.dumps(record) + "\n")
            log.flush()
            _save_state(ckpt_path, net, state, epoch + 1, config)

    return TrainResult(ckpt_path, metrics_path, history, net)


# ----------------------------------------------------------------- sweeps

def sweep_points(base_config: TrainConfig, grid_name: str, values: tuple | None = None) -> list[tuple[object, TrainConfig]]:
    """(value, config) for each point of the grid ``grid_name``, its
    reference points unless ``values``; building each config checks it."""
    if grid_name not in SWEEP_GRIDS:
        raise ValueError(f"grid must be one of {sorted(SWEEP_GRIDS)}, got {grid_name!r}")
    field = "thres" if grid_name == "thres" else "add_nsc_epoch"
    return [(value, dataclasses.replace(base_config, **{field: value})) for value in (SWEEP_GRIDS[grid_name] if values is None else values)]


def sweep(
    manifest_path: str | Path,
    val_manifest_path: str | Path,
    base_config: TrainConfig,
    grid_name: str,
    out_dir: str | Path,
    values: tuple | None = None,
    workers: int = 1,
) -> list[dict]:
    """One full train+eval per grid point, same seed and data throughout;
    every point is checked (``sweep_points``) before the first trains.

    Rows carry the final epoch's validation R-values and the mean number of
    training-time segments per utterance; the table lands in ``sweep.json``.
    """
    points = sweep_points(base_config, grid_name, values)
    tag = "thres_{:.2f}" if grid_name == "thres" else "nsc_epoch_{}"
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, config in points:
        result = train(manifest_path, config, out / tag.format(value), val_manifest_path, workers=workers)
        last = result.history[-1]
        rows.append({
            "param": grid_name,
            "value": value,
            "phoneme_r_value": last["val_r_phoneme"],
            "word_r_value": last["val_r_word"],
            "mean_segments": last["mean_segments"],
            "l_nfc": last["l_nfc"],
            "l_nsc": last["l_nsc"],
        })
    (out / "sweep.json").write_text(json.dumps(rows, indent=2) + "\n")
    return rows
