"""Model parameters and the forward pass of the segmentation model.

Three trainable blocks:

* a strided convolutional frame encoder mapping raw 16 kHz samples to one
  latent vector every 10 ms (five layers, 465-sample receptive field), each
  layer one channels-last conv + bias + relu op;
* a one-hidden-layer MLP re-encoding segment mean vectors;
* a single-layer tanh recurrence producing a causal context state per segment.

Parameters live in a flat name -> float32 array dict so the optimizer,
gradient clipping, and checkpoints can treat them uniformly.  In training
the forward functions record their stages on a ``diffcore.Tape`` by name.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import boundary as bd
from .audio import SAMPLE_RATE
from . import diffcore as dc

__all__ = [
    "KERNELS",
    "STRIDES",
    "RECEPTIVE_FIELD",
    "TOTAL_STRIDE",
    "FRAME_HOP_S",
    "LATENT_EPS",
    "ModelConfig",
    "SCPCModel",
    "UtteranceGraph",
    "n_frames",
    "frame_latents",
    "segment_latents",
    "context_states",
    "analyze_utterance",
    "save_checkpoint",
    "load_checkpoint",
]

KERNELS = (10, 8, 4, 4, 4)
STRIDES = (5, 4, 2, 2, 2)
RECEPTIVE_FIELD = 465   # samples: 1 + sum((k-1) * prod(earlier strides))
TOTAL_STRIDE = 160      # samples between frames: 10 ms at 16 kHz
FRAME_HOP_S = TOTAL_STRIDE / SAMPLE_RATE

CHECKPOINT_VERSION = 1

# Added to encoder outputs so no latent is ever the exact zero vector, which
# cosine similarity rejects.  A relu stack can go fully dead for a window once
# the optimizer moves the biases, so an init-time bias alone is not enough.
LATENT_EPS = 1e-6


def n_frames(n_samples: int) -> int:
    """Frames produced for an input of ``n_samples`` (requires at least 465)."""
    if n_samples < RECEPTIVE_FIELD:
        raise ValueError(f"input of {n_samples} samples is shorter than one receptive field ({RECEPTIVE_FIELD})")
    return (n_samples - RECEPTIVE_FIELD) // TOTAL_STRIDE + 1


@dataclass(frozen=True)
class ModelConfig:
    frame_dim: int = 64    # latent width per frame
    segment_dim: int = 64  # segment and context width
    thres: float = 0.09    # peak threshold used for segmentation

    def __post_init__(self):
        for f in fields(self):   # a float field takes an int too; bool fits neither
            value, kind = getattr(self, f.name), type(f.default)
            if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
                raise ValueError(f"{f.name} must be {kind.__name__}, got {value!r}")
        if self.frame_dim < 1 or self.segment_dim < 1:
            raise ValueError(f"dims must be positive, got frame_dim={self.frame_dim} segment_dim={self.segment_dim}")
        if not 0.0 <= self.thres <= 1.0:
            raise ValueError(f"thres must be in [0, 1], got {self.thres}")


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class SCPCModel:
    """Parameter container; the actual math lives in the forward functions below."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: ModelConfig = ModelConfig(), seed: int = 0) -> "SCPCModel":
        """Uniform fan-in initialization, fully determined by the seed."""
        rng = np.random.default_rng([seed, 0xC0DE])
        p, q = config.frame_dim, config.segment_dim
        params: dict[str, np.ndarray] = {}
        c_in = 1
        for i, (k, _) in enumerate(zip(KERNELS, STRIDES)):
            c_out = p
            params[f"frame_conv{i}_w"] = _uniform(rng, (c_out, c_in, k), c_in * k)
            # Small positive bias keeps silent windows off the relu dead zone
            # at init; LATENT_EPS is the durable nonzero guarantee.
            params[f"frame_conv{i}_b"] = np.full(c_out, 0.01, dtype=np.float32)
            c_in = c_out
        params["seg_w1"] = _uniform(rng, (p, q), p)
        params["seg_b1"] = np.zeros(q, dtype=np.float32)
        params["seg_w2"] = _uniform(rng, (q, q), q)
        params["seg_b2"] = np.zeros(q, dtype=np.float32)
        params["ctx_w_in"] = _uniform(rng, (q, q), q)
        params["ctx_w_h"] = _uniform(rng, (q, q), q)
        params["ctx_b"] = np.zeros(q, dtype=np.float32)
        return cls(config, params)


def frame_latents(params: dict[str, np.ndarray], samples: np.ndarray, threads: int = 1, tape: dc.Tape | None = None) -> np.ndarray:
    """Encode raw samples into frame latents, shape (n_frames, frame_dim).

    ``samples`` must be float32, at least one receptive field long; the caller
    is responsible for the sample rate being 16 kHz.  Each layer spreads its
    GEMMs over ``threads`` threads, with the same result for any count.  The
    last layer's stage writes "frames": the ``LATENT_EPS`` shift's vjp is identity.
    """
    n_frames(samples.size)  # validates length
    x, read = samples.reshape(-1, 1), "samples"   # (t, 1), which needs no gradient
    for i, s in enumerate(STRIDES):
        w, b, out = f"frame_conv{i}_w", f"frame_conv{i}_b", f"conv{i}" if i < len(STRIDES) - 1 else "frames"
        x, vjp = dc.conv1d(x, params[w], params[b], stride=s, threads=threads, grad_input=i > 0)
        if tape is not None:
            tape.record((read, w, b), out, vjp)
        del vjp   # untaped, it would keep this layer's input alive through the next layer
        read = out
    return x + np.float32(LATENT_EPS)


def segment_latents(params: dict[str, np.ndarray], means: np.ndarray, tape: dc.Tape | None = None) -> np.ndarray:
    """Re-encode segment means (n_segments, frame_dim) -> (n_segments, segment_dim):
    relu(means @ w1 + b1) @ w2 + b2 + ``LATENT_EPS``, one tape stage.

    The epsilon keeps a dead hidden layer (output equal to the bias, zero at
    init) from producing the exact zero vector.  The vjp sums the bias
    gradients in float64, and the relu passes none at exactly zero.
    """
    names = ("seg_w1", "seg_b1", "seg_w2", "seg_b2")
    w1, b1, w2, b2 = (params[k] for k in names)
    pre = means @ w1 + b1
    h = np.maximum(pre, 0)

    def vjp(g):
        g_pre = g @ w2.T * (pre > 0).astype(pre.dtype)
        return (g_pre @ w1.T, means.T @ g_pre, g_pre.sum(axis=0, dtype=np.float64).astype(g_pre.dtype),
                h.T @ g, g.sum(axis=0, dtype=np.float64).astype(g.dtype))

    if tape is not None:
        tape.record(("means", *names), "segments", vjp)
    return h @ w2 + b2 + np.float32(LATENT_EPS)


def context_states(params: dict[str, np.ndarray], segments: np.ndarray, tape: dc.Tape | None = None) -> np.ndarray:
    """Causal tanh recurrence over segment latents; row i sees segments 0..i."""
    names = ("ctx_w_in", "ctx_w_h", "ctx_b")
    h, vjp = dc.tanh_scan(segments, *(params[k] for k in names))
    if tape is not None:
        tape.record(("segments", *names), "contexts", vjp)
    return h


@dataclass(frozen=True)
class UtteranceGraph:
    """Every stage of one utterance's forward pass."""

    frames: np.ndarray         # (L, frame_dim)
    boundaries: bd.BoundaryGraph
    segments: np.ndarray       # (M, segment_dim)
    contexts: np.ndarray       # (M, segment_dim)


def analyze_utterance(params: dict[str, np.ndarray], samples: np.ndarray, thres: float, threads: int = 1, tape: dc.Tape | None = None) -> UtteranceGraph:
    """Frames -> boundaries -> segment latents -> causal context, each stage
    recorded on ``tape`` when given; the frame encoder runs on ``threads``
    threads."""
    frames = frame_latents(params, samples, threads, tape)
    graph = bd.detect_segments(frames, thres, tape)
    segments = segment_latents(params, graph.means, tape)
    contexts = context_states(params, segments, tape)
    return UtteranceGraph(frames, graph, segments, contexts)


def save_checkpoint(path: str | Path, model: SCPCModel, extra_arrays: dict[str, np.ndarray] | None = None, train_config: dict | None = None) -> None:
    """Write a versioned npz container: params, config echo (the model's
    ending with the one sample rate it takes), optional extras."""
    echo = {"model": {**asdict(model.config), "sample_rate": SAMPLE_RATE}, "train": train_config}
    payload: dict[str, np.ndarray] = {
        "format_version": np.asarray(CHECKPOINT_VERSION),
        "config_json": np.asarray(json.dumps(echo)),
    }
    for name, arr in model.params.items():
        payload[f"param/{name}"] = arr
    for name, arr in (extra_arrays or {}).items():
        payload[f"extra/{name}"] = arr
    np.savez(Path(path), **payload)


def load_checkpoint(path: str | Path) -> tuple[SCPCModel, dict[str, np.ndarray], dict | None]:
    """Read a checkpoint, checking each parameter's name, shape and dtype against
    its config; returns (model, extra arrays, train config echo).  Every
    structural fault is a one-line ``ValueError`` that names the file."""
    path = Path(path)
    arrays: dict[str, np.ndarray] = {}
    # np.load is handed an open file, so a zip it rejects cannot leak the handle.
    with open(path, "rb") as fh:
        try:
            data = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: not an npz checkpoint") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):   # a bare .npy array
            raise ValueError(f"{path}: not an npz checkpoint")
        for key in data.files:   # numpy's own error, as for an object array, names neither
            try:
                arrays[key] = data[key]
            except (ValueError, EOFError, zipfile.BadZipFile) as exc:
                raise ValueError(f"{path}: unreadable checkpoint entry {key} ({exc})") from exc
    version = arrays.get("format_version")
    if version is None or version.shape != () or version.dtype.kind not in "iu" or int(version) != CHECKPOINT_VERSION:
        found = None if version is None else repr(version.item()) if version.shape == () else f"shape {version.shape}"
        raise ValueError(f"{path}: checkpoint format version mismatch (found {found}, expected the 0-d integer {CHECKPOINT_VERSION})")
    try:
        config_raw = json.loads(str(arrays["config_json"]))
        model_echo = {**config_raw["model"]}
        rate = model_echo.pop("sample_rate", SAMPLE_RATE)
        config = ModelConfig(**model_echo)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: unreadable model config ({type(exc).__name__}: {exc})") from exc
    if rate != SAMPLE_RATE:
        raise ValueError(f"{path}: checkpoint model takes sample_rate {rate!r}; only {SAMPLE_RATE} Hz input is supported")
    params = {k[len("param/") :]: a for k, a in arrays.items() if k.startswith("param/")}
    extras = {k[len("extra/") :]: a for k, a in arrays.items() if k.startswith("extra/")}
    expected = SCPCModel.init(config, seed=0).params
    if set(params) != set(expected):
        raise ValueError(f"{path}: checkpoint parameter set does not match this model (missing {sorted(set(expected) - set(params))})")
    for name, ref in expected.items():
        found = params[name]
        if found.shape != ref.shape or found.dtype != ref.dtype:
            raise ValueError(f"{path}: parameter {name} is {found.dtype} {found.shape}, expected {ref.dtype} {ref.shape}")
    return SCPCModel(config, params), extras, config_raw.get("train")
