"""The names the benchmark's tracer hooks into stay in place.

``bench/tracing.py`` wraps ``scpc`` functions by name at run time and reads
per-layer figures off the spans those names record.  Renaming one would not
fail the program, only empty a benchmark column, so these tests install the
tracer (loaded from its file, unchanged) on the package, run one tiny
training step and one profile, or one tune and one evaluate, and check that
the spans it reads are there.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np

import scpc
from scpc import audio, cli, infer, metrics, model, trainer  # noqa: F401  (cli loads every module the tracer wraps)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    """``bench/tracing.py`` as a module, leaving no bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_the_spans_the_benchmark_reads(monkeypatch):
    spec = dataclasses.replace(audio.default_spec(seed=0), words_per_utterance=(2, 2))
    samples = audio.generate_utterance(spec, 0).waveform.samples
    net = model.SCPCModel.init(model.ModelConfig(frame_dim=8, segment_dim=8), seed=0)
    config = trainer.TrainConfig(k_frame=4, k_seg=2, frame_dim=8, segment_dim=8)
    tracer = load_tracing(monkeypatch).Tracer()
    tracer.install(scpc)
    try:
        grads, _, _ = trainer._utterance_step(net.params, samples, config, True, np.random.default_rng(0), 1)
        infer.profile_utterance(net, samples, "u0")
    finally:
        tracer.uninstall()
    assert grads is not None
    names = [span[3] for span in tracer.spans]
    assert names.count("diffcore.Tape.backward") == 1
    assert names.count("model.frame_latents") == 2
    assert names.count("boundary.detect_segments") == 2
    assert names.count("infer.profile_utterance") == 1
    assert tracer.counts["model.frames"] == 2 * model.n_frames(samples.size)
    # Uninstalled: the package runs unwrapped again.
    assert model.frame_latents.__module__ == "scpc.model" and not hasattr(model.frame_latents, "__wrapped__")


def test_tracer_records_the_scoring_spans_the_benchmark_reads(monkeypatch):
    utt = audio.generate_utterance(dataclasses.replace(audio.default_spec(seed=0), words_per_utterance=(2, 2)), 0)
    net = model.SCPCModel.init(model.ModelConfig(frame_dim=8, segment_dim=8), seed=0)
    profile = infer.profile_utterance(net, utt.waveform.samples, "u0")
    refs, durations = {"u0": utt.phoneme_times}, {"u0": utt.waveform.samples.size / audio.SAMPLE_RATE}
    tracer = load_tracing(monkeypatch).Tracer()
    tracer.install(scpc)
    try:
        infer.tune_prominence([profile], refs, "phoneme", durations=durations)
        metrics.evaluate({"u0": infer.predict(profile, "phoneme")}, refs, durations=durations)
    finally:
        tracer.uninstall()
    names = [span[3] for span in tracer.spans]
    assert names.count("infer.tune_prominence") == 1
    assert names.count("metrics.evaluate") == 1
