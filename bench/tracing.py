"""Outside-in span tracing of the ``scpc`` package.

The tracer wraps, at run time, every public function listed in the
``__all__`` of each ``scpc`` module (plus ``diffcore.Tape.backward``) and
records one span per call: id, parent id, pass id, name, start and end.
Nothing under ``src/`` is edited; the wrappers are installed on the module
objects, and because the package calls across modules through module
attributes (``dc.conv1d``, ``model.analyze_utterance``, ...) the calls between
layers are seen too.  Spans stay in memory and are written once, at the end
of the run.

There is no queue and no worker pool at ``workers = 1``: every span runs on
the one thread that issued it, so spans carry busy time only and there is no
wait time to report.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import gzip
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("diffcore", "audio", "model", "boundary", "objective", "trainer", "infer", "metrics", "cli")


class Tracer:
    """Span recorder plus garbage-collector counters for one process."""

    def __init__(self) -> None:
        # (span id, parent id, pass id, name, start ns, end ns)
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.profiled: set[tuple[int, str]] = set()   # (pass id, utterance id)
        self.pass_id = 0
        self.gc_gen2 = 0
        self.gc_pause_ns = 0
        self._gc_t0 = 0
        self._stack: list[int] = []
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans

    def _enter(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid: int, parent: int, name: str, t0: int) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, self.pass_id, name, t0, time.perf_counter_ns()))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block."""
        sid, parent = self._enter()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._exit(sid, parent, name, t0)

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._enter()
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(sid, parent, name, t0)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # --------------------------------------------------------- installation

    def _patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def _patch_counter(self, owner, attr: str, key: str) -> None:
        """Count calls without a span, so their time stays the caller's self time."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def install(self, package) -> None:
        """Wrap the public functions of every module of ``package``; undo
        with :meth:`uninstall`.  Spans and counters accumulate across
        installs."""
        hooks = {
            "model.frame_latents": lambda a, r: self._count("model.frames", r.shape[0]),
            "boundary.detect_segments": lambda a, r: self._count("boundary.segments", r.n_segments),
            "infer.profile_utterance": lambda a, r: self.profiled.add((self.pass_id, r.id)),
        }
        for short in MODULES:
            mod = getattr(package, short)
            for attr in mod.__all__:
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    self._patch(mod, attr, name, hooks.get(name))
        self._patch(package.diffcore.Tape, "backward", "diffcore.Tape.backward")
        # The optimizer step is private; trainer.train calls it once per update.
        self._patch_counter(package.trainer, "_apply_update", "trainer.updates")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _count(self, key: str, value: float) -> None:
        self.counts[key] += value

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._stack:   # outside every span: the benchmark's own collection
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter_ns()
        else:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_t0
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # --------------------------------------------------------------- output

    def self_times(self) -> dict[int, int]:
        """Span id -> duration minus the time its direct children cover."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, _, t0, t1 in self.spans:
            child_ns[parent] += t1 - t0
        return {sid: (t1 - t0) - child_ns[sid] for sid, _, _, _, t0, t1 in self.spans}

    def write(self, path: Path) -> None:
        """One JSON object per span, gzip-compressed, in completion order."""
        selfs = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            for sid, parent, pid, name, t0, t1 in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "pass": pid, "name": name,
                                    "start_us": t0 // 1000, "dur_us": (t1 - t0) / 1000,
                                    "self_us": selfs[sid] / 1000}) + "\n")

    def summary(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, total ms, self ms) per span name, by self time."""
        selfs = self.self_times()
        rows: dict[str, list] = defaultdict(lambda: [0, 0, 0])
        for sid, _, _, name, t0, t1 in self.spans:
            row = rows[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += selfs[sid]
        out = [(name, c, tot / 1e6, s / 1e6) for name, (c, tot, s) in rows.items()]
        return sorted(out, key=lambda r: -r[3])


def layer_metrics(tracer: Tracer, n_passes: int, utts_presented_per_pass: int) -> dict[str, float]:
    """Per-layer figures from the spans of ``n_passes`` traced passes.

    ``_ms`` figures are per utterance forward (one ``model.analyze_utterance``
    call), unless the name says per call, update or pass.
    """
    selfs = tracer.self_times()
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in tracer.spans:
        by_name[span[3]].append(span)

    def total_ms(name: str) -> float:
        return sum(t1 - t0 for *_, t0, t1 in by_name[name]) / 1e6

    def per_call_ms(name: str) -> float:
        calls = len(by_name[name])
        return total_ms(name) / calls if calls else 0.0

    utts = len(by_name["model.analyze_utterance"])
    per_utt = (lambda x: x / utts) if utts else (lambda x: 0.0)
    passes = max(n_passes, 1)

    op_calls = sum(len(v) for k, v in by_name.items() if k.startswith("diffcore.") and k != "diffcore.Tape.backward")

    frame_spans = {s[0] for s in by_name["model.frame_latents"]}
    conv_by_layer: dict[int, list[float]] = defaultdict(list)
    convs_in_frame: dict[int, list[tuple]] = defaultdict(list)
    for s in by_name["diffcore.conv1d"]:
        if s[1] in frame_spans:
            convs_in_frame[s[1]].append(s)
    for convs in convs_in_frame.values():
        for layer, s in enumerate(sorted(convs, key=lambda s: s[4])):
            conv_by_layer[layer].append((s[5] - s[4]) / 1e6)

    train_self_ns = sum(selfs[s[0]] for s in by_name["trainer.train"])
    updates = tracer.counts.get("trainer.updates", 0.0)
    pass_ns = sum(t1 - t0 for *_, t0, t1 in by_name["bench.pass"])

    prof = np.array([(t1 - t0) / 1e6 for *_, t0, t1 in by_name["infer.profile_utterance"]])
    backward_calls = len(by_name["diffcore.Tape.backward"])

    out = {
        "diffcore.backward_ms": per_utt(total_ms("diffcore.Tape.backward")),
        "diffcore.op_calls": per_utt(float(op_calls)),
    }
    for layer in range(5):
        vals = conv_by_layer.get(layer, [])
        out[f"diffcore.conv1d_fwd_ms.L{layer}"] = float(np.mean(vals)) if vals else 0.0
    out.update({
        "model.frame_latents_ms": per_utt(total_ms("model.frame_latents")),
        "model.segment_latents_ms": per_utt(total_ms("model.segment_latents")),
        "model.context_states_ms": per_utt(total_ms("model.context_states")),
        "model.frames": per_utt(tracer.counts.get("model.frames", 0.0)),
        "boundary.detect_segments_ms": per_utt(total_ms("boundary.detect_segments")),
        "boundary.segment_weights_ms": per_utt(total_ms("boundary.segment_weights")),
        "boundary.segments_per_frame": (tracer.counts.get("boundary.segments", 0.0) / tracer.counts["model.frames"]
                                        if tracer.counts.get("model.frames") else 0.0),
        "objective.utterance_loss_ms": per_utt(total_ms("objective.utterance_loss")),
        "objective.sample_distractors_ms": per_utt(total_ms("objective.sample_distractors")),
        "objective.sample_distractors_share": total_ms("objective.sample_distractors") * 1e6 / pass_ns if pass_ns else 0.0,
        "trainer.self_ms_per_update": train_self_ns / 1e6 / updates if updates else 0.0,
        "model.save_checkpoint_ms": per_call_ms("model.save_checkpoint"),
        "trainer.updates": updates / passes,
        "trainer.used_utt_frac": (backward_calls / (utts_presented_per_pass * passes)
                                  if by_name["trainer.train"] and utts_presented_per_pass else 0.0),
        "infer.profile_utterance_ms_p50": float(np.percentile(prof, 50)) if prof.size else 0.0,
        "infer.profile_utterance_ms_p90": float(np.percentile(prof, 90)) if prof.size else 0.0,
        "infer.profile_utterance_n": float(prof.size),
        "infer.profiles_per_utt": prof.size / len(tracer.profiled) if tracer.profiled else 0.0,
        "infer.predict_ms": per_call_ms("infer.predict"),
        "infer.tune_prominence_ms": per_call_ms("infer.tune_prominence"),
        "metrics.evaluate_ms": per_call_ms("metrics.evaluate"),
        "metrics.evaluate_calls": len(by_name["metrics.evaluate"]) / passes,
        "audio.load_wav_ms": per_call_ms("audio.load_wav"),
        "runtime.gc_gen2_collections": tracer.gc_gen2 / passes,
        "runtime.gc_pause_ms": tracer.gc_pause_ns / 1e6 / passes,
    })
    return out
