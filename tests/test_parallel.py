"""Data-parallel training and profiling on a forked worker group.

Outputs must be byte-identical for any ``--workers``, and no child process
may outlive a ``train``, ``tune`` or ``segment`` call, whether it returns,
raises or its parent dies.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from scpc import audio
from scpc import cli
from scpc import infer
from scpc import model
from scpc import parallel
from scpc import trainer

TINY = trainer.TrainConfig(
    batch_size=5, epochs=1, add_nsc_epoch=0, k_frame=4, k_seg=2,
    frame_dim=8, segment_dim=8, thres=0.02, seed=0,
)


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


# ----------------------------------------------------- cores and dealing

def _threads_of(_inherited, threads, _item):
    return threads


def test_fork_group_spends_processes_first_then_threads():
    # (workers, jobs, processes, threads); no jobs is an empty manifest: one process.
    for workers, jobs, processes, threads in [(2, 8, 2, 1), (2, 1, 1, 2), (5, 2, 2, 2), (2, 0, 1, 2)]:
        with parallel.ForkGroup(workers, jobs) as group:
            assert (len(group._procs) + 1, group.threads) == (processes, threads)
            # One item per process, so each hands its thread count to fn.
            assert list(group.map(_threads_of, range(processes), [1.0] * processes)) == [threads] * processes
    with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
        parallel.ForkGroup(0, 4)
    assert multiprocessing.active_children() == []


def test_fan_out_joins_every_thread_and_raises_a_helpers_error():
    threads_before = threading.active_count()
    ran = {}

    def work(i):
        time.sleep(0.01 * (3 - i))
        ran[i] = threading.get_ident()
        if i == 2:
            raise ValueError("helper 2 failed")

    with pytest.raises(ValueError, match="helper 2 failed"):
        parallel.fan_out(work, 3)
    assert sorted(ran) == [0, 1, 2]
    assert ran[0] == threading.get_ident() and len(set(ran.values())) == 3
    assert threading.active_count() == threads_before


def _tag(inherited, _threads, offset, item):
    time.sleep(0.005)
    return inherited[item] + offset, os.getpid()


def test_map_returns_results_in_item_order_from_every_process():
    # Folding by exact float64 sums hides a misordered reply from the
    # byte-identity tests, so the order is pinned here.
    items = list(range(7))
    with parallel.ForkGroup(3, len(items), inherited=[10 * i for i in items]) as group:
        out = list(group.map(_tag, items, [3, 1, 4, 1, 5, 9, 2], 1))
    assert [value for value, _ in out] == [10 * i + 1 for i in items]
    assert len({pid for _, pid in out}) == 3
    assert multiprocessing.active_children() == []


def _sleep(_inherited, _threads, item):
    time.sleep(item)
    return os.getpid()


def test_a_slow_item_holds_up_no_other_item():
    # Equal weights do not see the slow item: a static split by weight
    # would give its process three of the quick ones too.
    items = [0.5] + [0.01] * 7
    with parallel.ForkGroup(2, len(items)) as group:
        pids = list(group.map(_sleep, items, [1.0] * 8))
    assert pids.count(pids[0]) == 1
    assert len(set(pids)) == 2


def _fail_in_child(_inherited, _threads, parent, item):
    if os.getpid() == parent:
        time.sleep(0.3 if item == 0 else 0.01)
    elif item >= 2:
        raise ValueError(f"item {item} failed in a child")
    return item


def test_an_error_in_a_child_mid_queue_surfaces_and_closes_the_group():
    # The parent starts on item 0 and the child on item 1; the child then
    # takes item 2, which fails, while the parent is still busy.
    group = parallel.ForkGroup(2, 8)
    with pytest.raises(ValueError, match=r"item \d failed in a child"):
        group.map(_fail_in_child, list(range(8)), [8 - i for i in range(8)], os.getpid())
    assert group._procs == [] and multiprocessing.active_children() == []


def _ident(_inherited, _threads, item):
    return item


def test_no_item_is_dealt_twice_or_skipped_under_contention():
    # More processes than cores and items too quick to matter, so every
    # process keeps taking from the counter: a lost update would repeat or
    # skip an item.
    items = list(range(20000))
    with parallel.ForkGroup(4, len(items)) as group:
        for _ in range(3):
            assert list(group.map(_ident, items, [1.0] * len(items))) == items


def test_one_process_computes_each_result_when_it_is_taken():
    calls = []

    def record(_inherited, _threads, item):
        calls.append(item)
        return item

    results = parallel.ForkGroup(1, 3).map(record, [3, 1, 2], [1, 2, 3])
    assert calls == []
    assert next(results) == 3 and calls == [3]
    assert list(results) == [1, 2] and calls == [3, 1, 2]


# ------------------------------------------------------- byte-identical runs

@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    assert run_cli("synth", "--out", root / "train", "--n", 16) == 0
    assert run_cli("synth", "--out", root / "val", "--n", 6, "--start-index", 16) == 0
    return root


def _outputs(run_dir: Path) -> tuple[bytes, bytes]:
    return (run_dir / "checkpoint.npz").read_bytes(), (run_dir / "metrics.jsonl").read_bytes()


def _train_both(manifest, val, cfg_text, tmp_path) -> list[tuple[bytes, bytes]]:
    cfg = tmp_path / "train.cfg"
    cfg.write_text(cfg_text)
    outs = []
    for workers in (1, 2):
        run_dir = tmp_path / f"run{workers}"
        assert run_cli("train", "--manifest", manifest, "--val", val, "--config", cfg,
                       "--out", run_dir, "--workers", workers) == 0
        assert multiprocessing.active_children() == []
        outs.append(_outputs(run_dir))
    return outs


def test_outputs_byte_identical_for_one_and_two_workers(data, tmp_path):
    one, two = _train_both(data / "train" / "manifest.tsv", data / "val" / "manifest.tsv",
                           "epochs = 3\nadd_nsc_epoch = 1\n", tmp_path)
    assert one == two


def test_outputs_byte_identical_with_a_skipped_utterance_and_a_one_utterance_batch(data, tmp_path):
    # 15 utterances plus one too short to train on, in batches of 3: the
    # last batch of each epoch holds one utterance, and one is skipped.
    rows = list(audio.read_manifest(data / "train" / "manifest.tsv").values())[:15]
    tiny = tmp_path / "tiny.wav"
    audio.write_wav(tiny, audio.Waveform(np.zeros(700, dtype=np.float32), audio.SAMPLE_RATE))
    rows.append((tiny, rows[0][1], rows[0][2]))
    manifest = tmp_path / "manifest.tsv"
    audio.write_manifest(rows, manifest)
    epochs = 3
    last = [np.random.default_rng([0, e]).permutation(16)[-1] for e in range(epochs)]
    assert any(i != 15 for i in last), "no epoch ends on a one-utterance batch that trains"

    one, two = _train_both(manifest, data / "val" / "manifest.tsv",
                           f"epochs = {epochs}\nadd_nsc_epoch = 1\nbatch_size = 3\n", tmp_path)
    assert one == two
    assert b'"n_skipped": 1' in one[1]


def test_one_utterance_batches_on_threads_then_a_forking_run(data, tmp_path):
    # Batch 1 leaves the second core to the encoder's threads, in training
    # and in validation; they are joined inside each op, so a later run can
    # fork without inheriting a helper thread.
    threads_before = threading.active_count()
    one, two = _train_both(data / "train" / "manifest.tsv", data / "val" / "manifest.tsv",
                           "epochs = 1\nadd_nsc_epoch = 0\nbatch_size = 1\n", tmp_path)
    assert one == two
    assert b'"val_r_phoneme": null' not in one[1]
    assert threading.active_count() == threads_before
    cfg = tmp_path / "fork.cfg"
    cfg.write_text("epochs = 1\nadd_nsc_epoch = 0\nbatch_size = 2\n")
    assert run_cli("train", "--manifest", data / "train" / "manifest.tsv", "--config", cfg,
                   "--out", tmp_path / "forked", "--workers", 2) == 0
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads_before


def _inference_outputs(out: Path) -> dict[str, bytes]:
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "config_resolved.json"}


def test_tune_and_segment_byte_identical_for_one_and_two_workers(data, tmp_path):
    ckpt = tmp_path / "net.npz"
    model.save_checkpoint(ckpt, model.SCPCModel.init(model.ModelConfig(frame_dim=8, segment_dim=8, thres=0.02), seed=3))
    val = data / "val" / "manifest.tsv"
    for level in infer.LEVELS:
        outs = []
        for workers in (1, 2):
            out = tmp_path / f"{level}{workers}"
            assert run_cli("tune", "--ckpt", ckpt, "--manifest", val, "--level", level,
                           "--out", out / "tune", "--workers", workers) == 0
            assert run_cli("segment", "--ckpt", ckpt, "--manifest", val, "--level", level, "--prominence", 0.05,
                           "--out", out / "pred", "--workers", workers) == 0
            assert multiprocessing.active_children() == []
            outs.append(_inference_outputs(out))
        assert {"tune/tune.json", "pred/predictions.tsv", "pred/report.json"} <= set(outs[0])
        assert sum(name.endswith(".txt") for name in outs[0]) == len(audio.read_manifest(val))
        assert json.loads(outs[0]["pred/report.json"])["total_boundaries"] > 0
        assert outs[0] == outs[1]


def test_segment_of_one_file_byte_identical_for_one_and_two_workers(data, tmp_path):
    # One file is one process, so two workers run the encoder on two threads.
    ckpt = tmp_path / "net.npz"
    model.save_checkpoint(ckpt, model.SCPCModel.init(model.ModelConfig(), seed=3))
    manifest = tmp_path / "one.tsv"
    audio.write_manifest(list(audio.read_manifest(data / "val" / "manifest.tsv").values())[:1], manifest)
    outs = []
    for workers in (1, 2):
        out = tmp_path / f"pred{workers}"
        assert run_cli("segment", "--ckpt", ckpt, "--manifest", manifest, "--level", "phoneme", "--prominence", 0.05,
                       "--out", out, "--workers", workers) == 0
        outs.append(_inference_outputs(out))
    assert json.loads(outs[0]["report.json"])["total_boundaries"] > 0
    assert outs[0] == outs[1]


# ----------------------------------------------------------------- lifecycle

@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    spec = dataclasses.replace(audio.default_spec(seed=21), words_per_utterance=(2, 3))
    return audio.save_corpus(audio.generate_corpus(spec, 10), tmp_path_factory.mktemp("corpus"))


def test_train_leaves_no_children(corpus, tmp_path):
    trainer.train(corpus, TINY, tmp_path / "out", workers=2)
    assert multiprocessing.active_children() == []


def _child_first_victims(manifest) -> tuple[str, str]:
    """Two utterances of one epoch-0 batch: the batch's heaviest, which the
    parent takes first, and its second heaviest, which the child takes
    first and which comes earlier in batch order."""
    items = list(trainer.load_dataset(manifest).items())
    order = np.random.default_rng([TINY.seed, 0]).permutation(len(items))
    for start in range(0, len(order), TINY.batch_size):
        batch = [int(i) for i in order[start : start + TINY.batch_size]]
        parent, child = sorted(batch, key=lambda i: -items[i][1].size)[:2]
        if batch.index(child) < batch.index(parent):
            return items[child][0], items[parent][0]
    raise AssertionError("no batch puts its second heaviest utterance before its heaviest")


def test_divergence_in_a_child_share_names_the_same_utterance(corpus, tmp_path, monkeypatch):
    first, second = _child_first_victims(corpus)
    wavs = {audio.read_manifest(corpus)[u][0]: u for u in (first, second)}
    load_wav = audio.load_wav

    def load_nan(path):
        wave = load_wav(path)
        return audio.Waveform(np.full_like(wave.samples, np.nan), wave.sample_rate) if Path(path) in wavs else wave

    monkeypatch.setattr(audio, "load_wav", load_nan)
    # Which process stepped each diverging utterance, keyed by its length.
    sizes = {load_wav(w).samples.size: u for w, u in wavs.items()}
    log = tmp_path / "steps.log"
    step = trainer._utterance_step

    def logged(params, samples, *args):
        if np.isnan(samples).any():
            with open(log, "a") as f:
                f.write(f"{sizes[samples.size]} {os.getpid()}\n")
        return step(params, samples, *args)

    monkeypatch.setattr(trainer, "_utterance_step", logged)
    messages = []
    for workers in (1, 2):
        log.write_text("")
        with pytest.raises(trainer.DivergenceError, match=f"non-finite loss on utterance {first} ") as err:
            trainer.train(corpus, TINY, tmp_path / f"w{workers}", workers=workers)
        assert multiprocessing.active_children() == []
        messages.append(str(err.value))
    stepped = dict(line.split() for line in log.read_text().splitlines())
    assert stepped == {first: stepped[first], second: str(os.getpid())} and stepped[first] != str(os.getpid())
    assert messages[0] == messages[1]


def test_a_dying_child_fails_train_in_one_line(corpus, tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    step = trainer._utterance_step

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return step(*args)

    monkeypatch.setattr(trainer, "_utterance_step", dying)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in dataclasses.asdict(TINY).items()))
    code = run_cli("train", "--manifest", corpus, "--config", cfg, "--out", tmp_path / "out", "--workers", 2)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: worker process ") and "exited with code 3" in err and err.count("\n") == 1
    assert multiprocessing.active_children() == []


def _exited(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return True
    return state in ("Z", "X")   # an orphan may stay a zombie until init reaps it


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_children_exit_when_the_parent_is_killed():
    src = Path(parallel.__file__).resolve().parents[1]
    script = ("import time; from scpc import parallel\n"
              "group = parallel.ForkGroup(3, 3)\n"
              "print(*(p.pid for p in group._procs), flush=True)\n"
              "time.sleep(60)\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env)
    try:
        pids = [int(p) for p in proc.stdout.readline().split()]
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert len(pids) == 2
    deadline = time.monotonic() + 10.0
    while not all(_exited(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert all(_exited(p) for p in pids), f"children {pids} outlived their killed parent"
