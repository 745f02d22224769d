"""Data-parallel training on a forked worker group.

Outputs must be byte-identical for any ``--workers``, and no child process
may outlive a ``train`` call, whether it returns, raises or its parent dies.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from scpc import audio
from scpc import cli
from scpc import parallel
from scpc import trainer

TINY = trainer.TrainConfig(
    batch_size=5, epochs=1, add_nsc_epoch=0, k_frame=4, k_seg=2,
    frame_dim=8, segment_dim=8, thres=0.02, seed=0,
)


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


# ------------------------------------------------------------ load balance

def test_balance_heaviest_first_to_the_lighter_share():
    assert parallel.balance([5, 1, 4, 3, 2], 2) == [[0, 1, 4], [2, 3]]   # totals 8 and 7
    assert parallel.balance([1, 1, 1], 2) == [[0, 2], [1]]


def test_balance_drops_empty_shares_and_keeps_one_share_in_order():
    assert parallel.balance([7.0], 4) == [[0]]
    assert parallel.balance([], 2) == []
    assert parallel.balance([1, 3, 2], 1) == [[0, 1, 2]]


def _tag(inherited, offset, share):
    return [(inherited[i] + offset, os.getpid()) for i in share]


def test_map_returns_results_in_item_order_from_every_process():
    # Folding by exact float64 sums hides a misordered reply from the
    # byte-identity tests, so the order is pinned here.
    items = list(range(7))
    with parallel.ForkGroup(3, inherited=[10 * i for i in items]) as group:
        out = group.map(_tag, items, [3, 1, 4, 1, 5, 9, 2], 1)
    assert [value for value, _ in out] == [10 * i + 1 for i in items]
    assert len({pid for _, pid in out}) == 3
    assert multiprocessing.active_children() == []


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


# ----------------------------------------------------------------- lifecycle

@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    spec = dataclasses.replace(audio.default_spec(seed=21), words_per_utterance=(2, 3))
    return audio.save_corpus(audio.generate_corpus(spec, 10), tmp_path_factory.mktemp("corpus"))


def test_train_leaves_no_children(corpus, tmp_path):
    trainer.train(corpus, TINY, tmp_path / "out", workers=2)
    assert multiprocessing.active_children() == []


def _child_first_victims(manifest) -> tuple[str, str]:
    """Two utterances of one epoch-0 batch: the first lies in the child's
    share and comes earlier in batch order than the second, in the parent's."""
    items = list(trainer.load_dataset(manifest).items())
    order = np.random.default_rng([TINY.seed, 0]).permutation(len(items))
    for start in range(0, len(order), TINY.batch_size):
        batch = [int(i) for i in order[start : start + TINY.batch_size]]
        parent, child = parallel.balance([items[i][1].size for i in batch], 2)
        for c in child:
            later = [p for p in parent if p > c]
            if later:
                return items[batch[c]][0], items[batch[later[0]]][0]
    raise AssertionError("no batch puts a child's utterance before a parent's")


def test_divergence_in_a_child_share_names_the_same_utterance(corpus, tmp_path, monkeypatch):
    first, second = _child_first_victims(corpus)
    wavs = {audio.read_manifest(corpus)[u][0] for u in (first, second)}
    load_wav = audio.load_wav

    def load_nan(path):
        wave = load_wav(path)
        return audio.Waveform(np.full_like(wave.samples, np.nan), wave.sample_rate) if Path(path) in wavs else wave

    monkeypatch.setattr(audio, "load_wav", load_nan)
    messages = []
    for workers in (1, 2):
        with pytest.raises(trainer.DivergenceError, match=f"non-finite loss on utterance {first} ") as err:
            trainer.train(corpus, TINY, tmp_path / f"w{workers}", workers=workers)
        assert multiprocessing.active_children() == []
        messages.append(str(err.value))
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
              "group = parallel.ForkGroup(3)\n"
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
