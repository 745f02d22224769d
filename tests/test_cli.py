"""End-to-end tests of the command-line surface.

Commands run in-process through ``cli.main`` so exit codes and output can be
asserted cheaply; one test drives the installed console script.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from scpc import audio
from scpc import cli
from scpc import infer
from scpc import model
from scpc import trainer

TINY_CONFIG = """
batch_size = 4
epochs = 2
add_nsc_epoch = 1
k_frame = 4
k_seg = 2
frame_dim = 8
segment_dim = 8
thres = 0.02
"""


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train once; later tests segment/eval/tune against this run."""
    root = tmp_path_factory.mktemp("ws")
    assert run_cli("synth", "--out", root / "train", "--n", 8, "--seed", 31) == 0
    assert run_cli("synth", "--out", root / "val", "--n", 4, "--seed", 32) == 0
    (root / "train.cfg").write_text(TINY_CONFIG)
    code = run_cli(
        "train", "--manifest", root / "train" / "manifest.tsv", "--config", root / "train.cfg",
        "--out", root / "run", "--val", root / "val" / "manifest.tsv",
    )
    assert code == 0
    return root


def test_synth_zero_utterances(tmp_path, capsys):
    # An empty manifest is one that train, segment and tune all reject.
    with pytest.raises(SystemExit) as exit_info:
        run_cli("synth", "--out", tmp_path / "empty", "--n", 0)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "scpc synth: error: argument --n: expected an integer >= 1, got '0'"
    assert not (tmp_path / "empty").exists()


def test_synth_same_seed_identical_directories(tmp_path):
    for name in ("a", "b"):
        assert run_cli("synth", "--out", tmp_path / name, "--n", 3, "--seed", 9) == 0
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_start_index_slices_one_corpus(tmp_path):
    # Disjoint index ranges under one seed are byte-identical slices of the
    # full corpus, so train/val/test splits never overlap.
    assert run_cli("synth", "--out", tmp_path / "full", "--n", 5, "--seed", 9) == 0
    assert run_cli("synth", "--out", tmp_path / "tail", "--n", 2, "--start-index", 3, "--seed", 9) == 0
    names = sorted(p.name for p in (tmp_path / "tail").iterdir() if p.suffix == ".wav")
    assert names == ["u00003.wav", "u00004.wav"]
    for name in names:
        assert (tmp_path / "tail" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


def test_train_outputs(workspace):
    run = workspace / "run"
    assert (run / "checkpoint.npz").is_file()
    assert (run / "metrics.jsonl").is_file()
    resolved = json.loads((run / "config_resolved.json").read_text())
    assert resolved["command"] == "train"
    assert resolved["config"]["epochs"] == 2
    records = [json.loads(l) for l in (run / "metrics.jsonl").read_text().splitlines()]
    assert len(records) == 2
    assert records[0]["l_nsc"] is None and records[1]["l_nsc"] is not None


def test_train_rejects_unknown_config_key(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    code = run_cli("train", "--manifest", workspace / "train" / "manifest.tsv",
                   "--config", bad, "--out", tmp_path / "out")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1
    assert "bogus" in captured.err


def test_segment_and_eval_roundtrip(workspace, capsys):
    pred_dir = workspace / "pred_phoneme"
    code = run_cli("segment", "--ckpt", workspace / "run" / "checkpoint.npz",
                   "--manifest", workspace / "val" / "manifest.tsv",
                   "--level", "phoneme", "--out", pred_dir, "--prominence", 0.05)
    assert code == 0
    assert (pred_dir / "predictions.tsv").is_file()
    assert (pred_dir / "report.json").is_file()
    assert (pred_dir / "config_resolved.json").is_file()

    code = run_cli("eval", "--pred", pred_dir, "--ref", workspace / "val" / "manifest.tsv",
                   "--level", "phoneme", "--out", workspace / "eval_out")
    captured = capsys.readouterr()
    assert code == 0
    assert "R-value" in captured.out
    report = json.loads((workspace / "eval_out" / "eval.json").read_text())
    assert report["n_utterances"] == 4
    assert np.isfinite(report["f1"])


def test_segment_rejects_wrong_shaped_checkpoint(workspace, tmp_path, capsys):
    with np.load(workspace / "run" / "checkpoint.npz", allow_pickle=False) as data:
        payload = {k: data[k] for k in data.files}
    payload["param/frame_conv1_w"] = payload["param/frame_conv1_w"][:, :4]
    bad = tmp_path / "bad.npz"
    np.savez(bad, **payload)
    code = run_cli("segment", "--ckpt", bad, "--manifest", workspace / "val" / "manifest.tsv",
                   "--level", "phoneme", "--out", tmp_path / "pred")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err and "frame_conv1_w" in err and "(8, 4, 8)" in err and "(8, 8, 8)" in err


def test_segment_word_level(workspace):
    pred_dir = workspace / "pred_word"
    code = run_cli("segment", "--ckpt", workspace / "run" / "checkpoint.npz",
                   "--manifest", workspace / "val" / "manifest.tsv",
                   "--level", "word", "--out", pred_dir)
    assert code == 0
    loaded = infer.read_predictions(pred_dir)
    assert len(loaded) == 4


def test_segment_short_utterance_warns_but_succeeds(workspace, tmp_path):
    data = tmp_path / "short"
    data.mkdir()
    audio.write_wav(data / "tiny.wav", audio.Waveform(np.zeros(400, dtype=np.float32), 16000))
    (data / "tiny.phn").write_text("0 400 p0\n")
    (data / "tiny.wrd").write_text("0 400 w0\n")
    (data / "manifest.tsv").write_text("tiny.wav\ttiny.phn\ttiny.wrd\n")
    with pytest.warns(UserWarning, match="too short"):
        code = run_cli("segment", "--ckpt", workspace / "run" / "checkpoint.npz",
                       "--manifest", data / "manifest.tsv", "--level", "phoneme",
                       "--out", tmp_path / "short_pred")
    assert code == 0
    assert (tmp_path / "short_pred" / "tiny.txt").read_text() == ""


def short_manifest(root: Path, n: int) -> Path:
    """A manifest of ``n`` silent 1264-sample utterances: k_frame = 4 needs
    465 + 5 * 160 samples, and none of these has them."""
    root.mkdir()
    for i in range(n):
        audio.write_wav(root / f"s{i}.wav", audio.Waveform(np.zeros(1264, dtype=np.float32), 16000))
        (root / f"s{i}.phn").write_text("0 1264 p0\n")
        (root / f"s{i}.wrd").write_text("0 1264 w0\n")
    (root / "manifest.tsv").write_text("".join(f"s{i}.wav\ts{i}.phn\ts{i}.wrd\n" for i in range(n)))
    return root / "manifest.tsv"


@pytest.mark.parametrize("case, message", [
    ("two", "need at least batch_size=4 utterances, got 2"),
    ("short", "no utterance is long enough to train on"),
], ids=["too-few", "too-short"])
def test_a_train_that_fails_its_manifest_checks_leaves_out_as_it_was(workspace, tmp_path, capsys, case, message):
    if case == "two":
        manifest = tmp_path / "two.tsv"
        audio.write_manifest(list(audio.read_manifest(workspace / "train" / "manifest.tsv").values())[:2], manifest)
    else:
        manifest = short_manifest(tmp_path / "short", 4)
    out = tmp_path / "run"
    out.mkdir()
    earlier = b'{"command": "train"}\n'
    (out / "config_resolved.json").write_bytes(earlier)
    code = run_cli("train", "--manifest", manifest, "--config", workspace / "train.cfg", "--out", out)
    assert f"error: {manifest}: {message}" in one_line_error(capsys, code)
    assert (out / "config_resolved.json").read_bytes() == earlier
    assert [p.name for p in out.iterdir()] == ["config_resolved.json"]


def test_train_reads_a_resumed_checkpoint_once(workspace, tmp_path, monkeypatch):
    cfg = tmp_path / "more.cfg"
    cfg.write_text(TINY_CONFIG.replace("epochs = 2", "epochs = 3"))
    loads, load_checkpoint = [], model.load_checkpoint
    monkeypatch.setattr(model, "load_checkpoint", lambda path: (loads.append(path), load_checkpoint(path))[1])
    ckpt = workspace / "run" / "checkpoint.npz"
    assert run_cli("train", "--manifest", workspace / "train" / "manifest.tsv", "--config", cfg,
                   "--out", tmp_path / "more", "--resume", ckpt) == 0
    assert loads == [str(ckpt)]
    echo = json.loads((tmp_path / "more" / "config_resolved.json").read_text())
    assert echo["resume"] == str(ckpt) and echo["config"]["epochs"] == 3


def test_train_without_a_long_enough_utterance_fails_in_one_line(workspace, tmp_path, capsys):
    manifest = short_manifest(tmp_path / "short", 4)
    code = run_cli("train", "--manifest", manifest, "--config", workspace / "train.cfg", "--out", tmp_path / "run")
    err = one_line_error(capsys, code)
    assert f"{manifest}: no utterance is long enough to train on; k_frame=4 needs at least 1265 samples" in err
    assert not (tmp_path / "run" / "checkpoint.npz").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_segment_rejects_a_prominence_that_is_not_finite_and_nonnegative(workspace, tmp_path, capsys, value):
    code = run_cli("segment", "--ckpt", workspace / "run" / "checkpoint.npz", "--manifest", workspace / "val" / "manifest.tsv",
                   "--level", "phoneme", "--out", tmp_path / "pred", "--prominence", value)
    assert f"prominence must be >= 0 and finite, got {float(value)}" in one_line_error(capsys, code)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_eval_rejects_a_tolerance_that_is_not_finite_and_nonnegative(workspace, tmp_path, capsys, value):
    refs_as_preds = {utt_id: audio.parse_alignment_file(phn)
                     for utt_id, (_, phn, _) in audio.read_manifest(workspace / "val" / "manifest.tsv").items()}
    infer.write_predictions(refs_as_preds, tmp_path / "pred", "phoneme")
    code = run_cli("eval", "--pred", tmp_path / "pred", "--ref", workspace / "val" / "manifest.tsv",
                   "--level", "phoneme", "--tol", value)
    assert f"tolerance must be nonnegative and finite, got {float(value)}" in one_line_error(capsys, code)


def test_tune_rejects_a_nan_tolerance(workspace, tmp_path, capsys):
    code = run_cli("tune", "--ckpt", workspace / "run" / "checkpoint.npz", "--manifest", workspace / "val" / "manifest.tsv",
                   "--level", "word", "--tol", "nan", "--out", tmp_path / "tuned")
    assert "tolerance must be nonnegative and finite, got nan" in one_line_error(capsys, code)
    assert not (tmp_path / "tuned").exists()


@pytest.fixture
def profile_calls(monkeypatch):
    """Arguments of every ``infer.profile_corpus`` call, which does no work."""
    calls = []
    monkeypatch.setattr(infer, "profile_corpus", lambda *a, **k: calls.append(a) or [])
    return calls


def test_segment_checks_the_prominence_before_profiling(workspace, tmp_path, capsys, profile_calls):
    code = run_cli("segment", "--ckpt", workspace / "run" / "checkpoint.npz", "--manifest", workspace / "val" / "manifest.tsv",
                   "--level", "phoneme", "--out", tmp_path / "pred", "--prominence", "nan")
    assert "prominence must be >= 0 and finite, got nan" in one_line_error(capsys, code)
    assert profile_calls == []


def test_tune_checks_the_tolerance_before_profiling(workspace, tmp_path, capsys, profile_calls):
    code = run_cli("tune", "--ckpt", workspace / "run" / "checkpoint.npz", "--manifest", workspace / "val" / "manifest.tsv",
                   "--level", "word", "--tol", "nan")
    assert "tolerance must be nonnegative and finite, got nan" in one_line_error(capsys, code)
    assert profile_calls == []


def test_tune_reads_its_references_before_profiling(workspace, tmp_path, capsys, profile_calls):
    data = tmp_path / "val"
    shutil.copytree(workspace / "val", data)
    _, phn, _ = next(iter(audio.read_manifest(data / "manifest.tsv").values()))
    phn.write_text(phn.read_text() + "12 x\n")
    code = run_cli("tune", "--ckpt", workspace / "run" / "checkpoint.npz", "--manifest", data / "manifest.tsv",
                   "--level", "phoneme")
    assert f"{phn}:" in one_line_error(capsys, code)
    assert profile_calls == []


def test_eval_of_references_scores_perfectly(workspace, capsys):
    refs_as_preds = {utt_id: audio.parse_alignment_file(phn)
                     for utt_id, (_, phn, _) in audio.read_manifest(workspace / "val" / "manifest.tsv").items()}
    pred_dir = workspace / "pred_perfect"
    infer.write_predictions(refs_as_preds, pred_dir, "phoneme")
    code = run_cli("eval", "--pred", pred_dir, "--ref", workspace / "val" / "manifest.tsv", "--level", "phoneme")
    captured = capsys.readouterr()
    assert code == 0
    assert "R-value   100.0" in captured.out


def test_eval_rejects_negative_sample_index(workspace, tmp_path, capsys):
    data = tmp_path / "neg"
    data.mkdir()
    audio.write_wav(data / "u.wav", audio.Waveform(np.zeros(1600, dtype=np.float32), 16000))
    (data / "u.phn").write_text("0 800 p0\n-5 1600 p1\n")
    (data / "u.wrd").write_text("0 1600 w0\n")
    (data / "manifest.tsv").write_text("u.wav\tu.phn\tu.wrd\n")
    infer.write_predictions({"u": np.array([0.05])}, tmp_path / "pred", "phoneme")
    code = run_cli("eval", "--pred", tmp_path / "pred", "--ref", data / "manifest.tsv", "--level", "phoneme")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1
    assert "u.phn:2: negative sample index" in captured.err


def one_line_error(capsys, code: int) -> str:
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_shared_stems_are_two_utterances(workspace, tmp_path, capsys):
    # a/x.wav and b/x.wav once collapsed into one x.txt, scored perfectly.
    rows = []
    for d, utt in (("a", "u00000"), ("b", "u00001")):
        (tmp_path / d).mkdir()
        for ext in ("wav", "phn", "wrd"):
            (tmp_path / d / f"x.{ext}").write_bytes((workspace / "val" / f"{utt}.{ext}").read_bytes())
        rows.append(tuple(tmp_path / d / f"x.{ext}" for ext in ("wav", "phn", "wrd")))
    manifest = tmp_path / "m.tsv"
    audio.write_manifest(rows, manifest)
    pred = tmp_path / "pred"
    assert run_cli("segment", "--ckpt", workspace / "run" / "checkpoint.npz", "--manifest", manifest,
                   "--level", "phoneme", "--out", pred) == 0
    assert (pred / "a" / "x.txt").is_file() and (pred / "b" / "x.txt").is_file()
    assert list(infer.read_predictions(pred)) == ["a/x", "b/x"]
    capsys.readouterr()
    assert run_cli("eval", "--pred", pred, "--ref", manifest, "--level", "phoneme") == 0
    assert "2 utterances" in capsys.readouterr().out


def test_repeated_manifest_row_fails_in_one_line(workspace, tmp_path, capsys):
    rows = audio.read_manifest(workspace / "val" / "manifest.tsv")
    manifest = tmp_path / "m2.tsv"
    audio.write_manifest([rows["u00000"], rows["u00000"]], manifest)
    code = run_cli("segment", "--ckpt", workspace / "run" / "checkpoint.npz", "--manifest", manifest,
                   "--level", "phoneme", "--out", tmp_path / "pred")
    assert "m2.tsv:2: utterance id 'u00000' repeats line 1" in one_line_error(capsys, code)


def rewrite_checkpoint(src, dst, edit) -> None:
    with np.load(src) as data:
        arrays = dict(data)
    edit(arrays)
    np.savez(dst, **arrays)


def test_resume_without_optimizer_state_fails_in_one_line(workspace, tmp_path, capsys):
    bare = tmp_path / "bare.npz"
    rewrite_checkpoint(workspace / "run" / "checkpoint.npz", bare,
                       lambda a: [a.pop(k) for k in list(a) if k.startswith("extra/")])
    code = run_cli("train", "--manifest", workspace / "train" / "manifest.tsv", "--config", workspace / "train.cfg",
                   "--out", tmp_path / "run", "--resume", bare)
    assert "bare.npz: optimizer state extra/epoch is missing, expected int64 ()" in one_line_error(capsys, code)


def test_resume_with_misshapen_optimizer_state_fails_in_one_line(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.npz"
    rewrite_checkpoint(workspace / "run" / "checkpoint.npz", bad,
                       lambda a: a.update({"extra/adam_v/seg_b1": np.zeros(3, np.float64)}))
    code = run_cli("train", "--manifest", workspace / "train" / "manifest.tsv", "--config", workspace / "train.cfg",
                   "--out", tmp_path / "run", "--resume", bad)
    assert "bad.npz: optimizer state extra/adam_v/seg_b1 is float64 (3,), expected float32 (8,)" in one_line_error(capsys, code)


def set_model_field(name, value):
    def edit(arrays):
        echo = json.loads(str(arrays["config_json"]))
        echo["model"][name] = value
        arrays["config_json"] = np.asarray(json.dumps(echo))
    return edit


def set_version(value):
    return lambda arrays: arrays.update({"format_version": np.asarray(value)})


def pickled_reference_ctx_b(arrays):
    # The committed reference checkpoint with one entry numpy loads only by unpickling.
    with np.load(Path(__file__).resolve().parents[1] / "bench" / "reference" / "checkpoint.npz") as ref:
        arrays.clear()
        arrays.update(ref)
    arrays["param/ctx_b"] = arrays["param/ctx_b"].astype(object)


VERSION_MISMATCH = "bad.npz: checkpoint format version mismatch (found {}, expected the 0-d integer 1)"


@pytest.mark.parametrize("edit, message", [
    (set_model_field("hidden", 3), "bad.npz: unreadable model config"),
    (lambda a: a.pop("config_json"), "bad.npz: unreadable model config"),
    (set_model_field("frame_dim", 8.0), "bad.npz: unreadable model config (ValueError: frame_dim must be int, got 8.0)"),
    (set_model_field("thres", True), "bad.npz: unreadable model config (ValueError: thres must be float, got True)"),
    (set_version([1, 1]), VERSION_MISMATCH.format("shape (2,)")),
    (set_version("1"), VERSION_MISMATCH.format("'1'")),
    (set_version(1.5), VERSION_MISMATCH.format("1.5")),
    (set_version(True), VERSION_MISMATCH.format("True")),
    (lambda a: a.pop("format_version"), VERSION_MISMATCH.format("None")),
    (pickled_reference_ctx_b, "bad.npz: unreadable checkpoint entry param/ctx_b (Object arrays cannot be loaded"),
], ids=["unknown_model_key", "no_config_json", "float_frame_dim", "bool_thres", "version_shape_2", "version_string", "version_float", "version_bool", "no_version",
        "object_array"])
def test_bad_checkpoint_config_fails_in_one_line(workspace, tmp_path, capsys, edit, message):
    bad = tmp_path / "bad.npz"
    rewrite_checkpoint(workspace / "run" / "checkpoint.npz", bad, edit)
    code = run_cli("segment", "--ckpt", bad, "--manifest", workspace / "val" / "manifest.tsv",
                   "--level", "phoneme", "--out", tmp_path / "pred")
    assert message in one_line_error(capsys, code)


def npy_bytes() -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


@pytest.mark.parametrize("content", [b"", b"not a checkpoint\n", b"PK\x03\x04 truncated", npy_bytes()],
                         ids=["empty", "text", "bad_zip", "npy"])
def test_non_npz_checkpoint_fails_in_one_line(workspace, tmp_path, capsys, content):
    bad = tmp_path / "bad.npz"
    bad.write_bytes(content)
    code = run_cli("segment", "--ckpt", bad, "--manifest", workspace / "val" / "manifest.tsv",
                   "--level", "phoneme", "--out", tmp_path / "pred")
    assert "bad.npz: not an npz checkpoint" in one_line_error(capsys, code)


@pytest.mark.parametrize("line, file_text, message", [
    ("u00000\n", "0.1\n", "predictions.tsv:1: expected '<id><TAB><file>'"),
    ("u00000\tu00000.txt\n", "0.1x\n", "u00000.txt: non-numeric boundary time"),
    ("u00000\tu00000.txt\n", "0.2\n0.1\n", "u00000.txt: boundary times must be finite and strictly increasing"),
    ("u00000\tu00000.txt\n", "0.1\nnan\n0.3\n", "u00000.txt: boundary times must be finite and strictly increasing"),
    ("u00000\tu00000.txt\n\nu00000\tu00000.txt\n", "0.1\n", "predictions.tsv:3: utterance id 'u00000' repeats line 1"),
], ids=["no_tab", "non_numeric", "decreasing", "nan", "repeated_id"])
def test_bad_predictions_fail_in_one_line(workspace, tmp_path, capsys, line, file_text, message):
    pred = tmp_path / "pred"
    pred.mkdir()
    (pred / "predictions.tsv").write_text(line)
    (pred / "u00000.txt").write_text(file_text)
    code = run_cli("eval", "--pred", pred, "--ref", workspace / "val" / "manifest.tsv", "--level", "phoneme")
    assert message in one_line_error(capsys, code)


@pytest.mark.parametrize("text, message", [
    ("epochs = 2\njust words\n", "bad.cfg:2: expected 'key = value'"),
    ("epoch = 2\n", "bad.cfg: unknown keys: epoch"),
    ("lr = fast\n", "bad.cfg: config key 'lr': cannot parse"),
    ("lr = -1\n", "bad.cfg: lr must be positive"),
    ("lr = nan\n", "bad.cfg: lr must be positive and finite, got nan"),
    ("lr = inf\n", "bad.cfg: lr must be positive and finite, got inf"),
    ("seed = -1\n", "bad.cfg: seed must be >= 0, got -1"),
], ids=["malformed", "unknown_key", "unparsable", "invalid", "nan_lr", "inf_lr", "negative_seed"])
def test_bad_config_fails_in_one_line_naming_the_file(workspace, tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code = run_cli("train", "--manifest", workspace / "train" / "manifest.tsv", "--config", cfg, "--out", tmp_path / "run")
    assert message in one_line_error(capsys, code)


def test_eval_missing_predictions_dir(workspace, tmp_path, capsys):
    code = run_cli("eval", "--pred", tmp_path / "nowhere", "--ref", workspace / "val" / "manifest.tsv",
                   "--level", "phoneme")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


def test_sweep_single_point_table(workspace, tmp_path, capsys):
    code = run_cli("sweep", "--manifest", workspace / "train" / "manifest.tsv",
                   "--val", workspace / "val" / "manifest.tsv",
                   "--config", workspace / "train.cfg", "--out", tmp_path / "sweep",
                   "--grid", "thres", "--values", "0.02", "--workers", 2)
    captured = capsys.readouterr()
    assert code == 0
    lines = [l for l in captured.out.splitlines() if l.strip()]
    assert "thres" in lines[0] and "mean_segments" in lines[0]
    assert len(lines) == 2
    table = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert len(table) == 1 and table[0]["value"] == 0.02
    assert json.loads((tmp_path / "sweep" / "config_resolved.json").read_text())["command"] == "sweep"
    point = json.loads((tmp_path / "sweep" / "thres_0.02" / "config_resolved.json").read_text())
    assert point["command"] == "train" and point["config"]["thres"] == 0.02 and point["workers"] == 2


def test_sweep_builds_its_grid_once(workspace, tmp_path, monkeypatch):
    calls, sweep_points = [], trainer.sweep_points
    monkeypatch.setattr(trainer, "sweep_points", lambda *a: (calls.append(a), sweep_points(*a))[1])
    monkeypatch.setattr(trainer, "train", lambda *a, **k: trainer.TrainResult(None, None, [{
        "val_r_phoneme": None, "val_r_word": None, "mean_segments": 1.0, "l_nfc": 1.0, "l_nsc": None}], None))
    assert run_cli("sweep", "--manifest", workspace / "train" / "manifest.tsv", "--val", workspace / "val" / "manifest.tsv",
                   "--config", workspace / "train.cfg", "--out", tmp_path / "sweep", "--grid", "nsc_epoch", "--values", "0,1") == 0
    assert len(calls) == 1


def test_sweep_rejects_points_that_share_a_directory(workspace, tmp_path, capsys):
    code = run_cli("sweep", "--manifest", workspace / "train" / "manifest.tsv", "--val", workspace / "val" / "manifest.tsv",
                   "--config", workspace / "train.cfg", "--out", tmp_path / "sweep", "--grid", "thres", "--values", "0.051,0.06,0.054")
    assert "grid points 0.051 and 0.054 both map to the directory thres_0.05" in one_line_error(capsys, code)
    assert not (tmp_path / "sweep").exists()


def test_sweep_values_of_the_wrong_type_fail_in_one_line(workspace, tmp_path, capsys):
    code = run_cli("sweep", "--manifest", workspace / "train" / "manifest.tsv", "--val", workspace / "val" / "manifest.tsv",
                   "--config", workspace / "train.cfg", "--out", tmp_path / "sweep", "--grid", "nsc_epoch", "--values", "1,2.5")
    assert "--values: cannot parse '1,2.5' as int points of grid nsc_epoch" in one_line_error(capsys, code)
    assert not (tmp_path / "sweep").exists()


def test_sweep_checks_every_point_before_training(workspace, tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(trainer, "train", lambda *a, **k: calls.append(a))
    code = run_cli("sweep", "--manifest", workspace / "train" / "manifest.tsv", "--val", workspace / "val" / "manifest.tsv",
                   "--config", workspace / "train.cfg", "--out", tmp_path / "sweep", "--grid", "thres", "--values", "0.05,2")
    assert "thres must be in [0, 1], got 2.0" in one_line_error(capsys, code)
    assert calls == []
    assert not (tmp_path / "sweep" / "thres_0.05").exists()
    assert not (tmp_path / "sweep" / "config_resolved.json").exists()
    assert not (tmp_path / "sweep").exists()


def test_tune_prints_and_writes(workspace, tmp_path, capsys):
    code = run_cli("tune", "--ckpt", workspace / "run" / "checkpoint.npz",
                   "--manifest", workspace / "val" / "manifest.tsv",
                   "--level", "phoneme", "--out", tmp_path / "tuned")
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("prominence ")
    payload = json.loads((tmp_path / "tuned" / "tune.json").read_text())
    assert len(payload["grid"]) == 51
    assert payload["prominence"] == pytest.approx(float(captured.out.split()[1]))


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "scpc.cli", "synth", "--out", str(tmp_path / "o"), "--n", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "manifest.tsv").is_file()


def test_end_to_end_smoke_under_two_minutes(tmp_path, capsys):
    t0 = time.monotonic()
    assert run_cli("synth", "--out", tmp_path / "tr", "--n", 10, "--seed", 77) == 0
    assert run_cli("synth", "--out", tmp_path / "te", "--n", 3, "--seed", 78) == 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text(TINY_CONFIG)
    assert run_cli("train", "--manifest", tmp_path / "tr" / "manifest.tsv",
                   "--config", cfg, "--out", tmp_path / "run") == 0
    assert run_cli("segment", "--ckpt", tmp_path / "run" / "checkpoint.npz",
                   "--manifest", tmp_path / "te" / "manifest.tsv",
                   "--level", "phoneme", "--out", tmp_path / "pred") == 0
    assert run_cli("eval", "--pred", tmp_path / "pred", "--ref", tmp_path / "te" / "manifest.tsv",
                   "--level", "phoneme") == 0
    elapsed = time.monotonic() - t0
    captured = capsys.readouterr()
    assert "R-value" in captured.out
    assert elapsed < 120, f"smoke pipeline took {elapsed:.1f}s"


@pytest.mark.parametrize("command, flag, value, floor", [
    ("train", "--workers", "0", 1),
    ("train", "--workers", "-3", 1),
    ("train", "--workers", "two", 1),
    ("synth", "--seed", "-1", 0),
    ("synth", "--start-index", "-1", 0),
    ("synth", "--n", "-2", 1),
], ids=["0", "-3", "two", "synth-seed", "synth-start-index", "synth-n"])
def test_workers_below_one_is_an_argparse_error(workspace, tmp_path, capsys, command, flag, value, floor):
    # --workers and synth's counts share one integer-floor type.
    inputs = {"train": ["--manifest", workspace / "train" / "manifest.tsv", "--config", workspace / "train.cfg"], "synth": ["--n", 1]}
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, *inputs[command], "--out", tmp_path / "run", flag, value)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"scpc {command}: error: argument {flag}: expected an integer >= {floor}, got {value!r}"
    assert not (tmp_path / "run").exists()


_TWO_TRAINS = """
import resource, sys
from scpc import cli
faults = []
for out in sys.argv[3:]:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(["train", "--manifest", sys.argv[1], "--config", sys.argv[2], "--out", out, "--workers", "1"]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's malloc thresholds")
def test_a_repeated_train_command_faults_in_almost_no_memory(tmp_path):
    # The first command maps the working set of one 5 s step; the second
    # reuses it instead of having it handed back and faulted in again.  A
    # fresh process, because pages this one wrote before its last fork
    # fault again on their next write, whatever the allocator keeps.
    spec = dataclasses.replace(audio.default_spec(seed=5), words_per_utterance=(14, 14))
    utts = audio.generate_corpus(spec, 1)
    assert 4.5 < utts[0].waveform.samples.size / audio.SAMPLE_RATE < 5.5
    manifest = audio.save_corpus(utts, tmp_path / "corpus")
    cfg = tmp_path / "one.cfg"
    cfg.write_text("epochs = 1\nbatch_size = 1\n")
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _TWO_TRAINS, manifest, cfg, tmp_path / "run0", tmp_path / "run1"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    faults = [int(n) for n in proc.stdout.split()[-2:]]
    assert faults[1] < 500, f"minor faults per command: {faults}"


# Options that no CLI call under tests/ passes, each with the reader that sets it.
NO_TEST_CALLER: dict[str, str] = {}


def test_every_cli_option_is_passed_by_some_test():
    # A (subcommand, option) pair must appear in a run_cli, _run_cli or
    # cli.main([...]) call under tests/ whose first literal is the
    # subcommand, or be listed above: an option nothing sets goes.
    passed = set()
    for path in Path(__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("run_cli", "_run_cli"):
                args = node.args
            elif isinstance(func, ast.Attribute) and func.attr == "main" and getattr(func.value, "id", None) == "cli" \
                    and node.args and isinstance(node.args[0], ast.List):
                args = node.args[0].elts
            else:
                continue
            literals = [a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            passed.update(f"{literals[0]} {a}" for a in literals[1:] if a.startswith("--"))
    subparsers = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = [f"{name} {opt}" for name, p in subparsers.choices.items() for a in p._actions
               if not isinstance(a, argparse._HelpAction) for opt in a.option_strings]
    assert len(options) > 20
    assert sorted(set(options) - passed) == sorted(NO_TEST_CALLER)
