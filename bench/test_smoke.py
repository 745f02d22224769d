"""Smoke test of the benchmark at tiny size (about a minute on two cores).

    python3 -m pytest bench/test_smoke.py -q

It runs every workload untraced and traced on tiny corpora and checks the
shape of the output, not the figures: every declared metric is reported with
its declared unit, the traced run writes spans that point at parents, and
the benchmark refuses to run where the program is missing.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_unit(trace):
    proc = _run(trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    env = json.loads(lines[0])["environment"]
    assert {"python", "numpy", "scipy", "blas", "blas_threads", "nproc", "commit", "seed", "held_out_seed"} <= set(env)
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    declared = SPEC["per_layer" if trace else "end_to_end"]
    for wl in WORKLOADS:
        for m in declared:
            got = result["metrics"][f"{wl}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], float)
    if trace:
        _check_spans()


def _check_spans():
    for wl in WORKLOADS:
        path = ROOT / ".bench_work" / "traces" / f"{wl}-s3.spans.jsonl.gz"
        with gzip.open(path, "rt") as f:
            spans = [json.loads(line) for line in f]
        ids = {s["id"] for s in spans}
        children = [s for s in spans if s["parent"]]
        assert children and all(s["parent"] in ids for s in children)
        assert any(s["name"] == "cli.main" for s in spans)
        assert all(0 <= s["self_us"] <= s["dur_us"] + 1 for s in spans)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
