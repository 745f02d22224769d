"""scpc benchmark: run one workload (or all) and print every metric with its unit.

    python3 bench/run.py --workload train_short --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 1

Run from the repository root.  Each workload runs in its own fresh Python
process with BLAS pinned to one thread and every ``SCPC_*`` variable removed
from its environment (``trainer.resolve_config`` reads them).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer ones with ``--trace 1``.
The lines before it give the environment block and, for humans, the
workload's own figures (train loss, segment RTF, tune time, R-values).
Corpora are written under ``.bench_work/`` and removed at the end; the full
result of each run stays in ``.bench_work/results/``, its log in
``.bench_work/logs/`` and, for traced runs, its spans in
``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("train_short", "train_long", "segment_tune")
CHILD_TIMEOUT_S = 175
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _spec() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCPC_")}
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str, timeout: float) -> dict:
    """Run one workload in a fresh process; return its result dict."""
    tag = f"{workload}-s{seed}-t{trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    result_path = ROOT / ".bench_work" / "results" / f"{tag}.json"
    log_path = ROOT / ".bench_work" / "logs" / f"{tag}.log"
    for d in (result_path.parent, log_path.parent):
        d.mkdir(parents=True, exist_ok=True)
    result_path.unlink(missing_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--size", size,
            "--work", str(work), "--result", str(result_path)]
    if trace:
        argv += ["--spans", str(ROOT / ".bench_work" / "traces" / f"{workload}-s{seed}.spans.jsonl.gz")]
    try:
        with open(log_path, "w") as log:
            proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RuntimeError(f"{workload}: no result within {timeout:.0f} s (log: {log_path})")
            except BaseException:   # interrupted or terminated: stop the workload first
                proc.kill()
                proc.wait()
                raise
        if rc != 0 or not result_path.is_file():
            tail = log_path.read_text().splitlines()[-15:]
            raise RuntimeError(f"{workload}: workload process exited {rc} (log: {log_path})\n" + "\n".join(tail))
        result = json.loads(result_path.read_text())
        checks = [line for line in log_path.read_text().splitlines() if line.startswith("check failed:")]
        result["check_failures"] = checks[:10]
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_human(workload: str, result: dict, units: dict) -> None:
    print(f"== {workload}: {result['passes']} passes, {result['failed']} failed of {result['attempted']} attempted")
    for name, value in result["metrics"].items():
        print(f"   {name:40s} {value:12.6g} {units.get(name, '')}")
    for name, value in result["details"].items():
        print(f"   (detail) {name:31s} {value:12.6g}")
    for row in result.get("top_self_ms", []):
        print(f"   (self) {row['name']:33s} {row['self_ms']:10.1f} ms self  {row['total_ms']:10.1f} ms total  "
              f"{row['calls']:8d} calls")
    for line in result["check_failures"]:
        print(f"   {line}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="scpc benchmark")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None, help="measured time per workload (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test corpora")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # unwind, so the workload process is stopped

    if not (ROOT / "src" / "scpc" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/scpc package; run from the repository root", file=sys.stderr)
        return 2
    spec = _spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    started = time.monotonic()
    results = {}
    for wl in workloads:
        budget = CHILD_TIMEOUT_S if len(workloads) == 1 else CHILD_TIMEOUT_S * len(workloads) - (time.monotonic() - started)
        try:
            results[wl] = run_workload(wl, args.seed, seconds, args.trace, args.size, budget)
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        missing = sorted(set(units) - set(results[wl]["metrics"]))
        if missing:
            print(f"error: {wl} did not report {missing}", file=sys.stderr)
            return 1

    print(json.dumps({"environment": next(iter(results.values()))["environment"]}))
    for wl, res in results.items():
        _print_human(wl, res, units)

    def pick(res: dict, prefix: str = "") -> dict:
        return {prefix + m: {"value": res["metrics"][m], "unit": u} for m, u in units.items()}

    if len(results) == 1:
        metrics = pick(results[workloads[0]])
    else:
        metrics = {k: v for wl, res in results.items() for k, v in pick(res, f"{wl}.").items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
