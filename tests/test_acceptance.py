"""Release gates for the whole system, one test per shipped claim.

Covers, in order: reproduction of externally reported segmentation score
rows from their printed precision/recall, oracle equivalence of the
vectorized segment extraction, finite-difference validation of every
autodiff op plus the composite frame loss, end-to-end learning on the
bundled synthetic corpus against matched baselines, sweep behavior, and an
optional real-corpus recipe.  The synthetic end-to-end gate trains a full
model at the default worker count, which took 192 s on 2 cores (two
processes, one BLAS thread each) against 306 s at ``--workers 1``, back to
back; everything else is fast.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import test_diffcore as op_checks
from helpers import numeric_grad, rel_err, weighted_mean
from test_boundary import indicator_grad_oracle, means_oracle, peak_oracle, soft_loss

from scpc import audio, boundary, cli, infer, metrics
from scpc import diffcore as dc
from scpc import objective as obj

# --------------------------------------------------------------- reported rows
#
# Phoneme segmentation rows (percent): system -> (P, R, F1, R-value).
# F1 and R-value are derived columns; recomputing them from the printed P, R
# must land within 0.15 points (R-value via the over-segmentation rate R/P-1).
PHONEME_ROWS = {
    "CPC TIMIT": (83.89, 83.55, 83.71, 86.02),
    "SCPC TIMIT": (84.63, 86.04, 85.33, 87.44),
    "CPC Buckeye": (75.78, 76.86, 76.31, 79.69),
    "SCPC Buckeye": (76.53, 78.72, 77.61, 80.72),
}

# Word segmentation rows (percent): system -> (P, R, F1, OS, R-value).
WORD_ROWS = {
    "ES K-Means": (30.7, 18.0, 22.7, -41.2, 39.7),
    "BES GMM": (31.7, 13.8, 19.2, -56.6, 37.9),
    "VQ-CPC DP": (15.5, 81.0, 26.1, 421.4, -266.6),
    "VQ-VAE DP": (15.8, 68.1, 25.7, 330.9, -194.5),
    "AG VQ-CPC DP": (18.2, 54.1, 27.3, 196.4, -86.5),
    "AG VQ-VAE DP": (16.4, 56.8, 25.5, 245.2, -126.5),
    "ZS SCPC": (36.9, 29.9, 33.0, -19.1, 45.6),
    "Buckeye SCPC": (35.0, 29.6, 32.1, -15.4, 44.5),
}

# In four rows the printed OS contradicts the row's own printed P and R by
# more than the gate (rounding drift in the source tables); their OS
# round-trip is tracked as an expected failure below, and their R-value is
# still required to recompute from the printed OS.
OS_DRIFT_ROWS = ("ES K-Means", "VQ-CPC DP", "AG VQ-CPC DP", "AG VQ-VAE DP")

TOL_POINTS = 0.15


def recomputed_f1(p_pct: float, r_pct: float) -> float:
    p, r = p_pct / 100.0, r_pct / 100.0
    return 200.0 * p * r / (p + r)


class TestReportedRowsRecompute:
    def test_phoneme_rows(self):
        for name, (p, r, f1, rv) in PHONEME_ROWS.items():
            assert abs(recomputed_f1(p, r) - f1) <= TOL_POINTS, name
            os_frac = metrics.over_segmentation(p / 100.0, r / 100.0)
            rv_frac = metrics.r_value(r / 100.0, os_frac)
            assert abs(rv_frac * 100.0 - rv) <= TOL_POINTS, name
        print(f"PASS  {len(PHONEME_ROWS)} phoneme rows: F1 and R-value recompute within {TOL_POINTS}")

    def test_word_rows(self):
        for name, (p, r, f1, os_pct, rv) in WORD_ROWS.items():
            assert abs(recomputed_f1(p, r) - f1) <= TOL_POINTS, name
            rv_frac = metrics.r_value(r / 100.0, os_pct / 100.0)
            assert abs(rv_frac * 100.0 - rv) <= TOL_POINTS, name
            if name not in OS_DRIFT_ROWS:
                os_frac = metrics.over_segmentation(p / 100.0, r / 100.0)
                assert abs(os_frac * 100.0 - os_pct) <= TOL_POINTS, name
        print(f"PASS  {len(WORD_ROWS)} word rows: F1, OS, R-value recompute within {TOL_POINTS}")

    @pytest.mark.xfail(strict=True, reason="printed OS in these four rows drifts >0.15 from the row's own printed P, R")
    def test_word_rows_with_os_drift(self):
        for name in OS_DRIFT_ROWS:
            p, r, _, os_pct, _ = WORD_ROWS[name]
            os_frac = metrics.over_segmentation(p / 100.0, r / 100.0)
            assert abs(os_frac * 100.0 - os_pct) <= TOL_POINTS, name


# ---------------------------------------------------------- oracle equivalence

class TestOracleEquivalence:
    def test_segment_means_match_loop_oracle_200_cases(self):
        rng = np.random.default_rng(202)
        for case in range(200):
            n = int(rng.integers(2, 40))
            dim = int(rng.integers(1, 8))
            hard = (rng.random(n - 1) < 0.3).astype(np.float64)
            z = rng.standard_normal((n, dim))
            tape = dc.Tape()
            means = dc.segment_pool(tape.tensor(z), tape.tensor(hard), len(boundary._spans_from_hard(hard, n)))
            np.testing.assert_allclose(means.data, means_oracle(z, hard), atol=1e-6, err_msg=f"case {case}")
        print("PASS  pooled segment means == loop oracle on 200 random cases (atol 1e-6)")

    def test_segment_means_worked_example(self):
        # Six frames, boundary after the fourth: segments are frames 1-4 and 5-6.
        z = np.arange(12, dtype=np.float64).reshape(6, 2)
        hard = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
        assert boundary._spans_from_hard(hard, 6) == ((0, 4), (4, 6))
        tape = dc.Tape()
        means = dc.segment_pool(tape.tensor(z), tape.tensor(hard), 2)
        np.testing.assert_allclose(means.data, [z[:4].mean(axis=0), z[4:].mean(axis=0)], atol=1e-12)
        np.testing.assert_allclose(means.data, means_oracle(z, hard), atol=1e-12)
        print("PASS  worked example (frames 1-4 / 5-6) segment means exact")

    def test_peak_scores_match_brute_force_1000_vectors(self):
        rng = np.random.default_rng(1000)
        for case in range(1000):
            n = int(rng.integers(1, 30))
            d = rng.random(n)
            thres = float(rng.random() * 0.2)
            narrow, wide, final = boundary.peak_scores(d, thres)
            p1, p2, p = peak_oracle(d, thres)
            np.testing.assert_array_equal(narrow, p1, err_msg=f"case {case}")
            np.testing.assert_array_equal(wide, p2, err_msg=f"case {case}")
            np.testing.assert_array_equal(final, p, err_msg=f"case {case}")
        print("PASS  peak scores == brute-force transcription on 1000 random vectors (exact)")


# -------------------------------------------------------- gradient correctness

def _op_cases():
    away = op_checks.away_from
    cases = [
        ("add", lambda rng: ([rng.standard_normal((3, 4)), rng.standard_normal((3, 4))],
                             lambda t, xs: dc.add(xs[0], xs[1]))),
        ("add broadcast", lambda rng: ([rng.standard_normal((3, 4)), rng.standard_normal(4)],
                                       lambda t, xs: dc.add(xs[0], xs[1]))),
        ("matmul", lambda rng: ([rng.standard_normal((3, 4)), rng.standard_normal((4, 2))],
                                lambda t, xs: dc.matmul(xs[0], xs[1]))),
        ("narrow", lambda rng: ([rng.standard_normal((5, 3))], lambda t, xs: dc.narrow(xs[0], 1, 3))),
        ("gather_rows", lambda rng: ([rng.standard_normal((5, 3))],
                                     lambda t, xs: dc.gather_rows(xs[0], np.array([0, 2, 2, 4])))),
        ("gather_rows 2-D index", lambda rng: ([rng.standard_normal((5, 3))],
                                               lambda t, xs: dc.gather_rows(xs[0], np.array([[0, 2, 1], [4, 4, 3]])))),
        ("relu", lambda rng: ([away(rng, (3, 4))], lambda t, xs: dc.relu(xs[0]))),
        ("cosine_sim", lambda rng: ([_unit_rows(rng, 3, 4), _unit_rows(rng, 3, 4)],
                                    lambda t, xs: dc.cosine_sim(xs[0], xs[1]))),
        ("cosine_sim stacked", lambda rng: ([_unit_rows(rng, 3, 4), _unit_rows(rng, 6, 4).reshape(3, 2, 4)],
                                            lambda t, xs: dc.cosine_sim(xs[0], xs[1]))),
        ("softmax_cross_entropy_with_index", lambda rng: ([rng.standard_normal((4, 3))],
                                                          lambda t, xs: dc.softmax_cross_entropy_with_index(xs[0], np.array([0, 2, 1, 2])))),
        ("tanh_scan", lambda rng: (op_checks.scan_case(rng), lambda t, xs: dc.tanh_scan(*xs))),
    ]
    for spare in (2, 0):
        cases.append((f"segment_pool spare {spare}", _pool_case(spare)))
    cases.append(("mean_axis", lambda rng: ([rng.standard_normal((3, 4))], lambda t, xs: dc.mean_axis(xs[0]))))
    for stride in (1, 2, 3):
        cases.append((f"conv1d stride {stride}", lambda rng, s=stride: (
            list(op_checks.conv_case(rng, s)),
            lambda t, xs: dc.conv1d(xs[0], xs[1], xs[2], s))))
    return cases


def _pool_case(spare):
    def build(rng):
        arrays, m = op_checks.tent_case(rng, spare=spare)
        return arrays, lambda t, xs: dc.segment_pool(xs[0], xs[1], m)

    return build


def _unit_rows(rng, n, d):
    u = rng.standard_normal((n, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True) * rng.uniform(0.5, 1.5, (n, 1))


class TestGradientCorrectness:
    def test_every_op_passes_finite_differences(self):
        for name, build in _op_cases():
            op_checks.run_gradcheck(build, n_points=5, tol=1e-4)
        print(f"PASS  {len(_op_cases())} op cases pass central finite differences (rel err <= 1e-4)")

    def test_every_public_op_has_a_case(self):
        # A case's name starts with the op it checks.
        ops = {name for name in dc.__all__ if name[0].islower()}
        covered = {name.split()[0] for name, _ in _op_cases()}
        assert ops <= covered, f"ops without a finite-difference case: {sorted(ops - covered)}"
        assert covered <= ops, f"cases for ops that are not public: {sorted(covered - ops)}"

    def test_straight_through_indicator_both_paths(self):
        rng = np.random.default_rng(21)
        sim0 = rng.uniform(-1.0, 1.0, 9)
        w = rng.standard_normal(9)

        tape = dc.Tape()
        sim = tape.tensor(sim0, requires_grad=True)
        _, indicator = boundary.boundary_indicator(sim, 0.05)
        # Forward: bit for bit the hard path.
        final = boundary.peak_scores(boundary.dissimilarity(sim0), 0.05)[2]
        np.testing.assert_array_equal(indicator.data, np.tanh(1000.0 * final))
        # Backward: exactly the soft path's derivative.
        tape.backward(weighted_mean(indicator, w))
        analytic = sim.grad
        np.testing.assert_allclose(analytic, indicator_grad_oracle(sim0, w, 0.05), rtol=1e-12)

        numeric = numeric_grad(lambda arrs: soft_loss(arrs[0], w, 0.05), [sim0.copy()])[0]
        assert rel_err(analytic, numeric) <= 1e-4
        print("PASS  straight-through indicator: hard forward (exact), soft backward (FD checked)")

    def test_composite_frame_loss_finite_differences(self):
        rng = np.random.default_rng(3)
        frames0 = rng.standard_normal((8, 3))
        k = 2

        def scalar(arrs):
            t = dc.Tape()
            loss = obj.nfc_loss(t.tensor(arrs[0]), k, np.random.default_rng(99))
            return float(loss.data)

        tape = dc.Tape()
        leaf = tape.tensor(frames0, requires_grad=True)
        loss = obj.nfc_loss(leaf, k, np.random.default_rng(99))
        tape.backward(loss)
        numeric = numeric_grad(scalar, [frames0.copy()])[0]
        err = rel_err(leaf.grad, numeric)
        assert err <= 1e-3, f"composite frame-loss gradient rel err {err:.2e}"
        print("PASS  composite frame loss passes finite differences (rel err <= 1e-3)")


# ----------------------------------------------------- end-to-end synthetic run

def _run_cli(*argv) -> None:
    code = cli.main([str(a) for a in argv])
    assert code == 0, argv


class TestSyntheticEndToEnd:
    """Train on the default synthetic corpus and clear fixed quality bars.

    Corpus: 5 phones, 8 words, 400/50/50 train/val/test utterances.  Bars at
    20 ms tolerance: phoneme F1 >= 0.80 and R-value >= 0.75, word F1 >= 0.55,
    training under 10 minutes; learned scores must strictly beat a
    count-matched random-boundary baseline, and the phoneme R-value must beat
    an every-40 ms periodic predictor.
    """

    @pytest.mark.slow
    def test_trained_model_clears_quality_bars(self, tmp_path):
        for split, n, start in (("train", 400, 0), ("val", 50, 400), ("test", 50, 450)):
            _run_cli("synth", "--out", tmp_path / split, "--n", n, "--start-index", start)

        run_dir = tmp_path / "run"
        t0 = time.monotonic()
        _run_cli("train", "--manifest", tmp_path / "train" / "manifest.tsv",
                 "--out", run_dir, "--val", tmp_path / "val" / "manifest.tsv")
        train_seconds = time.monotonic() - t0
        assert train_seconds <= 600.0, f"training took {train_seconds:.0f}s"

        scores = {}
        for level in ("phoneme", "word"):
            _run_cli("tune", "--ckpt", run_dir / "checkpoint.npz",
                     "--manifest", tmp_path / "val" / "manifest.tsv",
                     "--level", level, "--out", tmp_path / f"tune_{level}")
            prom = json.loads((tmp_path / f"tune_{level}" / "tune.json").read_text())["prominence"]
            _run_cli("segment", "--ckpt", run_dir / "checkpoint.npz",
                     "--manifest", tmp_path / "test" / "manifest.tsv",
                     "--level", level, "--out", tmp_path / f"pred_{level}", "--prominence", prom)
            _run_cli("eval", "--pred", tmp_path / f"pred_{level}",
                     "--ref", tmp_path / "test" / "manifest.tsv",
                     "--level", level, "--out", tmp_path / f"eval_{level}")
            scores[level] = json.loads((tmp_path / f"eval_{level}" / "eval.json").read_text())

        assert scores["phoneme"]["f1"] >= 0.80
        assert scores["phoneme"]["r_value"] >= 0.75
        assert scores["word"]["f1"] >= 0.55

        # Matched random baseline: same boundary count per utterance, best of 5 draws.
        for level in ("phoneme", "word"):
            preds = infer.read_predictions(tmp_path / f"pred_{level}")
            refs, durs = audio.load_references(tmp_path / "test" / "manifest.tsv", level)
            rand_f1 = max(
                metrics.evaluate(
                    {u: metrics.random_boundaries(durs[u], len(preds[u]), np.random.default_rng([4242, s, i]))
                     for i, u in enumerate(sorted(refs))},
                    refs, tolerance=0.020, durations=durs).f1
                for s in range(5))
            assert scores[level]["f1"] > rand_f1, f"{level}: {scores[level]['f1']:.3f} vs random {rand_f1:.3f}"

        refs_ph, durs_ph = audio.load_references(tmp_path / "test" / "manifest.tsv", "phoneme")
        periodic = {u: metrics.periodic_boundaries(durs_ph[u], 0.040) for u in refs_ph}
        periodic_rv = metrics.evaluate(periodic, refs_ph, tolerance=0.020, durations=durs_ph).r_value
        assert scores["phoneme"]["r_value"] > periodic_rv

        print(f"PASS  end-to-end: train {train_seconds:.0f}s, "
              f"phoneme F1 {scores['phoneme']['f1']:.3f} R-value {scores['phoneme']['r_value']:.3f}, "
              f"word F1 {scores['word']['f1']:.3f}; baselines beaten")


# ------------------------------------------------------------- sweep behavior

@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweepdata")
    _run_cli("synth", "--out", root / "train", "--n", 8)
    _run_cli("synth", "--out", root / "val", "--n", 3, "--start-index", 8)
    cfg = root / "tiny.cfg"
    cfg.write_text("epochs = 2\n")
    return root, cfg


class TestSweeps:
    """Both reference grids run to completion on a small corpus; raising the
    boundary threshold must not increase the mean training-time segment count
    (measured per utterance in the final epoch)."""

    def test_thres_sweep_monotone_segment_counts(self, small_corpus, tmp_path):
        root, cfg = small_corpus
        _run_cli("sweep", "--manifest", root / "train" / "manifest.tsv",
                 "--val", root / "val" / "manifest.tsv",
                 "--config", cfg, "--grid", "thres", "--out", tmp_path)
        rows = json.loads((tmp_path / "sweep.json").read_text())
        assert [row["value"] for row in rows] == [pytest.approx(i / 100) for i in range(11)]
        counts = [row["mean_segments"] for row in rows]
        assert all(c is not None for c in counts)
        for lo, hi in zip(counts[1:], counts[:-1]):
            assert lo <= hi + 1e-9, f"mean segments rose with thres: {counts}"
        assert counts[0] > counts[-1], "threshold had no effect on segment counts"
        print(f"PASS  thres sweep complete; mean segments non-increasing {counts[0]:.1f} -> {counts[-1]:.1f}")

    def test_nsc_epoch_sweep_completes(self, small_corpus, tmp_path):
        root, cfg = small_corpus
        _run_cli("sweep", "--manifest", root / "train" / "manifest.tsv",
                 "--val", root / "val" / "manifest.tsv",
                 "--config", cfg, "--grid", "nsc_epoch", "--out", tmp_path)
        rows = json.loads((tmp_path / "sweep.json").read_text())
        assert [row["value"] for row in rows] == list(range(11))
        assert all(np.isfinite(row["l_nfc"]) for row in rows)
        print("PASS  segment-loss schedule sweep complete (11 runs)")


# ------------------------------------------------------------ real-data recipe

@pytest.mark.skipif(not os.environ.get("SCPC_TIMIT_DIR"), reason="set SCPC_TIMIT_DIR to run the real-corpus recipe")
def test_real_corpus_recipe(tmp_path):
    recipe = Path(__file__).resolve().parent.parent / "demos" / "timit_recipe.py"
    proc = subprocess.run(
        [sys.executable, str(recipe), os.environ["SCPC_TIMIT_DIR"], str(tmp_path)],
        capture_output=True, text=True, timeout=24 * 3600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "R-value" in proc.stdout
    print("PASS  real-corpus recipe ran end to end:", proc.stdout.strip().splitlines()[-1])
