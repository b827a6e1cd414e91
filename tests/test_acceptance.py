"""Acceptance suite: each test is one release criterion at its stated
tolerance and prints a PASS line with the measured numbers.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines as they complete.
"""

import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from tajweed import audio, cli, dataset, detection, features, persistence, svm

ACCEPTANCE_SEED = 20260810


def report(n, details):
    print(f"\nACCEPTANCE CRITERION {n}: PASS ({details})")


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Full-scale synthetic pipeline: 2 rules x 2 polarities x 80 clips,
    70/30 split, C=1 gamma=0.1 training, plus 100 event verses and 100
    event-free verses for the detection criteria. Timed end to end.
    """
    out = str(tmp_path_factory.mktemp("acceptance"))
    t0 = time.time()
    recipe = dataset.default_recipe()
    assert recipe["clips_per_class"] == 80
    entries = dataset.synth_generate(
        recipe, ACCEPTANCE_SEED, out,
        verses_per_rule=25,          # x2 polarities x2 rules = 100 event verses
        event_free_per_rule=50,      # x2 rules = 100 rule-free verses
    )
    entries = dataset.split(entries, 0.7, seed=ACCEPTANCE_SEED)
    dataset.save_manifest(entries, os.path.join(out, dataset.MANIFEST_NAME))

    models = {}
    summaries = {}
    for rule_id in sorted(recipe["classes"]):
        models[rule_id], summaries[rule_id] = cli.train_rule_model(
            entries, out, rule_id, C=1.0, gamma=0.1, seed=ACCEPTANCE_SEED
        )
    evaluation = detection.evaluate(list(models.values()), entries, out)
    elapsed = time.time() - t0
    return SimpleNamespace(out=out, recipe=recipe, entries=entries, models=models,
                           summaries=summaries, evaluation=evaluation, elapsed=elapsed)


def test_criterion_1_synthetic_end_to_end(pipeline):
    per_rule = {t.rule_id: t for t in pipeline.evaluation}
    assert set(per_rule) == set(pipeline.models)
    for rule_id, table in per_rule.items():
        assert table.tp + table.fp + table.tn + table.fn > 0
        assert table.accuracy >= 0.95, f"{rule_id}: {table.accuracy}"

    text = detection.format_confusion_tables(pipeline.evaluation)
    for column in ("Rule Name", "True Positive", "False Positive",
                   "True Negative", "False Negative"):
        assert column in text
    for rule_id in pipeline.models:
        display = " ".join(p.capitalize() for p in rule_id.split("_"))
        assert display in text

    assert pipeline.elapsed < 300.0
    accs = {r: round(t.accuracy, 4) for r, t in per_rule.items()}
    report(1, f"accuracies {accs}, pipeline {pipeline.elapsed:.0f}s < 300s")


def test_criterion_2_solver_optimality_vs_qp_oracle():
    t0 = time.time()
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    problems = []
    for _ in range(200):
        X, y = oracles.random_separated_problem(rng)
        gamma = float(rng.uniform(0.3, 1.0))
        C = float(rng.choice([0.5, 1.0, 2.0]))
        problems.append((X, y, gamma, C))

    Ks = [oracles.rbf_matrix(X, X, gamma) for X, y, gamma, C in problems]
    refs = oracles.projected_gradient_qp_batch(
        Ks, [p[1] for p in problems], [p[3] for p in problems]
    )

    tol = 1e-3
    worst_obj_gap = 0.0
    worst_alpha_gap = 0.0
    for (X, y, gamma, C), K, ref in zip(problems, Ks, refs):
        model = svm.train(X, y, C, gamma,
                          tol=1e-10, max_passes=200_000)
        alpha = np.zeros(len(y))
        for sv, coef in zip(model.support_vectors, model.dual_coefs):
            idx = np.flatnonzero((X == sv).all(axis=1))[0]
            alpha[idx] = abs(coef)

        ours = oracles.dual_objective(alpha, K, y)
        best = oracles.dual_objective(ref, K, y)
        assert ours >= best - 1e-6
        worst_obj_gap = max(worst_obj_gap, best - ours)

        gap = np.abs(alpha - ref).max()
        assert gap < 1e-3
        worst_alpha_gap = max(worst_alpha_gap, gap)

        # KKT at the published tolerance, from scratch
        f = (alpha * y) @ K + model.bias
        margins = y * f
        for a, m in zip(alpha, margins):
            if a <= 0.0:
                assert m >= 1 - tol
            elif a >= C:
                assert m <= 1 + tol
            else:
                assert abs(m - 1) <= tol

    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(2, f"200 problems, max objective gap {worst_obj_gap:.2e}, "
              f"max |alpha| gap {worst_alpha_gap:.2e}, {elapsed:.0f}s < 120s")


def test_criterion_3_dsp_oracles():
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    frames = rng.uniform(-1, 1, (100, 256))
    oracle_power = np.abs(np.stack([oracles.naive_dft(f) for f in frames])[:, :129]) ** 2 / 256
    fft_err = np.abs(features.power_spectrum(frames) - oracle_power).max()
    assert fft_err < 1e-9

    parseval_w = np.full(129, 2.0)
    parseval_w[0] = parseval_w[-1] = 1.0
    parseval_err = max(
        abs((parseval_w * features.power_spectrum(f)).sum() - (f ** 2).sum())
        for f in frames
    )
    assert parseval_err < 1e-9

    w = features.HAMMING
    assert abs(w[0] - 0.08) < 1e-15 and abs(w[-1] - 0.08) < 1e-15
    assert (w == w[::-1]).all()
    report(3, f"fft err {fft_err:.2e}, parseval err {parseval_err:.2e}, "
              f"hamming endpoints/symmetry exact")


def test_criterion_4_framing_arithmetic(spectrum_inputs):
    cfg = features.FeatureConfig()
    assert features.HOP_LEN == 80
    assert (32000 - 200) // 80 + 1 == 398

    clip = audio.AudioClip(np.full(32000, 0.1), 8000)
    vec = features.extract_features(clip, cfg)
    rows = np.vstack(spectrum_inputs)  # each frame windowed, zero-padded to FFT_SIZE
    assert rows.shape == (398, features.FFT_SIZE) and not rows[:, 200:].any()
    assert (rows[:, :200] == 0.1 * features.HAMMING).all()
    assert max(map(len, spectrum_inputs)) <= features.PASS_STRIDES * features.STRIDE_FRAMES
    assert vec.shape == (1, 140)
    report(4, "398 frames of 200 samples at hop 80; pooled vector length 140")


@pytest.fixture(scope="session")
def gated_models(pipeline):
    """Rule models re-thresholded on the 100 event-free verses (the
    calibration negatives of the detection criterion)."""
    free = [e for e in pipeline.entries if e.polarity is None and "free_verse" in e.path]
    assert len(free) == 100
    gated = {}
    for rule_id, model in pipeline.models.items():
        windows = []
        for e in (f for f in free if f.rule_id == rule_id):
            clip = audio.load_wav(os.path.join(pipeline.out, e.path))
            windows.extend(w for _, w in audio.slide_windows(clip))
        gated[rule_id], _ = detection.calibrate_thresholds(model, windows)
    return gated


def test_criterion_5_detection_localization_and_false_positives(
        pipeline, gated_models, tmp_path_factory):
    event_verses = [e for e in pipeline.entries if e.onset_s is not None]
    assert len(event_verses) == 100
    hits = 0
    for e in event_verses:
        model = gated_models[e.rule_id]
        rep = detection.detect(model, audio.load_wav(os.path.join(pipeline.out, e.path)))
        if rep.verdict is not None and abs(rep.verdict.offset_s - e.onset_s) <= 0.5 + 1e-9:
            hits += 1
    assert hits >= 90

    free = [e for e in pipeline.entries if e.polarity is None and "free_verse" in e.path]
    calibration_verdicts = 0
    for e in free:
        rep = detection.detect(gated_models[e.rule_id],
                               audio.load_wav(os.path.join(pipeline.out, e.path)))
        calibration_verdicts += rep.verdict is not None
    assert calibration_verdicts == 0

    fresh_dir = str(tmp_path_factory.mktemp("fresh_negatives"))
    fresh = dataset.synth_generate(pipeline.recipe, ACCEPTANCE_SEED + 1, fresh_dir,
                                   clips_per_class=0, negatives_per_rule=0,
                                   verses_per_rule=0, event_free_per_rule=50)
    assert len(fresh) == 100
    quiet = 0
    for e in fresh:
        rep = detection.detect(gated_models[e.rule_id],
                               audio.load_wav(os.path.join(fresh_dir, e.path)))
        quiet += rep.verdict is None
    assert quiet >= 98
    report(5, f"localization {hits}/100 within one stride, calibration-set false "
              f"positives 0/100, fresh negatives quiet {quiet}/100")


def test_criterion_6_persistence_bit_exact(pipeline, tmp_path):
    model = pipeline.models["edgham_meem"]
    p1, p2 = str(tmp_path / "a.model"), str(tmp_path / "b.model")
    persistence.save_model(model, p1)
    persistence.save_model(model, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()

    loaded = persistence.load_model(p1)
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    X = rng.uniform(-30, 5, (100, 140))
    before = svm.decision_values(model.svm, X)
    after = svm.decision_values(loaded.svm, X)
    assert (before == after).all()
    report(6, "repeated saves byte-identical; 100 decision values reproduced bit-exactly")


def test_criterion_7_cross_process_determinism(tmp_path):
    recipe = dataset.default_recipe()
    recipe.update(clips_per_class=6, negatives_per_rule=4,
                  verses_per_rule=1, event_free_verses_per_rule=1)
    spec = tmp_path / "recipe.json"
    spec.write_text(json.dumps(recipe))

    def run_once(tag):
        corpus = tmp_path / tag
        # the child processes import the same package as this test
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONHASHSEED="0" if tag == "a" else "1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for argv in (
            ["synth", "--spec", str(spec), "--seed", "77", "--out", str(corpus)],
            ["split", "--manifest", str(corpus / "manifest.csv"), "--seed", "78"],
            ["train", "--manifest", str(corpus / "manifest.csv"),
             "--rule", "edgham_meem", "--seed", "79",
             "--model", str(corpus / "edgham.model")],
        ):
            proc = subprocess.run([sys.executable, "-m", "tajweed", *argv],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
        return corpus

    a, b = run_once("a"), run_once("b")
    compared = 0
    for root, _, files in os.walk(a):
        for f in sorted(files):
            pa = os.path.join(root, f)
            pb = pa.replace(str(a), str(b), 1)
            assert open(pa, "rb").read() == open(pb, "rb").read(), f
            compared += 1
    assert compared > 30
    report(7, f"two process invocations produced {compared} byte-identical files "
              "(corpus, manifest with splits, model)")


def test_criterion_8_grid_search_reproduces_its_table(rng):
    X = np.vstack([rng.normal(-5, 0.5, (20, 2)), rng.normal(5, 0.5, (20, 2))])
    y = np.array([-1.0] * 20 + [1.0] * 20)
    seed = 13
    best, table = svm.grid_search(X, y, seed=seed)

    # independent recomputation of every cell
    folds = svm.stratified_folds(y, 5, seed)
    recomputed = {}
    for C in (0.1, 1.0, 10.0, 100.0):
        for gamma in (0.001, 0.01, 0.1, 1.0):
            accs = []
            for fold in folds:
                mask = np.ones(len(y), dtype=bool)
                mask[fold] = False
                model = svm.train(X[mask], y[mask], C, gamma)
                pred = np.sign(svm.decision_values(model, X[fold]))
                accs.append(float(np.mean(pred == y[fold])))
            recomputed[(C, gamma)] = float(np.mean(accs))

    for cell in table:
        assert recomputed[(cell.C, cell.gamma)] == pytest.approx(cell.accuracy, abs=1e-12)
    best_acc = max(recomputed.values())
    winners = sorted(k for k, v in recomputed.items() if v == best_acc)
    assert (best.C, best.gamma) == winners[0]

    # constructed tie: clusters 10 sigma apart make every cell perfect, so
    # the smaller-C-then-smaller-gamma rule must pick (0.1, 0.001)
    assert best_acc == 1.0
    assert (best.C, best.gamma) == (0.1, 0.001)
    report(8, "winner matches independent per-cell recomputation; "
              "tie resolved to smallest C then gamma")
