import os
from dataclasses import replace

import numpy as np
import pytest

import oracles
from tajweed import audio, dataset, detection, features, svm
from tajweed.errors import DatasetError, DetectionError, SvmError


def toy_rule_model(tau_right=0.5, tau_wrong=0.5):
    """A structurally valid rule model over 1-D features (for gating tests
    that monkeypatch the window scorer)."""
    model = svm.SvmModel(
        support_vectors=np.array([[0.0], [1.0]]),
        dual_coefs=np.array([-0.5, 0.5]),
        bias=0.0,
        gamma=0.1,
        C=1.0,
    )
    return detection.RuleModel(
        rule_id="edgham_meem",
        svm=model,
        calibration=(-1.0, 0.0),
        tau_right=tau_right,
        tau_wrong=tau_wrong,
        feature_config=features.FeatureConfig(),
        scaler=features.Scaler(np.zeros(1), np.ones(1)),
    )


def recording(seconds=6.0):
    return audio.AudioClip(np.zeros(int(seconds * 8000)), 8000)


def scored_alone(rule, window):
    """p_right of a 4 s window scored as a recording of its own."""
    (offset, p), = detection.window_scores(rule, window)
    assert offset == 0.0
    return p


class TestOneWindow:
    def test_silence_probability_finite(self, small_model):
        window = audio.AudioClip(np.zeros(32000), 8000)
        p = scored_alone(small_model, window)
        assert 0.0 <= p <= 1.0

    def test_deterministic_to_the_bit(self, small_model):
        rng = np.random.default_rng(0)
        window = audio.AudioClip(rng.uniform(-0.5, 0.5, 32000), 8000)
        assert scored_alone(small_model, window) == scored_alone(small_model, window)

    def test_training_exemplar_scores_right(self, small_corpus, small_model):
        root, entries = small_corpus
        e = next(e for e in entries if e.rule_id == "edgham_meem"
                 and e.polarity == "Right" and e.onset_s is None)
        clip = audio.load_wav(os.path.join(root, e.path))
        assert scored_alone(small_model, clip) > 0.5


class TestDetect:
    def test_gate_excludes_everything(self, monkeypatch):
        rule = toy_rule_model(tau_right=0.9, tau_wrong=0.9)
        monkeypatch.setattr(detection, "window_scores", lambda r, rec: tuple(
            (o, 0.5) for o, _ in audio.slide_windows(rec)))
        report = detection.detect(rule, recording(6.0))
        assert report.verdict is None
        assert len(report.window_scores) == 5
        assert all(p == 0.5 for _, p in report.window_scores)

    def test_max_gated_score_wins_earliest_tie(self, monkeypatch):
        rule = toy_rule_model(tau_right=0.6, tau_wrong=0.99)
        scores = {0.0: 0.7, 0.5: 0.9, 1.0: 0.9, 1.5: 0.3}
        monkeypatch.setattr(detection, "window_scores",
                            lambda r, rec: tuple(scores.items()))
        report = detection.detect(rule, recording(5.5))
        assert report.verdict.offset_s == 0.5
        assert report.verdict.polarity == "Right"
        assert report.verdict.score == 0.9

    def test_wrong_polarity_gating(self, monkeypatch):
        rule = toy_rule_model(tau_right=0.99, tau_wrong=0.7)
        monkeypatch.setattr(detection, "window_scores", lambda r, rec: ((0.0, 0.1),))
        report = detection.detect(rule, recording(4.0))
        assert report.verdict.polarity == "Wrong"
        assert report.verdict.score == 0.9
        assert report.verdict.closeness_pct == 10

    def test_single_window_recording(self, small_model):
        rng = np.random.default_rng(1)
        clip = audio.AudioClip(rng.uniform(-0.3, 0.3, 32000), 8000)
        report = detection.detect(small_model, clip)
        assert len(report.window_scores) == 1
        # the exemplar path: extract_features over the whole clip
        vector = features.extract_features(clip, small_model.feature_config)
        assert report.window_scores[0] == (0.0, float(detection.p_right(small_model, vector)[0]))

    # 1 sample, 3.99 s, 4 s, 4.5 s minus one sample, 4.5 s, 7.3 s and 60 s
    @pytest.mark.parametrize("n", [1, 31920, 32000, 35999, 36000, 58400, 480000])
    def test_window_scores_cover_slide_windows(self, small_model, n):
        clip = audio.AudioClip(np.zeros(n), 8000)
        report = detection.detect(small_model, clip)
        expected = [o for o, _ in audio.slide_windows(clip)]
        assert [o for o, _ in report.window_scores] == expected

    def test_verdict_score_reproducible(self, small_corpus, small_model):
        root, entries = small_corpus
        e = next(e for e in entries if e.rule_id == "edgham_meem" and e.onset_s is not None)
        clip = audio.load_wav(os.path.join(root, e.path))
        report = detection.detect(small_model, clip)
        assert report.verdict is not None
        stored = dict(report.window_scores)[report.verdict.offset_s]
        window = next(w for o, w in audio.slide_windows(clip)
                      if o == report.verdict.offset_s)
        assert scored_alone(small_model, window) == stored

    def test_one_scoring_call_per_recording(self, small_corpus, small_model, decision_calls):
        root, entries = small_corpus
        verses = [e for e in entries if e.rule_id == "edgham_meem" and "verse" in e.path]
        for e in verses:
            detection.detect(small_model, audio.load_wav(os.path.join(root, e.path)))
        assert len(decision_calls) == len(verses)

    def test_verse_event_located(self, small_corpus, small_model):
        root, entries = small_corpus
        verses = [e for e in entries if e.rule_id == "edgham_meem" and e.onset_s is not None]
        hits = 0
        for e in verses:
            report = detection.detect(small_model, audio.load_wav(os.path.join(root, e.path)))
            if report.verdict and abs(report.verdict.offset_s - e.onset_s) <= 0.5 + 1e-9 \
                    and report.verdict.polarity == e.polarity:
                hits += 1
        assert hits >= len(verses) - 1

    def test_silence_append_keeps_verdict(self, small_corpus, small_model):
        root, entries = small_corpus
        e = next(e for e in entries if e.rule_id == "edgham_meem" and e.onset_s is not None)
        clip = audio.load_wav(os.path.join(root, e.path))
        base = detection.detect(small_model, clip)
        assert base.verdict is not None
        longer = audio.AudioClip(np.concatenate([clip.samples, np.zeros(36000)]), 8000, clip.scale)
        extended = detection.detect(small_model, longer)
        new_scores = dict(extended.window_scores)
        base_gated = base.verdict.score
        for off, p in new_scores.items():
            if off not in dict(base.window_scores):
                assert max(p if p >= small_model.tau_right else 0,
                           (1 - p) if (1 - p) >= small_model.tau_wrong else 0) < base_gated
        assert extended.verdict == base.verdict


class TestWindowScores:
    @pytest.mark.parametrize("seconds", [1.0, 4.0, 4.5, 7.3])
    def test_equal_to_each_window_scored_alone(self, small_model, seconds):
        rng = np.random.default_rng(int(seconds * 10))
        clip = audio.AudioClip(rng.uniform(-0.3, 0.3, int(seconds * 8000)), 8000)
        expected = tuple((o, scored_alone(small_model, w))
                         for o, w in audio.slide_windows(clip))
        assert detection.window_scores(small_model, clip) == expected

    def test_equal_on_corpus_verses(self, small_corpus, small_model):
        root, entries = small_corpus
        for e in entries:
            if e.rule_id == "edgham_meem" and "verse" in e.path:
                clip = audio.load_wav(os.path.join(root, e.path))
                expected = tuple((o, scored_alone(small_model, w))
                                 for o, w in audio.slide_windows(clip))
                assert detection.window_scores(small_model, clip) == expected

    def test_decision_values_do_not_depend_on_the_batch(self, small_corpus, small_model):
        # a batched Gram is a BLAS gemm and rounds differently from one row's gemv
        root, entries = small_corpus
        per_recording = []
        for e in entries:
            if e.rule_id == "edgham_meem" and "verse" in e.path:
                per_recording.append(features.extract_features(
                    audio.load_wav(os.path.join(root, e.path)), small_model.feature_config))
        # the standardized rows that detect scores
        per_recording = [small_model.scaler.apply(R) for R in per_recording]
        X = np.vstack(per_recording)
        batch = svm.decision_values(small_model.svm, X)
        recordings = np.concatenate([svm.decision_values(small_model.svm, R)
                                     for R in per_recording])
        rows = np.concatenate([svm.decision_values(small_model.svm, x) for x in X])
        assert batch.tobytes() == recordings.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("agg", features.AGGREGATIONS)
    def test_rows_of_another_width_refused(self, agg):
        # checked before the scaler's arithmetic, which would broadcast a
        # width-1 row to full width and score it
        dim = features.FeatureConfig(agg).dim
        rule = replace(toy_rule_model(), feature_config=features.FeatureConfig(agg),
                       scaler=features.Scaler(np.zeros(dim), np.ones(dim)),
                       svm=replace(toy_rule_model().svm, support_vectors=np.eye(2, dim)))
        assert detection.p_right(rule, np.zeros((3, dim))).shape == (3,)
        for width in (1, dim - 1, dim + 1):
            with pytest.raises(SvmError, match=f"input dim {width} != scaler dim {dim}"):
                detection.p_right(rule, np.zeros((3, width)))


RATE_22K = 22050


def tone_and_noise(seconds, seed):
    """Noise recorded at 22050 Hz with a 900 Hz tone over its second half,
    resampled to the features' 8 kHz."""
    t = np.arange(int(seconds * RATE_22K)) / RATE_22K
    x = 0.05 * np.random.default_rng(seed).standard_normal(len(t))
    x[t > seconds / 2] += 0.4 * np.sin(2 * np.pi * 900 * t[t > seconds / 2])
    return audio.resample(audio.AudioClip(np.clip(x, -1.0, 1.0), RATE_22K),
                          features.SAMPLE_RATE_HZ)


def rule_at_22050():
    """A rule whose support vectors are the windows of one resampled
    tone_and_noise clip, with a kernel wide enough to spread p_right."""
    config = features.FeatureConfig()
    X = features.extract_features(tone_and_noise(6.0, 1), config)
    scaler = features.fit_scaler(X)
    model = svm.SvmModel(support_vectors=scaler.apply(X),
                         dual_coefs=np.array([1.0, -1.0, 1.0, -1.0, 1.0]), bias=0.0,
                         gamma=1e-3, C=1.0)
    return detection.RuleModel("edgham_meem", model, (-4.0, 0.0), tau_right=0.6,
                               tau_wrong=0.5, feature_config=config, scaler=scaler)


def hand_gates_and_verdict(rule, scores):
    """Each window's gated sides, and the (offset_s, polarity) of the highest
    gated score, earliest offset (then Right) on ties; None if none is gated."""
    gates = [[(polarity, score) for polarity, score, tau in
              (("Right", p, rule.tau_right), ("Wrong", 1.0 - p, rule.tau_wrong))
              if score >= tau] for _, p in scores]
    best = min(((-score, offset, polarity) for (offset, _), sides in zip(scores, gates)
                for polarity, score in sides), default=None)
    return [[polarity for polarity, _ in sides] for sides in gates], best and best[1:]


class TestReferenceDetector:
    """detect against oracles.reference_window_scores, which shares no framing,
    spectrum, pooling, standardization or scoring code with the package."""

    def verdict_matching_reference(self, rule, clip):
        report = detection.detect(rule, clip)
        reference = oracles.reference_window_scores(rule, clip)
        assert [o for o, _ in report.window_scores] == [o for o, _ in reference]
        assert max(abs(p - q) for (_, p), (_, q) in
                   zip(report.window_scores, reference)) <= 1e-9
        gates, verdict = hand_gates_and_verdict(rule, reference)
        assert [[polarity for polarity, _ in detection.gated(rule, p)]
                for _, p in report.window_scores] == gates
        assert (report.verdict and (report.verdict.offset_s, report.verdict.polarity)) == verdict
        return verdict

    def test_corpus_verses(self, small_corpus, small_model):
        root, entries = small_corpus
        verdicts = [self.verdict_matching_reference(
                        small_model, audio.load_wav(os.path.join(root, e.path)))
                    for e in entries if e.rule_id == "edgham_meem" and "verse" in e.path]
        assert None in verdicts and any(verdicts)

    def test_22050_hz_recording(self):
        rule = rule_at_22050()
        clip = tone_and_noise(6.3, 3)
        assert self.verdict_matching_reference(rule, clip) is not None
        assert len({round(p, 2) for _, p in detection.window_scores(rule, clip)}) > 1

    @pytest.mark.parametrize("seconds", [0.3, 1.0, 3.99])
    def test_clips_shorter_than_one_window(self, small_corpus, small_model, seconds):
        root, entries = small_corpus
        e = next(e for e in entries if e.rule_id == "edgham_meem" and e.onset_s is not None)
        verse = audio.load_wav(os.path.join(root, e.path))
        start = int(e.onset_s * verse.sample_rate_hz)
        clip = audio.AudioClip(verse.samples[start:start + int(seconds * 8000)], 8000, verse.scale)
        self.verdict_matching_reference(small_model, clip)
        self.verdict_matching_reference(rule_at_22050(), tone_and_noise(seconds, 4))


class TestCalibrateThresholds:
    def fake_negatives(self, n):
        return [audio.AudioClip(np.zeros(32000), 8000) for _ in range(n)]

    def test_floor_when_negatives_score_low(self, monkeypatch):
        rule = toy_rule_model()
        monkeypatch.setattr(detection, "window_scores", lambda r, clip: ((0.0, 0.3),))
        cal = detection.calibrate_thresholds(rule, self.fake_negatives(3))
        assert cal.tau_right == 0.5
        assert cal.tau_wrong == pytest.approx(0.71)

    def test_margin_above_worst_negative(self, monkeypatch):
        rule = toy_rule_model()
        scores = iter([0.8, 0.2, 0.5])
        monkeypatch.setattr(detection, "window_scores",
                            lambda r, clip: ((0.0, next(scores)),))
        cal = detection.calibrate_thresholds(rule, self.fake_negatives(3))
        assert cal.tau_right == pytest.approx(0.81)
        assert cal.tau_wrong == pytest.approx(0.81)
        assert not cal.right_saturated

    def test_clamped_and_flagged_saturated(self, monkeypatch):
        rule = toy_rule_model()
        monkeypatch.setattr(detection, "window_scores", lambda r, clip: ((0.0, 0.995),))
        cal = detection.calibrate_thresholds(rule, self.fake_negatives(2))
        assert cal.tau_right == 0.99
        assert cal.right_saturated
        assert not cal.wrong_saturated

    def test_empty_negatives_rejected(self):
        with pytest.raises(DetectionError, match="threshold calibration requires rule-free clips"):
            detection.calibrate_thresholds(toy_rule_model(), [])

    def test_zero_false_positives_on_calibration_set(self, small_corpus, small_model):
        root, entries = small_corpus
        free = [e for e in entries if e.rule_id == "edgham_meem" and e.polarity is None
                and "verse" in e.path]
        windows = []
        for e in free:
            clip = audio.load_wav(os.path.join(root, e.path))
            windows.extend(w for _, w in audio.slide_windows(clip))
        cal = detection.calibrate_thresholds(small_model, windows)
        gated = replace(small_model, tau_right=cal.tau_right, tau_wrong=cal.tau_wrong)
        for e in free:
            report = detection.detect(gated, audio.load_wav(os.path.join(root, e.path)))
            assert report.verdict is None

    def test_recordings_calibrate_as_their_windows(self, small_corpus, small_model):
        root, entries = small_corpus
        free = [audio.load_wav(os.path.join(root, e.path)) for e in entries
                if e.rule_id == "edgham_meem" and e.polarity is None]
        windows = [w for clip in free for _, w in audio.slide_windows(clip)]
        assert len(windows) > len(free)
        assert detection.calibrate_thresholds(small_model, free) == \
            detection.calibrate_thresholds(small_model, windows)


class TestEvaluate:
    def test_echo_oracle_has_no_errors(self, small_corpus, small_model, monkeypatch):
        # each clip's feature row is its label, and the scorer echoes it
        root, entries = small_corpus
        test = [e for e in entries if e.rule_id == "edgham_meem" and e.split == "test"
                and e.polarity and e.onset_s is None]
        label = {dataset.resolve_path(root, e.path): float(e.polarity == "Right") for e in test}
        monkeypatch.setattr(detection, "exemplar_features",
                            lambda paths, config: np.array([[label[p]] for p in paths]))
        monkeypatch.setattr(detection, "p_right", lambda rule, X: X[:, 0])
        result = detection.evaluate([small_model], test, root)
        table = result.tables[0]
        assert (table.fp, table.fn) == (0, 0)
        assert table.tp == sum(e.polarity == "Right" for e in test)
        assert table.tn == sum(e.polarity == "Wrong" for e in test)
        assert result.accuracy == 1.0

    def test_one_scoring_call_per_rule(self, small_corpus, small_model, decision_calls):
        root, entries = small_corpus
        # a second rule: the same SVM under the other rule's name
        rules = [small_model, replace(small_model, rule_id="tarqeeq_lam")]
        test = [e for e in entries if e.split == "test" and e.polarity and e.onset_s is None]
        result = detection.evaluate(rules, test, root)
        assert len(decision_calls) == len(rules) == len(result.tables)
        assert sum(len(X) for X in decision_calls) == len(test)

    def test_trained_model_separates_test_split(self, small_corpus, small_model):
        # sanity bound at this corpus size; the >= 0.95 gate runs at full
        # scale in the acceptance suite
        root, entries = small_corpus
        test = [e for e in entries if e.rule_id == "edgham_meem" and e.split == "test"
                and e.polarity and e.onset_s is None]
        result = detection.evaluate([small_model], test, root)
        assert result.tables[0].accuracy >= 0.8

    def test_missing_model(self, small_corpus, small_model):
        # the model's rule has no test-split exemplar among these entries
        root, entries = small_corpus
        bad = [replace(entries[0], rule_id="tafkheem_lam", polarity="Right")]
        with pytest.raises(DatasetError, match="no test-split exemplars for edgham_meem"):
            detection.evaluate([small_model], bad, root)

    def test_selects_each_rules_test_exemplars_itself(self, small_corpus, small_model):
        # the whole manifest also holds train rows, verses, rule-free clips
        # and the other rule's rows
        root, entries = small_corpus
        test = [e for e in entries if e.rule_id == "edgham_meem" and e.split == "test"
                and e.polarity and e.onset_s is None]
        assert len(test) < len(entries)
        assert detection.evaluate([small_model], entries, root) == \
            detection.evaluate([small_model], test, root)

    def test_table_format_matches_published_layout(self, small_corpus, small_model):
        root, entries = small_corpus
        test = [e for e in entries if e.rule_id == "edgham_meem" and e.split == "test"
                and e.polarity and e.onset_s is None]
        text = detection.format_confusion_tables(detection.evaluate([small_model], test, root))
        for column in ("Rule Name", "True Positive", "False Positive",
                       "True Negative", "False Negative"):
            assert column in text
        assert "Edgham Meem" in text


class TestTimeline:
    def test_rows_per_window_with_verdict_flag(self, small_corpus, small_model):
        root, entries = small_corpus
        e = next(e for e in entries if e.rule_id == "edgham_meem" and e.onset_s is not None)
        clip = audio.load_wav(os.path.join(root, e.path))
        report = detection.detect(small_model, clip)
        rows = detection.timeline_rows(report, small_model, truth_s=e.onset_s)
        assert len(rows) == len(report.window_scores)
        assert sum(r["verdict"] for r in rows) == (1 if report.verdict else 0)
        assert all(r["truth_s"] == e.onset_s for r in rows)
        assert all(r["tau_right"] == small_model.tau_right for r in rows)
        flagged = [r for r in rows if r["verdict"]]
        if report.verdict:
            assert flagged[0]["offset_s"] == report.verdict.offset_s
            assert flagged[0]["gated"] == 1
