"""Sliding-window rule detection.

features.extract_features turns a recording into one feature row per
audio.WINDOW_S window every audio.STRIDE_S (a 4 s training exemplar is one
such window); each row is standardized by the rule's scaler, scored by its SVM
and calibrated to p_right in [0, 1]. A window is a Right candidate when p_right
clears tau_right and a Wrong candidate when (1 - p_right) clears tau_wrong. The
verdict is the candidate with the highest gated score, earliest offset on
ties; no surviving candidate means no verdict. Thresholds are calibrated so
that rule-free material produces zero verdicts by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import audio, dataset, features, svm
from .errors import DatasetError, DetectionError

THRESHOLD_MARGIN = 0.01
THRESHOLD_FLOOR = 0.5
THRESHOLD_CEIL = 0.99


@dataclass(frozen=True)
class RuleModel:
    """Everything needed to score one rule: the feature config and scaler of
    its rows, the SVM on the standardized rows, calibration and thresholds."""

    rule_id: str
    svm: svm.SvmModel
    calibration: tuple[float, float]
    tau_right: float
    tau_wrong: float
    feature_config: features.FeatureConfig
    scaler: features.Scaler
    dataset_hash: str = ""
    train_seed: int = 0

    def __post_init__(self):
        if not self.rule_id:
            raise ValueError("rule_id must be a non-empty identifier")
        if not (THRESHOLD_FLOOR <= self.tau_right <= 1.0):
            raise ValueError("tau_right must lie in [0.5, 1]")
        if not (THRESHOLD_FLOOR <= self.tau_wrong <= 1.0):
            raise ValueError("tau_wrong must lie in [0.5, 1]")


@dataclass(frozen=True)
class Detection:
    offset_s: float
    polarity: str               # "Right" or "Wrong"
    score: float                # the gated side's score
    closeness_pct: int          # round(100 * p_right)


@dataclass(frozen=True)
class DetectionReport:
    verdict: Detection | None
    window_scores: tuple[tuple[float, float], ...]   # (offset_s, p_right)


def exemplar_features(paths, config: features.FeatureConfig) -> np.ndarray:
    """One feature row per WAV file, each read as one analysis window: at the
    rate features.SAMPLE_RATE_HZ, cut or zero-padded to audio.WINDOW_S (seed 0)."""
    clips = (audio.normalize_duration(audio.load_clip(path, features.SAMPLE_RATE_HZ))
             for path in paths)
    return np.vstack([features.extract_features(clip, config) for clip in clips])


def exemplars(entries, audio_root, rule_id, split, config: features.FeatureConfig):
    """A rule's labeled 4 s exemplars of one split: (entries, feature rows,
    labels), label +1 for Right and -1 for Wrong. Raises DatasetError when
    the manifest holds none."""
    chosen = [e for e in entries
              if e.rule_id == rule_id and e.split == split
              and e.polarity in dataset.POLARITIES and e.onset_s is None]
    if not chosen:
        raise DatasetError(f"manifest has no {split}-split exemplars for {rule_id}")
    X = exemplar_features([dataset.resolve_path(audio_root, e.path) for e in chosen], config)
    y = np.array([1.0 if e.polarity == "Right" else -1.0 for e in chosen])
    return chosen, X, y


def p_right(rule: RuleModel, X) -> np.ndarray:
    """Calibrated p_right for each feature row of X, standardized and scored in one call."""
    f = svm.decision_values(rule.svm, rule.scaler.apply(X))
    return svm.calibrated_probability(f, rule.calibration)


def window_scores(rule: RuleModel, recording: audio.AudioClip):
    """((offset_s, p_right), ...) for each row of extract_features; row w's
    window starts at w * audio.STRIDE_S."""
    p = p_right(rule, features.extract_features(recording, rule.feature_config))
    return tuple((w * audio.STRIDE_S, q) for w, q in enumerate(p.tolist()))


def gated(rule: RuleModel, p: float):
    """(polarity, score) for each side of p_right that clears its threshold."""
    sides = (("Right", p, rule.tau_right), ("Wrong", 1.0 - p, rule.tau_wrong))
    return [(polarity, score) for polarity, score, tau in sides if score >= tau]


def detect(rule: RuleModel, recording: audio.AudioClip) -> DetectionReport:
    """Score every window, gate by the rule's thresholds, pick one verdict."""
    scores = window_scores(rule, recording)

    verdict = None
    best = -1.0
    for offset, p in scores:
        for polarity, score in gated(rule, p):
            if score > best:
                best = score
                verdict = Detection(
                    offset_s=offset,
                    polarity=polarity,
                    score=score,
                    closeness_pct=int(round(100.0 * p)),
                )
    return DetectionReport(verdict=verdict, window_scores=scores)


@dataclass(frozen=True)
class ThresholdCalibration:
    tau_right: float
    tau_wrong: float
    right_saturated: bool
    wrong_saturated: bool


def calibrate_thresholds(rule: RuleModel, negatives) -> ThresholdCalibration:
    """Choose (tau_right, tau_wrong) giving zero false positives on the
    calibration negatives: each tau sits one margin above the worst negative
    window score, floored at 0.5 and clamped at 0.99 (saturation is flagged).

    `negatives` are rule-free clips, each scored by window_scores as by detect.
    How many positives the taus let through is for the caller to measure.
    """
    if not negatives:
        raise DetectionError("threshold calibration requires rule-free clips")
    neg_p = np.array([p for clip in negatives for _, p in window_scores(rule, clip)])

    raw_right = max(THRESHOLD_FLOOR, float(neg_p.max()) + THRESHOLD_MARGIN)
    raw_wrong = max(THRESHOLD_FLOOR, float((1.0 - neg_p).max()) + THRESHOLD_MARGIN)
    return ThresholdCalibration(
        tau_right=min(raw_right, THRESHOLD_CEIL),
        tau_wrong=min(raw_wrong, THRESHOLD_CEIL),
        right_saturated=raw_right > THRESHOLD_CEIL,
        wrong_saturated=raw_wrong > THRESHOLD_CEIL,
    )


@dataclass(frozen=True)
class ConfusionTable:
    rule_id: str
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / (self.tp + self.fp + self.tn + self.fn)


@dataclass(frozen=True)
class EvaluationResult:
    tables: tuple[ConfusionTable, ...]
    accuracy: float


def evaluate(rules, entries, audio_root) -> EvaluationResult:
    """Clip-level confusion per rule over its test-split exemplars.

    A rule may have only one model: two models of one rule_id raise
    DetectionError before any clip is read. Each rule selects its own
    test-split exemplars from the manifest entries through exemplars, which
    raises DatasetError for a rule with none. Right-labeled clips are the
    positives; Wrong-labeled clips the negatives. Each rule's clips are
    scored in one call; a clip is classified Right when p_right >= 0.5 (the
    model's raw vote, ungated).
    """
    rules = sorted(rules, key=lambda r: r.rule_id)
    for a, b in zip(rules, rules[1:]):
        if a.rule_id == b.rule_id:
            raise DetectionError(f"two models for {a.rule_id}; evaluate takes one per rule")
    tables = []
    for rule in rules:
        _, X, y = exemplars(entries, audio_root, rule.rule_id, "test", rule.feature_config)
        voted = p_right(rule, X) >= 0.5
        right = y > 0
        tables.append(ConfusionTable(rule.rule_id, tp=int(np.sum(voted & right)),
                                     fp=int(np.sum(voted & ~right)),
                                     tn=int(np.sum(~voted & ~right)),
                                     fn=int(np.sum(~voted & right))))
    total = sum(t.tp + t.fp + t.tn + t.fn for t in tables)
    correct = sum(t.tp + t.tn for t in tables)
    return EvaluationResult(tables=tuple(tables), accuracy=correct / total)


def format_confusion_tables(result: EvaluationResult) -> str:
    """Render per-rule rows in the confusion-table layout."""
    header = ("Rule Name", "True Positive", "False Positive", "True Negative", "False Negative")
    rows = [header]
    for t in result.tables:
        name = " ".join(part.capitalize() for part in t.rule_id.split("_"))
        rows.append((name, str(t.tp), str(t.fp), str(t.tn), str(t.fn)))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.append(f"Overall accuracy: {result.accuracy:.4f}")
    return "\n".join(lines)


def timeline_rows(report: DetectionReport, rule: RuleModel, truth_s: float | None = None):
    """Plot-ready rows: one per window plus the verdict flag.

    Columns: offset_s, p_right, tau_right, tau_wrong, gated, verdict
    (+ truth_s when a reference onset is supplied).
    """
    rows = []
    verdict_offset = report.verdict.offset_s if report.verdict else None
    for offset, p in report.window_scores:
        row = {
            "offset_s": offset,
            "p_right": p,
            "tau_right": rule.tau_right,
            "tau_wrong": rule.tau_wrong,
            "gated": int(bool(gated(rule, p))),
            "verdict": int(verdict_offset == offset),
        }
        if truth_s is not None:
            row["truth_s"] = truth_s
        rows.append(row)
    return rows
