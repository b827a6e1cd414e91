"""Sliding-window rule detection.

A recording is cut into audio.WINDOW_S windows every audio.STRIDE_S and framed
once; each window is pooled from its frames, scored by the rule's SVM and
calibrated to p_right in [0, 1]. A window is a Right candidate when p_right
clears tau_right and a Wrong candidate when (1 - p_right) clears tau_wrong. The
verdict is the candidate with the highest gated score, earliest offset on ties;
no surviving candidate means no verdict. Thresholds are calibrated so that
rule-free material produces zero verdicts by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import audio, dataset, features, svm
from .errors import ConfigMismatch, EmptyNegatives, MissingModel

THRESHOLD_MARGIN = 0.01
THRESHOLD_FLOOR = 0.5
THRESHOLD_CEIL = 0.99


@dataclass(frozen=True)
class RuleModel:
    """Everything needed to score one rule: SVM, calibration, thresholds."""

    rule_id: str
    svm: svm.SvmModel
    calibration: tuple[float, float]
    tau_right: float
    tau_wrong: float
    feature_config: features.FeatureConfig
    config_fingerprint: str
    dataset_hash: str = ""
    train_seed: int = 0

    def __post_init__(self):
        if not self.rule_id:
            raise ValueError("rule_id must be a non-empty identifier")
        if not (THRESHOLD_FLOOR <= self.tau_right <= 1.0):
            raise ValueError("tau_right must lie in [0.5, 1]")
        if not (THRESHOLD_FLOOR <= self.tau_wrong <= 1.0):
            raise ValueError("tau_wrong must lie in [0.5, 1]")
        if self.feature_config.fingerprint() != self.config_fingerprint:
            raise ConfigMismatch(f"model for {self.rule_id} carries a stale feature fingerprint")


@dataclass(frozen=True)
class Detection:
    offset_s: float
    polarity: str               # "Right" or "Wrong"
    score: float                # the gated side's score
    closeness_pct: int          # round(100 * p_right)


@dataclass(frozen=True)
class DetectionReport:
    rule_id: str
    verdict: Detection | None
    window_scores: tuple[tuple[float, float], ...]   # (offset_s, p_right)


def load_exemplar(path, config: features.FeatureConfig) -> audio.AudioClip:
    """A WAV file as one analysis window: at the config's rate, cut or
    zero-padded to one analysis window (seed 0)."""
    clip = audio.load_clip(path, config.sample_rate_hz)
    return audio.normalize_duration(clip, audio.WINDOW_S, seed=0)


def p_right(rule: RuleModel, vector: np.ndarray) -> float:
    """Calibrated p_right for one window's feature vector."""
    f = svm.decision_values(rule.svm, vector)
    return float(svm.calibrated_probability(f, rule.calibration)[0])


def predict_window(rule: RuleModel, window: audio.AudioClip) -> float:
    """Calibrated p_right for one analysis window."""
    return p_right(rule, features.extract_features(window, rule.feature_config))


def window_scores(rule: RuleModel, recording: audio.AudioClip):
    """((offset_s, p_right), ...) for each window of audio.window_layout, as predict_window."""
    clip, window_n, starts = audio.window_layout(recording)
    vectors = features.window_features(clip, starts, window_n, rule.feature_config)
    return tuple((start / clip.sample_rate_hz, p_right(rule, v))
                 for start, v in zip(starts, vectors))


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
    return DetectionReport(rule_id=rule.rule_id, verdict=verdict, window_scores=scores)


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

    `negatives` are rule-free clips, scored window by window as by detect.
    How many positives the taus let through is for the caller to measure.
    """
    if not negatives:
        raise EmptyNegatives("threshold calibration requires rule-free clips")
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
        total = self.tp + self.fp + self.tn + self.fn
        return (self.tp + self.tn) / total if total else 0.0


@dataclass(frozen=True)
class EvaluationResult:
    tables: tuple[ConfusionTable, ...]
    accuracy: float


def evaluate(rules, entries, audio_root, predict_fn=None) -> EvaluationResult:
    """Clip-level confusion per rule over labeled manifest entries.

    Right-labeled clips are the positives; Wrong-labeled clips the
    negatives. Each clip is classified Right when p_right >= 0.5 (the
    model's raw vote, ungated). `predict_fn(entry, clip) -> "Right"|"Wrong"`
    overrides the model, e.g. for echo-oracle sanity checks.
    """
    by_rule = {r.rule_id: r for r in rules}
    counts = {rid: [0, 0, 0, 0] for rid in by_rule}  # tp, fp, tn, fn
    for entry in entries:
        if entry.polarity not in ("Right", "Wrong"):
            continue
        if entry.rule_id not in by_rule:
            raise MissingModel(f"no model for rule {entry.rule_id}")
        rule = by_rule[entry.rule_id]
        clip = load_exemplar(dataset.resolve_path(audio_root, entry.path), rule.feature_config)
        if predict_fn is not None:
            predicted = predict_fn(entry, clip)
        else:
            predicted = "Right" if predict_window(rule, clip) >= 0.5 else "Wrong"

        c = counts[entry.rule_id]
        if entry.polarity == "Right":
            if predicted == "Right":
                c[0] += 1
            else:
                c[3] += 1
        else:
            if predicted == "Right":
                c[1] += 1
            else:
                c[2] += 1

    tables = tuple(
        ConfusionTable(rid, *counts[rid]) for rid in sorted(counts) if sum(counts[rid])
    )
    total = sum(t.tp + t.fp + t.tn + t.fn for t in tables)
    correct = sum(t.tp + t.tn for t in tables)
    return EvaluationResult(tables=tables, accuracy=correct / total if total else 0.0)


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
