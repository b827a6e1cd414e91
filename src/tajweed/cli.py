"""Operator CLI: synthesize corpora, split, train, tune, evaluate, detect,
and manage the expert review queue.

Commands are deterministic given their explicit --seed; synth/split/train
refuse to run without one. Diagnostics go to stderr, data to files or
stdout. Each error family exits with its own code (its exit_code).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import audio, dataset, detection, features, persistence, svm
from .errors import DatasetError, DetectionError, IoError, ParseError, TajweedError

CAL_HOLDOUT_FRACTION = 0.2


def _entry_rows(entries):
    return "\n".join(
        f"{e.path},{e.rule_id},{e.polarity or ''},{e.onset_s if e.onset_s is not None else ''}"
        for e in entries
    )


def train_rule_model(entries, audio_root, rule_id, C, gamma, seed,
                     config: features.FeatureConfig | None = None):
    """Full training pipeline for one rule: features -> scaler -> SMO ->
    Platt calibration on a stratified 20% holdout -> thresholds from the
    train-split rule-free windows. Returns (RuleModel, summary dict of what
    the model does not hold: holdout_accuracy, positive_coverage, saturated).
    """
    config = config or features.FeatureConfig()
    train_entries, X, y = detection.exemplars(entries, audio_root, rule_id, "train", config)
    for polarity in dataset.POLARITIES:
        if not any(e.polarity == polarity for e in train_entries):
            raise DatasetError(f"no train-split {polarity} exemplars for {rule_id}")

    # stratified calibration holdout, never used to fit the SVM
    rng = np.random.default_rng(seed)
    hold = np.zeros(len(y), dtype=bool)
    for cls in (-1.0, 1.0):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        n_hold = max(1, round(CAL_HOLDOUT_FRACTION * len(idx)))
        hold[idx[:n_hold]] = True

    scaler = features.fit_scaler(X[~hold])
    Xs = scaler.apply(X)
    model = svm.train(Xs[~hold], y[~hold], C, gamma)
    holdout_f = svm.decision_values(model, Xs[hold])
    holdout_acc = float(np.mean(np.sign(holdout_f) == y[hold]))
    calibration = svm.platt_fit(holdout_f, y[hold])

    neg_entries = [e for e in entries
                   if e.rule_id == rule_id and e.split == "train" and e.polarity is None]
    negatives = [audio.load_clip(os.path.join(audio_root, e.path)) for e in neg_entries]

    dataset_hash = hashlib.sha256(
        (_entry_rows(train_entries + neg_entries) + config.fingerprint()).encode()
    ).hexdigest()
    rule_model, saturated = detection.calibrate_thresholds(detection.RuleModel(
        rule_id=rule_id, svm=model, calibration=calibration, tau_right=0.5, tau_wrong=0.5,
        feature_config=config, scaler=scaler, dataset_hash=dataset_hash, train_seed=seed,
    ), negatives)
    # share of holdout Right clips that a detect with these taus would gate in;
    # each clip is one window, so its holdout score is its window's score
    coverage = float(np.mean([bool(detection.gated(rule_model, p)) for p in
                              svm.calibrated_probability(holdout_f[y[hold] > 0], calibration)]))
    summary = {"holdout_accuracy": holdout_acc, "positive_coverage": coverage,
               "saturated": saturated}
    return rule_model, summary


def _manifest_root(path) -> str:
    return os.path.dirname(os.path.abspath(path))


def _cmd_synth(args) -> int:
    if args.write_spec:
        dataset.write_file(args.write_spec, json.dumps(
            dataset.default_recipe(), indent=2, sort_keys=True).encode() + b"\n")
        print(f"recipe written to {args.write_spec}")
        return 0
    if args.spec:
        with open(args.spec, encoding="utf-8") as fh:
            try:
                entries = dataset.synth_generate(json.load(fh), args.seed, args.out)
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                raise ParseError(f"{args.spec}: malformed recipe: {exc!r}") from exc
    else:
        entries = dataset.synth_generate(dataset.default_recipe(), args.seed, args.out)
    print(f"{len(entries)} entries written to {args.out}")
    return 0


def _cmd_split(args) -> int:
    entries = dataset.load_manifest(args.manifest)
    entries = dataset.split(entries, args.fraction, args.seed)
    out = args.out or args.manifest
    dataset.save_manifest(entries, out)
    n_train = sum(1 for e in entries if e.split == "train")
    print(f"{n_train} train / {len(entries) - n_train} test -> {out}")
    return 0


def _cmd_train(args) -> int:
    entries = dataset.load_manifest(args.manifest)
    rule_model, summary = train_rule_model(
        entries, _manifest_root(args.manifest), args.rule,
        args.c, args.gamma, args.seed, features.FeatureConfig(aggregation=args.agg),
    )
    persistence.save_model(rule_model, args.model)
    print(f"rule={rule_model.rule_id} support_vectors={len(rule_model.svm.support_vectors)} "
          f"holdout_accuracy={summary['holdout_accuracy']:.4f} "
          f"tau_right={rule_model.tau_right:.4f} tau_wrong={rule_model.tau_wrong:.4f} "
          f"positive_coverage={summary['positive_coverage']:.4f}")
    if summary["saturated"]:
        print("warning: a threshold clamped at 0.99; negatives score close to certain",
              file=sys.stderr)
    if summary["positive_coverage"] == 0.0:
        print("warning: tau_right gates out every holdout Right clip", file=sys.stderr)
    return 0


def _cmd_gridsearch(args) -> int:
    entries = dataset.load_manifest(args.manifest)
    _, X, y = detection.exemplars(entries, _manifest_root(args.manifest), args.rule, "train",
                                  features.FeatureConfig(aggregation=args.agg))
    scaler = features.fit_scaler(X)
    best, table = svm.grid_search(scaler.apply(X), y, C_grid=args.c_grid,
                                  gamma_grid=args.gamma_grid, k_folds=args.folds, seed=args.seed)
    print("C,gamma,cv_accuracy")
    for cell in table:
        print(f"{cell.C},{cell.gamma},{cell.accuracy:.4f}")
    print(f"best: C={best.C} gamma={best.gamma}")
    return 0


def _cmd_evaluate(args) -> int:
    entries = dataset.load_manifest(args.manifest)
    rules = [persistence.load_model(p) for p in args.model]
    tables = detection.evaluate(rules, entries, _manifest_root(args.manifest))
    print(detection.format_confusion_tables(tables))
    if args.out:
        dataset.write_csv(args.out, [["rule_id", "tp", "fp", "tn", "fn", "accuracy"], *(
            [t.rule_id, t.tp, t.fp, t.tn, t.fn, f"{t.accuracy:.6f}"] for t in tables)])
    return 0


def _cmd_detect(args) -> int:
    rule = persistence.load_model(args.model)
    if args.rule != rule.rule_id:
        raise DetectionError(f"model is for {rule.rule_id}, not {args.rule}")
    clip = audio.load_clip(args.audio)
    report = detection.detect(rule, clip)

    if report.verdict is None:
        print("none")
        offset, p = max(report.window_scores,  # nearest to clearing a gate
                        key=lambda s: max(s[1] - rule.tau_right, 1.0 - s[1] - rule.tau_wrong))
        print(f"none: best p_right={p:.4f} at {offset:.1f}s is {rule.tau_right - p:.4f} below "
              f"tau_right={rule.tau_right:.4f}; 1-p_right is {rule.tau_wrong - (1.0 - p):.4f} "
              f"below tau_wrong={rule.tau_wrong:.4f}", file=sys.stderr)
    else:
        v = report.verdict
        print(f"{v.polarity} {v.closeness_pct}% at {v.offset_s:.1f}s")

    if args.out:
        rows = detection.timeline_rows(report, rule, truth_s=args.truth)
        dataset.write_csv(args.out, [list(rows[0]), *(row.values() for row in rows)])
    if args.verdict_out:
        verdict = {"audio_path": args.audio, "rule_id": rule.rule_id,
                   "verdict": report.verdict and vars(report.verdict)}
        dataset.write_file(args.verdict_out, json.dumps(verdict, sort_keys=True).encode() + b"\n")
    return 0


def _cmd_review(args) -> int:
    if args.review_cmd == "append":
        with open(args.verdict, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"{args.verdict}: unreadable verdict JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ParseError(f"{args.verdict}: verdict JSON must be an object")
        stored = dataset.review_append(args.queue, dataset.ReviewRecord(
            None, payload.get("audio_path"), payload.get("rule_id"), payload.get("verdict")))
        print(f"record {stored.record_id} appended")
    elif args.review_cmd == "list":
        for r in dataset.review_list(args.queue, status=args.status):
            print(json.dumps(vars(r), sort_keys=True))
    else:
        r = dataset.review_label(args.queue, args.id, args.status,
                                 label=args.label, force=args.force)
        print(f"record {r.record_id} -> {r.status}")
    return 0


def _checked(convert, ok, what):
    """An argparse type: convert(text) if ok accepts it, else a usage error (exit 2)
    naming the option, raised at parse time, before any clip is read."""
    def parse(text):
        try:
            if ok(convert(text)):
                return convert(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return parse


_time_s = _checked(float, lambda t: 0.0 <= t < float("inf"), "a finite time >= 0")  # onset_s
_seed = _checked(int, lambda n: n >= 0, "an integer >= 0")  # numpy's seeding
_folds = _checked(int, lambda n: n >= 2, "an integer >= 2")  # svm.grid_search's k_folds
_positive = _checked(float, lambda v: 0.0 < v < float("inf"), "a finite number > 0")  # C, gamma


def _float_list(text):
    return tuple(_positive(x) for x in text.split(","))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every `main`
    call: argparse keeps no state between parses, and callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="tajweed",
        description="Recitation-rule recognition: train, tune, evaluate, detect.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--spec", help="recipe JSON (defaults to the built-in recipe)")
    p.add_argument("--seed", type=_seed, help="generation seed")
    p.add_argument("--out", help="output corpus directory")
    p.add_argument("--write-spec", help="dump the built-in recipe to a file and exit")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("split", help="assign stratified train/test splits")
    p.add_argument("--manifest", required=True)
    p.add_argument("--fraction", type=float, default=dataset.TRAIN_FRACTION)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", help="output manifest (default: in place)")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train one rule model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--c", type=_positive, default=1.0)
    p.add_argument("--gamma", type=_positive, default=0.1)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--agg", choices=features.AGGREGATIONS,
                   default=features.FeatureConfig.aggregation)
    p.add_argument("--model", required=True, help="output model path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("gridsearch", help="cross-validated (C, gamma) search")
    p.add_argument("--manifest", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--folds", type=_folds, default=svm.K_FOLDS)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--c-grid", type=_float_list, default=svm.C_GRID)
    p.add_argument("--gamma-grid", type=_float_list, default=svm.GAMMA_GRID)
    p.add_argument("--agg", choices=features.AGGREGATIONS,
                   default=features.FeatureConfig.aggregation)
    p.set_defaults(func=_cmd_gridsearch)

    p = sub.add_parser("evaluate", help="confusion tables on the test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", action="append", required=True,
                   help="model path (repeatable)")
    p.add_argument("--out", help="optional CSV output")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("detect", help="locate a rule inside a recording")
    p.add_argument("--audio", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="timeline CSV path")
    p.add_argument("--truth", type=_time_s, help="expert onset for the timeline")
    p.add_argument("--verdict-out", help="verdict JSON (feeds review append)")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("review", help="expert review queue")
    rsub = p.add_subparsers(dest="review_cmd", required=True)
    pa = rsub.add_parser("append")
    pa.add_argument("--queue", required=True)
    pa.add_argument("--verdict", required=True, help="verdict JSON from detect")
    pl = rsub.add_parser("list")
    pl.add_argument("--queue", required=True)
    pl.add_argument("--status", choices=dataset.STATUSES)
    pb = rsub.add_parser("label")
    pb.add_argument("--queue", required=True)
    pb.add_argument("--id", type=int, required=True)
    pb.add_argument("--status", required=True, choices=dataset.STATUSES[1:])  # not pending
    pb.add_argument("--label", choices=dataset.POLARITIES)
    pb.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_review)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "synth" and not args.write_spec:
        if args.seed is None or args.out is None:
            parser.error("synth requires --seed and --out")
    try:
        return args.func(args)
    except (TajweedError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code if isinstance(err, TajweedError) else IoError.exit_code
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
