"""The three benchmark workloads: seeded inputs, the operator commands that
run on them, and the check each command's output must pass.

`setup` writes a workload's files: every input comes from the workload seed
through `dataset.synth_generate` and `dataset.split`, and the models the
workload reads are trained with `tajweed train`. `load` turns those files
into ops. Each op is one `tajweed` command given to `cli.main` exactly as an
operator would type it. An op's check returns its share of wrong output:
0 or 1 for one verdict or one model, 1 - accuracy for an evaluate.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import time
import wave
from dataclasses import dataclass
from typing import Callable

import numpy as np

import calibration
from tajweed import cli, dataset, persistence

# criterion 5 of the acceptance suite: a verdict within 0.5 s of the onset
ONSET_TOLERANCE_S = 0.5
TRAIN_FRACTION = 0.7
C, GAMMA = "1.0", "0.1"
# Verse lengths are fixed or stratified rather than drawn per verse, so the
# work in a run does not move with the seed. Training corpora hold rule-free
# material only as verses of one length, so the split always puts the same
# number of calibration windows in train; detect_verses puts one verse per
# cell in each of verses_per_cell equal length strata.
TRAIN_VERSE_S = 12.5
DETECT_VERSE_S = (10.0, 15.0)

# Corpus sizes. "full" is what the benchmark runs; "tiny" keeps the bench's
# own tests fast. verses_per_cell is per rule and per kind (Right event,
# Wrong event, rule-free), so detect_verses gets 2 * 3 * verses_per_cell
# recordings.
SIZES = {
    "full": {"clips_per_class": 20, "free_per_rule": 3, "verses_per_cell": 17,
             "clips_per_class_16k": 16},
    "tiny": {"clips_per_class": 14, "free_per_rule": 3, "verses_per_cell": 1,
             "clips_per_class_16k": 5},
}

# Highest share of wrong outputs a correct run may have. Training must be
# exact. The models here learn from 20 exemplars per class, not the paper's
# 80, and on some seeds miss a few of the 102 verses or 2-3 of the 24 test
# clips; broken scoring or gating reads 0.5 or worse on these balanced sets.
MAX_ERROR_RATE = {"detect_verses": 0.15, "train_rules_16k": 0.0, "evaluate_clips": 0.25}

# calibration samples before and after each timed set-up
SETUP_CALIBRATION_SAMPLES = 10

_VERDICT = re.compile(r"^(Right|Wrong) (\d+)% at ([0-9.]+)s$")


@dataclass
class Op:
    argv: list[str]
    audio_s: float                      # seconds of audio the op reads
    check: Callable[[int, str], float]  # (exit code, stdout) -> share wrong


@dataclass
class Workload:
    ops: list[Op]
    min_passes: int = 1


def _seeds(seed: int) -> dict:
    names = ("corpus", "split", "train", "verses", "order")
    return dict(zip(names, (int(s) for s in
                            np.random.SeedSequence(seed).generate_state(len(names)))))


def wav_seconds(path) -> float:
    with wave.open(path, "rb") as fh:
        return fh.getnframes() / fh.getframerate()


def _recipe(sample_rate_hz: int = 8000) -> dict:
    recipe = dataset.default_recipe()
    recipe["sample_rate_hz"] = sample_rate_hz
    return recipe


def _rules() -> list[str]:
    return sorted(dataset.default_recipe()["classes"])


def _paths(root) -> dict:
    corpus = os.path.join(root, "corpus")
    return {
        "corpus": corpus,
        "manifest": os.path.join(corpus, dataset.MANIFEST_NAME),
        "models": {rule: os.path.join(root, "models", f"{rule}.tjm") for rule in _rules()},
        "verses": os.path.join(root, "verses"),
    }


def _run_quiet(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"set-up command failed with exit code {code}: {argv}")


def _train_argv(manifest, rule, seed, model) -> list[str]:
    return ["train", "--manifest", manifest, "--rule", rule, "--c", C, "--gamma", GAMMA,
            "--seed", str(seed), "--model", model]


# --- set-up ----------------------------------------------------------------

def _write_corpus(paths, seeds, sizes, sample_rate_hz, clips_per_class) -> None:
    """Exemplars and rule-free verses, split train/test."""
    recipe = _recipe(sample_rate_hz)
    recipe["verse_seconds_min"] = recipe["verse_seconds_max"] = TRAIN_VERSE_S
    entries = dataset.synth_generate(
        recipe, seeds["corpus"], paths["corpus"],
        clips_per_class=clips_per_class,
        negatives_per_rule=0,
        verses_per_rule=0,
        event_free_per_rule=sizes["free_per_rule"],
    )
    dataset.save_manifest(dataset.split(entries, TRAIN_FRACTION, seeds["split"]),
                          paths["manifest"])


def _write_models(paths, seeds) -> None:
    for rule, model in paths["models"].items():
        os.makedirs(os.path.dirname(model), exist_ok=True)
        _run_quiet(_train_argv(paths["manifest"], rule, seeds["train"], model))


def _setup_detect_verses(paths, seeds, sizes) -> None:
    _write_corpus(paths, seeds, sizes, 8000, sizes["clips_per_class"])
    _write_models(paths, seeds)
    n = sizes["verses_per_cell"]
    lo, hi = DETECT_VERSE_S
    recipe = _recipe()
    for k, seed in enumerate(np.random.SeedSequence(seeds["verses"]).generate_state(n)):
        recipe["verse_seconds_min"] = lo + (hi - lo) * k / n
        recipe["verse_seconds_max"] = lo + (hi - lo) * (k + 1) / n
        dataset.synth_generate(recipe, int(seed), os.path.join(paths["verses"], f"{k:03d}"),
                               clips_per_class=0, negatives_per_rule=0,
                               verses_per_rule=1, event_free_per_rule=1)


def _setup_evaluate_clips(paths, seeds, sizes) -> None:
    _write_corpus(paths, seeds, sizes, 8000, sizes["clips_per_class"])
    _write_models(paths, seeds)


def _setup_train_rules_16k(paths, seeds, sizes) -> None:
    _write_corpus(paths, seeds, sizes, 16000, sizes["clips_per_class_16k"])


# --- ops -------------------------------------------------------------------

def detect_verdict_check(entry: dataset.ManifestEntry):
    def check(code: int, stdout: str) -> float:
        lines = stdout.splitlines()
        first = lines[0].strip() if lines else ""
        if first == "none":
            return float(entry.onset_s is not None)
        match = _VERDICT.match(first)
        if match is None or entry.onset_s is None:
            return 1.0
        polarity, offset = match.group(1), float(match.group(3))
        ok = (polarity == entry.polarity
              and abs(offset - entry.onset_s) <= ONSET_TOLERANCE_S + 1e-9)
        return float(not ok)
    return check


def _load_detect_verses(paths, seeds) -> Workload:
    """Held-out verses with a Right event, a Wrong event, or no event; one
    detect per verse, in seeded order."""
    ops = []
    for stratum in sorted(os.listdir(paths["verses"])):
        verse_dir = os.path.join(paths["verses"], stratum)
        for e in dataset.load_manifest(os.path.join(verse_dir, dataset.MANIFEST_NAME)):
            path = os.path.join(verse_dir, e.path)
            ops.append(Op(["detect", "--audio", path, "--rule", e.rule_id,
                           "--model", paths["models"][e.rule_id]],
                          wav_seconds(path), detect_verdict_check(e)))
    np.random.default_rng(seeds["order"]).shuffle(ops)
    return Workload(ops)


def _load_evaluate_clips(paths, seeds) -> Workload:
    """Both models over the 8 kHz test-split 4 s exemplars, in one evaluate."""
    entries = dataset.load_manifest(paths["manifest"])
    test = [e for e in entries if e.split == "test" and e.polarity in dataset.POLARITIES]

    def check(code: int, stdout: str) -> float:
        seen = wrong = 0
        for line in stdout.splitlines():
            counts = line.split()[-4:]
            if len(counts) == 4 and all(c.isdigit() for c in counts):
                tp, fp, tn, fn = map(int, counts)
                seen += tp + fp + tn + fn
                wrong += fp + fn
        if seen != len(test):
            return 1.0
        return wrong / seen

    argv = ["evaluate", "--manifest", paths["manifest"]]
    for model in paths["models"].values():
        argv += ["--model", model]
    audio_s = sum(wav_seconds(os.path.join(paths["corpus"], e.path)) for e in test)
    return Workload([Op(argv, audio_s, check)])


def _load_train_rules_16k(paths, seeds) -> Workload:
    """One train per rule on the 16 kHz corpus; every clip is resampled to
    the 8 kHz feature rate. Each rule trains in every pass and a run makes
    two passes or more, so the check sees whether models repeat byte for
    byte."""
    entries = dataset.load_manifest(paths["manifest"])
    reference: dict[str, bytes] = {}

    def model_check(rule, path):
        def check(code: int, stdout: str) -> float:
            try:
                model = persistence.load_model(path)
                with open(path, "rb") as fh:
                    data = fh.read()
            except Exception:       # a model that does not reload is a wrong output
                return 1.0
            first = reference.setdefault(rule, data)
            return float(model.rule_id != rule or data != first)
        return check

    ops = []
    for rule, model in paths["models"].items():
        os.makedirs(os.path.dirname(model), exist_ok=True)
        read = [e for e in entries if e.rule_id == rule and e.split == "train"
                and e.onset_s is None]
        audio_s = sum(wav_seconds(os.path.join(paths["corpus"], e.path)) for e in read)
        ops.append(Op(_train_argv(paths["manifest"], rule, seeds["train"], model),
                      audio_s, model_check(rule, model)))
    return Workload(ops, min_passes=2)


SETUPS = {
    "detect_verses": (_setup_detect_verses, _load_detect_verses),
    "train_rules_16k": (_setup_train_rules_16k, _load_train_rules_16k),
    "evaluate_clips": (_setup_evaluate_clips, _load_evaluate_clips),
}


def setup(name: str, root: str, seed: int, size: str = "full") -> None:
    """Write the workload's corpus and models into a fresh `root`."""
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    SETUPS[name][0](_paths(root), _seeds(seed), SIZES[size])


def timed_setups(name: str, root: str, seed: int, size: str, repeats: int) -> dict:
    """Reference, CPU and wall seconds of each of `repeats` set-ups; the last
    one's files stay. Each set-up is scaled by calibration samples taken just
    before and after it."""
    times = {"reference_s": [], "cpu_s": [], "wall_s": []}
    calibration.sample()
    for _ in range(repeats):
        samples = [calibration.sample() for _ in range(SETUP_CALIBRATION_SAMPLES)]
        start, cpu_start = time.perf_counter(), time.process_time()
        setup(name, root, seed, size)
        cpu_s = time.process_time() - cpu_start
        times["wall_s"].append(time.perf_counter() - start)
        samples += [calibration.sample() for _ in range(SETUP_CALIBRATION_SAMPLES)]
        times["cpu_s"].append(cpu_s)
        times["reference_s"].append(cpu_s * calibration.scale(samples))
    return times


def load(name: str, root: str, seed: int) -> Workload:
    """The ops over the files `setup` wrote into `root`."""
    return SETUPS[name][1](_paths(root), _seeds(seed))
