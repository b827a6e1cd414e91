"""Outputs survive a change of BLAS kernel: one reduced session (synth, split,
train of both rules, evaluate, detect of every verse) on OpenBLAS's default
kernel and on OPENBLAS_CORETYPE=Prescott, each in its own process, since
OpenBLAS picks its kernel when it loads.

The corpus, the train and evaluate output and the detect verdict lines must be
identical, and each timeline row the same window with p_right within P_RIGHT_TOL.
Model files, timelines and verdict files (their score) may differ in their last
bits: the kernels round the SVM's and Platt's products differently."""

import csv
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import small_recipe
from tajweed import cli

P_RIGHT_TOL = 1e-12  # Prescott against SkylakeX moved p_right by at most 8.7e-15
RULES = ("edgham_meem", "tarqeeq_lam")
SESSION = """
import contextlib, csv, io, json, sys
from tajweed import cli

def run(name, *argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    results[name] = [code, out.getvalue(), err.getvalue()]

results = {}
rules = sys.argv[1:]
run("synth", "synth", "--spec", "recipe.json", "--seed", "42", "--out", "corpus")
run("split", "split", "--manifest", "corpus/manifest.csv", "--seed", "7")
for rule in rules:
    run(f"train-{rule}", "train", "--manifest", "corpus/manifest.csv", "--rule", rule,
        "--seed", "5", "--model", f"{rule}.model")
run("evaluate", "evaluate", "--manifest", "corpus/manifest.csv",
    *[arg for rule in rules for arg in ("--model", f"{rule}.model")], "--out", "evaluate.csv")
with open("corpus/manifest.csv", newline="") as fh:
    verses = [row for row in csv.DictReader(fh) if "_verse_" in row["path"]]
for row in verses:
    stem = row["path"].rsplit("/", 1)[-1][:-len(".wav")]
    run(f"detect-{stem}", "detect", "--audio", "corpus/" + row["path"], "--rule", row["rule_id"],
        "--model", row["rule_id"] + ".model", "--out", f"timeline_{stem}.csv",
        "--verdict-out", f"verdict_{stem}.json")
with open("results.json", "w") as fh:
    json.dump(results, fh)
"""


def openblas_on_x86_64() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas.get("name", "").lower() and platform.machine() in ("x86_64", "AMD64")


def run_session(run: Path, coretype: str | None):
    """The session's {command: [exit, stdout, stderr]}, its files {path: bytes} and
    the kernel OpenBLAS reports, run in `run` with OPENBLAS_CORETYPE=coretype
    (None: the default kernel)."""
    run.mkdir()
    (run / "recipe.json").write_text(json.dumps(small_recipe()))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(OPENBLAS_VERBOSE="2", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run([sys.executable, "-c", SESSION, *RULES], cwd=run, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    core = next((line.split(":", 1)[1].strip() for line in done.stderr.splitlines()
                 if line.startswith("Core:")), "unreported")
    results = json.loads((run / "results.json").read_text())
    files = {p.relative_to(run).as_posix(): p.read_bytes() for p in sorted(run.rglob("*"))
             if p.is_file() and p.name != "results.json"}
    return results, files, core


def timeline(blob: bytes):
    return list(csv.DictReader(blob.decode().splitlines()))


@pytest.mark.skipif(not openblas_on_x86_64(), reason="needs numpy on OpenBLAS on x86-64")
def test_outputs_survive_a_change_of_blas_kernel(tmp_path):
    (base, base_files, base_core), (other, other_files, other_core) = (
        run_session(tmp_path / "default", None), run_session(tmp_path / "prescott", "Prescott"))
    differ = sorted(p for p in base_files.keys() | other_files.keys()
                    if base_files.get(p) != other_files.get(p))
    print(f"OpenBLAS kernels {base_core} and {other_core}: {len(differ)} of {len(base_files)} "
          f"files differ: {', '.join(differ) or 'none'}")

    assert base.keys() == other.keys() and all(base[name][0] == 0 for name in base), base
    assert not [p for p in differ if p.startswith("corpus/")]
    for name in ("synth", "split", "evaluate", *(f"train-{rule}" for rule in RULES)):
        assert base[name][:2] == other[name][:2], name
    assert base_files["evaluate.csv"] == other_files["evaluate.csv"]
    detects = [name[len("detect-"):] for name in base if name.startswith("detect-")]
    recipe = small_recipe()
    assert len(detects) == len(RULES) * (2 * recipe["verses_per_rule"]
                                         + recipe["event_free_verses_per_rule"])
    worst = 0.0
    for stem in detects:
        assert base[f"detect-{stem}"][1] == other[f"detect-{stem}"][1], stem  # the verdict line
        rows, other_rows = (timeline(files[f"timeline_{stem}.csv"])
                            for files in (base_files, other_files))
        assert [(r["offset_s"], r["gated"], r["verdict"]) for r in rows] == \
            [(r["offset_s"], r["gated"], r["verdict"]) for r in other_rows], stem
        gaps = [abs(float(a["p_right"]) - float(b["p_right"])) for a, b in zip(rows, other_rows)]
        assert max(gaps) <= P_RIGHT_TOL, (stem, max(gaps))
        worst = max(worst, *gaps)
    print(f"largest p_right difference {worst:.3g} (bound {P_RIGHT_TOL:g})")
