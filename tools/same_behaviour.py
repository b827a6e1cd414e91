#!/usr/bin/env python3
"""Same-behaviour gate: run one fixed list of tajweed commands on a base
revision and on the working tree, and name every difference.

    python tools/same_behaviour.py [--base REF] [--expect-diff GLOB ...]

The base is the `src` of REF (default HEAD), exported with `git archive`. Each
command is a fresh `python -m tajweed` process with that tree's `src` on
PYTHONPATH, run in a scratch directory of the tree's own. The base runs with
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS at 1 and the working tree at 2, so
the comparison also shows that tajweed's one-thread BLAS pin holds: without
it, the 24-clip corpus's flatten model and timelines differ.

The list covers synth of the default recipe with reduced counts at 8,000 and
16,000 Hz, split, train of both rules x both aggregations at both rates,
evaluate with one and with two models, a one-cell gridsearch, a gridsearch of
each rule over the default 16-cell grid (its table order and tie rule), and
detect on every verse with each model of its rule and rate. Seven one-rule corpora each
get synth, split, a train of each aggregation, evaluate of the pooled model and
a detect of each verse with each model: at 11,025, 22,050 and 44,100 Hz
(interpolating resample), at 48,000 Hz (integer ratio 6), and at 8,000 Hz with
3 s exemplars whose events may run past the clip edge (zero-padded to one
window), with 5 s exemplars (cropped to one at a seeded offset) and with 24
exemplars a class. Then detect on 8- and 16-bit stereo WAVs and an 8-bit mono
WAV, so every PCM layout load_wav decodes reaches the front end, a review queue
session, and failing cases with their exit codes: a recipe that is not one,
split past a 1 KiB file size limit, gridsearch and evaluate of an unsplit
manifest, gridsearch with more folds than exemplars, a garbage model, a model
header with a key train never writes, detect of audio that is not a WAV and of
a model for another rule, a relabel without --force, a correction without a
label and a label of an unknown id. It is the project's only end-to-end gate;
the tier-1 tests check each of these cases too.

Each command's exit code, stdout and stderr and the SHA-256 of every file the
session leaves are compared, after normalizing only the tree's own
directories and the review queue's created_at times. Prints each difference
and exits 1 if there is one, 0 if there is none.

A change that alters outputs on purpose names them with --expect-diff GLOB,
once per glob, matched (fnmatch, case-sensitive) against command names and
file paths in the run directory. A difference whose command or file matches a
glob is printed as expected and does not fail the run; a glob that matches no
difference is printed too, and fails it.
"""

from __future__ import annotations

import argparse
import array
import csv
import fnmatch
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import time
import wave
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RULES = ("edgham_meem", "tarqeeq_lam")
AGGREGATIONS = ("mean_std_pool", "flatten")
RATES = (8000, 16000)
# one-rule corpora of ONE_RULE_CLIPS clips a class, which synth writes in a few seconds,
# named by their recipe changes: the resample paths 16,000 Hz does not take (interpolation
# from 11,025, 22,050 and 44,100 Hz and integer ratio 6); exemplars cut at the clip edge
# at 8,000 Hz, 3 s clips with events up to 1.5 s late, zero-padded to one window, and 5 s
# clips, cropped to one at normalize_duration's seeded offset; and 24 clips a class, whose
# flatten model a 2-thread OpenBLAS writes in other bytes than one thread does
ONE_RULE_CLIPS = 6
ONE_RULE = {**{str(rate): {"sample_rate_hz": rate} for rate in (11025, 22050, 44100, 48000)},
            "8000_3s": {"sample_rate_hz": 8000, "clip_seconds": 3.0, "event_lead_max_s": 1.5},
            "8000_5s": {"sample_rate_hz": 8000, "clip_seconds": 5.0},
            "8000_24clips": {"sample_rate_hz": 8000, "clips_per_class": 24}}
REDUCED = {"clips_per_class": 8, "negatives_per_rule": 3, "verses_per_rule": 1,
           "event_free_verses_per_rule": 1}
CREATED_AT = re.compile(rb"""(created_at["']?(?:: ?|=)["'])[^"']*""")  # JSON or repr


def tajweed(*args: str) -> list[str]:
    return [sys.executable, "-m", "tajweed", *args]


def model(corpus: int | str, rule: str, agg: str) -> str:
    return f"m{corpus}_{rule}_{agg}.model"


def train(corpus: int | str, manifest: str, rule: str, agg: str) -> tuple[str, list[str]]:
    """A train at seed 3; flatten at a gamma whose kernel does not underflow."""
    gamma = ["--gamma", "0.00002"] if agg == "flatten" else []
    return f"train-{corpus}-{rule}-{agg}", tajweed(
        "train", "--manifest", manifest, "--rule", rule, "--seed", "3", "--agg", agg, *gamma,
        "--model", model(corpus, rule, agg))


def add_header_key(src: Path, dst: Path) -> None:
    """A copy of a model whose header has one key train never writes."""
    blob = src.read_bytes()
    n = struct.unpack_from("<I", blob, 8)[0]
    header = {**json.loads(blob[12:12 + n]), "note": "x"}
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + n:])


def verses(manifest: Path, rule: str | None = None) -> list[dict]:
    with open(manifest, newline="") as fh:
        return [row for row in csv.DictReader(fh)
                if "_verse_" in row["path"] and rule in (None, row["rule_id"])]


def detect(corpus: int | str, row: dict, agg: str) -> tuple[str, list[str]]:
    """A detect of one verse of corpus c<corpus> with --out, --verdict-out
    and, where the onset is known, --truth."""
    stem = f"{corpus}_{Path(row['path']).stem}_{agg}"
    truth = ["--truth", row["onset_s"]] if row["onset_s"] else []
    return f"detect-{stem}", tajweed(
        "detect", "--audio", f"c{corpus}/{row['path']}", "--rule", row["rule_id"],
        "--model", model(corpus, row["rule_id"], agg), *truth,
        "--out", f"timeline_{stem}.csv", "--verdict-out", f"verdict_{stem}.json")


def write_pcm(sources: list[Path], dst: Path, bits: int) -> None:
    """A WAV with one channel of each 16-bit mono WAV's samples in sources, cut
    to the shortest, at 16 bits or at 8 (the high byte, offset to unsigned)."""
    channels = []
    for src in sources:
        with wave.open(str(src)) as w:
            channels.append(array.array("h", w.readframes(w.getnframes())))
            rate = w.getframerate()
    frames = [v for frame in zip(*channels) for v in frame]
    with wave.open(str(dst), "wb") as w:
        w.setnchannels(len(sources))
        w.setsampwidth(bits // 8)
        w.setframerate(rate)
        w.writeframes(array.array("h", frames).tobytes() if bits == 16
                      else bytes((v >> 8) + 128 for v in frames))


def session(run: Path):
    """The command list, as (name, argv) pairs run in order in `run`; the
    inputs tajweed does not write are made in between, from earlier outputs."""
    yield "write-spec", tajweed("synth", "--write-spec", "spec.json")
    recipe = json.loads((run / "spec.json").read_text())
    for rate in RATES:
        (run / f"spec{rate}.json").write_text(
            json.dumps({**recipe, **REDUCED, "sample_rate_hz": rate}))
        yield f"synth-{rate}", tajweed("synth", "--spec", f"spec{rate}.json", "--seed", "1",
                                       "--out", f"c{rate}")
    (run / "not_a_recipe.json").write_text('["not", "a", "recipe"]\n')
    yield "synth-not-a-recipe", tajweed("synth", "--spec", "not_a_recipe.json", "--seed", "1",
                                        "--out", "no_corpus")

    shutil.copy(run / "c8000/manifest.csv", run / "c8000/unsplit.csv")
    yield "split-past-1KiB", ["sh", "-c", 'ulimit -f 1 && exec "$@"', "sh",
                              *tajweed("split", "--manifest", "c8000/manifest.csv", "--seed", "2")]
    yield "split-8000", tajweed("split", "--manifest", "c8000/manifest.csv", "--seed", "2")
    yield "split-16000-out", tajweed("split", "--manifest", "c16000/manifest.csv", "--seed", "2",
                                     "--out", "c16000/split.csv")
    manifests = {8000: "c8000/manifest.csv", 16000: "c16000/split.csv"}

    for rate, rule, agg in ((r, u, a) for r in RATES for u in RULES for a in AGGREGATIONS):
        yield train(rate, manifests[rate], rule, agg)

    pool = [model(8000, rule, "mean_std_pool") for rule in RULES]
    yield "evaluate-one-model", tajweed("evaluate", "--manifest", manifests[8000],
                                        "--model", pool[0], "--out", "evaluate1.csv")
    yield "evaluate-two-models", tajweed("evaluate", "--manifest", manifests[8000],
                                         "--model", pool[0], "--model", pool[1],
                                         "--out", "evaluate2.csv")
    yield "evaluate-unsplit", tajweed("evaluate", "--manifest", "c8000/unsplit.csv",
                                      "--model", pool[0])
    yield "gridsearch", tajweed("gridsearch", "--manifest", manifests[8000], "--rule", RULES[0],
                                "--seed", "3", "--c-grid", "1", "--gamma-grid", "0.1")
    for rule in RULES:
        yield f"gridsearch-default-{rule}", tajweed("gridsearch", "--manifest", manifests[8000],
                                                    "--rule", rule, "--seed", "3")
    yield "gridsearch-unsplit", tajweed("gridsearch", "--manifest", "c8000/unsplit.csv",
                                        "--rule", RULES[0], "--seed", "3",
                                        "--c-grid", "1", "--gamma-grid", "0.1")
    yield "gridsearch-99-folds", tajweed("gridsearch", "--manifest", manifests[8000],
                                         "--rule", RULES[0], "--seed", "3", "--folds", "99",
                                         "--c-grid", "1", "--gamma-grid", "0.1")

    for rate in RATES:
        for row, agg in ((row, agg) for row in verses(run / manifests[rate])
                         for agg in AGGREGATIONS):
            yield detect(rate, row, agg)

    for corpus, changes in ONE_RULE.items():
        (run / f"spec{corpus}.json").write_text(json.dumps(
            {**recipe, **REDUCED, "clips_per_class": ONE_RULE_CLIPS, **changes,
             "classes": {RULES[0]: recipe["classes"][RULES[0]]}}))
        manifest = f"c{corpus}/manifest.csv"
        yield f"synth-{corpus}", tajweed("synth", "--spec", f"spec{corpus}.json", "--seed", "1",
                                         "--out", f"c{corpus}")
        yield f"split-{corpus}", tajweed("split", "--manifest", manifest, "--seed", "2")
        for agg in AGGREGATIONS:
            yield train(corpus, manifest, RULES[0], agg)
        yield f"evaluate-{corpus}", tajweed(
            "evaluate", "--manifest", manifest, "--model", model(corpus, RULES[0], "mean_std_pool"),
            "--out", f"evaluate{corpus}.csv")
        for row, agg in ((row, agg) for row in verses(run / manifest, RULES[0])
                         for agg in AGGREGATIONS):
            yield detect(corpus, row, agg)

    verse, wrong = (f"c8000/{RULES[0]}_{p}_verse_0000.wav" for p in ("right", "wrong"))
    for layout, sources, bits in (("stereo8", [verse, wrong], 8), ("stereo16", [verse, wrong], 16),
                                  ("mono8", [wrong], 8)):
        write_pcm([run / src for src in sources], run / f"{layout}.wav", bits)
        yield f"detect-{layout}", tajweed(
            "detect", "--audio", f"{layout}.wav", "--rule", RULES[0], "--model", pool[0],
            "--out", f"timeline_{layout}.csv", "--verdict-out", f"verdict_{layout}.json")
    (run / "not_a_model").write_text("not a model\n")
    yield "detect-not-a-model", tajweed("detect", "--audio", verse, "--rule", RULES[0],
                                        "--model", "not_a_model")
    add_header_key(run / pool[0], run / "extra_key.model")
    yield "detect-extra-key", tajweed("detect", "--audio", verse, "--rule", RULES[0],
                                      "--model", "extra_key.model")
    yield "detect-audio-not-a-wav", tajweed("detect", "--audio", "not_a_model",
                                            "--rule", RULES[0], "--model", pool[0])
    yield "detect-other-rule", tajweed("detect", "--audio", verse, "--rule", RULES[1],
                                       "--model", pool[0])

    verdict = f"verdict_8000_{RULES[0]}_right_verse_0000_mean_std_pool.json"
    queue = ["--queue", "queue.jsonl"]
    yield "review-append", tajweed("review", "append", *queue, "--verdict", verdict)
    yield "review-list-pending", tajweed("review", "list", *queue, "--status", "pending")
    yield "review-label-corrected", tajweed("review", "label", *queue, "--id", "1",
                                            "--status", "corrected", "--label", "Wrong")
    yield "review-list-corrected", tajweed("review", "list", *queue, "--status", "corrected")
    yield "review-relabel-unforced", tajweed("review", "label", *queue, "--id", "1",
                                             "--status", "approved")
    yield "review-corrected-no-label", tajweed("review", "label", *queue, "--id", "1",
                                               "--status", "corrected", "--force")
    yield "review-label-unknown-id", tajweed("review", "label", *queue, "--id", "99",
                                             "--status", "approved")
    yield "review-list", tajweed("review", "list", *queue)


def run_tree(src: Path, work: Path, threads: int) -> tuple[dict, dict]:
    """Run the session on one tree, with BLAS asked for `threads` threads:
    {command: (exit, stdout, stderr)} and {file: sha256}, both normalized."""
    run = work / "run"
    run.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONPYCACHEPREFIX": str(work / "pycache"),
           "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
    found = subprocess.run([sys.executable, "-c", "import tajweed; print(tajweed.__file__)"],
                           env=env, capture_output=True, text=True).stdout.strip()
    if not found.startswith(str(src) + os.sep):
        sys.exit(f"PYTHONPATH={src} imports tajweed from {found or 'nowhere'}")

    def normal(data: bytes) -> bytes:
        for path, name in ((run, b"<run>"), (src.parent, b"<tree>")):
            data = data.replace(str(path).encode(), name)
        return CREATED_AT.sub(rb"\1<created_at>", data)

    results = {}
    commands = session(run)
    try:
        for name, argv in commands:
            done = subprocess.run(argv, cwd=run, env=env, capture_output=True)
            results[name] = (done.returncode, normal(done.stdout), normal(done.stderr))
    except (OSError, ValueError, KeyError, wave.Error) as exc:  # a session input is missing
        results["session"] = (f"stopped: {exc!r}", b"", b"")
    files = {p.relative_to(run).as_posix(): hashlib.sha256(normal(p.read_bytes())).hexdigest()
             for p in sorted(run.rglob("*")) if p.is_file()}
    return results, files


def first_difference(base: bytes, change: bytes) -> str:
    pairs = zip(base.splitlines() + [b"<end>"], change.splitlines() + [b"<end>"])
    line, (b, c) = next((i, p) for i, p in enumerate(pairs, start=1) if p[0] != p[1])
    return f"line {line}: {b.decode(errors='replace')!r} != {c.decode(errors='replace')!r}"


def differences(base: tuple[dict, dict], change: tuple[dict, dict]) -> list[tuple[str, str]]:
    """(command name or file path, line describing the difference), in report order."""
    (base_runs, base_files), (change_runs, change_files) = base, change
    found = []
    for name in dict.fromkeys([*base_runs, *change_runs]):
        if name not in base_runs or name not in change_runs:
            found.append((name, f"{name}: run only in {'base' if name in base_runs else 'change'}"))
            continue
        (b_exit, *b_out), (c_exit, *c_out) = base_runs[name], change_runs[name]
        if b_exit != c_exit:
            found.append((name, f"{name}: exit {b_exit} != {c_exit}"))
        for stream, b, c in zip(("stdout", "stderr"), b_out, c_out):
            if b != c:
                found.append((name, f"{name}: {stream} {first_difference(b, c)}"))
    for path in sorted(set(base_files) | set(change_files)):
        b, c = base_files.get(path, "absent"), change_files.get(path, "absent")
        if b != c:
            found.append((path, f"file {path}: sha256 {b[:16]} != {c[:16]}"))
    return found


def sort_out(found: list[tuple[str, str]], globs: list[str]) -> tuple[list[str], int, int]:
    """The report of the differences found: each line, prefixed "expected: " if its
    command or file matches one of the --expect-diff globs, then a line for each glob
    that matches no difference; the count of expected differences; the exit code, 1
    if a difference matches no glob or a glob matches no difference, else 0."""
    hits = dict.fromkeys(globs, 0)
    lines, expected = [], 0
    for subject, line in found:
        matched = [glob for glob in hits if fnmatch.fnmatchcase(subject, glob)]
        for glob in matched:
            hits[glob] += 1
        expected += bool(matched)
        lines.append(f"expected: {line}" if matched else line)
    unmatched = [glob for glob, n in hits.items() if not n]
    lines += [f"--expect-diff {glob}: matches no difference" for glob in unmatched]
    return lines, expected, int(expected < len(found) or bool(unmatched))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--expect-diff", action="append", default=[], metavar="GLOB",
                        help="a command name or file path whose difference is intended; "
                             "repeatable, and a glob that matches no difference fails the run")
    args = parser.parse_args(argv)
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="same_behaviour_") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", args.base,
                                  "src"], stdout=subprocess.PIPE)
        if archive.returncode:
            parser.error(f"cannot export src at {args.base}")
        (tmp / "base").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "base")], input=archive.stdout, check=True)
        with ThreadPoolExecutor(2) as pool:  # the change at 2 BLAS threads tests tajweed's pin
            base = pool.submit(run_tree, tmp / "base" / "src", tmp / "base", 1)
            change = pool.submit(run_tree, REPO / "src", tmp / "change", 2)
            base, change = base.result(), change.result()
    found = differences(base, change)
    lines, expected, code = sort_out(found, args.expect_diff)
    for line in lines:
        print(line)
    print(f"{args.base} against the working tree: {len(base[0])} commands, {len(base[1])} "
          f"files, {len(found) or 'no'} difference{'' if len(found) == 1 else 's'}"
          f"{f' ({expected} expected)' if args.expect_diff else ''} "
          f"in {time.monotonic() - start:.0f} s")
    return code


if __name__ == "__main__":
    sys.exit(main())
