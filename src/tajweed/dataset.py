"""Manifests, stratified splits, the expert review queue, and the synthetic
corpus generator used in place of recorded recitations.

Manifest format: CSV with header `path,rule_id,polarity,onset_s,split`,
UTF-8, LF line endings. `path` is joined to the manifest's directory with
`os.path.join`, so an absolute path is used as written. `polarity` is
Right/Wrong or empty for rule-free material, `onset_s` is empty unless an
event start is known (verse files; finite seconds >= 0), `split` is
train/test/unassigned.

Review queue format: newline-delimited JSON events after a schema header
line; records are append-only and labels are appended as transition events,
so the queue survives restarts with no lost or duplicated records. The record
rule is `ReviewRecord.checked()`: a read refuses a line whose record it
refuses, and every writer appends only what a read accepts. A last line with
no newline is a torn append: reads ignore it, and the next append cuts it off.

Every whole file tajweed writes reaches disk through `write_file`, all or
nothing, except corpus WAVs (the manifest, written last, commits a corpus)
and the review queue's locked append (a rename would lose a concurrent one).
"""

from __future__ import annotations

import csv
import fcntl
import io
import json
import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from decimal import Decimal

import numpy as np

from . import audio
from .errors import DatasetError, IoError, ParseError

POLARITIES = ("Right", "Wrong")
# the corrected_label values each review status allows
STATUS_LABELS = {"pending": (None,), "approved": (None, *POLARITIES), "corrected": POLARITIES}
STATUSES = tuple(STATUS_LABELS)
SPLITS = ("train", "test", "unassigned")

MANIFEST_HEADER = ["path", "rule_id", "polarity", "onset_s", "split"]
MANIFEST_NAME = "manifest.csv"

QUEUE_SCHEMA_VERSION = 1
TRAIN_FRACTION = 0.7


class DanglingPathWarning(UserWarning):
    """Manifest rows referencing audio files that do not exist."""


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    rule_id: str
    polarity: str | None        # None marks rule-free material
    onset_s: float | None
    split: str = "unassigned"


def load_manifest(path) -> list[ManifestEntry]:
    """Parse a manifest; bytes that are not UTF-8 and malformed rows raise
    ParseError naming the path and line, rows pointing at missing audio
    trigger one DanglingPathWarning.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: {exc.reason} {data[exc.start]:#04x}",
                         data.count(b"\n", 0, exc.start) + 1, path) from exc
    entries = []
    try:
        if (header := next(rows, None)) != MANIFEST_HEADER:
            raise ValueError("empty manifest (missing header)" if header is None
                             else f"bad header {header!r}")
        for row in rows:
            if len(row) != len(MANIFEST_HEADER):
                raise ValueError(f"expected {len(MANIFEST_HEADER)} fields, got {len(row)}")
            p, rule_id, polarity, onset, split = row
            if not p or not rule_id:
                raise ValueError("path and rule_id are required")
            if polarity not in ("Right", "Wrong", ""):
                raise ValueError(f"bad polarity {polarity!r}")
            if split not in SPLITS:
                raise ValueError(f"bad split {split!r}")
            onset_s = float(onset) if onset else None
            if onset_s is not None and not 0.0 <= onset_s < np.inf:
                raise ValueError(f"onset_s {onset!r} is not a finite time >= 0")
            entries.append(ManifestEntry(p, rule_id, polarity or None, onset_s, split))
    except (ValueError, csv.Error) as exc:
        raise ParseError(str(exc), max(rows.line_num, 1), path) from exc

    root = os.path.dirname(os.path.abspath(path))
    missing = [e.path for e in entries if not os.path.isfile(os.path.join(root, e.path))]
    if missing:
        warnings.warn(DanglingPathWarning(f"{len(missing)} missing audio files: "
                                          + ", ".join(missing[:5])))
    return entries


def write_file(path, data: bytes) -> None:
    """Replace path with data all or nothing: a temp file named for this call beside it (mode
    0o666 minus the umask, as `open` gives), fsynced, renamed over it. A failure removes the
    temp file, keeps path and raises IoError. A link, device or pipe is written in place."""
    in_place = os.path.islink(path) or os.path.exists(path) and not os.path.isfile(path)
    tmp = path if in_place else f"{os.path.abspath(path)}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "wb" if in_place else "xb") as fh:
            fh.write(data)
            if not in_place:
                fh.flush()
                os.fsync(fh.fileno())
                os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    finally:
        if not in_place and os.path.exists(tmp):
            os.unlink(tmp)


def write_csv(path, rows) -> None:
    """`write_file` of rows as CSV: UTF-8, LF line endings."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    write_file(path, buf.getvalue().encode("utf-8"))


def save_manifest(entries, path) -> None:
    write_csv(path, [MANIFEST_HEADER, *(
        [e.path, e.rule_id, e.polarity or "", "" if e.onset_s is None else repr(float(e.onset_s)),
         e.split] for e in entries)])


def split(entries, train_fraction: float = TRAIN_FRACTION, seed: int = 0) -> list[ManifestEntry]:
    """Assign train/test per (rule_id, polarity) stratum: round(fraction*n)
    entries go to train, the rest to test, chosen by a seeded shuffle.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    strata: dict[tuple, list[int]] = {}
    for i, e in enumerate(entries):
        strata.setdefault((e.rule_id, e.polarity or ""), []).append(i)

    rng = np.random.default_rng(seed)
    splits = np.full(len(entries), "test", dtype=object)  # a str array would store "trai"
    for key in sorted(strata):
        idx = strata[key]
        if len(idx) < 2:
            raise DatasetError(f"stratum {key} has {len(idx)} entries (need >= 2)")
        order = np.array(idx)
        rng.shuffle(order)
        splits[order[:round(train_fraction * len(idx))]] = "train"
    return [replace(e, split=s) for e, s in zip(entries, splits)]


# --- synthetic corpus ------------------------------------------------------

def default_recipe() -> dict:
    """Reference recipe: four separable classes (two rules x two polarities).

    Each class is full-band colored noise with a class-specific spectral
    tilt and formant bumps, a harmonic comb at a class-specific
    fundamental, and class-specific amplitude modulation; every clip sits
    on the shared low-level background bed that verses are built from.
    Full-band class energy keeps every filter dimension informative, which
    is what makes the fixed gamma=0.1 / standardized-feature regime behave.
    Dump with `tajweed synth --write-spec` to edit classes without code.
    """
    def cls(f0, tilt, formants, am_rate, am_depth):
        return {
            "fundamental_hz": f0,
            "harmonics": 10,
            "harmonic_decay": 0.9,
            "harmonic_level": 0.7,
            "fundamental_jitter": 0.002,
            "tilt_db_per_khz": tilt,
            "formants": formants,
            "am_rate_hz": am_rate,
            "am_depth": am_depth,
            "gain_jitter_db": 0.3,
            "level": 0.3,
        }

    return {
        "sample_rate_hz": 8000,
        "clip_seconds": 4.0,
        "event_seconds_min": 3.9,
        "event_seconds_max": 4.0,
        "event_lead_max_s": 0.5,
        "clips_per_class": 80,
        "negatives_per_rule": 30,
        "verses_per_rule": 4,
        "event_free_verses_per_rule": 4,
        "verse_seconds_min": 10.0,
        "verse_seconds_max": 15.0,
        "background": {"noise_level": 0.01, "band_hz": [50.0, 3950.0]},
        "classes": {
            "edgham_meem": {
                "Right": cls(150.0, -4.0, [[300, 700, 2.0], [1800, 2200, 1.0]], 2.0, 0.25),
                "Wrong": cls(210.0, 2.0, [[900, 1400, 2.0], [2600, 3100, 1.0]], 4.0, 0.5),
            },
            "tarqeeq_lam": {
                "Right": cls(280.0, -1.0, [[500, 1000, 1.5], [2300, 2800, 1.5]], 6.0, 0.7),
                "Wrong": cls(360.0, 4.0, [[1400, 1900, 2.0], [3100, 3600, 1.0]], 8.0, 0.9),
            },
        },
    }


def _render_event(recipe, recipe_cls, rate, rng) -> np.ndarray:
    """A class event of a duration drawn from the recipe, clipped to +-0.98, 20 ms fades."""
    n = int(round(rng.uniform(recipe["event_seconds_min"], recipe["event_seconds_max"]) * rate))
    t = np.arange(n) / rate

    # full-band colored noise: class tilt plus formant bumps
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    gain = 10.0 ** (recipe_cls["tilt_db_per_khz"] * freqs / 1000.0 / 20.0)
    for lo, hi, lvl in recipe_cls["formants"]:
        gain = np.where((freqs >= lo) & (freqs <= hi), gain * (1.0 + lvl), gain)
    noise = np.fft.irfft(spectrum * gain, n)
    noise /= max(np.sqrt(np.mean(noise ** 2)), 1e-12)

    f0 = recipe_cls["fundamental_hz"] * (
        1.0 + recipe_cls["fundamental_jitter"] * rng.uniform(-1.0, 1.0)
    )
    harm = np.zeros(n)
    for h in range(1, recipe_cls["harmonics"] + 1):
        amp = recipe_cls["harmonic_decay"] ** (h - 1)
        harm += amp * np.sin(2.0 * np.pi * h * f0 * t + rng.uniform(0.0, 2.0 * np.pi))
    harm /= max(np.sqrt(np.mean(harm ** 2)), 1e-12)

    sig = noise + recipe_cls["harmonic_level"] * harm
    sig *= 1.0 + recipe_cls["am_depth"] * np.sin(
        2.0 * np.pi * recipe_cls["am_rate_hz"] * t + rng.uniform(0.0, 2.0 * np.pi)
    )
    sig *= recipe_cls["level"] / max(np.sqrt(np.mean(sig ** 2)), 1e-12)
    sig *= 10.0 ** (recipe_cls["gain_jitter_db"] * rng.uniform(-1.0, 1.0) / 20.0)
    sig = np.clip(sig, -0.98, 0.98)
    k = min(int(round(0.02 * rate)), n // 2)
    if k > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(k) / k)
        sig[:k] *= ramp
        sig[-k:] *= ramp[::-1]
    return sig


def _render_background(recipe, n, rate, rng) -> np.ndarray:
    """White noise restricted to the recipe's band, scaled to its RMS level."""
    bg = recipe["background"]
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    spectrum[(freqs < bg["band_hz"][0]) | (freqs > bg["band_hz"][1])] = 0.0
    shaped = np.fft.irfft(spectrum, n)
    return bg["noise_level"] * (shaped / max(np.sqrt(np.mean(shaped ** 2)), 1e-12))


def synth_generate(recipe, seed: int, out_dir, *, clips_per_class=None,
                   negatives_per_rule=None, verses_per_rule=None,
                   event_free_per_rule=None) -> list[ManifestEntry]:
    """Write a deterministic synthetic corpus and its manifest.

    Per class: `clips_per_class` exemplars of `clip_seconds`. Per rule:
    rule-free clips, verses (a 10-15 s background with one class event at a
    recorded onset, its template saved under templates/) and event-free
    verses. Returns the manifest entries, also written to out_dir/manifest.csv.
    A recipe that would write a broken corpus (a rate load_wav refuses, a class
    name that is no file name, a NaN level, an inverted band, a negative count)
    raises ValueError naming its key before any write.

    Each file draws from its own generator, spawned from `seed` in file
    order: the verse length (verses only), the background, the event's
    duration and body, then the event's start; that order keeps corpora
    byte-identical. An exemplar's event starts at a random lead-in of up to
    `event_lead_max_s` (one detection stride by default) and is cut at the
    clip edge, as a random 4 s cut of a recording would be: each window
    alignment then looks distinct, so the window at or just before an onset
    is the training-like one and localization stays sharp. A verse's event
    starts at least 0.5 s from either end and is never cut.
    """
    rate = recipe["sample_rate_hz"]
    if type(rate) is not int or rate < audio.MIN_SAMPLE_RATE_HZ:
        raise ValueError(f"sample_rate_hz must be an integer >= {audio.MIN_SAMPLE_RATE_HZ}, "
                         f"not {rate!r}")
    keys = ("clips_per_class", "negatives_per_rule", "verses_per_rule",
            "event_free_verses_per_rule")
    counts = [recipe[k] if c is None else c for k, c in zip(keys, (
        clips_per_class, negatives_per_rule, verses_per_rule, event_free_per_rule))]
    bg = recipe["background"]
    low, high = bg["band_hz"]
    for key, value, ok, rule in (  # NaN fails every comparison; True is no count
            ("background.noise_level", bg["noise_level"], 0.0 <= bg["noise_level"] < np.inf,
             "finite and >= 0"),
            ("background.band_hz", bg["band_hz"], 0.0 <= low < high <= rate / 2,
             f"[low, high] with 0 <= low < high <= {rate / 2:g}"),
            *(("classes", name, re.fullmatch(r"[a-z][a-z0-9_]*", name),  # names files
               "keyed by class names matching [a-z][a-z0-9_]*") for name in recipe["classes"]),
            *((k, c, type(c) is int and c >= 0, "an int >= 0") for k, c in zip(keys, counts))):
        if not ok:
            raise ValueError(f"{key} must be {rule}, not {value!r}")
    n_clips, n_neg, n_verse, n_free = counts
    n_clip = int(round(recipe["clip_seconds"] * rate))
    lead_max = int(round(recipe["event_lead_max_s"] * rate))
    margin = int(round(0.5 * rate))

    try:
        os.makedirs(out_dir, exist_ok=True)
        if n_verse > 0:
            os.makedirs(os.path.join(out_dir, "templates"), exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create corpus directory {out_dir}: {exc}") from exc

    seq = np.random.SeedSequence(seed)
    entries = []

    def files():  # (name, rule_id, polarity, event recipe, verse) per file, in file order
        for rule_id in sorted(recipe["classes"]):
            classes = {p: recipe["classes"][rule_id][p] for p in POLARITIES}
            for p, cls in classes.items():
                for i in range(n_clips):
                    yield f"{rule_id}_{p.lower()}_{i:04d}.wav", rule_id, p, cls, False
            for i in range(n_neg):
                yield f"{rule_id}_neg_{i:04d}.wav", rule_id, None, None, False
            for p, cls in classes.items():
                for i in range(n_verse):
                    yield f"{rule_id}_{p.lower()}_verse_{i:04d}.wav", rule_id, p, cls, True
            for i in range(n_free):
                yield f"{rule_id}_free_verse_{i:04d}.wav", rule_id, None, None, True

    # one loop, not a call per file: live arrays keep glibc from trimming the heap between files
    for name, rule_id, polarity, event_recipe, verse in files():
        rng = np.random.default_rng(seq.spawn(1)[0])
        n = n_clip if not verse else int(round(
            rng.uniform(recipe["verse_seconds_min"], recipe["verse_seconds_max"]) * rate))
        samples = _render_background(recipe, n, rate, rng)
        written, onset = {name: samples}, None
        if event_recipe is not None:
            event = _render_event(recipe, event_recipe, rate, rng)
            lo, hi = (margin, n - len(event) - margin) if verse else (0, lead_max)
            start = int(rng.integers(lo, hi + 1))
            end = min(start + len(event), n)
            samples[start:end] += event[:end - start]
            if verse:
                written[os.path.join("templates", name)] = event
                onset = start / rate
        for path, data in written.items():
            try:
                audio.write_wav(os.path.join(out_dir, path), audio.AudioClip(data, rate))
            except OSError as exc:
                raise IoError(f"cannot write {path}: {exc}") from exc
        entries.append(ManifestEntry(name, rule_id, polarity, onset))

    save_manifest(entries, os.path.join(out_dir, MANIFEST_NAME))
    return entries


# --- expert review queue ----------------------------------------------------

@dataclass(frozen=True)
class ReviewRecord:
    record_id: int | None
    audio_path: str
    rule_id: str
    verdict: dict | None        # serialized Detection, or None
    created_at: str = ""
    status: str = "pending"
    corrected_label: str | None = None

    def checked(self) -> ReviewRecord:
        """This record, or ValueError if a queue read would refuse it."""
        if not ((self.record_id is None or type(self.record_id) is int)
                and all(type(s) is str and s for s in (self.audio_path, self.rule_id))
                and isinstance(self.verdict, (dict, type(None))) and type(self.created_at) is str
                and self.status in STATUSES and self.corrected_label in STATUS_LABELS[self.status]):
            raise ValueError(f"a queue read refuses {self!r}; it needs an int or None record_id, "
                             "non-empty audio_path and rule_id strings, an object or null verdict, "
                             f"a string created_at and a label its status allows {STATUS_LABELS}")
        return self


def _parse_queue(data: bytes, path) -> dict[int, ReviewRecord]:
    records: dict[int, ReviewRecord] = {}
    lines = data.split(b"\n")[:-1]  # past the last newline: nothing, or a torn append
    line_no = 1
    try:
        if lines and json.loads(lines[0])["schema_version"] != QUEUE_SCHEMA_VERSION:
            raise ValueError(f"unsupported queue schema {lines[0].decode(errors='replace')}")
        for line_no, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            event = json.loads(line)
            kind, rid = event["kind"], event["record_id"]
            if type(rid) is not int:
                raise ValueError(f"record_id {rid!r} is not an integer")
            if kind == "record":
                records.setdefault(rid, ReviewRecord(
                    rid, event["audio_path"], event["rule_id"], event.get("verdict"),
                    event.get("created_at", "")).checked())
            elif kind == "label" and rid in records and event["status"] != "pending":
                records[rid] = replace(records[rid], status=event["status"],
                                       corrected_label=event.get("label")).checked()
            else:
                raise ValueError(f"unexpected {kind!r} event for record {rid}")
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise ParseError(f"bad queue line: {exc!r}", line_no, path) from exc
    return records


@contextmanager
def _locked_queue(path):
    """Yield the queue's records and an append function, which first cuts a torn last line
    off, under one exclusive lock, so concurrent writers never read stale ids. Closing unlocks."""
    try:
        fh = open(path, "a+b")
    except OSError as exc:
        raise IoError(f"cannot open review queue {path}: {exc}") from exc
    with fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        fh.seek(0)
        data = fh.read()
        records, end = _parse_queue(data, path), data.rfind(b"\n") + 1  # end: whole lines' bytes

        def append(event: dict) -> None:
            nonlocal end
            try:  # serialized whole before the one write, so a refusal leaves the queue
                line = json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
            except (TypeError, ValueError) as exc:
                raise ParseError(f"cannot serialize queue event: {exc}") from exc
            header = json.dumps({"schema_version": QUEUE_SCHEMA_VERSION}) + "\n"
            text = (line if end else header + line).encode("utf-8")
            os.ftruncate(fh.fileno(), end)
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
            end += len(text)

        yield records, append


def review_append(queue_path, record: ReviewRecord) -> ReviewRecord:
    """Durably append a record and return it as a read gives it back: ids are
    assigned monotonically when absent, and re-appending an existing id is a
    no-op (idempotent retry). A record checked() refuses raises ParseError.
    """
    try:
        record.checked()
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    with _locked_queue(queue_path) as (records, append):
        rid = max(records, default=0) + 1 if record.record_id is None else record.record_id
        if rid in records:
            return records[rid]
        created = record.created_at or datetime.now(timezone.utc).isoformat(timespec="seconds")
        append({"kind": "record", "record_id": rid, "audio_path": record.audio_path,
                "rule_id": record.rule_id, "verdict": record.verdict, "created_at": created})
    return ReviewRecord(rid, record.audio_path, record.rule_id, record.verdict, created)


def review_list(queue_path, status: str | None = None) -> list[ReviewRecord]:
    if status not in (None, *STATUSES):
        raise ValueError(f"status must be one of {', '.join(STATUSES)}, not {status!r}")
    with open(queue_path, "rb") as fh:  # a missing queue raises, creating nothing
        fcntl.flock(fh.fileno(), fcntl.LOCK_SH)
        records = sorted(_parse_queue(fh.read(), queue_path).values(), key=lambda r: r.record_id)
    return [r for r in records if status is None or r.status == status]


def review_label(queue_path, record_id: int, status: str,
                 label: str | None = None, force: bool = False) -> ReviewRecord:
    """Move a record pending -> approved | corrected. Relabeling an already
    labeled record requires force=True. An unknown id, or one that is no int,
    raises DatasetError; a status and label that checked() refuses, a ValueError.
    """
    if status == "pending":
        raise ValueError("a label moves a record to approved or corrected, not pending")
    try:
        shown = repr(record_id)
    except ValueError:  # an int past the int-to-str digit limit, alone or in a container
        shown = (f"of {Decimal(record_id).adjusted() + 1} digits" if type(record_id) is int
                 else f"of type {type(record_id).__name__}")
    if not os.path.exists(queue_path):  # opening it to lock would create it
        raise DatasetError(f"no review queue {queue_path}, so no record {shown}")
    with _locked_queue(queue_path) as (records, append):
        if type(record_id) is not int or record_id not in records:
            raise DatasetError(f"no review record {shown}")
        current = records[record_id]
        labeled = replace(current, status=status, corrected_label=label).checked()
        if current.status != "pending" and not force:
            raise DatasetError(
                f"record {record_id} is already {current.status}; pass force to relabel"
            )
        append({"kind": "label", "record_id": record_id, "status": status, "label": label})
    return labeled
