import json
import multiprocessing
import os
import stat
import time
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tajweed import audio, dataset
from tajweed.errors import DatasetError, IoError, ParseError


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)


def append_many(queue, n):
    """Worker for the concurrency test: n appends with fresh ids."""
    for _ in range(n):
        dataset.review_append(queue, dataset.ReviewRecord(None, "x.wav", "edgham_meem", None))


def append_forever(queue):
    """Worker for the kill test: appends with fresh ids until killed."""
    while True:
        append_many(queue, 1)


def entry(path="a.wav", rule="edgham_meem", polarity="Right", onset=None, split="unassigned"):
    return dataset.ManifestEntry(path, rule, polarity, onset, split)


def refuse(*args):
    raise OSError("refused")


class TestManifest:
    def test_header_only_is_empty(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,rule_id,polarity,onset_s,split\n")
        assert dataset.load_manifest(str(p)) == []

    def test_missing_onset_parses_to_none(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,rule_id,polarity,onset_s,split\n"
                     "a.wav,edgham_meem,Right,,train\n")
        with pytest.warns(dataset.DanglingPathWarning):
            entries = dataset.load_manifest(str(p))
        assert entries[0].onset_s is None
        assert entries[0].polarity == "Right"

    def test_empty_polarity_is_negative(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,rule_id,polarity,onset_s,split\n"
                     "a.wav,edgham_meem,,,test\n")
        with pytest.warns(dataset.DanglingPathWarning):
            entries = dataset.load_manifest(str(p))
        assert entries[0].polarity is None

    def test_round_trip_byte_identical(self, tmp_path):
        entries = [
            entry(),
            entry(path="b.wav", polarity=None, split="test"),
            entry(path="c.wav", polarity="Wrong", onset=2.375, split="train"),
        ]
        p1, p2 = str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv")
        dataset.save_manifest(entries, p1)
        with pytest.warns(dataset.DanglingPathWarning):
            loaded = dataset.load_manifest(p1)
        dataset.save_manifest(loaded, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    @pytest.mark.parametrize("row", [
        b"b.wav,edgham_meem,Sideways,,train\n",
        b"b\xff\xfe.wav,edgham_meem,Right,,train\n",
        b'"' + b"b" * 200_000 + b'.wav",edgham_meem,Right,,train\n',
    ], ids=["bad_polarity", "not_utf8", "field_past_the_csv_limit"])
    def test_parse_error_carries_line_number(self, tmp_path, row):
        p = tmp_path / "m.csv"
        p.write_bytes(b"path,rule_id,polarity,onset_s,split\n"
                      b"a.wav,edgham_meem,Right,,train\n" + row)
        with pytest.raises(ParseError) as exc:
            dataset.load_manifest(str(p))
        assert str(exc.value).startswith(f"{p}:3: ")

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("file,rule\nx,y\n")
        with pytest.raises(ParseError):
            dataset.load_manifest(str(p))

    @pytest.mark.parametrize("onset", ["soon", "nan", "inf", "-inf", "-2.5"])
    def test_bad_onset_rejected(self, tmp_path, onset):
        p = tmp_path / "m.csv"
        p.write_text("path,rule_id,polarity,onset_s,split\n"
                     f"a.wav,edgham_meem,Right,{onset},train\n")
        with pytest.raises(ParseError) as exc:
            dataset.load_manifest(str(p))
        assert str(exc.value).startswith(f"{p}:2: ")

    def test_dangling_paths_warned_not_fatal(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("path,rule_id,polarity,onset_s,split\n"
                     "missing.wav,edgham_meem,Right,,train\n")
        with pytest.warns(dataset.DanglingPathWarning, match="missing.wav"):
            entries = dataset.load_manifest(str(p))
        assert len(entries) == 1

    def test_absolute_paths_warn_only_when_missing(self, tmp_path):
        audio_dir, manifest_dir = tmp_path / "audio", tmp_path / "manifest"
        audio_dir.mkdir()
        manifest_dir.mkdir()
        (audio_dir / "a.wav").write_bytes(b"")
        present, missing = audio_dir / "a.wav", audio_dir / "missing.wav"
        p = manifest_dir / "m.csv"
        p.write_text("path,rule_id,polarity,onset_s,split\n"
                     f"{present},edgham_meem,Right,,train\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [e.path for e in dataset.load_manifest(str(p))] == [str(present)]
        with open(p, "a") as fh:
            fh.write(f"{missing},edgham_meem,Wrong,,train\n")
        with pytest.warns(dataset.DanglingPathWarning) as record:
            dataset.load_manifest(str(p))
        assert [str(w.message) for w in record] == [f"1 missing audio files: {missing}"]


class TestWriteFile:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask_022", "umask_077"])
    def test_mode_is_what_open_gives(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            dataset.write_file(str(tmp_path / "new"), b"x")
            dataset.write_file(str(tmp_path / "new"), b"y")  # a replaced file too
            open(tmp_path / "plain", "wb").close()
        finally:
            os.umask(old)
        modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("new", "plain")}
        assert modes == {mode}
        assert (tmp_path / "new").read_bytes() == b"y"
        assert sorted(os.listdir(tmp_path)) == ["new", "plain"]

    @pytest.mark.parametrize("fail", ["fsync", "replace"])
    @pytest.mark.parametrize("write", [
        lambda path: dataset.write_file(path, b"new bytes"),
        lambda path: dataset.save_manifest([entry(), entry(path="b.wav")], path),
    ], ids=["write_file", "save_manifest"])
    def test_failed_write_keeps_the_target(self, tmp_path, monkeypatch, write, fail):
        target = tmp_path / "out"
        target.write_bytes(b"sentinel\n")
        monkeypatch.setattr(os, fail, refuse)
        with pytest.raises(IoError, match="refused"):
            write(str(target))
        assert target.read_bytes() == b"sentinel\n"
        assert os.listdir(tmp_path) == ["out"]

    def test_failed_write_creates_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "fsync", refuse)
        with pytest.raises(IoError):
            dataset.write_file(str(tmp_path / "out"), b"x")
        assert os.listdir(tmp_path) == []

    def test_links_and_devices_are_written_in_place(self, tmp_path):
        (tmp_path / "real").write_bytes(b"old")
        for name, target in [("link", tmp_path / "real"), ("null", os.devnull)]:
            (tmp_path / name).symlink_to(target)  # a rename would leave a regular file here
            dataset.write_file(str(tmp_path / name), b"new")
            assert (tmp_path / name).is_symlink()
        assert (tmp_path / "real").read_bytes() == b"new"
        assert sorted(os.listdir(tmp_path)) == ["link", "null", "real"]
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_missing_directory_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            dataset.write_file(str(tmp_path / "missing" / "out"), b"x")


class TestSplit:
    def make_entries(self, n, rule="edgham_meem", polarity="Right"):
        return [entry(path=f"{rule}_{polarity}_{i}.wav", rule=rule, polarity=polarity)
                for i in range(n)]

    def test_eighty_entries_split_56_24(self):
        out = dataset.split(self.make_entries(80), 0.7, seed=0)
        assert sum(1 for e in out if e.split == "train") == 56
        assert sum(1 for e in out if e.split == "test") == 24

    def test_same_seed_same_assignment(self):
        entries = self.make_entries(40) + self.make_entries(40, polarity="Wrong")
        a = dataset.split(entries, 0.7, seed=5)
        b = dataset.split(entries, 0.7, seed=5)
        assert [e.split for e in a] == [e.split for e in b]

    def test_different_seeds_differ_somewhere(self):
        entries = self.make_entries(40)
        base = [e.split for e in dataset.split(entries, 0.7, seed=0)]
        assert any([e.split for e in dataset.split(entries, 0.7, seed=s)] != base
                   for s in range(1, 11))

    def test_partition_no_entry_unassigned(self):
        entries = (self.make_entries(13) + self.make_entries(9, polarity="Wrong")
                   + self.make_entries(7, rule="tarqeeq_lam"))
        out = dataset.split(entries, 0.7, seed=3)
        assert all(e.split in ("train", "test") for e in out)
        assert len(out) == len(entries)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 120), seed=st.integers(0, 2**31), frac=st.floats(0.2, 0.9))
    def test_per_stratum_sizes_match_rounding(self, n, seed, frac):
        out = dataset.split(self.make_entries(n), frac, seed=seed)
        n_train = sum(1 for e in out if e.split == "train")
        assert abs(n_train - round(frac * n)) <= 1

    def test_stratum_too_small(self):
        with pytest.raises(DatasetError, match=r"has 1 entries \(need >= 2\)"):
            dataset.split(self.make_entries(1), 0.7, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(strata=st.lists(st.tuples(st.sampled_from(["edgham_meem", "tarqeeq_lam"]),
                                     st.sampled_from(["Right", "Wrong", None])),
                           min_size=2, max_size=60),
           seed=st.integers(0, 2**32 - 1), frac=st.floats(0.01, 0.99))
    def test_matches_the_per_position_loop(self, strata, seed, frac):
        entries = [entry(path=f"{i}.wav", rule=rule, polarity=polarity)
                   for i, (rule, polarity) in enumerate(strata)]
        try:
            out = dataset.split(entries, frac, seed=seed)
        except DatasetError as exc:
            assert "entries (need >= 2)" in str(exc)
            assert min(strata.count(s) for s in strata) < 2
            return
        assert [e.split for e in out] == oracles.split_per_position(entries, frac, seed)
        assert all(type(e.split) is str for e in out)  # not a numpy str


class TestSynthGenerate:
    def test_counts(self, tmp_path):
        recipe = dataset.default_recipe()
        entries = dataset.synth_generate(recipe, 1, str(tmp_path / "c"),
                                         clips_per_class=5, negatives_per_rule=0,
                                         verses_per_rule=0, event_free_per_rule=0)
        # 2 rules x 2 polarities x 5 clips
        assert len(entries) == 20
        wavs = [f for f in os.listdir(tmp_path / "c") if f.endswith(".wav")]
        assert len(wavs) == 20

    def test_same_seed_byte_identical_corpora(self, tmp_path):
        recipe = dataset.default_recipe()
        kw = dict(clips_per_class=3, negatives_per_rule=2, verses_per_rule=1,
                  event_free_per_rule=1)
        dataset.synth_generate(recipe, 9, str(tmp_path / "a"), **kw)
        dataset.synth_generate(recipe, 9, str(tmp_path / "b"), **kw)
        for root, _, files in os.walk(tmp_path / "a"):
            for f in files:
                pa = os.path.join(root, f)
                pb = pa.replace(str(tmp_path / "a"), str(tmp_path / "b"))
                assert open(pa, "rb").read() == open(pb, "rb").read(), f

    @pytest.mark.parametrize("rate,clip_s,lead_s", [
        (8000, 4.0, 0.5), (16000, 4.0, 0.5), (22050, 4.0, 0.5),
        (16000, 3.0, 1.5),      # exemplar events longer than the clip: cut at its edge
    ])
    def test_generator_contract_at_every_rate(self, tmp_path, rate, clip_s, lead_s):
        recipe = dict(dataset.default_recipe(), sample_rate_hz=rate, clip_seconds=clip_s,
                      event_lead_max_s=lead_s)
        entries = dataset.synth_generate(recipe, 4, str(tmp_path / "c"),
                                         clips_per_class=2, negatives_per_rule=1,
                                         verses_per_rule=2, event_free_per_rule=1)
        assert sum(e.onset_s is not None for e in entries) == 8
        for e in entries:
            clip = audio.load_wav(str(tmp_path / "c" / e.path))
            assert clip.sample_rate_hz == rate
            n = len(clip.samples)
            if "_verse_" not in e.path:
                assert n == round(clip_s * rate), e.path
                continue
            assert round(recipe["verse_seconds_min"] * rate) <= n, e.path
            assert n <= round(recipe["verse_seconds_max"] * rate), e.path
            if e.onset_s is not None:
                template = audio.load_wav(str(tmp_path / "c" / "templates" / e.path)).samples
                lags = oracles.correlate_lags(clip.samples, template)
                assert np.argmax(lags) == round(e.onset_s * rate), e.path

    @pytest.mark.parametrize("count", [-1, True, 2.0])
    def test_keyword_counts_checked_before_any_write(self, tmp_path, count):
        with pytest.raises(ValueError, match="verses_per_rule must be"):
            dataset.synth_generate(dataset.default_recipe(), 1, str(tmp_path / "c"),
                                   clips_per_class=0, negatives_per_rule=0,
                                   verses_per_rule=count, event_free_per_rule=0)
        assert not (tmp_path / "c").exists()

    def test_manifest_written_alongside(self, tmp_path):
        dataset.synth_generate(dataset.default_recipe(), 2, str(tmp_path / "c"),
                               clips_per_class=2, negatives_per_rule=0,
                               verses_per_rule=0, event_free_per_rule=0)
        loaded = dataset.load_manifest(str(tmp_path / "c" / dataset.MANIFEST_NAME))
        assert len(loaded) == 8


class TestReviewQueue:
    def record(self, rid=None):
        return dataset.ReviewRecord(
            record_id=rid, audio_path="x.wav", rule_id="edgham_meem",
            verdict={"polarity": "Right", "offset_s": 2.0, "score": 0.97,
                     "closeness_pct": 97},
            created_at="2024-01-01T00:00:00+00:00",
        )

    def test_append_then_list_pending(self, tmp_path):
        q = str(tmp_path / "q.jsonl")
        stored = dataset.review_append(q, self.record())
        assert stored.record_id == 1
        pending = dataset.review_list(q, status="pending")
        assert [r.record_id for r in pending] == [1]

    def test_ids_monotonic(self, tmp_path):
        q = str(tmp_path / "q.jsonl")
        ids = [dataset.review_append(q, self.record()).record_id for _ in range(3)]
        assert ids == [1, 2, 3]

    def test_automatic_id_follows_the_largest_explicit_one(self, tmp_path):
        q = str(tmp_path / "q.jsonl")
        for rid in (1, 3):
            dataset.review_append(q, self.record(rid=rid))
        assert dataset.review_append(q, self.record()).record_id == 4
        assert [r.record_id for r in dataset.review_list(q)] == [1, 3, 4]

    def test_append_idempotent_on_existing_id(self, tmp_path):
        q = str(tmp_path / "q.jsonl")
        dataset.review_append(q, self.record())
        again = dataset.review_append(q, self.record(rid=1))
        assert again.record_id == 1
        assert len(dataset.review_list(q)) == 1

    def test_label_corrected_moves_status(self, tmp_path):
        q = str(tmp_path / "q.jsonl")
        dataset.review_append(q, self.record())
        out = dataset.review_label(q, 1, "corrected", label="Wrong")
        assert out.status == "corrected"

    def test_label_approved_moves_status(self, tmp_path):
        q = str(tmp_path / "q.jsonl")
        dataset.review_append(q, self.record())
        out = dataset.review_label(q, 1, "approved")
        assert out.status == "approved"

    def test_unknown_record(self, tmp_path):
        q = str(tmp_path / "q.jsonl")
        dataset.review_append(q, self.record())
        with pytest.raises(DatasetError, match="no review record 99"):
            dataset.review_label(q, 99, "approved")

    def test_label_on_a_missing_queue_creates_nothing(self, tmp_path):
        q = tmp_path / "missing.jsonl"
        with pytest.raises(DatasetError, match="no review queue .*, so no record 1"):
            dataset.review_label(str(q), 1, "approved")
        assert not q.exists()

    @pytest.mark.parametrize("appended", [0, 1], ids=["missing_queue", "one_record"])
    def test_label_names_an_id_past_the_digit_limit_by_its_digits(self, tmp_path, appended):
        q = tmp_path / "q.jsonl"
        if appended:
            dataset.review_append(str(q), self.record())
        before = q.read_bytes() if appended else None
        with pytest.raises(DatasetError, match="of 5001 digits"):
            dataset.review_label(str(q), 10 ** 5000, "approved")
        if appended:
            assert q.read_bytes() == before
        else:
            assert not q.exists()

    def test_list_on_a_missing_queue_raises_and_creates_nothing(self, tmp_path):
        q = tmp_path / "typo.jsonl"
        with pytest.raises(FileNotFoundError):
            dataset.review_list(str(q))
        assert not q.exists()

    @pytest.mark.parametrize("appended", [0, 1], ids=["empty_queue", "one_record"])
    @pytest.mark.parametrize("record", [
        dataset.ReviewRecord(10 ** 5000, "x.wav", "edgham_meem", None),  # over 4,300 digits
        dataset.ReviewRecord(None, "x.wav", "edgham_meem", {"score": {0.5}}),
    ], ids=["huge_record_id", "set_in_verdict"])
    def test_append_json_refuses_leaves_the_queue(self, tmp_path, record, appended):
        q = tmp_path / "q.jsonl"
        q.touch()
        for _ in range(appended):
            dataset.review_append(str(q), self.record())
        before = q.read_bytes()
        with pytest.raises(ParseError, match="cannot serialize"):
            dataset.review_append(str(q), record)
        assert q.read_bytes() == before
        assert [r.record_id for r in dataset.review_list(str(q))] == list(range(1, appended + 1))

    def test_relabel_requires_force(self, tmp_path):
        q = str(tmp_path / "q.jsonl")
        dataset.review_append(q, self.record())
        dataset.review_label(q, 1, "approved")
        with pytest.raises(DatasetError, match="record 1 is already approved; pass force"):
            dataset.review_label(q, 1, "corrected", label="Wrong")
        out = dataset.review_label(q, 1, "corrected", label="Wrong", force=True)
        assert out.status == "corrected"

    def test_survives_reopen_no_loss_or_duplication(self, tmp_path):
        q = str(tmp_path / "q.jsonl")
        dataset.review_append(q, self.record())
        dataset.review_append(q, self.record())
        dataset.review_label(q, 1, "approved")
        # a fresh replay from disk sees the same state
        records = dataset.review_list(q)
        assert [r.record_id for r in records] == [1, 2]
        assert records[0].status == "approved"
        assert records[1].status == "pending"

    def test_schema_header_line(self, tmp_path):
        q = str(tmp_path / "q.jsonl")
        dataset.review_append(q, self.record())
        first = open(q, encoding="utf-8").readline()
        assert json.loads(first)["schema_version"] == dataset.QUEUE_SCHEMA_VERSION

    def test_corrected_requires_label(self, tmp_path):
        q = str(tmp_path / "q.jsonl")
        dataset.review_append(q, self.record())
        with pytest.raises(ValueError):
            dataset.review_label(q, 1, "corrected")

    def test_concurrent_appends_lose_nothing(self, tmp_path):
        q = str(tmp_path / "q.jsonl")
        ctx = multiprocessing.get_context("spawn")
        workers = [ctx.Process(target=append_many, args=(q, 25)) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
        for w in workers:
            if w.is_alive():
                w.kill()
        assert [w.exitcode for w in workers] == [0, 0, 0, 0]
        lines = open(q, encoding="utf-8").read().splitlines()
        assert sum("schema_version" in line for line in lines) == 1
        assert len(lines) == 101
        assert [r.record_id for r in dataset.review_list(q)] == list(range(1, 101))

    @pytest.mark.parametrize("line", [
        '{"kind":"record","record_id":2}',                       # missing keys
        '[1, 2]',                                                # not an object
        '"record"',
        '{"kind":"record","record_id":"two","audio_path":"x.wav","rule_id":"r"}',
        '{"kind":"record","record_id":2,"audio_path":5,"rule_id":"r"}',      # non-string
        '{"kind":"record","record_id":2,"audio_path":"x.wav","rule_id":["x"]}',
        '{"kind":"record","record_id":1,"audio_path":null,"rule_id":"r"}',
        '{"kind":"label","record_id":9,"status":"approved"}',   # unknown record
        '{"kind":"retract","record_id":1}',                      # unknown kind
        '{not json',
        '{"kind":"label","record_id":1,"status":"bogus","label":7}',
        '{"kind":"label","record_id":1,"status":"pending","label":null}',      # bad status
        '{"kind":"label","record_id":1,"status":"approved","label":"right"}',  # bad label
        '{"kind":"label","record_id":1,"status":"corrected","label":null}',    # no label
        '{"kind":"label","record_id":1,"status":"corrected"}',
        '{"kind":"label","record_id":1.9,"status":"approved","label":null}',  # non-int ids
        '{"kind":"label","record_id":true,"status":"approved","label":null}',
        '{"kind":"record","record_id":"7","audio_path":"x.wav","rule_id":"r"}',
        '{"kind":"record","record_id":2,"audio_path":"x.wav","rule_id":"r","verdict":5}',
        '{"kind":"record","record_id":2,"audio_path":"x.wav","rule_id":"r","verdict":["x"]}',
        '{"kind":"record","record_id":2,"audio_path":"","rule_id":"r"}',          # empty path
        '{"kind":"record","record_id":2,"audio_path":"x.wav","rule_id":"r","created_at":5}',
    ])
    def test_malformed_line_reports_its_number(self, tmp_path, line):
        q = tmp_path / "q.jsonl"
        dataset.review_append(str(q), self.record())
        q.write_text(q.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            dataset.review_list(str(q))
        assert str(exc.value).startswith(f"{q}:3: ")
        with pytest.raises(ParseError):
            dataset.review_append(str(q), self.record())

    @pytest.mark.parametrize("record", [
        dataset.ReviewRecord(None, "x.wav", "edgham_meem", 5),
        dataset.ReviewRecord(None, "x.wav", "edgham_meem", ["Right"]),
        dataset.ReviewRecord(None, None, "edgham_meem", None),
        dataset.ReviewRecord(None, "x.wav", 7, None),
        dataset.ReviewRecord(2.0, "x.wav", "edgham_meem", None),
        dataset.ReviewRecord(True, "x.wav", "edgham_meem", None),  # not record 1's retry
        dataset.ReviewRecord("3", "x.wav", "edgham_meem", None),
        dataset.ReviewRecord(None, "", "edgham_meem", None),
        dataset.ReviewRecord(None, "x.wav", "", None),
        dataset.ReviewRecord(None, "x.wav", "edgham_meem", None, created_at=5),
        dataset.ReviewRecord(None, "x.wav", "edgham_meem", None, created_at=None),
    ])
    def test_append_refuses_a_record_a_read_would_reject(self, tmp_path, record):
        q = tmp_path / "q.jsonl"
        dataset.review_append(str(q), self.record())
        before = q.read_bytes()
        with pytest.raises(ParseError):
            dataset.review_append(str(q), record)
        assert q.read_bytes() == before
        assert [r.record_id for r in dataset.review_list(str(q))] == [1]

    def test_append_returns_the_record_a_read_gives_back(self, tmp_path):
        q = str(tmp_path / "q.jsonl")
        stored = dataset.review_append(q, dataset.ReviewRecord(
            None, "b.wav", "r", None, status="approved", corrected_label="Right"))
        assert stored.status == "pending" and stored.corrected_label is None
        assert dataset.review_list(q) == [stored]

    @pytest.mark.parametrize("record_id", [True, 1.0, "1"])
    def test_label_looks_up_only_int_ids(self, tmp_path, record_id):
        q = tmp_path / "q.jsonl"
        dataset.review_append(str(q), self.record())
        before = q.read_bytes()
        with pytest.raises(DatasetError, match=f"no review record {record_id!r}$"):
            dataset.review_label(str(q), record_id, "approved")
        assert q.read_bytes() == before
        assert [r.status for r in dataset.review_list(str(q))] == ["pending"]

    @pytest.mark.parametrize("label", ["bogus", 5, "right"])
    def test_label_refuses_a_label_a_read_would_reject(self, tmp_path, label):
        q = tmp_path / "q.jsonl"
        dataset.review_append(str(q), self.record())
        before = q.read_bytes()
        with pytest.raises(ValueError):
            dataset.review_label(str(q), 1, "approved", label=label)
        assert q.read_bytes() == before
        assert [r.status for r in dataset.review_list(str(q))] == ["pending"]

    def test_list_refuses_an_unknown_status(self, tmp_path):
        q = str(tmp_path / "q.jsonl")
        dataset.review_append(q, self.record())
        with pytest.raises(ValueError):
            dataset.review_list(q, status="bogus")

    def test_session_bytes_are_pinned(self, tmp_path):
        q = tmp_path / "q.jsonl"
        for i, path in enumerate(["a.wav", "b.wav", "c.wav"]):
            dataset.review_append(str(q), dataset.ReviewRecord(
                None, path, "r", {"score": 0.5} if i != 1 else None,
                created_at=f"2024-01-0{i + 1}T00:00:00+00:00"))
        dataset.review_label(str(q), 1, "corrected", label="Wrong")
        dataset.review_label(str(q), 1, "approved", force=True)
        dataset.review_append(str(q), dataset.ReviewRecord(2, "b.wav", "r", None, created_at="x"))
        assert q.read_text(encoding="utf-8").splitlines() == [
            '{"schema_version": 1}',
            '{"audio_path":"a.wav","created_at":"2024-01-01T00:00:00+00:00","kind":"record",'
            '"record_id":1,"rule_id":"r","verdict":{"score":0.5}}',
            '{"audio_path":"b.wav","created_at":"2024-01-02T00:00:00+00:00","kind":"record",'
            '"record_id":2,"rule_id":"r","verdict":null}',
            '{"audio_path":"c.wav","created_at":"2024-01-03T00:00:00+00:00","kind":"record",'
            '"record_id":3,"rule_id":"r","verdict":{"score":0.5}}',
            '{"kind":"label","label":"Wrong","record_id":1,"status":"corrected"}',
            '{"kind":"label","label":null,"record_id":1,"status":"approved"}',
        ]

    @given(record=st.builds(
        dataset.ReviewRecord,
        record_id=st.none() | JSON_VALUES, audio_path=st.just("x.wav") | JSON_VALUES,
        rule_id=st.just("r") | JSON_VALUES, verdict=st.none() | JSON_VALUES,
        created_at=st.just("") | JSON_VALUES,
        status=st.sampled_from(dataset.STATUSES) | JSON_VALUES,
        corrected_label=st.sampled_from([None, *dataset.POLARITIES]) | JSON_VALUES))
    @settings(max_examples=200, deadline=None)
    def test_append_returns_what_a_read_gives_back(self, tmp_path_factory, record):
        q = tmp_path_factory.getbasetemp() / "append_return_fuzz.jsonl"
        q.unlink(missing_ok=True)
        dataset.review_append(str(q), self.record())
        before = q.read_bytes()
        try:
            stored = dataset.review_append(str(q), record)
        except ParseError:
            assert q.read_bytes() == before
            assert [r.record_id for r in dataset.review_list(str(q))] == [1]
        else:
            listed = {r.record_id: r for r in dataset.review_list(str(q))}
            # every field, compared as JSON because a NaN in a verdict is not equal to itself
            assert json.dumps(asdict(listed[stored.record_id]), sort_keys=True) \
                == json.dumps(asdict(stored), sort_keys=True)

    @given(record_id=st.sampled_from([1, 2]) | JSON_VALUES,
           status=st.sampled_from(dataset.STATUSES) | JSON_VALUES,
           label=st.sampled_from([None, *dataset.POLARITIES]) | JSON_VALUES,
           force=JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_label_leaves_a_readable_queue(self, tmp_path_factory, record_id, status, label,
                                           force):
        q = tmp_path_factory.getbasetemp() / "label_fuzz.jsonl"
        q.unlink(missing_ok=True)
        dataset.review_append(str(q), self.record())
        dataset.review_append(str(q), self.record())
        dataset.review_label(str(q), 2, "approved")
        before = q.read_bytes()
        try:
            labeled = dataset.review_label(str(q), record_id, status, label, force)
        except (ValueError, DatasetError) as exc:
            assert not isinstance(exc, ParseError)
            assert q.read_bytes() == before
            assert [r.record_id for r in dataset.review_list(str(q))] == [1, 2]
        else:
            assert {r.record_id: r for r in dataset.review_list(str(q))}[record_id] == labeled

    @given(record_id=JSON_VALUES, audio_path=JSON_VALUES, rule_id=JSON_VALUES,
           verdict=JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_appended_queue_stays_readable(self, tmp_path_factory, record_id, audio_path,
                                           rule_id, verdict):
        q = tmp_path_factory.getbasetemp() / "append_fuzz.jsonl"
        q.unlink(missing_ok=True)
        dataset.review_append(str(q), self.record())
        try:
            stored = dataset.review_append(
                str(q), dataset.ReviewRecord(record_id, audio_path, rule_id, verdict))
        except ParseError:
            assert [r.record_id for r in dataset.review_list(str(q))] == [1]
        else:
            listed = {r.record_id: r for r in dataset.review_list(str(q))}
            assert listed[stored.record_id].audio_path == stored.audio_path

    @pytest.mark.parametrize("cut", [1, 10, 100])
    def test_torn_last_line_is_ignored_and_cut_by_the_next_write(self, tmp_path, cut):
        # a crash or a full disk mid-append leaves a last line with no newline
        torn, whole = tmp_path / "torn.jsonl", tmp_path / "whole.jsonl"
        for q, n in ((torn, 2), (whole, 1)):
            for _ in range(n):
                dataset.review_append(str(q), self.record())
        torn.write_bytes(torn.read_bytes()[:-cut])
        assert dataset.review_list(str(torn)) == dataset.review_list(str(whole))
        for q in (torn, whole):
            dataset.review_label(str(q), 1, "approved")
            assert dataset.review_append(str(q), self.record()).record_id == 2
        assert torn.read_bytes() == whole.read_bytes()

    def test_torn_header_is_ignored_and_cut_by_the_next_append(self, tmp_path):
        torn, whole = tmp_path / "torn.jsonl", tmp_path / "whole.jsonl"
        torn.write_bytes(b'{"schema_vers')
        assert dataset.review_list(str(torn)) == []
        for q in (torn, whole):
            dataset.review_append(str(q), self.record())
        assert torn.read_bytes() == whole.read_bytes()

    def test_bad_line_before_a_torn_one_still_reports_its_number(self, tmp_path):
        q = tmp_path / "q.jsonl"
        dataset.review_append(str(q), self.record())
        q.write_bytes(q.read_bytes() + b'{not json\n{"kind":"rec')
        with pytest.raises(ParseError) as exc:
            dataset.review_list(str(q))
        assert str(exc.value).startswith(f"{q}:3: ")

    def test_appender_killed_at_random_points_leaves_a_listable_queue(self, tmp_path):
        q = str(tmp_path / "q.jsonl")
        # fork, not spawn: 50 fresh numpy imports would take about 25 s, and the
        # child runs only the queue's json and file calls, no BLAS
        ctx = multiprocessing.get_context("fork")
        rng = np.random.default_rng(12)
        for _ in range(50):
            worker = ctx.Process(target=append_forever, args=(q,))
            worker.start()
            time.sleep(rng.uniform(0.0, 0.03))
            worker.kill()
            worker.join()
            ids = [r.record_id for r in dataset.review_list(q)] if os.path.exists(q) else []
            assert ids == list(range(1, len(ids) + 1))
        assert ids  # some appends landed

    @pytest.mark.parametrize("header", ['{"schema_version": 2}', "[]", "{}", "garbage"])
    def test_bad_header_line(self, tmp_path, header):
        q = tmp_path / "q.jsonl"
        q.write_text(header + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            dataset.review_list(str(q))
        assert str(exc.value).startswith(f"{q}:1: ")

    @given(event=st.fixed_dictionaries({}, optional={
        "kind": st.sampled_from(["record", "label"]) | JSON_VALUES,
        "record_id": st.sampled_from([1, 2, float("inf")]) | JSON_VALUES,
        "audio_path": JSON_VALUES, "rule_id": JSON_VALUES,
        "status": JSON_VALUES, "label": JSON_VALUES, "verdict": JSON_VALUES,
    }) | JSON_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_mutated_queue_line_raises_only_parse_error(self, tmp_path_factory, event):
        q = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        q.unlink(missing_ok=True)
        dataset.review_append(str(q), self.record())
        q.write_text(q.read_text(encoding="utf-8") + json.dumps(event) + "\n", encoding="utf-8")
        try:
            records = dataset.review_list(str(q))
        except ParseError as exc:
            assert str(exc).startswith(f"{q}:3: ")
        else:
            for r in records:
                assert type(r.record_id) is int and isinstance(r.verdict, (dict, type(None)))
