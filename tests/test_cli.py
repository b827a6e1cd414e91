import json
import os
import re
import resource
import shutil
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tajweed import audio, cli, dataset, detection, errors, features, persistence


def run(argv):
    return cli.main(argv)


def refuse(*args):
    raise OSError("refused")


@pytest.fixture(scope="module")
def manifest(small_corpus):
    root, _ = small_corpus
    return os.path.join(root, dataset.MANIFEST_NAME)


@pytest.fixture(scope="module")
def trained_model_path(manifest, tmp_path_factory):
    out = tmp_path_factory.mktemp("models") / "edgham.model"
    code = run(["train", "--manifest", manifest, "--rule", "edgham_meem",
                "--seed", "5", "--model", str(out)])
    assert code == 0
    return str(out)


@pytest.fixture(scope="module")
def flatten_model_path(manifest, tmp_path_factory):
    out = tmp_path_factory.mktemp("models") / "edgham_flatten.model"
    code = run(["train", "--manifest", manifest, "--rule", "edgham_meem",
                "--seed", "5", "--agg", "flatten", "--model", str(out)])
    assert code == 0
    return str(out)


@pytest.fixture(scope="module")
def tarqeeq_model_path(manifest, tmp_path_factory):
    out = tmp_path_factory.mktemp("models") / "tarqeeq.model"
    assert run(["train", "--manifest", manifest, "--rule", "tarqeeq_lam",
                "--seed", "5", "--model", str(out)]) == 0
    return str(out)


def patched_header(model_path, tmp_path, mutate):
    """Path of a copy of the model file whose JSON header went through mutate."""
    blob = open(model_path, "rb").read()
    hlen = struct.unpack_from("<I", blob, 8)[0]
    header = json.loads(blob[12:12 + hlen])
    mutate(header)
    new = json.dumps(header).encode()
    bad = tmp_path / "bad.model"
    bad.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[12 + hlen:])
    return str(bad)


MISSING = object()
CRAFTED_KEYS = [*features.FeatureConfig().header(), "log_floor"]
# explicit sets, sizes among them: load refuses every config but the two train
# writes before a drawn size is used, so nothing is allocated from a draw
CRAFTED_VALUES = st.sampled_from([0, -1, 1, 10, 25, 70, 256, 8000, 2 ** 40, 0.0, 0.2, 4000.0,
                                  True, False, "", "flatten", "mean_std_pool", None, MISSING])


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [
        (errors.TajweedError, 1), (errors.AudioError, 3), (errors.FeatureError, 4),
        (errors.SvmError, 5), (errors.DetectionError, 6), (errors.DatasetError, 7),
        (errors.PersistenceError, 8), (errors.IoError, 9), (OSError, 9),
    ])
    def test_each_error_family_exits_with_its_code(self, monkeypatch, capsys, error, code):
        def fail(path):
            raise error("refused")

        monkeypatch.setattr(dataset, "load_manifest", fail)
        assert run(["split", "--manifest", "m.csv", "--seed", "1"]) == code
        assert capsys.readouterr().err == "error: refused\n"

    def test_malformed_manifest_row_names_its_path_and_line(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("path,rule_id,polarity,onset_s,split\n"
                            "a.wav,edgham_meem,Right,,test\n"
                            "b.wav,edgham_meem,Sideways,,test\n")
        assert run(["evaluate", "--manifest", str(manifest), "--model", "m.model"]) == 7
        assert capsys.readouterr().err == f"error: {manifest}:3: bad polarity 'Sideways'\n"

    def test_malformed_queue_line_names_its_path_and_line(self, tmp_path, capsys):
        verdict = tmp_path / "verdict.json"
        verdict.write_text(json.dumps({"audio_path": "v.wav", "rule_id": "edgham_meem"}))
        queue = tmp_path / "q.jsonl"
        assert run(["review", "append", "--queue", str(queue), "--verdict", str(verdict)]) == 0
        with open(queue, "a") as fh:
            fh.write('{"kind":"bogus","record_id":1}\n')
        capsys.readouterr()
        assert run(["review", "list", "--queue", str(queue)]) == 7
        assert capsys.readouterr().err.startswith(f"error: {queue}:3: bad queue line: ")

    def test_missing_rule_stratum_is_dataset_error(self, manifest, tmp_path):
        code = run(["train", "--manifest", manifest, "--rule", "ekhfaa_meem",
                    "--seed", "1", "--model", str(tmp_path / "m.model")])
        assert code == 7

    def test_bad_model_file_is_persistence_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_bytes(b"garbage")
        code = run(["detect", "--audio", "x.wav", "--rule", "edgham_meem",
                    "--model", str(bad)])
        assert code == 8
        assert "error:" in capsys.readouterr().err

    def test_missing_audio_is_audio_error(self, trained_model_path, tmp_path):
        code = run(["detect", "--audio", str(tmp_path / "none.wav"),
                    "--rule", "edgham_meem", "--model", trained_model_path])
        assert code == 3

    def test_model_header_without_dim_is_persistence_error(self, trained_model_path,
                                                            tmp_path):
        bad = patched_header(trained_model_path, tmp_path, lambda h: h.pop("dim"))
        code = run(["detect", "--audio", "x.wav", "--rule", "edgham_meem", "--model", bad])
        assert code == 8

    def test_stale_fingerprint_is_persistence_error(self, trained_model_path, tmp_path):
        bad = patched_header(trained_model_path, tmp_path,
                             lambda h: h.update(config_fingerprint="0" * 64))
        code = run(["detect", "--audio", "x.wav", "--rule", "edgham_meem", "--model", bad])
        assert code == 8

    @pytest.mark.parametrize("change", [{"frame_ms": 5000, "fft_size": 65536},
                                        {"fft_size": 2 ** 40}])
    def test_unusable_feature_config_is_persistence_error(self, trained_model_path, tmp_path,
                                                          change):
        # the fingerprint matches the crafted config, so only the loader's match
        # against the configs train writes refuses it: before any frame or
        # spectrum is allocated
        stored = {**features.FeatureConfig().header(), **change}

        def craft(header):
            header["feature_config"] = stored
            header["config_fingerprint"] = oracles.config_fingerprint(stored)

        bad = patched_header(trained_model_path, tmp_path, craft)
        wav = str(tmp_path / "silence.wav")
        audio.write_wav(wav, audio.AudioClip(np.zeros(32000), 8000))
        tracemalloc.start()
        try:
            code = run(["detect", "--audio", wav, "--rule", "edgham_meem", "--model", bad])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 8
        assert peak < 2 ** 24

    def test_flatten_header_on_a_pooled_model_is_persistence_error(self, trained_model_path,
                                                                   tmp_path):
        # config and fingerprint agree, but the 140-dim support vectors do not
        # fit flatten's 398 x 70 rows: refused at load, not at scoring
        flatten = features.FeatureConfig("flatten")
        bad = patched_header(trained_model_path, tmp_path, lambda h: h.update(
            feature_config=flatten.header(), config_fingerprint=flatten.fingerprint()))
        wav = str(tmp_path / "silence.wav")
        audio.write_wav(wav, audio.AudioClip(np.zeros(32000), 8000))
        code = run(["detect", "--audio", wav, "--rule", "edgham_meem", "--model", bad])
        assert code == 8

    @given(agg=st.sampled_from(features.AGGREGATIONS),
           edits=st.dictionaries(st.sampled_from(CRAFTED_KEYS), CRAFTED_VALUES, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_crafted_feature_config_through_detect(self, trained_model_path, flatten_model_path,
                                                   small_corpus, tmp_path_factory, agg, edits):
        """Only the config train writes for a model's aggregation detects (exit
        0); every other one, its fingerprint recomputed, exits 8 at load. Any
        other exception would escape cli.main and fail the test."""
        model = trained_model_path if agg == "mean_std_pool" else flatten_model_path
        root, entries = small_corpus
        verse = os.path.join(root, next(e.path for e in entries if "right_verse" in e.path))
        stored = features.FeatureConfig(agg).header()
        for key, value in edits.items():
            if value is MISSING:
                stored.pop(key, None)
            else:
                stored[key] = value
        bad = patched_header(model, tmp_path_factory.getbasetemp(), lambda h: h.update(
            feature_config=stored, config_fingerprint=oracles.config_fingerprint(stored)))
        code = run(["detect", "--audio", verse, "--rule", "edgham_meem", "--model", bad])
        written = json.dumps(features.FeatureConfig(agg).header(), sort_keys=True)
        assert code == (0 if json.dumps(stored, sort_keys=True) == written else 8)

    @pytest.mark.parametrize("payload", [{"rule_id": "edgham_meem"}, {"audio_path": "v.wav"},
                                         ["v.wav", "edgham_meem"]])
    def test_incomplete_verdict_is_dataset_error(self, tmp_path, payload):
        verdict = tmp_path / "verdict.json"
        verdict.write_text(json.dumps(payload))
        code = run(["review", "append", "--queue", str(tmp_path / "q.jsonl"),
                    "--verdict", str(verdict)])
        assert code == 7

    @pytest.mark.parametrize("payload", [{"audio_path": 5, "rule_id": ["x"]},
                                         {"audio_path": "v.wav", "rule_id": None},
                                         {"audio_path": "", "rule_id": "edgham_meem"}])
    def test_non_string_identity_verdict_is_dataset_error(self, tmp_path, payload):
        verdict = tmp_path / "verdict.json"
        verdict.write_text(json.dumps(payload))
        queue = tmp_path / "q.jsonl"
        assert run(["review", "append", "--queue", str(queue), "--verdict", str(verdict)]) == 7
        assert not queue.exists()

    @pytest.mark.parametrize("verdict", [5, ["x"], "Right", True])
    def test_non_object_verdict_is_dataset_error(self, tmp_path, verdict):
        payload = tmp_path / "verdict.json"
        payload.write_text(json.dumps({"audio_path": "v.wav", "rule_id": "edgham_meem",
                                       "verdict": verdict}))
        queue = tmp_path / "q.jsonl"
        assert run(["review", "append", "--queue", str(queue), "--verdict", str(payload)]) == 7
        assert not queue.exists()

    @pytest.mark.parametrize("extra", [{}, {"verdict": None}, {"verdict": {"polarity": None}}])
    def test_absent_null_or_object_verdict_is_appended(self, tmp_path, extra):
        payload = tmp_path / "verdict.json"
        payload.write_text(json.dumps({"audio_path": "v.wav", "rule_id": "edgham_meem", **extra}))
        queue = str(tmp_path / "q.jsonl")
        assert run(["review", "append", "--queue", queue, "--verdict", str(payload)]) == 0
        assert [r.verdict for r in dataset.review_list(queue)] == [extra.get("verdict")]

    @pytest.mark.parametrize("argv", [
        ["train", "--manifest", "missing.csv", "--rule", "edgham_meem", "--seed", "1",
         "--model", "m.model"],
        ["review", "append", "--queue", "q.jsonl", "--verdict", "missing.json"],
    ])
    def test_unopenable_input_is_io_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 9
        assert "error:" in capsys.readouterr().err

    def test_list_of_a_missing_queue_exits_9_and_creates_nothing(self, tmp_path, capsys):
        queue = tmp_path / "typo.jsonl"
        assert run(["review", "list", "--queue", str(queue)]) == 9
        assert "typo.jsonl" in capsys.readouterr().err
        assert not queue.exists()

    def test_unparsable_verdict_is_dataset_error(self, tmp_path):
        verdict = tmp_path / "verdict.json"
        verdict.write_text("{not json")
        code = run(["review", "append", "--queue", str(tmp_path / "q.jsonl"),
                    "--verdict", str(verdict)])
        assert code == 7

    @pytest.mark.parametrize("flag", ["--c", "--gamma"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_train_params_are_value_errors(self, manifest, tmp_path, capsys,
                                                    monkeypatch, flag, value):
        monkeypatch.setattr(detection, "exemplars", refuse)
        model = tmp_path / "m.model"
        with pytest.raises(SystemExit) as exc:
            run(["train", "--manifest", manifest, "--rule", "edgham_meem",
                 "--seed", "1", f"{flag}={value}", "--model", str(model)])
        assert exc.value.code == 2
        assert f"argument {flag}: '{value}' is not a finite number > 0" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("option", ["--c-grid=nan", "--gamma-grid=inf",
                                        "--folds=1", "--folds=0", "--folds=-2"])
    def test_bad_gridsearch_params_are_value_errors(self, manifest, capsys, monkeypatch,
                                                    option):
        monkeypatch.setattr(detection, "exemplars", refuse)
        with pytest.raises(SystemExit) as exc:
            run(["gridsearch", "--manifest", manifest, "--rule", "edgham_meem",
                 "--seed", "1", "--c-grid", "1.0", "--gamma-grid", "0.1", option])
        assert exc.value.code == 2
        flag, value = option.split("=")
        assert f"argument {flag}: '{value}' is not " in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda recipe: list(recipe),
        lambda recipe: {k: v for k, v in recipe.items() if k != "clip_seconds"},
        lambda recipe: {**recipe, "classes": {"edgham_meem": {"Right": [], "Wrong": []}}},
        lambda recipe: "{not json",
        lambda recipe: {k: v for k, v in recipe.items() if k != "event_seconds_min"},
    ])
    def test_malformed_synth_spec_is_dataset_error(self, tmp_path, capsys, edit):
        recipe = dataset.default_recipe()
        recipe.update(clips_per_class=1, negatives_per_rule=0,
                      verses_per_rule=0, event_free_verses_per_rule=0)
        spec = edit(recipe)
        (tmp_path / "spec.json").write_text(spec if isinstance(spec, str) else json.dumps(spec))
        code = run(["synth", "--spec", str(tmp_path / "spec.json"), "--seed", "1",
                    "--out", str(tmp_path / "corpus")])
        assert code == 7
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", [500, True, 8000.5])
    def test_unreadable_synth_rate_is_dataset_error(self, tmp_path, capsys, rate):
        # 500 and True (1 Hz) would write WAVs that load_wav refuses; the
        # wave module would round 8000.5 in the headers but not in the onsets
        recipe = dataset.default_recipe()
        recipe.update(sample_rate_hz=rate, clips_per_class=1, negatives_per_rule=0,
                      verses_per_rule=0, event_free_verses_per_rule=0)
        (tmp_path / "spec.json").write_text(json.dumps(recipe))
        code = run(["synth", "--spec", str(tmp_path / "spec.json"), "--seed", "1",
                    "--out", str(tmp_path / "corpus")])
        assert code == 7
        assert "sample_rate_hz" in capsys.readouterr().err
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("name", ["../evil", "/abs", "edgham_meem/x", "Edgham", "_x", ""])
    def test_bad_synth_class_name_writes_nothing(self, tmp_path, capsys, name):
        recipe = dataset.default_recipe()
        recipe["classes"][name] = recipe["classes"].pop("tarqeeq_lam")
        recipe.update(clips_per_class=1, negatives_per_rule=0,
                      verses_per_rule=1, event_free_verses_per_rule=0)
        (tmp_path / "spec.json").write_text(json.dumps(recipe))
        parent = tmp_path / "parent"
        parent.mkdir()
        code = run(["synth", "--spec", str(tmp_path / "spec.json"), "--seed", "1",
                    "--out", str(parent / "corpus")])
        assert code == 7
        assert "class name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["parent", "spec.json"]
        assert list(parent.iterdir()) == []

    @pytest.mark.parametrize("key,edit", [
        # each wrote a broken corpus with exit 0: silent WAVs or no exemplars
        ("background.noise_level", lambda r: r["background"].update(noise_level=float("nan"))),
        ("background.noise_level", lambda r: r["background"].update(noise_level=-0.01)),
        ("background.band_hz", lambda r: r["background"].update(band_hz=[3950.0, 50.0])),
        ("background.band_hz", lambda r: r["background"].update(band_hz=[50.0, 4001.0])),
        ("background.band_hz", lambda r: r["background"].update(band_hz=[-1.0, 3950.0])),
        ("clips_per_class", lambda r: r.update(clips_per_class=-1)),
        ("clips_per_class", lambda r: r.update(clips_per_class=True)),
        ("negatives_per_rule", lambda r: r.update(negatives_per_rule=1.5)),
        ("event_free_verses_per_rule", lambda r: r.update(event_free_verses_per_rule=-2)),
    ])
    def test_broken_synth_recipe_names_its_key_and_writes_nothing(self, tmp_path, capsys,
                                                                   key, edit):
        recipe = dataset.default_recipe()
        recipe.update(clips_per_class=1, negatives_per_rule=0,
                      verses_per_rule=1, event_free_verses_per_rule=0)
        edit(recipe)
        (tmp_path / "spec.json").write_text(json.dumps(recipe))
        code = run(["synth", "--spec", str(tmp_path / "spec.json"), "--seed", "1",
                    "--out", str(tmp_path / "corpus")])
        assert code == 7
        assert f"{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "corpus").exists()

    def test_seed_required_for_train(self, manifest, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--manifest", manifest, "--rule", "edgham_meem",
                 "--model", str(tmp_path / "m.model")])
        assert exc.value.code == 2

    def test_seed_required_for_synth(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--out", str(tmp_path / "c")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cmd", ["synth", "split", "train", "gridsearch"])
    def test_negative_seed_is_a_usage_error_before_any_work(self, cmd, manifest, tmp_path,
                                                            capsys, monkeypatch):
        # numpy rejects a negative seed only once it seeds: synth had made
        # <out>/templates by then, train and gridsearch read every exemplar
        monkeypatch.setattr(detection, "exemplars", refuse)
        argv = {"synth": ["--out", str(tmp_path / "corpus")],
                "split": ["--manifest", manifest, "--out", str(tmp_path / "split.csv")],
                "train": ["--manifest", manifest, "--rule", "edgham_meem",
                          "--model", str(tmp_path / "m.model")],
                "gridsearch": ["--manifest", manifest, "--rule", "edgham_meem"]}[cmd]
        with pytest.raises(SystemExit) as exc:
            run([cmd, "--seed", "-1", *argv])
        assert exc.value.code == 2
        assert "argument --seed: '-1' is not an integer >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cmd, option, value, message", [
        ("train", "--c", "0", "a finite number > 0"),
        ("train", "--gamma", "nan", "a finite number > 0"),
        ("gridsearch", "--folds", "1", "an integer >= 2"),
        ("gridsearch", "--c-grid", "1,-1", "a finite number > 0"),
        ("gridsearch", "--gamma-grid", "0.1,0", "a finite number > 0"),
    ])
    def test_bad_numeric_option_is_a_usage_error_before_any_work(
            self, cmd, option, value, message, manifest, tmp_path, capsys, monkeypatch):
        # svm.train and svm.grid_search refused these only after every train
        # exemplar of the rule had been loaded and featurized
        monkeypatch.setattr(detection, "exemplars", refuse)
        argv = ["--manifest", manifest, "--rule", "edgham_meem", "--seed", "1", option, value]
        with pytest.raises(SystemExit) as exc:
            run([cmd, *argv, *(["--model", str(tmp_path / "m.model")] if cmd == "train" else [])])
        assert exc.value.code == 2
        bad = value.split(",")[-1]
        assert f"argument {option}: '{bad}' is not {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestOneParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_commands_share_nothing_through_the_parser(self, small_corpus, manifest,
                                                      trained_model_path, tarqeeq_model_path,
                                                      tmp_path, capsys, monkeypatch):
        root, entries = small_corpus
        verse = next(e for e in entries if e.rule_id == "edgham_meem" and e.onset_s is not None)
        out = tmp_path / "out"
        detect = ["detect", "--audio", os.path.join(root, verse.path), "--rule", "edgham_meem",
                  "--model", trained_model_path]
        evaluate = ["evaluate", "--manifest", manifest, "--model", trained_model_path]
        commands = [
            detect + ["--out", str(out / "timeline.csv"), "--verdict-out", str(out / "v.json")],
            detect,
            evaluate + ["--model", tarqeeq_model_path, "--out", str(out / "conf.csv")],
            evaluate,
            ["synth", "--out", str(out / "corpus")],
            ["synth", "--out", str(out / "corpus")],
        ]
        loaded, load_model = [], persistence.load_model
        monkeypatch.setattr(persistence, "load_model",
                            lambda path: loaded.append(path) or load_model(path))

        def session():
            """Per command: exit code, stdout, stderr, the models it loaded and
            the files it wrote under out."""
            results = []
            for argv in commands:
                out.mkdir()
                del loaded[:]
                try:
                    code = run(argv)
                except SystemExit as exc:
                    code = exc.code
                written = {p.name: p.read_bytes() for p in out.iterdir()}
                results.append((code, *capsys.readouterr(), list(loaded), written))
                shutil.rmtree(out)
            return results

        shared = session()
        assert [r[0] for r in shared] == [0, 0, 0, 0, 2, 2]
        assert sorted(shared[0][4]) == ["timeline.csv", "v.json"]
        assert shared[1][4] == {}  # the first detect's --out and --verdict-out are gone
        assert shared[2][3] == [trained_model_path, tarqeeq_model_path]
        assert shared[3][3] == [trained_model_path]  # --model does not accumulate
        assert list(shared[2][4]) == ["conf.csv"] and shared[3][4] == {}
        assert shared[4] == shared[5]

        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert session() == shared  # a fresh parser per command


class TestTrain:
    def test_same_seed_byte_identical_models(self, manifest, tmp_path):
        a, b = str(tmp_path / "a.model"), str(tmp_path / "b.model")
        assert run(["train", "--manifest", manifest, "--rule", "tarqeeq_lam",
                    "--seed", "3", "--model", a]) == 0
        assert run(["train", "--manifest", manifest, "--rule", "tarqeeq_lam",
                    "--seed", "3", "--model", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_flatten_model_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # tools/same_behaviour.py's 24-clip one-rule corpus: without tajweed's
        # one-thread pin, a 2-thread OpenBLAS writes this flatten model in other bytes
        recipe = dataset.default_recipe()
        recipe.update(clips_per_class=24, negatives_per_rule=3, verses_per_rule=1,
                      event_free_verses_per_rule=1,
                      classes={"edgham_meem": recipe["classes"]["edgham_meem"]})
        spec, corpus = tmp_path / "spec.json", tmp_path / "corpus"
        spec.write_text(json.dumps(recipe))
        manifest = str(corpus / dataset.MANIFEST_NAME)
        assert run(["synth", "--spec", str(spec), "--seed", "1", "--out", str(corpus)]) == 0
        assert run(["split", "--manifest", manifest, "--seed", "2"]) == 0
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        models = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            env.update(OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            model = tmp_path / f"flatten{threads}.model"
            subprocess.run([sys.executable, "-m", "tajweed", "train", "--manifest", manifest,
                            "--rule", "edgham_meem", "--seed", "3", "--agg", "flatten",
                            "--gamma", "0.00002", "--model", str(model)],
                           env=env, capture_output=True, timeout=300, check=True)
            models.append(model.read_bytes())
        assert models[0] == models[1]

    def test_models_match_interp_resampling(self, tmp_path, monkeypatch):
        # every clip of a 16 kHz corpus is resampled before its features
        recipe = dataset.default_recipe()
        recipe.update(sample_rate_hz=16000, clips_per_class=6, negatives_per_rule=2,
                      verses_per_rule=0, event_free_verses_per_rule=1)
        root = str(tmp_path / "corpus")
        entries = dataset.split(dataset.synth_generate(recipe, seed=42, out_dir=root), 0.7, seed=7)

        def model_bytes(rule_id, name):
            path = str(tmp_path / name)
            model, _ = cli.train_rule_model(entries, root, rule_id, 1.0, 0.1, seed=5)
            persistence.save_model(model, path)
            return open(path, "rb").read()

        shipped = {rule: model_bytes(rule, f"{rule}.model") for rule in recipe["classes"]}
        calls = []

        def interp_resample(clip, target_hz):
            calls.append(clip.sample_rate_hz)
            out = oracles.interp_resample(clip.samples * clip.scale, clip.sample_rate_hz, target_hz)
            return audio.AudioClip(out, target_hz)

        monkeypatch.setattr(audio, "resample", interp_resample)
        for rule in recipe["classes"]:
            assert model_bytes(rule, f"{rule}.interp.model") == shipped[rule]
        assert calls and set(calls) == {16000}

    def test_summary_line(self, manifest, tmp_path, capsys):
        assert run(["train", "--manifest", manifest, "--rule", "edgham_meem",
                    "--seed", "5", "--model", str(tmp_path / "m.model")]) == 0
        out = capsys.readouterr().out
        assert "support_vectors=" in out
        assert "holdout_accuracy=" in out
        coverage = float(out.split("positive_coverage=")[1].split()[0])
        assert 0.0 <= coverage <= 1.0

    def test_features_extracted_once_per_exemplar(self, small_corpus, monkeypatch):
        root, entries = small_corpus
        extract, calls = features.extract_features, []
        monkeypatch.setattr(features, "extract_features",
                            lambda clip, config: calls.append(clip) or extract(clip, config))
        cli.train_rule_model(entries, root, "edgham_meem", 1.0, 0.1, seed=5)
        mine = [e for e in entries if e.rule_id == "edgham_meem" and e.split == "train"]
        exemplars = [e for e in mine if e.polarity in dataset.POLARITIES and e.onset_s is None]
        negatives = [e for e in mine if e.polarity is None]
        # each exemplar, then each rule-free recording for the taus
        assert [len(clip) for clip in calls] == [32000] * len(exemplars) + [
            len(audio.load_wav(dataset.resolve_path(root, e.path))) for e in negatives]

    def test_coverage_scored_in_one_call(self, small_corpus, decision_calls):
        root, entries = small_corpus
        cli.train_rule_model(entries, root, "edgham_meem", 1.0, 0.1, seed=5)
        negatives = [e for e in entries if e.rule_id == "edgham_meem" and e.split == "train"
                     and e.polarity is None]
        # the Platt holdout, then each rule-free recording for the taus;
        # coverage reuses the holdout scores
        assert len(decision_calls) == 1 + len(negatives)

    @pytest.mark.parametrize("coverage", [0.0, 0.5])
    def test_zero_coverage_warns(self, manifest, trained_model_path, tmp_path,
                                 monkeypatch, capsys, coverage):
        summary = {"rule_id": "edgham_meem", "n_support": 7, "holdout_accuracy": 1.0,
                   "tau_right": 0.75, "tau_wrong": 0.6, "saturated": False,
                   "positive_coverage": coverage}
        rule = persistence.load_model(trained_model_path)
        monkeypatch.setattr(cli, "train_rule_model", lambda *a, **k: (rule, summary))
        assert run(["train", "--manifest", manifest, "--rule", "edgham_meem",
                    "--seed", "5", "--model", str(tmp_path / "m.model")]) == 0
        out, err = capsys.readouterr()
        assert out == ("rule=edgham_meem support_vectors=7 holdout_accuracy=1.0000 "
                       f"tau_right=0.7500 tau_wrong=0.6000 positive_coverage={coverage:.4f}\n")
        assert ("gates out every holdout Right clip" in err) == (coverage == 0.0)


class TestDetect:
    def test_silence_prints_none(self, trained_model_path, tmp_path, capsys):
        wav = str(tmp_path / "silence.wav")
        audio.write_wav(wav, audio.AudioClip(np.zeros(48000), 8000))
        code = run(["detect", "--audio", wav, "--rule", "edgham_meem",
                    "--model", trained_model_path])
        assert code == 0
        out, err = capsys.readouterr()
        assert out == "none\n"
        # the best window is explained on stderr only
        rule = persistence.load_model(trained_model_path)
        scores = dict(detection.detect(rule, audio.load_wav(wav)).window_scores)
        match = re.fullmatch(r"none: best p_right=(\S+) at (\S+)s is (\S+) below "
                             r"tau_right=(\S+); 1-p_right is (\S+) below tau_wrong=(\S+)\n",
                             err)
        assert match is not None, err
        p, offset, right_gap, tau_right, wrong_gap, tau_wrong = map(float, match.groups())
        assert offset in scores and p == round(scores[offset], 4)
        assert tau_right == round(rule.tau_right, 4) and tau_wrong == round(rule.tau_wrong, 4)
        assert right_gap == round(rule.tau_right - scores[offset], 4) and right_gap > 0
        assert wrong_gap == round(rule.tau_wrong - (1 - scores[offset]), 4) and wrong_gap > 0

    def test_none_names_the_window_nearest_either_gate(self, trained_model_path, tmp_path,
                                                        monkeypatch, capsys):
        # the highest p_right, 0.6 at 0.0s, is 0.3 below tau_right; 0.15 at 0.5s
        # leaves 1-p_right only 0.05 below tau_wrong, so it is the nearer window
        rule = replace(persistence.load_model(trained_model_path), tau_right=0.9, tau_wrong=0.9)
        monkeypatch.setattr(persistence, "load_model", lambda path: rule)
        monkeypatch.setattr(detection, "detect", lambda rule, clip: detection.DetectionReport(
            None, ((0.0, 0.6), (0.5, 0.15), (1.0, 0.5))))
        wav = str(tmp_path / "silence.wav")
        audio.write_wav(wav, audio.AudioClip(np.zeros(48000), 8000))
        assert run(["detect", "--audio", wav, "--rule", "edgham_meem", "--model", "m"]) == 0
        assert capsys.readouterr() == ("none\n", (
            "none: best p_right=0.1500 at 0.5s is 0.7500 below tau_right=0.9000; "
            "1-p_right is 0.0500 below tau_wrong=0.9000\n"))

    def test_verse_verdict_and_timeline(self, small_corpus, trained_model_path,
                                        tmp_path, capsys):
        root, entries = small_corpus
        e = next(e for e in entries if e.rule_id == "edgham_meem" and e.onset_s is not None
                 and e.polarity == "Right")
        wav = os.path.join(root, e.path)
        timeline = str(tmp_path / "timeline.csv")
        verdict_json = str(tmp_path / "verdict.json")
        code = run(["detect", "--audio", wav, "--rule", "edgham_meem",
                    "--model", trained_model_path, "--out", timeline,
                    "--truth", str(e.onset_s), "--verdict-out", verdict_json])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith(("Right", "Wrong")) or line == "none"

        rows = open(timeline).read().splitlines()
        clip = audio.load_wav(wav)
        assert len(rows) - 1 == len(audio.slide_windows(clip))
        assert rows[0] == "offset_s,p_right,tau_right,tau_wrong,gated,verdict,truth_s"

        payload = json.loads(open(verdict_json).read())
        assert payload["rule_id"] == "edgham_meem"
        assert payload["audio_path"] == wav

    def test_flatten_model_names_each_verses_polarity(self, tmp_path, capsys):
        # tools/same_behaviour.py's reduced recipe and seeds: at gamma 2e-5 the
        # 27,860-wide flatten kernel does not underflow, so each verdict is a polarity
        recipe = dataset.default_recipe()
        recipe.update(clips_per_class=8, negatives_per_rule=3, verses_per_rule=1,
                      event_free_verses_per_rule=1)
        spec, corpus, model = tmp_path / "spec.json", tmp_path / "corpus", tmp_path / "f.model"
        spec.write_text(json.dumps(recipe))
        manifest = str(corpus / dataset.MANIFEST_NAME)
        for argv in (["synth", "--spec", str(spec), "--seed", "1", "--out", str(corpus)],
                     ["split", "--manifest", manifest, "--seed", "2"],
                     ["train", "--manifest", manifest, "--rule", "edgham_meem", "--seed", "3",
                      "--agg", "flatten", "--gamma", "0.00002", "--model", str(model)]):
            assert run(argv) == 0
        for polarity in dataset.POLARITIES:
            capsys.readouterr()
            wav = corpus / f"edgham_meem_{polarity.lower()}_verse_0000.wav"
            assert run(["detect", "--audio", str(wav), "--rule", "edgham_meem",
                        "--model", str(model)]) == 0
            assert capsys.readouterr().out.startswith(f"{polarity} ")

    def test_rule_model_mismatch(self, trained_model_path, tmp_path):
        wav = str(tmp_path / "s.wav")
        audio.write_wav(wav, audio.AudioClip(np.zeros(32000), 8000))
        code = run(["detect", "--audio", wav, "--rule", "tarqeeq_lam",
                    "--model", trained_model_path])
        assert code == 6

    @pytest.mark.parametrize("truth", ["nan", "inf", "-1"])
    def test_truth_must_be_a_finite_time(self, trained_model_path, tmp_path, capsys, truth):
        timeline = tmp_path / "timeline.csv"
        with pytest.raises(SystemExit) as exc:
            run(["detect", "--audio", "x.wav", "--rule", "edgham_meem",
                 "--model", trained_model_path, "--out", str(timeline), f"--truth={truth}"])
        assert exc.value.code == 2
        assert "is not a finite time >= 0" in capsys.readouterr().err
        assert not timeline.exists()


class TestGridsearch:
    def test_singleton_grid_echoes(self, manifest, capsys):
        code = run(["gridsearch", "--manifest", manifest, "--rule", "edgham_meem",
                    "--folds", "3", "--seed", "2", "--c-grid", "1.0",
                    "--gamma-grid", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "C,gamma,cv_accuracy" in out
        assert "best: C=1.0 gamma=0.1" in out

    def test_unsplit_manifest_is_dataset_error(self, small_corpus, tmp_path, capsys):
        root, entries = small_corpus
        manifest = str(tmp_path / dataset.MANIFEST_NAME)
        dataset.save_manifest([replace(e, path=os.path.join(root, e.path), split="unassigned")
                               for e in entries], manifest)
        code = run(["gridsearch", "--manifest", manifest, "--rule", "edgham_meem",
                    "--seed", "3", "--c-grid", "1", "--gamma-grid", "0.1"])
        assert code == 7
        out, err = capsys.readouterr()
        assert out == ""
        assert "no train-split exemplars for edgham_meem" in err


class TestEvaluate:
    def test_prints_table_and_writes_csv(self, manifest, trained_model_path,
                                         tmp_path, capsys):
        out_csv = str(tmp_path / "conf.csv")
        code = run(["evaluate", "--manifest", manifest,
                    "--model", trained_model_path, "--out", out_csv])
        assert code == 0
        text = capsys.readouterr().out
        assert "Rule Name" in text and "Edgham Meem" in text
        rows = open(out_csv).read().splitlines()
        assert rows[0] == "rule_id,tp,fp,tn,fn,accuracy"
        assert rows[1].startswith("edgham_meem,")

    @pytest.mark.parametrize("resplit", [
        lambda e: "unassigned",
        lambda e: "train" if e.rule_id == "edgham_meem" else e.split,
    ], ids=["unsplit_manifest", "no_test_rows_for_the_rule"])
    def test_rule_without_test_exemplars_is_dataset_error(self, small_corpus,
                                                          trained_model_path, tmp_path,
                                                          capsys, resplit):
        root, entries = small_corpus
        manifest = str(tmp_path / dataset.MANIFEST_NAME)
        dataset.save_manifest([replace(e, path=os.path.join(root, e.path), split=resplit(e))
                               for e in entries], manifest)
        out_csv = tmp_path / "conf.csv"
        code = run(["evaluate", "--manifest", manifest, "--model", trained_model_path,
                    "--out", str(out_csv)])
        assert code == 7
        out, err = capsys.readouterr()
        assert out == ""
        assert "no test-split exemplars for edgham_meem" in err
        assert not out_csv.exists()


    def test_two_models_of_one_rule_are_refused_before_any_clip(self, manifest,
                                                                trained_model_path,
                                                                flatten_model_path,
                                                                tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(detection, "exemplars", refuse)
        out_csv = tmp_path / "conf.csv"
        code = run(["evaluate", "--manifest", manifest, "--model", trained_model_path,
                    "--model", flatten_model_path, "--out", str(out_csv)])
        assert code == 6
        out, err = capsys.readouterr()
        assert out == ""
        assert "two models for edgham_meem" in err
        assert not out_csv.exists()


class TestSynthAndSplit:
    def test_write_spec_then_generate(self, tmp_path, capsys):
        spec = str(tmp_path / "recipe.json")
        assert run(["synth", "--write-spec", spec]) == 0
        recipe = json.loads(open(spec).read())
        recipe.update(clips_per_class=2, negatives_per_rule=0,
                      verses_per_rule=0, event_free_verses_per_rule=0)
        open(spec, "w").write(json.dumps(recipe))
        out = str(tmp_path / "corpus")
        assert run(["synth", "--spec", spec, "--seed", "4", "--out", out]) == 0
        assert run(["split", "--manifest", os.path.join(out, "manifest.csv"),
                    "--seed", "1"]) == 0
        entries = dataset.load_manifest(os.path.join(out, "manifest.csv"))
        assert all(e.split in ("train", "test") for e in entries)


class TestAllOrNothingWrites:
    """Every file the CLI writes: a write that fails keeps the target's bytes."""

    @pytest.fixture
    def target(self, small_corpus, tmp_path):
        """A manifest of the small corpus alone in tmp_path, as the target's old bytes."""
        root, entries = small_corpus
        path = tmp_path / dataset.MANIFEST_NAME
        dataset.save_manifest([replace(e, path=os.path.join(root, e.path)) for e in entries],
                              str(path))
        return path

    @pytest.mark.parametrize("fail", ["fsync", "replace"])
    @pytest.mark.parametrize("writer", ["write_spec", "split", "split_out", "evaluate_out",
                                        "detect_out", "detect_verdict_out"])
    def test_failed_write_exits_9_and_keeps_the_target(self, small_corpus, manifest,
                                                       trained_model_path, target, monkeypatch,
                                                       capsys, writer, fail):
        root, entries = small_corpus
        wav = os.path.join(root, next(e.path for e in entries if e.onset_s is not None))
        detect = ["detect", "--audio", wav, "--rule", "edgham_meem", "--model",
                  trained_model_path]
        argv = {
            "write_spec": ["synth", "--write-spec"],
            "split": ["split", "--seed", "1", "--manifest"],
            "split_out": ["split", "--manifest", manifest, "--seed", "1", "--out"],
            "evaluate_out": ["evaluate", "--manifest", manifest, "--model", trained_model_path,
                             "--out"],
            "detect_out": [*detect, "--out"],
            "detect_verdict_out": [*detect, "--verdict-out"],
        }[writer]
        before = target.read_bytes()
        monkeypatch.setattr(os, fail, refuse)
        assert run([*argv, str(target)]) == 9
        assert f"error: cannot write {target}: refused" in capsys.readouterr().err
        assert target.read_bytes() == before
        assert os.listdir(target.parent) == [target.name]

    def test_split_in_place_past_the_file_size_limit_keeps_the_manifest(self, target):
        before = target.read_bytes()
        assert len(before) > 1024
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        child = subprocess.run(  # Python ignores SIGXFSZ, so the write fails with EFBIG
            [sys.executable, "-m", "tajweed", "split", "--manifest", str(target), "--seed", "2"],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (1024, 1024)))
        assert child.returncode == 9, child.stderr
        assert "File too large" in child.stderr
        assert target.read_bytes() == before
        assert os.listdir(target.parent) == [target.name]


class TestReview:
    def test_append_list_label_cycle(self, tmp_path, capsys):
        verdict = tmp_path / "verdict.json"
        verdict.write_text(json.dumps({
            "audio_path": "v.wav", "rule_id": "edgham_meem",
            "verdict": {"offset_s": 1.5, "polarity": "Right",
                        "score": 0.9, "closeness_pct": 90},
        }))
        q = str(tmp_path / "q.jsonl")
        assert run(["review", "append", "--queue", q, "--verdict", str(verdict)]) == 0
        assert run(["review", "list", "--queue", q, "--status", "pending"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
        assert json.loads(lines[-1])["record_id"] == 1
        assert run(["review", "label", "--queue", q, "--id", "1",
                    "--status", "corrected", "--label", "Wrong"]) == 0
        assert run(["review", "label", "--queue", q, "--id", "1",
                    "--status", "approved"]) == 7  # a relabel without force

    def test_label_a_read_would_reject_exits_2_and_leaves_the_queue(self, tmp_path, capsys):
        verdict = tmp_path / "verdict.json"
        verdict.write_text(json.dumps({"audio_path": "v.wav", "rule_id": "edgham_meem"}))
        q = tmp_path / "q.jsonl"
        assert run(["review", "append", "--queue", str(q), "--verdict", str(verdict)]) == 0
        before = q.read_bytes()
        assert run(["review", "label", "--queue", str(q), "--id", "1",
                    "--status", "corrected"]) == 2  # a corrected record needs a label
        assert q.read_bytes() == before
        assert run(["review", "label", "--queue", str(q), "--id", "1",
                    "--status", "corrected", "--label", "Wrong"]) == 0
        capsys.readouterr()
        assert run(["review", "list", "--queue", str(q), "--status", "corrected"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert (listed["record_id"], listed["corrected_label"]) == (1, "Wrong")
