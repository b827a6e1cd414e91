"""Fast checks of the benchmark itself, at tiny corpus sizes.

Run with `python -m pytest perfbench/tests -q` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import calibration
import run
import workloads
from tracer import Tracer
from tajweed import audio, cli, features

ROOT = run.ROOT


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_match_the_bench(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.SETUPS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units(run.load_layers()))


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(work, spec, name, trace):
    result = run.run(name, seed=3, seconds=0, trace=trace, size="tiny")["result"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))


def test_traced_run_counts_match_the_workload_design(work):
    report = run.run("evaluate_clips", seed=3, seconds=0, trace=True, size="tiny")
    metrics = {k: v["value"] for k, v in report["result"]["metrics"].items()}
    assert metrics["features.frames_per_window"] == 398
    assert metrics["audio.resample.calls"] == 0
    assert metrics["svm.train.calls"] == 0
    assert metrics["cli.main.calls"] == report["summary"]["traced"]["attempted"]
    assert report["summary"]["wrappers_restored"] is True
    assert report["summary"]["self_times_within_op_wall"] is True


def test_each_input_is_timed_by_its_median_over_passes():
    # two inputs (A: 4 s of audio, B: 8 s) over three passes, in run order
    times = [1.0, 2.0, 9.0, 2.4, 1.1, 2.2]
    results = [{"cpu_s": t, "seconds": 2 * t, "reference_s": t / 2, "audio_s": 4.0 * (1 + k % 2)}
               for k, t in enumerate(times)]
    assert run.op_times(results, 2, "cpu_s") == [1.1, 2.2]
    figures = run.latency_figures(results, 2, "cpu_s")
    assert figures["op_p50_ms"] == pytest.approx(1650.0)
    assert figures["op_p90_ms"] == pytest.approx(2200.0)
    assert figures["audio_s_per_s"] == pytest.approx((4.0 / 1.1 + 8.0 / 2.2) / 2)
    assert run.latency_figures(results, 2, "seconds")["op_p50_ms"] == pytest.approx(3300.0)
    assert run.latency_figures(results, 2, "reference_s")["op_p50_ms"] == pytest.approx(825.0)


def test_calibration_samples_follow_op_time():
    assert len(calibration.samples_after(0.0)) == 1
    assert len(calibration.samples_after(2.6 * calibration.SAMPLE_EVERY_S)) == 3
    assert calibration.scale([3.0, 2 * calibration.REFERENCE_S, 0.0]) == pytest.approx(0.5)


def test_wrappers_leave_module_attributes_unchanged():
    names = run.span_names(run.load_layers())
    before = run._module_attrs(names)
    tracer = Tracer(names)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert features.extract_features is not before["features.extract_features"]
            raise RuntimeError("op crashed")
    assert run._module_attrs(names) == before
    assert cli.main is before["cli.main"]


def test_absent_span_is_reported_not_a_crash():
    tracer = Tracer(["features.no_such_function", "audio.slide_windows"])
    with tracer.installed():
        tracer.begin_op(0)
        audio.slide_windows(audio.AudioClip([0.0] * 40000, 8000))
        tracer.end_op()
    assert tracer.absent == ["features.no_such_function"]
    totals = tracer.layer_totals()
    assert totals["features.no_such_function"] == {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    assert totals["audio.slide_windows"]["calls"] == 1


def test_calls_outside_an_op_are_not_recorded():
    tracer = Tracer(["audio.slide_windows"])
    with tracer.installed():
        audio.slide_windows(audio.AudioClip([0.0] * 40000, 8000))
    assert tracer.spans == []


def test_self_times_sum_to_the_root_span():
    tracer = Tracer(["features.extract_features", "features.power_spectrum",
                     "features.frame_signal"])
    clip = audio.AudioClip([0.1] * 32000, 8000)
    with tracer.installed():
        tracer.begin_op(7)
        features.extract_features(clip, features.FeatureConfig())
        tracer.end_op()
    wall, self_sum = tracer.op_walls("features.extract_features")[7]
    assert self_sum == pytest.approx(wall, abs=1e-9)
    assert tracer.counters["features.frames"] == 398


def test_truncated_wav_is_a_failed_op_not_a_crash(work, monkeypatch):
    real_load = workloads.load

    def load_with_truncated_verse(*args, **kwargs):
        workload = real_load(*args, **kwargs)
        path = workload.ops[-1].argv[workload.ops[-1].argv.index("--audio") + 1]
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        return workload

    monkeypatch.setattr(workloads, "load", load_with_truncated_verse)
    report = run.run("detect_verses", seed=3, seconds=0, trace=False, size="tiny")
    result = report["result"]
    assert result["failed"] == 1
    assert result["correct"] is False
    assert result["attempted"] == 6     # 2 rules x (Right, Wrong, rule-free) x 1 verse
    assert report["summary"]["failed_ops"] == 1 / result["attempted"]


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evaluate_clips", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
