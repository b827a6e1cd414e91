"""Benchmark of the tajweed operator CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One process, one client, closed
loop: each op is one `tajweed` command given to `tajweed.cli.main` in
process, and the next op starts when the previous one returns. BLAS runs on
one thread.

Set-up synthesizes the workload's corpus from the seed and trains the models
it reads. With `--trace 0` set-up runs three times and `setup_s` is their
median; ops then run in whole passes over the workload's inputs until the
next pass would overrun `--seconds` (at least one pass, which for
detect_verses is 102 recordings and may itself take longer), and the
end-to-end metrics are reported.

The end-to-end times are CPU seconds of the bench process (and of the set-up
child for `setup_s`), scaled to a reference host speed by `calibration.py`.
Ops are single-threaded with BLAS on one thread, so on an idle machine CPU
and wall time agree within a few percent; on a shared host the CPU clock
leaves out the time the process waited for a CPU, in this VM's run queue or
in the hypervisor's (steal time is not charged to the process under paravirt
time accounting), and the scaling removes the drift of the host's speed.
Each input's time is its median over the run's passes; `op_p50_ms` and
`op_p90_ms` are percentiles of those over the inputs, and `audio_s_per_s` is
the median over the inputs of audio seconds per reference second. The same
figures in raw CPU and wall seconds are in the report line.

With `--trace 1` set-up runs once; the ops run untraced, then the same passes
again with every public tajweed function listed in `layers.json` wrapped in a
timing span, and the per-layer metrics are reported.

Every op's output is checked. The last stdout line is
`{"correct", "attempted", "failed", "metrics"}`; the line before it is a
report with the environment, error and failure shares and trace checks,
also written under `perfbench/.work/results/`.
"""

import os

# pinned before numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

WORKLOADS = ("detect_verses", "train_rules_16k", "evaluate_clips")

SETUP_REPEATS = 3
TRACE_ROOT = "cli.main"

END_TO_END_UNITS = {
    "setup_s": "s",
    "audio_s_per_s": "audio_s/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_layers() -> dict:
    with open(BENCH_DIR / "layers.json", encoding="utf-8") as fh:
        return json.load(fh)


def span_names(layers) -> list[str]:
    return [f"{module}.{fn}" for module, fns in layers["spans"].items() for fn in fns]


def per_layer_units(layers) -> dict:
    units = {}
    for name in span_names(layers):
        for field, spec in layers["span_fields"].items():
            units[f"{name}.{field}"] = spec["unit"]
    for name, spec in layers["counters"].items():
        units[name] = spec["unit"]
    return units


# --- environment -----------------------------------------------------------

def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _blas_version() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


# --- measurement -----------------------------------------------------------

def run_op(op, tracer=None, op_id=None) -> dict:
    """One closed-loop op: its wall and CPU time, whether it failed, its
    wrong share."""
    from tajweed import cli
    out, err = io.StringIO(), io.StringIO()
    code = None
    if tracer is not None:
        tracer.begin_op(op_id)
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except (Exception, SystemExit) as exc:   # a crash is a failed op, not a crashed bench
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        cpu_s = time.process_time() - cpu_start
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
    failed = code != 0
    # a failed op counts in failed_ops only; error_rate judges the outputs made
    return {"seconds": seconds, "cpu_s": cpu_s, "audio_s": op.audio_s, "failed": failed,
            "wrong": 0.0 if failed else op.check(code, out.getvalue()),
            "stderr": err.getvalue()[-500:] if failed else ""}


def measure(workload, seconds, passes=None, tracer=None) -> tuple[list[dict], int]:
    """Whole passes over the ops: `passes` of them, or, when None, as many as
    fit in `seconds` (at least the workload's minimum). Returns the op
    results and the number of passes. Each op's CPU time is scaled by the
    calibration samples taken right after it, which see the host at the
    speed the op saw."""
    results = []
    start = time.perf_counter()
    done = 0
    while True:
        pass_start = time.perf_counter()
        for op in workload.ops:
            result = run_op(op, tracer, op_id=len(results))
            result["calibration_s"] = calibration.samples_after(result["cpu_s"])
            result["reference_s"] = result["cpu_s"] * calibration.scale(result["calibration_s"])
            results.append(result)
        done += 1
        now = time.perf_counter()
        if passes is not None:
            if done >= passes:
                break
        elif done >= workload.min_passes and (now - start) + (now - pass_start) > seconds:
            break
    return results, done


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def op_times(results, inputs, clock) -> list[float]:
    """Per input, the median of its `clock` times over the run's passes."""
    return [statistics.median(r[clock] for r in results[k::inputs]) for k in range(inputs)]


def latency_figures(results, inputs, clock) -> dict:
    """Throughput and latency percentiles over the inputs, each input timed
    by its median over the passes. Medians over repeats first keep one slow
    pass from moving a figure; percentiles over the inputs then stay well
    defined when a workload has only one or two inputs of different sizes."""
    times = op_times(results, inputs, clock)
    audio = [r["audio_s"] for r in results[:inputs]]
    return {
        "audio_s_per_s": statistics.median(a / t for a, t in zip(audio, times)),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_p90_ms": nearest_rank(sorted(times), 0.9) * 1e3,
    }


def summarize(results, passes) -> dict:
    attempted = len(results)
    inputs = attempted // passes
    failed = sum(r["failed"] for r in results)
    wrong = sum(r["wrong"] for r in results)
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "inputs": inputs,
        "error_rate": wrong / attempted,
        "failed_ops": failed / attempted,
        "latency_samples": inputs,
        "samples_beyond_p90": inputs - math.ceil(0.9 * inputs),
        "op_wall_s": sum(r["seconds"] for r in results),
        "op_cpu_s": sum(r["cpu_s"] for r in results),
        "audio_s": sum(r["audio_s"] for r in results),
        "calibration": {
            "median_s": statistics.median(c for r in results for c in r["calibration_s"]),
            "samples": sum(len(r["calibration_s"]) for r in results)},
        "reference": latency_figures(results, inputs, "reference_s"),
        "cpu": latency_figures(results, inputs, "cpu_s"),
        "wall": latency_figures(results, inputs, "seconds"),
        "failures": [r["stderr"] for r in results if r["failed"]][:5],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _module_attrs(names):
    import importlib
    attrs = {}
    for name in names:
        module_name, fn_name = name.split(".")
        module = importlib.import_module(f"tajweed.{module_name}")
        attrs[name] = getattr(module, fn_name, None)
    return attrs


def run_untraced(workload, seconds, setup_times) -> tuple[dict, dict]:
    summary = summarize(*measure(workload, seconds))
    metrics = {
        "setup_s": statistics.median(setup_times["reference_s"]),
        **summary["reference"],
        "peak_rss_mb": peak_rss_mb(),
    }
    values = {name: {"value": metrics[name], "unit": unit}
              for name, unit in END_TO_END_UNITS.items()}
    return summary, values


def run_traced(workload, seconds, layers) -> tuple[dict, dict, object]:
    from tracer import Tracer
    names = span_names(layers)
    untraced = summarize(*measure(workload, seconds))
    tracer = Tracer(names)
    before = _module_attrs(names)
    with tracer.installed():
        results, passes = measure(workload, seconds, passes=untraced["passes"], tracer=tracer)
    restored = _module_attrs(names) == before
    traced = summarize(results, passes)

    # per op: self times sum to no more than the cli.main span, and that span
    # lies inside the op's own wall time
    self_within_wall = all(
        self_sum <= wall + 1e-9 and wall <= results[op]["seconds"]
        for op, (wall, self_sum) in tracer.op_walls(TRACE_ROOT).items())
    totals = tracer.layer_totals()
    counts = tracer.counters
    windows = counts["features.windows"]
    derived = {
        "features.windows": windows,
        "features.frames_per_window": counts["features.frames"] / windows if windows else 0.0,
        "svm.kernel_evals": counts["svm.kernel_evals"],
        "svm.decision_calls_per_window":
            counts["svm.decision_calls"] / windows if windows else 0.0,
        "audio.resample.samples_in": counts["audio.resample.samples_in"],
        "audio.load_wav.bytes": counts["audio.load_wav.bytes"],
        "trace_overhead_pct":
            100.0 * (traced["op_wall_s"] - untraced["op_wall_s"]) / untraced["op_wall_s"],
    }
    values = {}
    for name, unit in per_layer_units(layers).items():
        if name in derived:
            value = derived[name]
        else:
            span, _, field = name.rpartition(".")
            value = totals[span][field]
        values[name] = {"value": value, "unit": unit}

    summary = {
        "untraced": untraced,
        "traced": traced,
        "absent_spans": tracer.absent,
        "wrappers_restored": restored,
        "self_times_within_op_wall": self_within_wall,
        "spans_recorded": len(tracer.spans),
    }
    return summary, values, tracer


def setup_in_child(workload_name, work, seed, size, repeats) -> dict:
    """Set-up runs in a child process, so its memory high-water mark stays
    out of peak_rss_mb, which then covers the ops alone. Returns the child's
    own CPU and wall timing of each set-up."""
    code = ("import json, sys, workloads; "
            "print(json.dumps(workloads.timed_setups(*json.loads(sys.argv[1]))))")
    args = json.dumps([workload_name, str(work), seed, size, repeats])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH_DIR), str(SRC)]))
    proc = subprocess.run([sys.executable, "-c", code, args], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Set up, measure and check one workload; returns the full report whose
    `result` entry is the line the benchmark prints last."""
    import workloads
    layers = load_layers()
    work = WORK / f"{workload_name}-{seed}-{int(trace)}-{os.getpid()}"
    try:
        setup_times = setup_in_child(workload_name, work, seed, size,
                                     1 if trace else SETUP_REPEATS)
        workload = workloads.load(workload_name, str(work), seed)
        # warm-up: lazy caches fill before timing; not counted
        calibration.sample()
        run_op(workload.ops[0])

        max_error = workloads.MAX_ERROR_RATE[workload_name]
        if trace:
            summary, values, tracer = run_traced(workload, seconds, layers)
            runs = (summary["untraced"], summary["traced"])
            correct = (summary["wrappers_restored"] and summary["self_times_within_op_wall"]
                       and all(r["failed"] == 0 and r["error_rate"] <= max_error
                               for r in runs))
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            spans = tracer.spans
        else:
            summary, values = run_untraced(workload, seconds, setup_times)
            correct = summary["failed"] == 0 and summary["error_rate"] <= max_error
            attempted, failed = summary["attempted"], summary["failed"]
            spans = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": values}
    return {
        "environment": environment(workload_name, seed),
        "seconds": seconds,
        "trace": int(trace),
        "setup_times_s": setup_times,
        "max_error_rate": max_error,
        "summary": summary,
        "result": result,
        "spans": spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tajweed" / "__init__.py").is_file():
        print(f"error: no tajweed sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results_dir / name, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    report.pop("spans")
    result = report.pop("result")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
