"""Span tracing of the tajweed package from outside it.

`Tracer.installed()` replaces each listed public function `tajweed.<module>.<fn>`
with a timing wrapper and puts the original back on exit. Callers inside the
package reach these functions through module attributes or module globals,
so the wrappers see every call without any edit to the package. Functions
that do not exist are recorded as absent.

A span is recorded only while an op is open (`begin_op` .. `end_op`); calls
made by the benchmark's own set-up and output checks pass straight through.
Each span is `[name, start, end, parent_index, op_id]`, kept in memory.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _rows(array) -> int:
    return array.shape[0] if getattr(array, "ndim", 1) > 1 else 1


# counters updated after a span closes: (args, kwargs, result) -> {counter: increment}
COUNTER_HOOKS = {
    "features.extract_features": lambda a, k, r: {"features.windows": 1},
    "features.power_spectrum": lambda a, k, r: {"features.frames": _rows(r)},
    "svm.rbf_gram": lambda a, k, r: {"svm.kernel_evals": r.size},
    "svm.decision_values": lambda a, k, r: {"svm.decision_calls": 1},
    "audio.resample": lambda a, k, r: {
        "audio.resample.samples_in": len(_arg(a, k, 0, "clip"))},
    "audio.load_wav": lambda a, k, r: {
        "audio.load_wav.bytes": os.path.getsize(_arg(a, k, 0, "path"))},
}


class Tracer:
    def __init__(self, span_names):
        self.span_names = list(span_names)
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        hook = COUNTER_HOOKS.get(name)

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                self.counters.update(hook(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every listed function that exists; restore all on exit."""
        self.absent = []
        try:
            for name in self.span_names:
                module_name, fn_name = name.split(".")
                module = importlib.import_module(f"tajweed.{module_name}")
                fn = getattr(module, fn_name, None)
                if not callable(fn):
                    self.absent.append(name)
                    continue
                self._saved.append((module, fn_name, fn))
                setattr(module, fn_name, self._wrap(name, fn))
            yield self
        finally:
            while self._saved:
                module, fn_name, fn = self._saved.pop()
                setattr(module, fn_name, fn)

    def begin_op(self, op_id) -> None:
        self._op = op_id
        self._stack.clear()

    def end_op(self) -> None:
        self._op = None

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self) -> dict:
        """{span name: {"calls", "self_s", "total_s"}} for every listed span;
        absent spans read 0."""
        totals = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                  for name in self.span_names}
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            t = totals[name]
            t["calls"] += 1
            t["self_s"] += own
            t["total_s"] += end - start
        return totals

    def op_walls(self, root: str) -> dict:
        """{op_id: (root span duration, sum of self times of the op's spans)}."""
        out = {}
        for (name, start, end, parent, op), own in zip(self.spans, self.self_times()):
            wall, self_sum = out.get(op, (0.0, 0.0))
            if name == root and parent == -1:
                wall += end - start
            out[op] = (wall, self_sum + own)
        return out
