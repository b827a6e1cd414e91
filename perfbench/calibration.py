"""Host speed calibration for the benchmark's end-to-end times.

The benchmark runs on shared virtual machines whose CPU speed drifts by
20 % or more over a few minutes, as neighbours load the same cores; CPU time
does not remove that drift, because every instruction runs slower. So the
bench times a fixed kernel of the same kind of work as the tajweed feature
path (gathers, complex butterflies and exponentials on a 400 x 256 block,
plus an interpreter loop) right after every op, one run per
`SAMPLE_EVERY_S` of the op's CPU time, and reports each op's time scaled to
the speed at which that kernel takes `REFERENCE_S`:

    reported = op CPU seconds * REFERENCE_S / median CPU seconds of the
               kernel runs after that op

The scale comes from the bench's own code only, so a change to tajweed moves
the reported times exactly as it moves the measured ones on a steady host.
The raw CPU and wall figures stay in the report line.
"""

import math
import statistics
import time

import numpy as np

# the kernel's median CPU time on the 2-vCPU Intel Xeon VM the benchmark was
# written on; it only sets the unit, so reported times read close to raw
# milliseconds there
REFERENCE_S = 0.012
SAMPLE_EVERY_S = 0.1

_ROWS, _N = 400, 256
_BLOCK = np.linspace(-1.0, 1.0, _ROWS * _N).reshape(_ROWS, _N)
_ORDER = np.argsort(np.sin(np.arange(_N) * 7.0))
_TWIDDLES = [np.exp(-2j * np.pi * np.arange(m // 2) / m) for m in (2, 4, 8, 16, 32, 64, 128, 256)]


def _kernel() -> float:
    y = _BLOCK[:, _ORDER].astype(np.complex128)
    for tw in _TWIDDLES:
        m = 2 * tw.size
        shaped = y.reshape(_ROWS, _N // m, m)
        even, odd = shaped[..., : m // 2], shaped[..., m // 2:] * tw
        y = np.concatenate([even + odd, even - odd], axis=-1).reshape(_ROWS, _N)
    acc = 0
    for i in range(6000):
        acc += i & 7
    return float(np.abs(y[0, 1])) + acc


def sample() -> float:
    """CPU seconds of one kernel run."""
    start = time.process_time()
    _kernel()
    return time.process_time() - start


def samples_after(op_cpu_s: float) -> list[float]:
    """Kernel runs in proportion to an op's CPU seconds, at least one."""
    return [sample() for _ in range(max(1, math.ceil(op_cpu_s / SAMPLE_EVERY_S)))]


def scale(samples) -> float:
    """Factor that turns CPU seconds measured alongside `samples` into
    reference seconds."""
    return REFERENCE_S / statistics.median(samples)
