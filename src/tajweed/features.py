"""Filter-bank feature extraction.

The paper fixes one analysis, so it is module constants at the rate audio owns,
SAMPLE_RATE_HZ (8 kHz): FRAME_MS (25 ms) frames every HOP_MS (10 ms), each Hamming
windowed, zero-padded to FFT_SIZE points and transformed with numpy's real FFT,
then NUM_FILTERS (70) triangular mel-spaced filters between F_MIN_HZ and F_MAX_HZ
and a log with energies floored at LOG_FLOOR. In samples and frames that is
FRAME_LEN, HOP_LEN, WINDOW_LEN samples or WINDOW_FRAMES frames a 4 s window and
STRIDE_LEN samples or STRIDE_FRAMES hops a 0.5 s stride. FeatureConfig only
picks how a window's log energies pool into one vector: per-filter mean and
standard deviation (default), or the frame-by-filter matrix flattened row-major.

extract_features is the one front end: one feature row per audio.WINDOW_S
window every audio.STRIDE_S, pooled from the log energies of one read-only
strided view of the clip's samples, integers as load_wav gives them. Its unit is
the stride: frame_log_energies gives strides of STRIDE_FRAMES frames, each one
filter-bank product of one shape whatever the clip's length; a pass copies
PASS_STRIDES strides to float64 in one buffer of rows pre-padded to FFT_SIZE,
windows them with the pass_window tile, the clip's unit folded in exactly, and
writes their power into one buffer of the call; pool reads a window's strides as
views. The mean/std pool reduces each stride once and merges a window's strides
with the update formula of Chan, Golub & LeVeque (1979, "Updating formulae and a
pairwise algorithm for computing sample variances"). Same input, same feature bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .audio import SAMPLE_RATE_HZ, STRIDE_S, WINDOW_S, AudioClip, normalize_duration
from .errors import FeatureError, SvmError

FRAME_MS = 25
HOP_MS = 10
FFT_SIZE = 256
NUM_FILTERS = 70
F_MIN_HZ = 0.0
F_MAX_HZ = 4000.0
LOG_FLOOR = 1e-10

FRAME_LEN = FRAME_MS * SAMPLE_RATE_HZ // 1000               # 200 samples
HOP_LEN = HOP_MS * SAMPLE_RATE_HZ // 1000                   # 80 samples
WINDOW_LEN = round(WINDOW_S * SAMPLE_RATE_HZ)               # 32000 samples
STRIDE_LEN = round(STRIDE_S * SAMPLE_RATE_HZ)               # 4000 samples
STRIDE_FRAMES = STRIDE_LEN // HOP_LEN                       # 50 hops a stride
PASS_STRIDES = 2                                            # strides a front-end pass
WINDOW_FRAMES = (WINDOW_LEN - FRAME_LEN) // HOP_LEN + 1     # 398 frames a window

# w[k] = 0.54 - 0.46*cos(2*pi*k/(FRAME_LEN-1)), endpoints 0.08, evaluated on
# min(k, FRAME_LEN-1-k) so the symmetry w[k] == w[FRAME_LEN-1-k] is exact in
# floating point, not just analytic. Read-only: every frame shares it.
HAMMING = 0.54 - 0.46 * np.cos(
    2.0 * np.pi * np.minimum(np.arange(FRAME_LEN), np.arange(FRAME_LEN)[::-1]) / (FRAME_LEN - 1))
HAMMING.setflags(write=False)


@lru_cache(maxsize=8)
def pass_window(scale: float) -> np.ndarray:
    """A pass's rows of HAMMING * scale then exact 0.0, so one product windows a zeroed
    pass buffer; read-only, cached per clip unit. Exact: RN(i * (h * 2^k)) = RN(i * 2^k * h)."""
    tile = np.zeros((PASS_STRIDES * STRIDE_FRAMES, FFT_SIZE))
    tile[:, :FRAME_LEN] = HAMMING * scale
    tile.setflags(write=False)
    return tile


AGGREGATIONS = ("mean_std_pool", "flatten")


@dataclass(frozen=True)
class FeatureConfig:
    """How a window's log energies pool into one feature row."""

    aggregation: str = "mean_std_pool"

    def __post_init__(self):
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")

    @property
    def dim(self) -> int:
        return NUM_FILTERS * (2 if self.aggregation == "mean_std_pool" else WINDOW_FRAMES)

    def header(self) -> dict:
        """A model file's feature_config; LOG_FLOOR travels as a binary blob."""
        return {"frame_ms": FRAME_MS, "hop_ms": HOP_MS, "num_filters": NUM_FILTERS,
                "fft_size": FFT_SIZE, "sample_rate_hz": SAMPLE_RATE_HZ,
                "f_min_hz": F_MIN_HZ, "f_max_hz": F_MAX_HZ, "aggregation": self.aggregation}

    @lru_cache(maxsize=len(AGGREGATIONS))  # pure: the aggregation and module constants
    def fingerprint(self) -> str:
        canon = json.dumps({**self.header(), "log_floor": LOG_FLOOR},
                           sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class Scaler:
    """Per-dimension standardization fitted on training vectors."""

    mean: np.ndarray
    std: np.ndarray

    STD_FLOOR = 1e-8

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Standardize rows; other widths raise SvmError, as the SVM does, before
        broadcasting."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape[-1] != len(self.mean):
            raise SvmError(f"input dim {v.shape[-1]} != scaler dim {len(self.mean)}")
        return (v - self.mean) / np.maximum(self.std, self.STD_FLOOR)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def power_spectrum(frames, out=None) -> np.ndarray:
    """One-sided power spectrum P[k] = |X[k]|^2 / FFT_SIZE, k = 0..FFT_SIZE/2, of
    each row of frames (1-D: one), zero-padded to FFT_SIZE, into out if given."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[-1] > FFT_SIZE:
        raise ValueError("frame longer than FFT_SIZE")
    spectrum = np.fft.rfft(frames, FFT_SIZE)
    # squares re and im in place through a float view: the roundings of
    # (re**2 + im**2) / FFT_SIZE with no new array but the sum
    parts = spectrum.view(np.float64)
    np.square(parts, out=parts)
    power = np.add(parts[..., 0::2], parts[..., 1::2], out=out)
    power *= 1.0 / FFT_SIZE  # exact: FFT_SIZE is a power of two
    return power


@lru_cache(maxsize=1)
def build_filterbank() -> np.ndarray:
    """The (NUM_FILTERS, FFT_SIZE // 2 + 1) weights of triangular filters on
    NUM_FILTERS + 2 mel-equidistant boundary points.

    Filter i rises over (boundary i, boundary i+1) and falls over
    (boundary i+1, boundary i+2), evaluated at the FFT bin centers and
    rescaled so each row peaks at exactly 1: one broadcast of the (NUM_FILTERS,
    1) lower, centre and upper bounds against the bins. Cached, read-only and
    column-major, so frame_log_energies multiplies by a C-contiguous transpose,
    which OpenBLAS runs faster with the same bytes.
    """
    bounds_hz = mel_to_hz(np.linspace(hz_to_mel(F_MIN_HZ), hz_to_mel(F_MAX_HZ), NUM_FILTERS + 2))
    lo, mid, hi = (bounds_hz[i:i + NUM_FILTERS, None] for i in range(3))
    bin_freqs = np.arange(FFT_SIZE // 2 + 1) * SAMPLE_RATE_HZ / FFT_SIZE
    tri = np.maximum(0.0, np.minimum((bin_freqs - lo) / (mid - lo), (hi - bin_freqs) / (hi - mid)))
    weights = np.asfortranarray(tri / tri.max(axis=1, keepdims=True))
    weights.setflags(write=False)
    return weights


def frame_log_energies(frames: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Hamming, power spectrum and filter bank PASS_STRIDES strides a pass, each
    product written into the result, then one floor and log over all of it:
    stride s of the (strides, STRIDE_FRAMES, NUM_FILTERS) result holds frames
    from STRIDE_FRAMES * s, the last stride's power zero-padded (LOG_FLOOR rows
    past the frames). A pass is one strided copy of its frames, integers cast to
    float64, into a zeroed (PASS_STRIDES * STRIDE_FRAMES, FFT_SIZE) buffer and one
    contiguous product by pass_window(scale), the frames' unit folded in exactly,
    whose 0.0 columns keep the pad +0.0 (np.empty garbage times 0.0 could be
    NaN), so the FFT gets rows already FFT_SIZE wide; every pass writes
    its power into one buffer of the call; the last zeroes its pad, no vstack.
    Every filter-bank product is a stack of (STRIDE_FRAMES, bins) @ (bins,
    NUM_FILTERS) items, one a stride, so a frame's log energies depend on the
    frame and its offset in a stride, never on the clip's length. A 4 s clip peaks
    at about 740 KB a call (result, spectrum, 103 KB power buffer, 205 KB pass
    buffer, past glibc's 128 KB mmap threshold: fresh pages if none larger was freed)."""
    weights, tile = build_filterbank().T, pass_window(scale)
    log_energies = np.empty((-(-len(frames) // STRIDE_FRAMES), STRIDE_FRAMES, NUM_FILTERS))
    windowed = np.zeros((PASS_STRIDES * STRIDE_FRAMES, FFT_SIZE))
    power = np.empty((PASS_STRIDES, STRIDE_FRAMES, FFT_SIZE // 2 + 1))
    power_rows = power.reshape(len(windowed), -1)
    for s in range(0, len(log_energies), PASS_STRIDES):
        chunk = frames[STRIDE_FRAMES * s:STRIDE_FRAMES * (s + PASS_STRIDES)]
        rows, k = len(chunk), min(PASS_STRIDES, len(log_energies) - s)
        windowed[:rows, :FRAME_LEN] = chunk
        windowed[:rows] *= tile[:rows]
        power_spectrum(windowed[:rows], out=power_rows[:rows])
        power_rows[rows:k * STRIDE_FRAMES] = 0.0  # the last pass: no power past the clip's frames
        np.matmul(power[:k], weights, out=log_energies[s:s + k])
    return np.log(np.maximum(log_energies, LOG_FLOOR, out=log_energies), out=log_energies)


def _run_stats(runs: np.ndarray):
    """(sum, squared deviations from the mean, max, min) per filter of each run
    of a (runs, frames, filters) view, copied frames-major: that reduces
    fastest, a strided view would sum in another order, and a copy, unlike
    ascontiguousarray, never reduces the log energies in place."""
    x = runs.transpose(1, 0, 2).copy()
    total, hi, lo = x.sum(axis=0), x.max(axis=0), x.min(axis=0)
    x -= total / len(x)
    return total, np.square(x, out=x).sum(axis=0), hi, lo


def pool(log_energies: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """One feature row per window over a clip's strides of log energies, as
    frame_log_energies gives them: window w is the WINDOW_FRAMES frames from
    stride w, so 7 + n strides hold n windows.

    flatten lays out each window's frames row-major. mean_std_pool reads window
    w as the 7 strides w..w+6, shared with its neighbours, and the first 48
    frames of stride w+7, reduces each stride and tail once, and merges a
    window's k parts of n_p frames (Chan, Golub & LeVeque 1979): mean = sum / n,
    M2 = sum_p M2_p + sum_p n_p * (mean_p - mean)^2 and std = sqrt(M2 / n).
    A column is constant, with std exactly 0, when max == min over the parts.
    """
    n_blocks, tail = divmod(WINDOW_FRAMES, STRIDE_FRAMES)
    n = len(log_energies) - n_blocks
    if config.aggregation == "flatten":
        windows = sliding_window_view(log_energies.reshape(-1, NUM_FILTERS), WINDOW_FRAMES, axis=0)
        return windows[:n * STRIDE_FRAMES:STRIDE_FRAMES].transpose(0, 2, 1).reshape(n, -1)
    blocks = _run_stats(log_energies[:n + n_blocks - 1])
    tails = _run_stats(log_energies[n_blocks:n + n_blocks, :tail])
    parts = np.arange(n)[:, None] + np.arange(n_blocks)  # window w's strides w..w+6
    total, m2, hi, lo = (np.concatenate([b[parts], t[:, None]], axis=1)  # (window, part, filter)
                         for b, t in zip(blocks, tails))
    counts = np.array([STRIDE_FRAMES] * n_blocks + [tail], dtype=np.float64)[:, None]
    mean = total.sum(axis=1) / WINDOW_FRAMES
    spread = total / counts - mean[:, None]
    std = np.sqrt((m2.sum(axis=1) + (counts * spread * spread).sum(axis=1)) / WINDOW_FRAMES)
    std[hi.max(axis=1) == lo.min(axis=1)] = 0.0
    return np.concatenate([mean, std], axis=1)


def extract_features(clip: AudioClip, config: FeatureConfig) -> np.ndarray:
    """The feature vectors of the clip's analysis windows, one row per window:
    a clip shorter than WINDOW_S is zero-padded to one window, a longer one has
    a window every STRIDE_S that fits (a 4 s clip gives 1 row), row w starting at
    w * STRIDE_S. A stride is STRIDE_FRAMES whole hops, so all windows' frames
    are one read-only strided view of the clip, each transformed once."""
    if clip.sample_rate_hz != SAMPLE_RATE_HZ:
        raise FeatureError(f"clip at {clip.sample_rate_hz} Hz, features need {SAMPLE_RATE_HZ} Hz")
    if len(clip) < WINDOW_LEN:
        clip = normalize_duration(clip)
    n_frames = (len(clip) - WINDOW_LEN) // STRIDE_LEN * STRIDE_FRAMES + WINDOW_FRAMES
    step = clip.samples.strides[0]
    if (n_frames - 1) * HOP_LEN + FRAME_LEN > len(clip):  # as_strided checks no bounds
        raise FeatureError(f"{n_frames} frames overrun a clip of {len(clip)} samples")
    frames = as_strided(clip.samples, (n_frames, FRAME_LEN), (HOP_LEN * step, step),
                        writeable=False)
    return pool(frame_log_energies(frames, clip.scale), config)


def fit_scaler(rows) -> Scaler:
    """Per-dimension mean/std over training feature rows."""
    matrix = np.vstack(rows).astype(np.float64)
    if matrix.shape[0] < 2:
        raise FeatureError("need at least 2 vectors to fit a scaler")
    return Scaler(mean=matrix.mean(axis=0), std=matrix.std(axis=0))

