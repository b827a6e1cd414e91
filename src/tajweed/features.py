"""Filter-bank feature extraction.

extract_features is the one front end: it turns a clip into one feature row
per analysis window of audio.window_layout (4 s windows every 0.5 s). Each
window is cut into 25 ms frames with a 10 ms hop, each frame is Hamming
windowed, zero-padded to the FFT size and transformed with numpy's real FFT,
and pushed through 70 triangular band-pass filters spaced on the mel scale.
Log energies are then pooled into a fixed-length vector (per-filter mean
and standard deviation by default, or the raw frame-by-filter matrix
flattened row-major). Frames are computed once per clip: every window
pools its rows of one log-energy matrix. Windows overlap by all but one
stride, so the mean/std pool cuts each window into one-stride blocks plus a
short tail, reduces each distinct block once and merges a window's blocks
with the update formula of Chan, Golub & LeVeque (1979, "Updating formulae
and a pairwise algorithm for computing sample variances"). Everything here is
deterministic: identical input and config produce byte-identical features.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .audio import STRIDE_S, WINDOW_S, AudioClip, window_layout
from .errors import DegenerateBank, TooFewVectors, WrongRate

AGGREGATIONS = ("mean_std_pool", "flatten")


@dataclass(frozen=True)
class FeatureConfig:
    """Deterministic recipe for turning a clip into a feature vector."""

    frame_ms: int = 25
    hop_ms: int = 10
    num_filters: int = 70
    fft_size: int = 256
    sample_rate_hz: int = 8000
    f_min_hz: float = 0.0
    f_max_hz: float = 4000.0
    log_floor: float = 1e-10
    aggregation: str = "mean_std_pool"

    def __post_init__(self):
        if self.fft_size & (self.fft_size - 1) or self.fft_size > 2 ** 16:
            raise ValueError("fft_size must be a power of two up to 2**16")
        if self.frame_len < 2 or self.hop_len < 1:
            raise ValueError("need a frame of at least 2 samples and a hop of at least 1")
        if self.frame_len > round(WINDOW_S * self.sample_rate_hz):
            raise ValueError(f"a frame must fit in one {WINDOW_S:g} s analysis window")
        if self.fft_size < self.frame_len:
            raise ValueError("fft_size must cover one frame")
        if not 0.0 < self.log_floor < np.inf:
            raise ValueError("log_floor must be positive and finite")
        if not 0 <= self.f_min_hz < self.f_max_hz <= self.sample_rate_hz / 2:
            raise ValueError("need 0 <= f_min < f_max <= rate/2")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")
        if self.num_filters < 1:
            raise ValueError("num_filters must be positive")

    @property
    def frame_len(self) -> int:
        return int(round(self.frame_ms * self.sample_rate_hz / 1000))

    @property
    def hop_len(self) -> int:
        return int(round(self.hop_ms * self.sample_rate_hz / 1000))

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    def fingerprint(self) -> str:
        canon = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class Scaler:
    """Per-dimension standardization fitted on training vectors."""

    mean: np.ndarray
    std: np.ndarray

    STD_FLOOR = 1e-8

    def apply(self, v: np.ndarray) -> np.ndarray:
        return (np.asarray(v, dtype=np.float64) - self.mean) / np.maximum(self.std, self.STD_FLOOR)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def hamming_window(n: int) -> np.ndarray:
    """w[k] = 0.54 - 0.46*cos(2*pi*k/(n-1)); endpoints are 0.08.

    Evaluated on min(k, n-1-k) so the symmetry w[k] == w[n-1-k] is exact
    in floating point, not just analytic. Cached and read-only: every frame
    of a given length shares one window.
    """
    if n < 2:
        raise ValueError("window length must be >= 2")
    k = np.arange(n)
    k = np.minimum(k, n - 1 - k)
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))
    window.setflags(write=False)
    return window


def power_spectrum(frame, fft_size: int) -> np.ndarray:
    """One-sided power spectrum P[k] = |X[k]|^2 / fft_size, k = 0..fft_size/2.

    The frame is zero-padded up to fft_size. 2-D input is treated as a
    batch of frames (one spectrum per row).
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape[-1] > fft_size:
        raise ValueError("frame longer than fft_size")
    spectrum = np.fft.rfft(frame, fft_size)
    # squares re and im in place through a float view: the roundings of
    # (re**2 + im**2) / fft_size with one new array instead of three
    parts = spectrum.view(np.float64)
    np.square(parts, out=parts)
    power = parts[..., 0::2] + parts[..., 1::2]
    power /= fft_size
    return power


@lru_cache(maxsize=8)
def build_filterbank(config: FeatureConfig) -> np.ndarray:
    """The (num_filters, n_bins) weights of triangular filters on
    num_filters + 2 mel-equidistant boundary points.

    Filter i rises over (boundary i, boundary i+1) and falls over
    (boundary i+1, boundary i+2), evaluated at the FFT bin centers and
    rescaled so each row peaks at exactly 1. A filter whose support
    captures no FFT bin makes the bank unusable and raises DegenerateBank.
    Cached and read-only: every clip under one config shares one bank.
    """
    n_pts = config.num_filters + 2
    mels = np.linspace(hz_to_mel(config.f_min_hz), hz_to_mel(config.f_max_hz), n_pts)
    bounds_hz = mel_to_hz(mels)
    bin_freqs = np.arange(config.n_bins) * config.sample_rate_hz / config.fft_size

    weights = np.zeros((config.num_filters, config.n_bins))
    for i in range(config.num_filters):
        lo, mid, hi = bounds_hz[i], bounds_hz[i + 1], bounds_hz[i + 2]
        rising = (bin_freqs - lo) / (mid - lo)
        falling = (hi - bin_freqs) / (hi - mid)
        tri = np.maximum(0.0, np.minimum(rising, falling))
        peak = tri.max()
        if peak <= 0.0:
            raise DegenerateBank(
                f"filter {i} spans ({lo:.1f}, {hi:.1f}) Hz but contains no FFT bin"
            )
        weights[i] = tri / peak
    weights.setflags(write=False)
    return weights


def frame_log_energies(frames: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Hamming (in place), power spectrum, filter bank, log (in place): one row
    per frame."""
    frames *= hamming_window(frames.shape[1])
    energies = power_spectrum(frames, config.fft_size) @ build_filterbank(config).T
    return np.log(np.maximum(energies, config.log_floor, out=energies), out=energies)


def _block_stats(x: np.ndarray):
    """(sum, squared deviations from the mean, max, min) over axis 0; x is
    overwritten. Frames-major (frames, blocks, filters) reduces fastest."""
    total, hi, lo = x.sum(axis=0), x.max(axis=0), x.min(axis=0)
    x -= total / len(x)
    return total, np.square(x, out=x).sum(axis=0), hi, lo


def pool(log_energies: np.ndarray, rows: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """The feature vectors of windows, one row per window: row w of the 2-D
    `rows` holds window w's frame indices into log_energies, in time order.

    flatten lays out each window's frames row-major. mean_std_pool cuts every
    window into one-stride blocks (STRIDE_S in samples // hop_len frames) plus a short
    tail, reduces each distinct block once (keyed by its first frame, since
    overlapping windows share blocks) and each tail, and merges a window's
    parts with the update formula of Chan, Golub & LeVeque (1979) for k
    parts of n_p frames each: mean = sum / n and
    M2 = sum_p M2_p + sum_p n_p * (mean_p - mean)^2, std = sqrt(M2 / n).
    A column is constant, with std exactly 0, when max == min over the parts.
    """
    if config.aggregation == "flatten":
        return log_energies[rows].reshape(len(rows), -1)
    n = rows.shape[1]
    block = max(round(STRIDE_S * config.sample_rate_hz) // config.hop_len, 1)
    n_blocks, tail = divmod(n, block)
    keys = rows[:, :n_blocks * block:block]
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    # a block's rows come from a window that holds it: frames of different
    # windows interleave when the stride is not a whole number of hops
    block_rows = rows[:, :n_blocks * block].reshape(-1, block)[first]
    parts = [s[which.reshape(keys.shape)] for s in _block_stats(log_energies[block_rows.T])]
    counts = [block] * n_blocks
    if tail:
        tails = _block_stats(log_energies[rows[:, -tail:].T])
        parts = [np.concatenate([p, t[:, None]], axis=1) for p, t in zip(parts, tails)]
        counts.append(tail)
    total, m2, hi, lo = parts  # (window, part, filter)
    counts = np.array(counts, dtype=np.float64)[:, None]
    mean = total.sum(axis=1) / n
    spread = total / counts - mean[:, None]
    std = np.sqrt((m2.sum(axis=1) + (counts * spread * spread).sum(axis=1)) / n)
    std[hi.max(axis=1) == lo.min(axis=1)] = 0.0
    return np.concatenate([mean, std], axis=1)


def extract_features(clip: AudioClip, config: FeatureConfig) -> np.ndarray:
    """The feature vectors of the clip's analysis windows, one row per window
    of audio.window_layout: a clip shorter than WINDOW_S is zero-padded to one
    window, a longer one has a window every STRIDE_S (a 4 s clip gives 1 row).
    Each distinct frame is transformed once and every window pools its rows
    of that one log-energy matrix."""
    if clip.sample_rate_hz != config.sample_rate_hz:
        raise WrongRate(f"clip at {clip.sample_rate_hz} Hz, "
                        f"config expects {config.sample_rate_hz} Hz")
    clip, window_n, window_starts = window_layout(clip)
    n_frames = (window_n - config.frame_len) // config.hop_len + 1
    starts = np.add.outer(np.asarray(window_starts), config.hop_len * np.arange(n_frames))
    distinct, rows = np.unique(starts, return_inverse=True)
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, config.frame_len)
    return pool(frame_log_energies(frames[distinct], config), rows.reshape(starts.shape), config)


def fit_scaler(rows) -> Scaler:
    """Per-dimension mean/std over training feature rows."""
    matrix = np.vstack(rows).astype(np.float64)
    if matrix.shape[0] < 2:
        raise TooFewVectors("need at least 2 vectors to fit a scaler")
    return Scaler(mean=matrix.mean(axis=0), std=matrix.std(axis=0))

