"""Filter-bank feature extraction.

A 4 s clip is cut into 25 ms frames with a 10 ms hop, each frame is Hamming
windowed, zero-padded to the FFT size and transformed with numpy's real FFT,
and pushed through 70 triangular band-pass filters spaced on the mel scale.
Log energies are then pooled into a fixed-length vector (per-filter mean
and standard deviation by default, or the raw frame-by-filter matrix
flattened row-major). Frames are computed once per recording: every window
pools its rows of one log-energy matrix. Everything here is deterministic:
identical input and config produce byte-identical features.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .audio import AudioClip
from .errors import DegenerateBank, TooFewVectors, TooShort, WrongRate

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
        if self.fft_size & (self.fft_size - 1):
            raise ValueError("fft_size must be a power of two")
        if self.fft_size < self.frame_len:
            raise ValueError("fft_size must cover one frame")
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
class FilterBank:
    """Triangular band-pass weights over FFT bins, one row per filter."""

    weights: np.ndarray
    center_freqs_hz: np.ndarray


@dataclass(frozen=True)
class Scaler:
    """Per-dimension standardization fitted on training vectors."""

    mean: np.ndarray
    std: np.ndarray

    STD_FLOOR = 1e-8

    def apply(self, v: np.ndarray) -> np.ndarray:
        return (np.asarray(v, dtype=np.float64) - self.mean) / np.maximum(self.std, self.STD_FLOOR)

    @classmethod
    def identity(cls, dim: int) -> "Scaler":
        return cls(np.zeros(dim), np.ones(dim))


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def hamming_window(n: int) -> np.ndarray:
    """w[k] = 0.54 - 0.46*cos(2*pi*k/(n-1)); endpoints are 0.08.

    Evaluated on min(k, n-1-k) so the symmetry w[k] == w[n-1-k] is exact
    in floating point, not just analytic.
    """
    if n < 2:
        raise ValueError("window length must be >= 2")
    k = np.arange(n)
    k = np.minimum(k, n - 1 - k)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))


def frame_signal(samples, config: FeatureConfig) -> np.ndarray:
    """Cut a signal into overlapping frames; the incomplete tail is dropped.

    Returns a read-only (n_frames, frame_len) view of the samples with
    n_frames = floor((N - frame_len) / hop) + 1; copy it before writing.
    """
    samples = np.asarray(samples, dtype=np.float64)
    frame_len, n = config.frame_len, len(samples)
    if n < frame_len:
        raise TooShort(f"{n} samples; need at least {frame_len} for one frame")
    return np.lib.stride_tricks.sliding_window_view(samples, frame_len)[::config.hop_len]


def power_spectrum(frame, fft_size: int) -> np.ndarray:
    """One-sided power spectrum P[k] = |X[k]|^2 / fft_size, k = 0..fft_size/2.

    The frame is zero-padded up to fft_size. 2-D input is treated as a
    batch of frames (one spectrum per row).
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape[-1] > fft_size:
        raise ValueError("frame longer than fft_size")
    spectrum = np.fft.rfft(frame, fft_size)
    # imag is squared in place: the same roundings with one array fewer
    return (spectrum.real ** 2 + np.square(spectrum.imag, out=spectrum.imag)) / fft_size


def build_filterbank(config: FeatureConfig) -> FilterBank:
    """Triangular filters on num_filters + 2 mel-equidistant boundary points.

    Filter i rises over (boundary i, boundary i+1) and falls over
    (boundary i+1, boundary i+2), evaluated at the FFT bin centers and
    rescaled so each row peaks at exactly 1. A filter whose support
    captures no FFT bin makes the bank unusable and raises DegenerateBank.
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
    return FilterBank(weights=weights, center_freqs_hz=bounds_hz[1:-1].copy())


@lru_cache(maxsize=8)
def _cached_filterbank(config: FeatureConfig) -> FilterBank:
    # banks are immutable and shared read-only across clips
    return build_filterbank(config)


def frame_log_energies(frames: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """Hamming (in place), power spectrum, filter bank, log: one row per frame."""
    frames *= hamming_window(frames.shape[1])
    energies = power_spectrum(frames, config.fft_size) @ _cached_filterbank(config).weights.T
    return np.log(np.maximum(energies, config.log_floor))


def pool(log_energies: np.ndarray, config: FeatureConfig) -> np.ndarray:
    """One window's feature vector from its frames' log energies."""
    if config.aggregation == "mean_std_pool":
        std = log_energies.std(axis=0)
        # a constant column has zero spread; np.std leaves rounding dust
        std[np.ptp(log_energies, axis=0) == 0.0] = 0.0
        return np.concatenate([log_energies.mean(axis=0), std])
    return log_energies.reshape(-1)


def _check_rate(clip: AudioClip, config: FeatureConfig) -> None:
    if clip.sample_rate_hz != config.sample_rate_hz:
        raise WrongRate(f"clip at {clip.sample_rate_hz} Hz, "
                        f"config expects {config.sample_rate_hz} Hz")


def extract_features(clip: AudioClip, config: FeatureConfig) -> np.ndarray:
    """The feature vector of one window spanning the clip: its frames' log
    energies, pooled. Callers normalize clips to 4 s first."""
    _check_rate(clip, config)
    return pool(frame_log_energies(frame_signal(clip.samples, config).copy(), config), config)


def window_features(clip: AudioClip, window_starts, window_len: int, config: FeatureConfig):
    """Yield extract_features of each window_len-sample window of the clip starting
    at an offset in window_starts, transforming each distinct frame once."""
    _check_rate(clip, config)
    n_frames = len(frame_signal(clip.samples[:window_len], config))
    starts = np.add.outer(np.asarray(window_starts), config.hop_len * np.arange(n_frames))
    distinct, rows = np.unique(starts, return_inverse=True)
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, config.frame_len)
    log_energies = frame_log_energies(frames[distinct], config)
    for window_rows in rows.reshape(starts.shape):
        yield pool(log_energies[window_rows], config)


def fit_scaler(rows) -> Scaler:
    """Per-dimension mean/std over training feature rows."""
    matrix = np.vstack(rows).astype(np.float64)
    if matrix.shape[0] < 2:
        raise TooFewVectors("need at least 2 vectors to fit a scaler")
    return Scaler(mean=matrix.mean(axis=0), std=matrix.std(axis=0))

