"""Audio loading and shaping: WAV input, resampling, and cutting or padding a
clip to one WINDOW_S analysis window. WINDOW_S and STRIDE_S are the paper's
4 s windows every 0.5 s; features turns them into frame counts, and
slide_windows cuts them in samples as a reference for tests.

All operations are pure functions of their inputs (normalize_duration crops
at an offset drawn with the fixed seed 0); clips are immutable and safe to share.

WAV support is deliberately narrow: RIFF/WAVE, PCM, 8-bit unsigned or
16-bit signed, 1-2 channels, sample rate >= 1000 Hz; load_wav returns the
integers it decodes, not floats, with their power-of-two unit as the clip's scale.
"""

from __future__ import annotations

import os
import struct
import wave
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AudioError

MIN_SAMPLE_RATE_HZ = 1000
WINDOW_S = 4.0
STRIDE_S = 0.5


@dataclass(frozen=True)
class AudioClip:
    """Mono PCM at a known sample rate, valued samples * scale in [-1, 1]. load_wav
    gives integers at their unit (2^-7, 2^-8, 2^-15 or 2^-16); other input becomes
    float64, as synth and resample give it, at scale 1. The scale must be a power of
    two: multiplying by it is exact, so (samples * scale) * w rounds as samples * (scale * w)."""

    samples: np.ndarray
    sample_rate_hz: int
    scale: float = 1.0

    def __post_init__(self):
        samples = np.asarray(self.samples)
        object.__setattr__(self, "samples", samples if samples.dtype.kind in "iu"
                           else samples.astype(np.float64, copy=False))
        if self.samples.ndim != 1:
            raise ValueError("AudioClip samples must be one-dimensional")
        if self.sample_rate_hz < 1:
            raise ValueError("sample_rate_hz must be positive")
        if np.frexp(self.scale)[0] != 0.5:  # 0, negatives, inf and nan fail too
            raise ValueError(f"scale {self.scale!r} is not a positive power of two")

    def __len__(self) -> int:
        return len(self.samples)


def load_wav(path) -> AudioClip:
    """Read a PCM WAV file as a mono clip of its integers, not floats, and their unit:
    16-bit mono views the file's bytes at 2^-15, 8-bit is u - 128 at 2^-7, and stereo
    averages each frame as its int32 sum at half the unit. The file's sample rate is
    kept. Raises AudioError for a missing, unsupported or corrupt file.
    """
    if not os.path.isfile(path):
        raise AudioError(f"no such audio file: {path}")
    with open(path, "rb") as fh:
        data = fh.read()

    if len(data) < 12:
        raise AudioError(f"{path}: truncated RIFF header")
    if data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise AudioError(f"{path}: not a RIFF/WAVE file")
    riff_size = struct.unpack_from("<I", data, 4)[0]
    if riff_size + 8 > len(data):
        raise AudioError(f"{path}: RIFF size exceeds file length")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        chunk_size = struct.unpack_from("<I", data, pos + 4)[0]
        body_start = pos + 8
        if body_start + chunk_size > len(data):
            raise AudioError(f"{path}: chunk {chunk_id!r} overruns file")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise AudioError(f"{path}: fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", data, body_start)
        elif chunk_id == b"data":
            payload = memoryview(data)[body_start:body_start + chunk_size]  # borrowed
        # chunks are word-aligned; odd sizes carry a pad byte
        pos = body_start + chunk_size + (chunk_size & 1)

    if fmt is None or payload is None:
        raise AudioError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _byte_rate, block_align, bits = fmt
    if audio_format != 1:
        raise AudioError(f"{path}: only PCM is supported (format tag {audio_format})")
    if channels not in (1, 2):
        raise AudioError(f"{path}: {channels} channels (expected 1 or 2)")
    if bits not in (8, 16):
        raise AudioError(f"{path}: {bits}-bit samples (expected 8 or 16)")
    if rate < MIN_SAMPLE_RATE_HZ:
        raise AudioError(f"{path}: sample rate {rate} Hz below {MIN_SAMPLE_RATE_HZ}")
    frame_bytes = channels * bits // 8
    if block_align != frame_bytes:
        raise AudioError(f"{path}: block align {block_align} != {frame_bytes}")
    if len(payload) % frame_bytes != 0:
        raise AudioError(f"{path}: data chunk not a whole number of frames")
    if len(payload) == 0:
        raise AudioError(f"{path}: empty data chunk")

    ints = np.frombuffer(payload, dtype="<i2" if bits == 16 else np.uint8)
    # every value, samples * scale, lands in [-1, 1): nothing to clip
    if channels == 2:
        pairs = np.add(ints[0::2], ints[1::2], dtype=np.int32)
        return AudioClip(pairs if bits == 16 else pairs - 256, int(rate), 2.0 ** -bits)
    return AudioClip(ints if bits == 16 else np.subtract(ints, 128, dtype=np.int16),
                     int(rate), 2.0 ** (1 - bits))


def write_wav(path, clip: AudioClip) -> None:
    """Write a clip's value as 16-bit PCM mono WAV (scale matches load_wav)."""
    pcm = np.clip(np.round(clip.samples * clip.scale * 32768.0), -32768, 32767).astype(np.int16)
    with open(path, "wb") as fh, wave.open(fh, "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(clip.sample_rate_hz)
        out.writeframes(pcm.tobytes())


def load_clip(path, rate_hz: int) -> AudioClip:
    """load_wav, resampled to rate_hz when the file's rate differs."""
    clip = load_wav(path)
    if clip.sample_rate_hz != rate_hz:
        clip = resample(clip, rate_hz)
    return clip


@lru_cache(maxsize=8)
def _lowpass_taps(target_hz: int, rate_hz: int) -> np.ndarray:
    """63-tap Hamming-windowed-sinc FIR low-pass at rate_hz, cutoff 0.45 x
    target_hz, DC gain normalized to 1. Cached and read-only: every resample
    between one pair of rates shares one filter."""
    cutoff_hz, n_taps = 0.45 * target_hz, 63
    t = np.arange(n_taps) - (n_taps - 1) / 2
    taps = 2.0 * cutoff_hz / rate_hz * np.sinc(2.0 * cutoff_hz / rate_hz * t)
    taps *= 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n_taps) / (n_taps - 1))
    taps = taps / taps.sum()
    taps.setflags(write=False)
    return taps


def _centred(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The len(x) centred outputs of the full convolution; mode="same" gives
    max(len(x), len(taps)) of them."""
    half = len(taps) // 2
    return np.convolve(x, taps)[half:half + len(x)]


def _centred_every(x: np.ndarray, taps: np.ndarray, m: int) -> np.ndarray:
    """_centred(x, taps)[::m], byte for byte, computing only those outputs.

    np.convolve(x, taps) is np.correlate(x, taps[::-1]): an output whose 63
    samples all lie in x is one BLAS ddot of x[j - 31:j + 32] with the
    contiguous reversed taps, and np.vecdot calls that same ddot once per row,
    so the kept outputs away from the ends are np.vecdot over a strided window
    view (no copy). The outputs within 31 samples of an end are shorter dots,
    which np.convolve over the first or last 2 x 63 samples computes as the
    full convolution does. Each is written once, into one fresh array.
    """
    half, edge = len(taps) // 2, 2 * len(taps)
    n = len(x)
    if n <= edge:
        return np.ascontiguousarray(_centred(x, taps)[::m])
    # kept outputs 0 .. first-1 lie in the head, last .. ceil(n / m)-1 in the tail
    first, last = -(-half // m), -(-(n - half) // m)
    out = np.empty(-(-n // m))
    windows = np.lib.stride_tricks.sliding_window_view(x, len(taps))
    np.vecdot(windows[first * m - half:last * m - half:m], taps[::-1].copy(), out=out[first:last])
    out[:first] = _centred(x[:edge], taps)[:first * m:m]
    out[last:] = _centred(x[-edge:], taps)[last * m - (n - edge)::m]
    return out


def resample(clip: AudioClip, target_hz: int) -> AudioClip:
    """Resample by linear interpolation; decimation applies a 63-tap
    anti-alias low-pass (cutoff 0.45 x target rate) first, keeping the
    len(samples) centred outputs of np.convolve.

    An integer downsampling ratio m (rate = m x target) takes every m-th
    filtered sample, which is that interpolation on an exact grid: k / target
    and m*k / rate are one double. Only those kept outputs are computed, one
    BLAS ddot each as np.convolve computes them (see _centred_every), so the
    bytes equal filtering every sample and slicing. Other rates give a fresh
    C-contiguous array, clipped to [-1, 1] in place; the same rate, the clip.
    """
    if target_hz < MIN_SAMPLE_RATE_HZ:
        raise AudioError(f"target rate {target_hz} Hz below {MIN_SAMPLE_RATE_HZ}")
    rate = clip.sample_rate_hz
    if target_hz == rate:
        return clip

    samples = clip.samples * clip.scale
    n_out = max(int(round(len(samples) * target_hz / rate)), 1)
    if rate % target_hz == 0:
        # [::m] keeps ceil(n / m) outputs, one more than n_out when round() goes down
        out = _centred_every(samples, _lowpass_taps(target_hz, rate), rate // target_hz)[:n_out]
    else:
        if target_hz < rate:
            samples = _centred(samples, _lowpass_taps(target_hz, rate))
        out = np.interp(np.arange(n_out) / target_hz, np.arange(len(samples)) / rate, samples)
    return AudioClip(np.clip(out, -1.0, 1.0, out=out), int(target_hz))


def normalize_duration(clip: AudioClip) -> AudioClip:
    """Force a clip to exactly one WINDOW_S window, round(WINDOW_S * rate) samples.

    Shorter clips get trailing zeros; longer clips keep one contiguous
    segment whose start offset is drawn uniformly with seed 0.
    """
    n_target = int(round(WINDOW_S * clip.sample_rate_hz))
    n = len(clip.samples)
    if n == n_target:
        return clip
    if n < n_target:
        return AudioClip(np.pad(clip.samples, (0, n_target - n)), clip.sample_rate_hz, clip.scale)
    start = int(np.random.default_rng(0).integers(0, n - n_target + 1))
    return AudioClip(clip.samples[start:start + n_target].copy(), clip.sample_rate_hz, clip.scale)


def slide_windows(clip: AudioClip):
    """(offset_s, AudioClip) for each WINDOW_S window that fits, one every
    STRIDE_S from the start; a clip shorter than one window is zero-padded to
    one. Cut in samples, independently of features' frame arithmetic."""
    rate = clip.sample_rate_hz
    window_n, stride_n = int(round(WINDOW_S * rate)), int(round(STRIDE_S * rate))
    if len(clip) < window_n:
        clip = normalize_duration(clip)
    return [(start / rate, AudioClip(clip.samples[start:start + window_n].copy(), rate, clip.scale))
            for start in range(0, len(clip) - window_n + 1, stride_n)]
