import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tajweed import audio, features
from tajweed.errors import AudioError


def wav_bytes(payload, channels=1, bits=16, rate=8000, fmt=1, riff_size=None, data_size=None):
    frame = channels * bits // 8
    data_size = len(payload) if data_size is None else data_size
    body = b"fmt " + struct.pack("<IHHIIHH", 16, fmt, channels, rate, rate * frame, frame, bits)
    body += b"data" + struct.pack("<I", data_size) + payload
    riff_size = 4 + len(body) if riff_size is None else riff_size
    return b"RIFF" + struct.pack("<I", riff_size) + b"WAVE" + body


# 44-byte header plus 16 frames of 16-bit mono: the byte-flip fuzz seed
VALID_WAV = wav_bytes(struct.pack("<16h", *range(-8000, 8000, 1000)))


def write(tmp_path, blob, name="a.wav"):
    p = tmp_path / name
    p.write_bytes(blob)
    return str(p)


# (channels, bits) of the four PCM layouts load_wav reads
LAYOUTS = [(1, 16), (2, 16), (1, 8), (2, 8)]


def layout_ints(kind, n_frames, channels, bits):
    """n_frames of full-scale extremes, uniform random integers or silence,
    interleaved, in the layout's sample type."""
    lo, hi, zero = (-32768, 32767, 0) if bits == 16 else (0, 255, 128)
    size = n_frames * channels
    if kind == "extremes":
        ints = np.resize([lo, hi, hi, lo, lo, lo, hi, hi], size)
    elif kind == "random":
        ints = np.random.default_rng(size + bits).integers(lo, hi + 1, size)
    else:
        ints = np.full(size, zero)
    return ints.astype("<i2" if bits == 16 else np.uint8)


class TestLoadWav:
    def test_16bit_scaling(self, tmp_path):
        path = write(tmp_path, wav_bytes(struct.pack("<h", 16384)))
        clip = audio.load_wav(path)
        assert (clip.samples * clip.scale).tolist() == [0.5]
        assert clip.sample_rate_hz == 8000

    def test_stereo_average(self, tmp_path):
        payload = struct.pack("<4h", 16384, -16384, 16384, -16384)
        path = write(tmp_path, wav_bytes(payload, channels=2))
        clip = audio.load_wav(path)
        assert clip.samples.tolist() == [0.0, 0.0]

    def test_16bit_extremes_need_no_clipping(self, tmp_path):
        path = write(tmp_path, wav_bytes(struct.pack("<4h", -32768, 32767, -32768, -32768),
                                         channels=2))
        clip = audio.load_wav(path)
        assert (clip.samples * clip.scale).tolist() == [-1.0 / 65536, -1.0]

    @pytest.mark.parametrize("bits", [8, 16])
    def test_stereo_fold_bytes_match_the_float_mean(self, tmp_path, bits):
        # every pair of extremes and zeros, then random pairs: the integer sum
        # over one division must give the bytes of the mean of the scaled pair
        lo, hi, zero = (-32768, 32767, 0) if bits == 16 else (0, 255, 128)
        edges = [lo, lo + 1, zero - 1, zero, zero + 1, hi - 1, hi]
        pairs = [v for a in edges for b in edges for v in (a, b)]
        ints = np.concatenate([pairs, np.random.default_rng(bits).integers(lo, hi + 1, 4000)])
        ints = ints.astype("<i2" if bits == 16 else np.uint8)
        path = write(tmp_path, wav_bytes(ints.tobytes(), channels=2, bits=bits))
        scaled = ints / 32768.0 if bits == 16 else (ints - 128.0) / 128.0
        expected = scaled.reshape(-1, 2).mean(axis=1)
        clip = audio.load_wav(path)
        assert (clip.samples * clip.scale).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bits", [8, 16])
    def test_every_mono_sample_has_the_quotients_bytes(self, tmp_path, bits):
        ints = np.arange(-32768, 32768) if bits == 16 else np.arange(256)
        ints = ints.astype("<i2" if bits == 16 else np.uint8)
        path = write(tmp_path, wav_bytes(ints.tobytes(), bits=bits))
        expected = ints / 32768.0 if bits == 16 else (ints - 128.0) / 128.0
        clip = audio.load_wav(path)
        assert (clip.samples * clip.scale).tobytes() == expected.tobytes()

    def test_8bit_unsigned(self, tmp_path):
        path = write(tmp_path, wav_bytes(bytes([128, 255, 0]), bits=8))
        clip = audio.load_wav(path)
        value = clip.samples * clip.scale
        assert value[0] == 0.0
        assert value[1] == pytest.approx(127 / 128)
        assert value[2] == -1.0

    def test_peak_memory_is_about_the_files_bytes(self, tmp_path):
        # 60 s of 8 kHz 16-bit mono is a 960,044-byte file. load_wav holds the
        # file's bytes and views its samples in place; a float64 copy of them
        # alone is 4 times the file (8 bytes a 2-byte sample). 1.5 times the file
        # leaves room for the read and small objects, none for a per-sample copy.
        path = write(tmp_path, wav_bytes(layout_ints("random", 60 * 8000, 1, 16).tobytes()))
        tracemalloc.start()
        try:
            clip = audio.load_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(clip) == 60 * 8000
        assert peak <= 1.5 * os.path.getsize(path)

    def test_truncated_header(self, tmp_path):
        path = write(tmp_path, b"RIFF\x00\x00")
        with pytest.raises(AudioError, match="truncated RIFF header"):
            audio.load_wav(path)

    def test_chunk_overrun(self, tmp_path):
        blob = wav_bytes(struct.pack("<h", 1), data_size=999)
        with pytest.raises(AudioError, match="chunk b'data' overruns file"):
            audio.load_wav(write(tmp_path, blob))

    def test_not_riff(self, tmp_path):
        with pytest.raises(AudioError, match="not a RIFF/WAVE file"):
            audio.load_wav(write(tmp_path, b"OGGS" + b"\x00" * 40))

    def test_missing_file(self, tmp_path):
        with pytest.raises(AudioError, match="no such audio file"):
            audio.load_wav(str(tmp_path / "nope.wav"))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_only_regular_files_are_opened(self, tmp_path):
        # opening a FIFO blocks and /dev/zero reads without end, so each must be
        # refused before it is opened; a child process with a timeout and a 1 GiB
        # address space bounds the wait and the read if one is not
        fifo = tmp_path / "fifo.wav"
        os.mkfifo(fifo)
        paths = [str(fifo), str(tmp_path), "/dev/zero"]
        src = os.path.dirname(os.path.dirname(os.path.abspath(audio.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
                  "from tajweed import audio, errors\nfor path in sys.argv[1:]:\n"
                  "    try:\n        audio.load_wav(path)\n"
                  "    except errors.AudioError as exc:\n        print(exc)\n")
        child = subprocess.run([sys.executable, "-c", script, *paths], env=env,
                               capture_output=True, text=True, timeout=60)
        assert child.stdout.splitlines() == [f"no such audio file: {p}" for p in paths], child.stderr

    def test_non_pcm(self, tmp_path):
        with pytest.raises(AudioError, match=r"only PCM is supported \(format tag 3\)"):
            audio.load_wav(write(tmp_path, wav_bytes(struct.pack("<h", 1), fmt=3)))

    def test_too_many_channels(self, tmp_path):
        payload = struct.pack("<3h", 0, 0, 0)
        with pytest.raises(AudioError, match=r"3 channels \(expected 1 or 2\)"):
            audio.load_wav(write(tmp_path, wav_bytes(payload, channels=3)))

    def test_bad_bit_depth(self, tmp_path):
        with pytest.raises(AudioError, match=r"24-bit samples \(expected 8 or 16\)"):
            audio.load_wav(write(tmp_path, wav_bytes(b"\x00" * 6, bits=24)))

    def test_riff_size_past_the_file_end(self, tmp_path):
        blob = VALID_WAV[:4] + struct.pack("<I", len(VALID_WAV) - 8 + 4) + VALID_WAV[8:]
        with pytest.raises(AudioError, match="RIFF size exceeds file length"):
            audio.load_wav(write(tmp_path, blob))

    def test_odd_sized_chunk_before_fmt_is_skipped_with_its_pad_byte(self, tmp_path):
        blob = VALID_WAV[:12] + b"LIST" + struct.pack("<I", 3) + b"abc\x00" + VALID_WAV[12:]
        blob = blob[:4] + struct.pack("<I", len(blob) - 8) + blob[8:]
        plain = audio.load_wav(write(tmp_path, VALID_WAV))
        listed = audio.load_wav(write(tmp_path, blob, "listed.wav"))
        assert listed.samples.tobytes() == plain.samples.tobytes()

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        clip = audio.AudioClip(rng.uniform(-0.9, 0.9, 500), 8000)
        path = str(tmp_path / "rt.wav")
        audio.write_wav(path, clip)
        back = audio.load_wav(path)
        assert back.sample_rate_hz == 8000
        assert np.abs(back.samples * back.scale - clip.samples).max() <= 0.5 / 32768

    @pytest.mark.parametrize("n, rate", [(1, 8000), (333, 11025), (16001, 16000)])
    def test_write_matches_hand_packed_layout(self, tmp_path, n, rate):
        samples = np.random.default_rng(n).uniform(-1, 1, n)
        path = str(tmp_path / "w.wav")
        audio.write_wav(path, audio.AudioClip(samples, rate))
        pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
        assert open(path, "rb").read() == wav_bytes(pcm.tobytes(), rate=rate)

    @settings(max_examples=300, deadline=None)
    @given(flips=st.lists(st.tuples(st.integers(0, len(VALID_WAV) - 1), st.integers(1, 255)),
                          max_size=4),
           keep=st.integers(0, len(VALID_WAV)))
    def test_byte_flips_raise_only_audio_errors(self, tmp_path_factory, flips, keep):
        blob = bytearray(VALID_WAV)
        for pos, mask in flips:
            blob[pos] ^= mask
        path = tmp_path_factory.getbasetemp() / "flipped.wav"
        path.write_bytes(bytes(blob[:keep]))
        try:
            clip = audio.load_wav(str(path))
        except AudioError:
            return
        assert np.isfinite(clip.samples).all() and clip.sample_rate_hz >= 1000


class TestIntegerUnit:
    """load_wav's integers and power-of-two unit against their float twin,
    AudioClip(samples * scale): the same bytes through the front end, whose
    tile carries the unit, and through resample."""

    @pytest.mark.parametrize("channels, bits", LAYOUTS)
    @pytest.mark.parametrize("kind", ["extremes", "random", "silence"])
    def test_features_equal_the_float_twins(self, tmp_path, kind, channels, bits):
        for seconds in (3.0, 4.0, 12.5):
            ints = layout_ints(kind, int(seconds * 8000), channels, bits)
            clip = audio.load_wav(write(tmp_path, wav_bytes(ints.tobytes(), channels, bits)))
            twin = audio.AudioClip(clip.samples * clip.scale, 8000)
            assert clip.samples.dtype.kind == "i" and twin.samples.dtype == np.float64
            for agg in features.AGGREGATIONS:
                config = features.FeatureConfig(agg)
                assert (features.extract_features(clip, config).tobytes()
                        == features.extract_features(twin, config).tobytes()), (seconds, agg)

    @pytest.mark.parametrize("channels, bits", LAYOUTS)
    @pytest.mark.parametrize("rate", [16000, 22050])
    def test_resample_equals_the_float_twins(self, tmp_path, rate, channels, bits):
        ints = layout_ints("random", 3 * rate, channels, bits)
        clip = audio.load_wav(write(tmp_path, wav_bytes(ints.tobytes(), channels, bits, rate)))
        out = audio.resample(clip, 8000)
        expected = audio.resample(audio.AudioClip(clip.samples * clip.scale, rate), 8000)
        assert out.scale == 1.0 and out.samples.tobytes() == expected.samples.tobytes()

    @pytest.mark.parametrize("scale", [3e-5, 1 / 32767, 0.0, -2.0 ** -15, float("inf"),
                                       float("nan")])
    def test_scale_must_be_a_power_of_two(self, scale):
        with pytest.raises(ValueError, match="is not a positive power of two"):
            audio.AudioClip(np.arange(4, dtype=np.int16), 8000, scale)


class TestResample:
    def test_identity_same_rate(self):
        clip = audio.AudioClip(np.ones(100) * 0.5, 8000)
        assert audio.resample(clip, 8000) is clip

    def test_sine_440_preserved(self):
        t = np.arange(16000) / 16000.0
        clip = audio.AudioClip(np.sin(2 * np.pi * 440.0 * t), 16000)
        out = audio.resample(clip, 8000)
        assert out.sample_rate_hz == 8000
        assert abs(len(out) - 8000) <= 1
        rms = np.sqrt(np.mean(out.samples ** 2))
        assert rms == pytest.approx(1 / np.sqrt(2), rel=0.02)
        # dominant bin must match an analytically generated 440 Hz sine at 8 kHz
        ref = np.sin(2 * np.pi * 440.0 * np.arange(len(out)) / 8000.0)
        peak = np.argmax(np.abs(np.fft.rfft(out.samples)))
        ref_peak = np.argmax(np.abs(np.fft.rfft(ref)))
        assert peak == ref_peak

    def test_upsample_length(self):
        clip = audio.AudioClip(np.full(8000, 0.25), 8000)
        out = audio.resample(clip, 16000)
        assert abs(len(out) - 16000) <= 1

    def test_rejects_low_rate(self):
        clip = audio.AudioClip(np.zeros(10), 8000)
        with pytest.raises(AudioError, match="target rate 999 Hz below 1000"):
            audio.resample(clip, 999)

    @pytest.mark.parametrize("n, n_out", [(1, 1), (2, 1), (10, 5), (62, 31)])
    def test_clip_shorter_than_the_filter_halves_its_length(self, n, n_out):
        clip = audio.AudioClip(np.full(n, 0.25), 16000)
        assert len(audio.resample(clip, 8000)) == n_out

    @pytest.mark.parametrize("n", [63, 64, 1001, 16000])
    def test_filter_is_the_centred_convolution(self, n):
        # reference: mode="same", which is the centred crop once n >= 63 taps
        x = np.random.default_rng(n).uniform(-1, 1, n)
        filtered = np.convolve(x, audio._lowpass_taps(8000, 16000), mode="same")
        t_out = np.arange(int(round(n / 2))) / 8000
        expected = np.clip(np.interp(t_out, np.arange(n) / 16000, filtered), -1.0, 1.0)
        out = audio.resample(audio.AudioClip(x, 16000), 8000)
        assert np.array_equal(out.samples, expected)

    @pytest.mark.parametrize("rate, target", [(16000, 8000), (24000, 8000), (32000, 8000),
                                              (48000, 8000), (22050, 8000), (11025, 8000),
                                              (8000, 16000)])
    def test_bytes_match_interp_oracle(self, rate, target):
        # integer ratios take the slice path (up to 126 samples, one short
        # convolution), the others interpolate; every path must give the parent
        # algorithm's exact bytes, clipping included, in a fresh C-contiguous array
        rng = np.random.default_rng(rate)
        for n in [*range(1, 71), 126, 127, 64000, 64001, 200001]:
            x = rng.uniform(-1.3, 1.3, n)
            out = audio.resample(audio.AudioClip(x, rate), target)
            expected = oracles.interp_resample(x, rate, target)
            assert out.samples.dtype == expected.dtype
            assert out.samples.tobytes() == expected.tobytes(), n
            assert out.samples.flags.c_contiguous and not np.shares_memory(out.samples, x), n

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 11])
    def test_bytes_match_every_mth_centred_output(self, m):
        # every length from 1 sample up, so the kept outputs in the head, the
        # middle and the tail meet at every offset an off-by-one could hide in
        taps = audio._lowpass_taps(8000, 8000 * m)
        rng = np.random.default_rng(m)
        for n in range(1, 201):
            x = rng.uniform(-1.3, 1.3, n)
            n_out = max(int(round(n / m)), 1)
            expected = np.clip(np.convolve(x, taps)[31:31 + n][::m][:n_out], -1.0, 1.0)
            out = audio.resample(audio.AudioClip(x, 8000 * m), 8000)
            assert out.samples.tobytes() == expected.tobytes(), n

    @pytest.mark.parametrize("rate", [16000, 24000, 48000])
    def test_integer_ratio_convolves_only_the_ends(self, monkeypatch, rate):
        lengths, inner = [], np.convolve
        monkeypatch.setattr(np, "convolve",
                            lambda a, v, *args: lengths.append(len(a)) or inner(a, v, *args))
        audio.resample(audio.AudioClip(np.zeros(4 * rate), rate), 8000)
        assert lengths and max(lengths) <= 2 * 63

    def test_taps_cached_read_only(self):
        taps = audio._lowpass_taps(8000, 16000)
        assert audio._lowpass_taps(8000, 16000) is taps
        assert not taps.flags.writeable
        assert taps.tobytes() == oracles.lowpass_taps(0.45 * 8000, 16000).tobytes()

    def test_idempotent_at_fixed_rate(self):
        rng = np.random.default_rng(7)
        clip = audio.AudioClip(rng.uniform(-1, 1, 12345), 11025)
        once = audio.resample(clip, 8000)
        twice = audio.resample(once, 8000)
        assert np.array_equal(once.samples, twice.samples)


class TestNormalizeDuration:
    def test_exact_length_identity(self):
        clip = audio.AudioClip(np.arange(32000) / 32000.0, 8000)
        out = audio.normalize_duration(clip)
        assert np.array_equal(out.samples, clip.samples)

    def test_short_clip_padded(self):
        clip = audio.AudioClip(np.ones(24000) * 0.5, 8000)
        out = audio.normalize_duration(clip)
        assert len(out) == 32000
        assert (out.samples[24000:] == 0.0).all()
        assert (out.samples[:24000] == 0.5).all()

    def test_long_clip_seeded_truncation(self):
        rng = np.random.default_rng(11)
        src = rng.uniform(-1, 1, 48000)
        clip = audio.AudioClip(src, 8000)
        out = audio.normalize_duration(clip)
        again = audio.normalize_duration(clip)
        assert np.array_equal(out.samples, again.samples)
        # locate the slice independently: it must be a contiguous run of src
        starts = np.flatnonzero(src[: 48000 - 32000 + 1] == out.samples[0])
        matches = [s for s in starts if np.array_equal(src[s:s + 32000], out.samples)]
        assert matches == [np.random.default_rng(0).integers(0, 16001)]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=1, max_value=80_000))
    def test_output_length_always_exact(self, n):
        clip = audio.AudioClip(np.linspace(-1, 1, n), 8000)
        out = audio.normalize_duration(clip)
        assert len(out) == 32000


class TestSlideWindows:
    def test_exact_fit_single_window(self):
        clip = audio.AudioClip(np.zeros(32000), 8000)
        wins = audio.slide_windows(clip)
        assert [w[0] for w in wins] == [0.0]

    def test_five_second_clip_offsets(self):
        clip = audio.AudioClip(np.zeros(40000), 8000)
        wins = audio.slide_windows(clip)
        assert [w[0] for w in wins] == [0.0, 0.5, 1.0]

    def test_short_clip_zero_padded(self):
        clip = audio.AudioClip(np.ones(16000), 8000)
        wins = audio.slide_windows(clip)
        assert len(wins) == 1
        offset, w = wins[0]
        assert offset == 0.0
        assert len(w) == 32000
        assert (w.samples[16000:] == 0.0).all()

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=120_000))
    def test_offsets_increase_by_stride(self, n):
        clip = audio.AudioClip(np.zeros(n), 8000)
        wins = audio.slide_windows(clip)
        offsets = [o for o, _ in wins]
        assert all(len(w) == 32000 for _, w in wins)
        gaps = np.diff(offsets)
        assert np.allclose(gaps, 0.5)
        assert offsets == sorted(offsets)
