import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import filterbank_per_filter, log_energies_per_stride, naive_dft
from tajweed import audio, features
from tajweed.errors import FeatureError

CFG = features.FeatureConfig()
BANK = features.build_filterbank()
CENTERS = features.mel_to_hz(np.linspace(features.hz_to_mel(features.F_MIN_HZ),
                                         features.hz_to_mel(features.F_MAX_HZ),
                                         features.NUM_FILTERS + 2))[1:-1]


def spectrum_frames(inputs):
    """The frames of the recorded power_spectrum calls, one a row, after
    checking that each call holds at most PASS_STRIDES strides of rows
    FFT_SIZE wide whose columns past FRAME_LEN are exactly 0."""
    rows = np.vstack(inputs)
    assert rows.shape[1] == features.FFT_SIZE and not rows[:, features.FRAME_LEN:].any()
    assert max(map(len, inputs)) <= features.PASS_STRIDES * features.STRIDE_FRAMES
    return rows[:, :features.FRAME_LEN]


class TestFraming:
    def test_four_seconds_gives_398_frames(self, spectrum_inputs):
        features.extract_features(audio.AudioClip(np.zeros(32000), 8000), CFG)
        assert spectrum_frames(spectrum_inputs).shape == (398, 200)

    def test_tail_discarded(self, spectrum_inputs):
        # the last frame starts at 397 * 80 and ends 40 samples before the window
        samples = np.arange(32000.0) / 32000
        features.extract_features(audio.AudioClip(samples, 8000), CFG)
        frames = spectrum_frames(spectrum_inputs)
        assert frames.shape == (398, 200)
        assert (frames[-1] == samples[31760:31960] * features.HAMMING).all()


class TestHamming:
    def test_endpoints(self):
        w = features.HAMMING
        assert w.shape == (features.FRAME_LEN,)
        assert w[0] == pytest.approx(0.08, abs=1e-15)
        assert w[-1] == pytest.approx(0.08, abs=1e-15)

    def test_symmetry_exact(self):
        assert (features.HAMMING == features.HAMMING[::-1]).all()

    def test_cached_read_only(self):
        assert not features.HAMMING.flags.writeable


class TestPassWindow:
    TILE = features.PASS_WINDOW

    def test_read_only(self):
        assert not self.TILE.flags.writeable

    def test_one_row_a_pass_frame_fft_size_wide(self):
        assert self.TILE.shape == (features.PASS_STRIDES * features.STRIDE_FRAMES,
                                   features.FFT_SIZE)

    def test_every_row_starts_with_hamming_bit_for_bit(self):
        head = np.ascontiguousarray(self.TILE[:, :features.FRAME_LEN])
        assert head.tobytes() == np.tile(features.HAMMING, (len(self.TILE), 1)).tobytes()

    def test_exact_positive_zero_past_the_frame(self):
        # every byte 0, so -0.0 fails too: a tile built on np.ones or np.empty
        # leaves other bytes here
        pad = np.ascontiguousarray(self.TILE[:, features.FRAME_LEN:])
        assert pad.tobytes() == bytes(pad.nbytes)


class TestPowerSpectrum:
    def test_zero_frame(self):
        assert (features.power_spectrum(np.zeros(200)) == 0.0).all()

    def test_cosine_peak_at_bin_8_vs_dft_oracle(self):
        t = np.arange(256)
        frame = np.cos(2 * np.pi * 8 * t / 256)
        p = features.power_spectrum(frame)
        assert np.argmax(p) == 8
        oracle = np.abs(naive_dft(frame)) ** 2 / 256
        assert np.abs(p - oracle[:129]).max() < 1e-9

    def test_parseval_energy_identity(self):
        rng = np.random.default_rng(0)
        frame = rng.uniform(-1, 1, 256)
        p = features.power_spectrum(frame)
        weights = np.full(129, 2.0)
        weights[0] = weights[-1] = 1.0
        assert abs((weights * p).sum() - (frame ** 2).sum()) < 1e-9

    def test_fft_matches_naive_dft_on_random_frames(self):
        rng = np.random.default_rng(42)
        frames = rng.uniform(-1, 1, (100, 256))
        ours = features.power_spectrum(frames)
        oracle = np.abs(np.stack([naive_dft(f) for f in frames])[:, :129]) ** 2 / 256
        assert np.abs(ours - oracle).max() < 1e-9

    def test_padded_frame_matches_naive_dft(self):
        # a 25 ms frame is 200 samples; the spectrum zero-pads it to 256
        frame = np.random.default_rng(7).uniform(-1, 1, 200) * features.HAMMING
        oracle = np.abs(naive_dft(np.concatenate([frame, np.zeros(56)]))[:129]) ** 2 / 256
        assert np.abs(features.power_spectrum(frame) - oracle).max() < 1e-9

    def test_rejects_overlong_frame(self):
        with pytest.raises(ValueError):
            features.power_spectrum(np.zeros(300))


class TestFilterBank:
    def test_shape(self):
        assert BANK.shape == (70, 129)
        assert CENTERS.shape == (70,)

    def test_cached_read_only(self):
        # one bank is shared by every clip, so a write would corrupt later features
        assert features.build_filterbank() is BANK
        with pytest.raises(ValueError):
            BANK[0, 0] = 0.0

    def test_mel_formula_anchor(self):
        assert features.hz_to_mel(700.0) == pytest.approx(2595 * math.log10(2), abs=1e-9)
        assert features.hz_to_mel(700.0) == pytest.approx(781.17, abs=0.01)

    def test_boundaries_equally_spaced_in_mel(self):
        mels = features.hz_to_mel(CENTERS)
        gaps = np.diff(mels)
        assert np.allclose(gaps, gaps[0])
        # each row peaks at a bin next to its centre
        bin_hz = features.SAMPLE_RATE_HZ / features.FFT_SIZE
        assert (np.abs(np.argmax(BANK, axis=1) * bin_hz - CENTERS) < bin_hz).all()

    def test_rows_nonnegative_unimodal_peak_one(self):
        for row in BANK:
            assert (row >= 0).all()
            assert row.max() == 1.0
            peak = np.argmax(row)
            assert (np.diff(row[: peak + 1]) >= 0).all()
            assert (np.diff(row[peak:]) <= 0).all()

    def test_centers_increasing_within_range(self):
        assert (np.diff(CENTERS) > 0).all()
        assert CENTERS[0] > features.F_MIN_HZ
        assert CENTERS[-1] < features.F_MAX_HZ

    def test_full_coverage_between_edges(self):
        total = BANK.sum(axis=0)
        assert (total[1:128] > 0).all()

    def test_transpose_is_c_contiguous(self):
        # frame_log_energies multiplies by BANK.T, which OpenBLAS runs fastest
        # C-contiguous; a row-major bank gives the same bytes more slowly
        assert BANK.T.flags.c_contiguous

    def test_bytes_match_the_per_filter_loop(self):
        expected = filterbank_per_filter(features.NUM_FILTERS, features.FFT_SIZE,
                                         features.SAMPLE_RATE_HZ, features.F_MIN_HZ,
                                         features.F_MAX_HZ)
        assert BANK.tobytes() == expected.tobytes()


class TestExtractFeatures:
    def test_silence_hits_log_floor(self):
        clip = audio.AudioClip(np.zeros(32000), 8000)
        v, = features.extract_features(clip, CFG)
        assert np.allclose(v[:70], np.log(features.LOG_FLOOR))
        assert (v[70:] == 0.0).all()

    def test_pooled_length_140(self):
        clip = audio.AudioClip(np.full(32000, 0.1), 8000)
        assert features.extract_features(clip, CFG).shape == (1, 140)

    def test_flatten_length(self):
        cfg = features.FeatureConfig(aggregation="flatten")
        clip = audio.AudioClip(np.full(32000, 0.1), 8000)
        assert features.extract_features(clip, cfg).shape == (1, 398 * 70)

    def test_tone_and_noise_distinguishable(self):
        t = np.arange(32000) / 8000.0
        tone = audio.AudioClip(0.5 * np.sin(2 * np.pi * 1000 * t), 8000)
        noise = audio.AudioClip(
            np.clip(0.3 * np.random.default_rng(3).standard_normal(32000), -1, 1), 8000
        )
        a, = features.extract_features(tone, CFG)
        b, = features.extract_features(noise, CFG)
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cos < 0.99

    def test_wrong_rate_rejected(self):
        clip = audio.AudioClip(np.zeros(64000), 16000)
        with pytest.raises(FeatureError, match="clip at 16000 Hz, features need 8000 Hz"):
            features.extract_features(clip, CFG)

    def test_frames_that_would_overrun_the_clip_are_refused(self, monkeypatch):
        # the frames are an as_strided view, which reads past the clip unchecked:
        # a window one frame longer than its samples must raise, not read
        monkeypatch.setattr(features, "WINDOW_FRAMES", features.WINDOW_FRAMES + 1)
        clip = audio.AudioClip(np.zeros(32000), 8000)
        with pytest.raises(FeatureError, match="399 frames overrun a clip of 32000 samples"):
            features.extract_features(clip, CFG)

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(9)
        clip = audio.AudioClip(rng.uniform(-1, 1, 32000), 8000)
        a = features.extract_features(clip, CFG)
        b = features.extract_features(clip, CFG)
        assert a.tobytes() == b.tobytes()

    def test_fingerprint_tracks_config(self):
        fp = CFG.fingerprint()
        assert fp == features.FeatureConfig().fingerprint()
        assert fp != features.FeatureConfig(aggregation="flatten").fingerprint()

    def test_translation_changes_flatten_not_means(self):
        # a 1 s tone burst delayed by 1 s: flatten vectors differ, the
        # per-filter means stay put (the frame multiset barely changes)
        t = np.arange(8000) / 8000.0
        burst = 0.5 * np.sin(2 * np.pi * 800 * t)

        def clip_at(start_s):
            x = np.zeros(32000)
            n0 = int(start_s * 8000)
            x[n0:n0 + 8000] = burst
            return audio.AudioClip(x, 8000)

        flat_cfg = features.FeatureConfig(aggregation="flatten")
        fa = features.extract_features(clip_at(0.5), flat_cfg)
        fb = features.extract_features(clip_at(1.5), flat_cfg)
        assert not np.array_equal(fa, fb)

        ma = features.extract_features(clip_at(0.5), CFG)[0, :70]
        mb = features.extract_features(clip_at(1.5), CFG)[0, :70]
        assert (np.abs(ma - mb) <= 0.05 * np.abs(ma)).all()


def one_shot_log_energies(frames):
    """The whole chain over all the frames at once, as before blocking."""
    energies = features.power_spectrum(frames * features.HAMMING) @ BANK.T
    return np.log(np.maximum(energies, features.LOG_FLOOR, out=energies), out=energies)


def frame_rows(log_energies):
    """A clip's log energies one frame a row, the last stride's padding rows
    included."""
    return log_energies.reshape(-1, features.NUM_FILTERS)


class RecordingBank:
    """Stands in for the filter bank's transpose: records the left operand of
    each np.matmul and computes it with the real bank."""

    def __init__(self, weights):
        self.weights, self.lefts = weights, []

    def __array_ufunc__(self, ufunc, method, left, right, **kwargs):
        assert (ufunc, method, right) == (np.matmul, "__call__", self)
        self.lefts.append(left.copy())
        return ufunc(left, self.weights, **kwargs)


class TestFrameLogEnergies:
    @pytest.mark.parametrize("n_frames", [1, 49, 50, 51, 99, 100, 101, 398, 1498])
    @pytest.mark.parametrize("silent", [False, True])
    def test_stride_blocks_match_one_shot_bytes(self, n_frames, silent):
        frames = np.random.default_rng(n_frames).uniform(-1, 1, (n_frames, features.FRAME_LEN))
        if silent:
            frames[:] = 0.0
        strides = features.frame_log_energies(frames)
        assert strides.shape == (-(-n_frames // features.STRIDE_FRAMES), features.STRIDE_FRAMES,
                                 features.NUM_FILTERS)
        rows = frame_rows(strides)
        # one gemm over all the frames; one frame alone would be a gemv, so its
        # reference is its stride, zero frames after it
        padded = np.zeros((features.STRIDE_FRAMES, features.FRAME_LEN))
        padded[:n_frames] = frames[:features.STRIDE_FRAMES]
        one_shot = one_shot_log_energies(frames if n_frames > 1 else padded)[:n_frames]
        assert rows[:n_frames].tobytes() == one_shot.tobytes()
        assert (rows[n_frames:] == np.log(features.LOG_FLOOR)).all()
        assert silent == (rows[:n_frames] == np.log(features.LOG_FLOOR)).all()

    @pytest.mark.parametrize("n_frames", [1, 2, 17, 18, 49, 50, 51, 398, 1498])
    @pytest.mark.parametrize("start", [0, 50, 350])
    def test_a_frame_does_not_depend_on_the_clip_around_it(self, n_frames, start):
        # the frames at the same stride offset in a longer clip
        clip = np.random.default_rng(start + n_frames).uniform(
            -1, 1, (start + n_frames + 123, features.FRAME_LEN))
        alone = frame_rows(features.frame_log_energies(clip[start:start + n_frames]))[:n_frames]
        within = frame_rows(features.frame_log_energies(clip))[start:start + n_frames]
        assert alone.tobytes() == within.tobytes()

    @pytest.mark.parametrize("seconds", [1 / 8000, 3.99, 4.0, 12.5, 60.0])
    def test_one_product_shape_per_stride_from_frame_0(self, seconds, spectrum_inputs,
                                                        monkeypatch):
        bank = RecordingBank(BANK.T)
        monkeypatch.setattr(features, "build_filterbank", lambda: types.SimpleNamespace(T=bank))
        clip = audio.AudioClip(np.random.default_rng(5).uniform(-0.5, 0.5, round(seconds * RATE)),
                               RATE)
        windows = len(features.extract_features(clip, CFG))
        inputs = list(spectrum_inputs)  # before the checks below add their own calls
        n_frames = (windows - 1) * features.STRIDE_FRAMES + features.WINDOW_FRAMES
        spectrum_frames(inputs)  # at most PASS_STRIDES strides a call, FFT_SIZE wide
        passes = -(-n_frames // (features.PASS_STRIDES * features.STRIDE_FRAMES))
        assert len(bank.lefts) == len(inputs) == passes
        assert sum(map(len, inputs)) == n_frames  # the clip's frames, no padding
        # one stack item a stride, strides in order from frame 0
        assert sum(map(len, bank.lefts)) == -(-n_frames // features.STRIDE_FRAMES)
        for frames, left in zip(inputs, bank.lefts):
            assert left.shape == (-(-len(frames) // features.STRIDE_FRAMES),
                                  features.STRIDE_FRAMES, features.FFT_SIZE // 2 + 1)
            rows = left.reshape(-1, left.shape[-1])
            assert rows[:len(frames)].tobytes() == features.power_spectrum(frames).tobytes()
            assert not rows[len(frames):].any()

    @pytest.mark.parametrize("n_frames", [1, 49, 50, 51, 99, 100, 101, 149, 150, 151, 199, 200,
                                          201, 398, 1248, 1498])
    @pytest.mark.parametrize("silent", [False, True])
    def test_bytes_match_the_per_stride_loop(self, n_frames, silent):
        frames = np.random.default_rng(n_frames).uniform(-1, 1, (n_frames, features.FRAME_LEN))
        if silent:
            frames[:] = 0.0
        assert (features.frame_log_energies(frames).tobytes()
                == log_energies_per_stride(frames).tobytes())

    @pytest.mark.parametrize("n_frames", [18, 49, 50, 398, 1498])
    def test_bytes_match_a_row_major_bank(self, n_frames, monkeypatch):
        # every product is one stride of 50 rows, which OpenBLAS rounds alike
        # for either layout of the bank
        frames = np.random.default_rng(n_frames).uniform(-1, 1, (n_frames, features.FRAME_LEN))
        column_major = features.frame_log_energies(frames)
        row_major = np.ascontiguousarray(BANK)
        monkeypatch.setattr(features, "build_filterbank", lambda: row_major)
        assert column_major.tobytes() == features.frame_log_energies(frames).tobytes()

    def test_one_minute_clip_peaks_under_10_mb(self):
        # a clip's frames go through in stride blocks, so the temporaries stay
        # a few hundred KB; transforming all ~6,000 frames at once peaks near 28 MB
        clip = audio.AudioClip(np.random.default_rng(4).uniform(-0.5, 0.5, 60 * 8000), 8000)
        tracemalloc.start()
        try:
            features.extract_features(clip, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 7


WINDOW_CONFIGS = [features.FeatureConfig(agg) for agg in features.AGGREGATIONS]
MEAN_STD_CONFIGS = [c for c in WINDOW_CONFIGS if c.aggregation == "mean_std_pool"]
RATE = features.SAMPLE_RATE_HZ


@st.composite
def clip_lengths(draw):
    """Shorter than a window, exactly one, or a stride multiple past one
    window give or take a few samples."""
    window_n, stride_n = int(audio.WINDOW_S * RATE), int(round(audio.STRIDE_S * RATE))
    return draw(st.one_of(
        st.integers(1, window_n - 1),
        st.just(window_n),
        st.builds(lambda k, d: window_n + k * stride_n + d,
                  st.integers(1, 6), st.integers(-3, 3)),
    ))


class TestWindowFeatures:
    @given(data=st.data(), cfg=st.sampled_from(WINDOW_CONFIGS))
    @settings(max_examples=40, deadline=None)
    def test_equal_to_extract_features_per_window(self, data, cfg):
        n = data.draw(clip_lengths())
        seed = data.draw(st.integers(0, 2**32 - 1))
        clip = audio.AudioClip(np.random.default_rng(seed).uniform(-0.5, 0.5, n), RATE)
        expected = [features.extract_features(w, cfg) for _, w in audio.slide_windows(clip)]
        shared = features.extract_features(clip, cfg)
        assert all(e.shape == (1, shared.shape[1]) for e in expected)
        assert shared.tobytes() == np.vstack(expected).tobytes()

    @pytest.mark.parametrize("cfg", WINDOW_CONFIGS)
    @pytest.mark.parametrize("seconds", [0.3, 2.0, 3.99])
    def test_short_clip_is_its_zero_padded_window(self, cfg, seconds):
        samples = np.random.default_rng(RATE).uniform(-0.5, 0.5, int(seconds * RATE))
        padded = np.zeros(int(audio.WINDOW_S * RATE))
        padded[:len(samples)] = samples
        short = features.extract_features(audio.AudioClip(samples, RATE), cfg)
        whole = features.extract_features(audio.AudioClip(padded, RATE), cfg)
        assert short.shape == whole.shape == (1, whole.shape[1])
        assert short.tobytes() == whole.tobytes()


def direct_pool(log_energies):
    """np.mean and np.std per filter; a constant column's std is 0."""
    std = log_energies.std(axis=0)
    std[np.ptp(log_energies, axis=0) == 0.0] = 0.0
    return np.concatenate([log_energies.mean(axis=0), std])


def log_energies(samples):
    """Frame samples on their own, the incomplete tail dropped, and take each
    frame's log energies."""
    frames = np.lib.stride_tricks.sliding_window_view(samples, features.FRAME_LEN)
    frames = frames[::features.HOP_LEN]
    return frame_rows(features.frame_log_energies(frames))[:len(frames)]


def window_log_energies(clip):
    """Each window's log energies, framed on their own (the unshared path)."""
    return [log_energies(w.samples) for _, w in audio.slide_windows(clip)]


class TestPool:
    @given(data=st.data(), cfg=st.sampled_from(MEAN_STD_CONFIGS))
    @settings(max_examples=30, deadline=None)
    def test_block_merge_equals_direct_pool_per_window(self, data, cfg):
        n = data.draw(clip_lengths())
        seed = data.draw(st.integers(0, 2**32 - 1))
        clip = audio.AudioClip(np.random.default_rng(seed).uniform(-0.5, 0.5, n), RATE)
        merged = features.extract_features(clip, cfg)
        expected = [direct_pool(L) for L in window_log_energies(clip)]
        assert len(merged) == len(expected)
        assert max(np.abs(a - b).max() for a, b in zip(merged, expected)) <= 1e-12

    @pytest.mark.parametrize("cfg", MEAN_STD_CONFIGS)
    def test_silence_has_exactly_zero_spread(self, cfg):
        clip = audio.AudioClip(np.zeros(int(6.3 * RATE)), RATE)
        merged = features.extract_features(clip, cfg)
        assert len(merged) == len(audio.slide_windows(clip))
        for v, L in zip(merged, window_log_energies(clip)):
            assert (v[features.NUM_FILTERS:] == 0.0).all()
            assert np.abs(v - direct_pool(L)).max() <= 1e-12


class TestScaler:
    def test_two_point_case(self):
        sc = features.fit_scaler(np.array([[0.0], [2.0]]))
        assert sc.mean[0] == 1.0 and sc.std[0] == 1.0
        assert sc.apply(np.array([0.0]))[0] == -1.0
        assert sc.apply(np.array([2.0]))[0] == 1.0

    def test_constant_dimension_floored(self):
        sc = features.fit_scaler(np.array([[5.0, 1.0], [5.0, 3.0]]))
        z = sc.apply(np.array([5.0, 2.0]))
        assert z[0] == 0.0

    def test_standardizes_its_own_training_set(self):
        M = np.random.default_rng(5).standard_normal((50, 140))
        sc = features.fit_scaler(M)
        Z = sc.apply(M)
        assert np.abs(Z.mean(axis=0)).max() < 1e-9
        live = sc.std > 1e-8
        assert np.abs(Z.std(axis=0)[live] - 1.0).max() < 1e-6

    def test_too_few_vectors(self):
        with pytest.raises(FeatureError, match="need at least 2 vectors to fit a scaler"):
            features.fit_scaler(np.array([[1.0, 2.0]]))

    def test_accepts_feature_vectors(self):
        clip = audio.AudioClip(np.full(32000, 0.1), 8000)
        vecs = [features.extract_features(clip, CFG) for _ in range(2)]
        sc = features.fit_scaler(vecs)
        assert sc.mean.shape == (140,)


class TestFeatureConfig:
    def test_defaults_match_contract(self):
        # every saved model carries this header and these fingerprints: editing
        # an analysis constant must fail here, not orphan the models
        assert (features.FRAME_LEN, features.HOP_LEN) == (200, 80)
        assert (features.STRIDE_FRAMES, features.WINDOW_FRAMES) == (50, 398)
        assert features.STRIDE_FRAMES * features.HOP_LEN == audio.STRIDE_S * RATE
        assert CFG.header() == {"frame_ms": 25, "hop_ms": 10, "num_filters": 70,
                                "fft_size": 256, "sample_rate_hz": 8000, "f_min_hz": 0.0,
                                "f_max_hz": 4000.0, "aggregation": "mean_std_pool"}
        assert [type(v) for v in CFG.header().values()] == [int] * 5 + [float] * 2 + [str]
        assert features.LOG_FLOOR == 1e-10
        assert CFG.fingerprint() == (
            "529e3a72d3e5e87e79f2ec50007163ddb6fd0f6ce0748680eb7536afefba4c50")
        assert features.FeatureConfig("flatten").fingerprint() == (
            "ccca054edc10f02f8e861abbdaaaeacf14e563d5754d55c6908882bfa21b635d")
        assert (CFG.dim, features.FeatureConfig("flatten").dim) == (140, 398 * 70)

    def test_rejects_unknown_aggregation(self):
        with pytest.raises(ValueError):
            features.FeatureConfig("median")

    @pytest.mark.parametrize("change", [
        {"hop_ms": 0},
        {"hop_ms": 0.05},
        {"frame_ms": 0},
        {"frame_ms": 0.1},
        {"log_floor": 0.0},
        {"log_floor": -1e-10},
        {"log_floor": math.nan},
        {"log_floor": math.inf},
    ])
    def test_rejects_unusable_frame_hop_or_log_floor(self, change):
        # the analysis is constants: no frame, hop or log floor can be set at all
        with pytest.raises(TypeError):
            features.FeatureConfig(**change)
