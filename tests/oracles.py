"""Independent reference implementations used to verify the package.

Nothing here imports solver or DSP code from the package itself: the DFT is
the O(n^2) definition, the QP solver is plain projected gradient, the
sigmoid fit is a grid refinement, the resampler interpolates on two
explicit time grids, and the reference detector frames, transforms, pools
and scores every window on its own copy. These stay deliberately
brute-force. What is taken from the package is the analysis constants and
the filter-bank weights, which have their own tests. The filter bank, the CV
folds and the train/test split are also kept here as the loops they once were,
one filter, sample or position at a time, as byte references for the package's
whole-array forms; so is the front end's stride loop, one stride a product,
which takes the package's power spectrum and bank as the reference for how
frame_log_energies batches them.
"""

import hashlib
import json

import numpy as np

from tajweed.features import (FFT_SIZE, FRAME_MS, HAMMING, HOP_MS, LOG_FLOOR, NUM_FILTERS,
                              SAMPLE_RATE_HZ, STRIDE_FRAMES, build_filterbank, power_spectrum)


def naive_dft(x):
    """Direct evaluation of X[k] = sum_n x[n] e^{-2 pi i k n / N}."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    k = np.arange(n)
    W = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return x @ W.T


def rbf_matrix(A, B, gamma):
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(-1)
    return np.exp(-gamma * d2)


def hamming(n):
    """w[k] = 0.54 - 0.46 cos(2 pi k / (n - 1)), straight from the formula."""
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))


def reference_window_scores(rule, clip):
    """((offset_s, p_right), ...) for each 4 s window every 0.5 s of the clip,
    zero-padded to one window when shorter.

    Each window is copied out and cut into frames by explicit index
    arithmetic; the power spectrum of all frames is one DFT matrix product
    (naive_dft's matrix, restricted to the frame's samples and the one-sided
    bins); mean and std come from np.mean/np.std; scoring is written out with
    rbf_matrix and the sigmoid 1 / (1 + exp(A f + B)).
    """
    cfg, model = rule.feature_config, rule.svm
    rate = clip.sample_rate_hz
    assert rate == SAMPLE_RATE_HZ
    window_n, stride_n = int(round(4.0 * rate)), int(round(0.5 * rate))
    frame_len = int(round(FRAME_MS * rate / 1000))
    hop = int(round(HOP_MS * rate / 1000))
    n_frames = (window_n - frame_len) // hop + 1
    x = np.concatenate([clip.samples * clip.scale, np.zeros(max(window_n - len(clip), 0))])
    offsets = range(0, len(x) - window_n + 1, stride_n)
    frames = []
    for start in offsets:
        window = x[start:start + window_n].copy()
        frames.extend(window[i * hop:i * hop + frame_len] for i in range(n_frames))
    frames = np.array(frames) * hamming(frame_len)
    # samples past frame_len are the zero padding up to fft_size: they add nothing
    n, k = np.arange(frame_len), np.arange(FFT_SIZE // 2 + 1)
    dft = np.exp(-2j * np.pi * np.outer(n, k) / FFT_SIZE)
    power = np.abs(frames @ dft) ** 2 / FFT_SIZE
    log_e = np.log(np.maximum(power @ build_filterbank().T, LOG_FLOOR))
    rows = []
    for L in log_e.reshape(len(offsets), n_frames, -1):
        if cfg.aggregation == "flatten":
            rows.append(L.ravel())
        else:
            std = L.std(axis=0)
            std[np.ptp(L, axis=0) == 0.0] = 0.0
            rows.append(np.concatenate([L.mean(axis=0), std]))
    z = (np.array(rows) - rule.scaler.mean) / np.maximum(rule.scaler.std, 1e-8)
    f = rbf_matrix(z, model.support_vectors, model.gamma) @ model.dual_coefs + model.bias
    A, B = rule.calibration
    p = 1.0 / (1.0 + np.exp(A * f + B))
    return tuple((start / rate, float(q)) for start, q in zip(offsets, p))


def config_fingerprint(stored, log_floor=LOG_FLOOR):
    """A model file's config_fingerprint for the feature_config `stored` and
    its log floor: the SHA-256 of their canonical JSON as one object."""
    canon = json.dumps({**stored, "log_floor": log_floor}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


def _project_box_hyperplane(target, y, upper):
    """Project rows of `target` onto {0 <= a <= upper, sum(y*a) = 0} by
    bisecting the hyperplane multiplier (sum(y*clip(target - lam*y)) is
    monotone nonincreasing in lam).
    """
    lo = -(np.abs(target).max(axis=1) + upper.max(axis=1) + 1.0)
    hi = -lo
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        a = np.clip(target - mid[:, None] * y, 0.0, upper)
        h = (y * a).sum(axis=1)
        lo = np.where(h > 0, mid, lo)
        hi = np.where(h > 0, hi, mid)
    mid = 0.5 * (lo + hi)
    return np.clip(target - mid[:, None] * y, 0.0, upper)


def projected_gradient_qp_batch(Ks, ys, Cs, max_iter=1_000_000, tol=1e-15):
    """Brute-force dual solutions for a batch of small SVM problems.

    Minimizes 1/2 a'Qa - sum(a) over the box-plus-hyperplane feasible set
    with fixed-step projected gradient, iterating until the iterate stops
    moving (a fixed point of the projection is KKT-optimal) or max_iter.
    Returns a list of alpha vectors.
    """
    n_prob = len(Ks)
    L = max(K.shape[0] for K in Ks)
    Q = np.zeros((n_prob, L, L))
    y = np.ones((n_prob, L))
    upper = np.zeros((n_prob, L))
    lin = np.zeros((n_prob, L))
    for p, (K, yp, C) in enumerate(zip(Ks, ys, Cs)):
        l = K.shape[0]
        Q[p, :l, :l] = np.outer(yp, yp) * K
        y[p, :l] = yp
        upper[p, :l] = C
        lin[p, :l] = 1.0

    eig_max = np.linalg.eigvalsh(Q)[:, -1]
    step = 1.0 / np.maximum(eig_max, 1e-12)
    alpha = np.zeros((n_prob, L))
    for _ in range(max_iter):
        grad = np.einsum("pij,pj->pi", Q, alpha) - lin
        new = _project_box_hyperplane(alpha - step[:, None] * grad, y, upper)
        delta = np.abs(new - alpha).max()
        alpha = new
        if delta < tol:
            break
    return [alpha[p, : Ks[p].shape[0]].copy() for p in range(n_prob)]


def projected_gradient_qp(K, y, C, max_iter=1_000_000, tol=1e-15):
    return projected_gradient_qp_batch([K], [y], [C], max_iter, tol)[0]


def dual_objective(alpha, K, y):
    """sum(a) - 1/2 sum_ij a_i a_j y_i y_j K_ij (the maximized form)."""
    Q = np.outer(y, y) * K
    return float(alpha.sum() - 0.5 * alpha @ Q @ alpha)


def platt_nll(A, B, scores, labels):
    """Smoothed-target negative log-likelihood of the sigmoid
    p = 1/(1 + exp(A f + B)).
    """
    f = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int((y > 0).sum())
    n_neg = len(y) - n_pos
    t = np.where(y > 0, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    z = A * f + B
    return float(np.sum(t * z + np.logaddexp(0.0, -z)))


def platt_fit_oracle(scores, labels, span=50.0, refinements=30, grid=25):
    """Minimize the sigmoid NLL by repeated grid refinement around the
    incumbent; slow, derivative-free, and independent of any Newton code.
    """
    A0, B0, half = 0.0, 0.0, span
    for _ in range(refinements):
        As = np.linspace(A0 - half, A0 + half, grid)
        Bs = np.linspace(B0 - half, B0 + half, grid)
        vals = np.array([[platt_nll(a, b, scores, labels) for b in Bs] for a in As])
        ia, ib = np.unravel_index(np.argmin(vals), vals.shape)
        A0, B0 = As[ia], Bs[ib]
        half *= 2.5 / (grid - 1)
    return A0, B0


def random_separated_problem(rng, l=None, dim=2, min_dist=0.7):
    """Small random binary problem with min-separated points and both labels."""
    if l is None:
        l = int(rng.integers(4, 9))
    pts = []
    while len(pts) < l:
        cand = rng.uniform(-2.0, 2.0, size=dim)
        if all(np.linalg.norm(cand - p) >= min_dist for p in pts):
            pts.append(cand)
    X = np.array(pts)
    y = np.ones(l)
    n_neg = int(rng.integers(1, l))
    y[rng.permutation(l)[:n_neg]] = -1.0
    return X, y


def correlate_lags(haystack, needle):
    """FFT cross-correlation c[k] = sum_j haystack[k+j] * needle[j] for
    k = 0 .. len(haystack) - len(needle).
    """
    n = len(haystack) + len(needle)
    nfft = 1 << (n - 1).bit_length()
    H = np.fft.rfft(haystack, nfft)
    N = np.fft.rfft(needle, nfft)
    c = np.fft.irfft(H * np.conj(N), nfft)
    return c[: len(haystack) - len(needle) + 1]


def lowpass_taps(cutoff_hz, rate_hz, n_taps=63):
    """Hamming-windowed-sinc FIR low-pass with DC gain 1, built afresh per call."""
    t = np.arange(n_taps) - (n_taps - 1) / 2
    taps = 2.0 * cutoff_hz / rate_hz * np.sinc(2.0 * cutoff_hz / rate_hz * t)
    taps *= 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n_taps) / (n_taps - 1))
    return taps / taps.sum()


def interp_resample(samples, rate_hz, target_hz):
    """Resample by linear interpolation at k / target_hz, clipped to [-1, 1].

    Decimation first keeps the len(samples) centred outputs of the full
    convolution with a 63-tap low-pass at 0.45 x target_hz.
    """
    x = np.asarray(samples, dtype=np.float64)
    if target_hz < rate_hz:
        taps = lowpass_taps(0.45 * target_hz, rate_hz)
        half = len(taps) // 2
        x = np.convolve(x, taps)[half:half + len(x)]
    n_out = max(int(round(len(x) * target_hz / rate_hz)), 1)
    t_out = np.arange(n_out) / target_hz
    t_in = np.arange(len(x)) / rate_hz
    return np.clip(np.interp(t_out, t_in, x), -1.0, 1.0)


def filterbank_per_filter(num_filters, fft_size, rate_hz, f_min_hz, f_max_hz):
    """Triangular filters on num_filters + 2 mel-equidistant boundaries, built
    one row at a time: row i rises over (b_i, b_i+1), falls over (b_i+1, b_i+2)
    at the FFT bin centres, and is divided by its own peak."""
    mel_lo, mel_hi = (2595.0 * np.log10(1.0 + f / 700.0) for f in (f_min_hz, f_max_hz))
    bounds = 700.0 * (10.0 ** (np.linspace(mel_lo, mel_hi, num_filters + 2) / 2595.0) - 1.0)
    bins = np.arange(fft_size // 2 + 1) * rate_hz / fft_size
    weights = np.zeros((num_filters, len(bins)))
    for i in range(num_filters):
        lo, mid, hi = bounds[i:i + 3]
        tri = np.maximum(0.0, np.minimum((bins - lo) / (mid - lo), (hi - bins) / (hi - mid)))
        weights[i] = tri / tri.max()
    return weights


def round_robin_folds(y, k, seed):
    """Stratified k folds dealt one sample at a time: each class, in sorted
    order, is shuffled by one seeded generator and its pos-th sample joins
    fold pos % k; each fold's indices sorted."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for cls in sorted(np.unique(y).tolist()):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        for pos, sample in enumerate(idx):
            folds[pos % k].append(int(sample))
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def split_per_position(entries, train_fraction, seed):
    """Each entry's train/test split, assigned one position at a time: every
    (rule_id, polarity) stratum, in sorted order, is shuffled by one seeded
    generator and its first round(train_fraction * n) positions train."""
    strata = {}
    for i, e in enumerate(entries):
        strata.setdefault((e.rule_id, e.polarity or ""), []).append(i)
    rng = np.random.default_rng(seed)
    splits = [None] * len(entries)
    for key in sorted(strata):
        order = np.array(strata[key])
        rng.shuffle(order)
        n_train = round(train_fraction * len(order))
        for pos, i in enumerate(order):
            splits[int(i)] = "train" if pos < n_train else "test"
    return splits


def log_energies_per_stride(frames):
    """Log filter-bank energies one stride of STRIDE_FRAMES frames at a time:
    Hamming, power spectrum zero-padded inside the FFT, the last stride's power
    padded with zero rows, one (STRIDE_FRAMES, bins) @ (bins, NUM_FILTERS)
    product a stride, then one floor and log."""
    weights = build_filterbank().T
    log_energies = np.empty((-(-len(frames) // STRIDE_FRAMES), STRIDE_FRAMES, NUM_FILTERS))
    for s, out in enumerate(log_energies):
        power = power_spectrum(frames[STRIDE_FRAMES * s:STRIDE_FRAMES * (s + 1)] * HAMMING)
        if len(power) < STRIDE_FRAMES:
            power = np.vstack([power, np.zeros((STRIDE_FRAMES - len(power), FFT_SIZE // 2 + 1))])
        out[...] = power @ weights
    return np.log(np.maximum(log_energies, LOG_FLOOR, out=log_energies), out=log_energies)
