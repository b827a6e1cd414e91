"""Binary soft-margin SVM with an RBF kernel.

The dual problem

    max  sum(a) - 1/2 * sum_ij a_i a_j y_i y_j K(x_i, x_j)
    s.t. 0 <= a_i <= C,  sum_i a_i y_i = 0

is solved by SMO-style two-coordinate ascent with first-order (maximal
violating pair) working-set selection. Ties in the selection are broken
by lowest index, which makes training fully deterministic.

Also provides Platt-style sigmoid calibration of decision values and a
stratified-CV grid search over (C, gamma). `train(X, y, C, gamma)` and
`grid_search(X, y)` take standardized rows X (l x d) with labels y in
{-1, +1}, and `decision_values(model, X)` standardized rows; standardizing
is the caller's job.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, SvmError

# grid_search's default (C, gamma) grid and fold count
C_GRID = (0.1, 1.0, 10.0, 100.0)
GAMMA_GRID = (0.001, 0.01, 0.1, 1.0)
K_FOLDS = 5


@dataclass(frozen=True)
class SvmModel:
    """Kernel expansion over support vectors (standardized rows)."""

    support_vectors: np.ndarray
    dual_coefs: np.ndarray          # alpha_i * y_i, one per support vector
    bias: float
    C: float
    gamma: float


def rbf_gram(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    """Kernel matrix K[i, j] = exp(-gamma * ||A[i] - B[j]||^2), in (0, 1]."""
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    B = np.atleast_2d(np.asarray(B, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise SvmError(f"dimensions differ: {A.shape[1]} vs {B.shape[1]}")
    sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


def _samples(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X and y as float arrays, once X is (l, d) with l >= 2 and y one label
    in {-1, +1} per row; ValueError otherwise."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be (l, d) with one label per row")
    if X.shape[0] < 2:
        raise ValueError("need at least two samples")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    return X, y


def train(X, y, C: float, gamma: float, tol: float = 1e-3,
          max_passes: int = 10_000) -> SvmModel:
    """Solve the dual over rows X and labels y to KKT tolerance `tol`.

    max_passes bounds the number of working-pair updates; exhausting it
    raises NoConvergence carrying the best iterate as .model. Samples with
    a_i > 0 become the support vectors.
    """
    X, y = _samples(X, y)
    if not 0.0 < C < np.inf:
        raise ValueError("C must be positive and finite")
    if not 0.0 < gamma < np.inf:
        raise ValueError("gamma must be positive and finite")
    if max_passes < 0:
        raise ValueError("max_passes must be at least 0")
    if np.all(y == y[0]):
        raise SvmError("training labels contain a single class")

    K = rbf_gram(X, X, gamma)
    alpha = np.zeros(len(y))
    grad = -np.ones(len(y))         # gradient of 1/2 a'Qa - sum(a), Q = yy' * K

    for passes in range(max_passes + 1):
        vals, up, low = _violators(alpha, grad, y, C)
        up_vals = np.where(up, vals, -np.inf)
        low_vals = np.where(low, vals, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        gap = up_vals[i] - low_vals[j]
        if gap <= tol or passes == max_passes:
            break
        # move along alpha_i += y_i*t, alpha_j -= y_j*t (keeps sum(a*y) fixed)
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        t_max_i = C - alpha[i] if y[i] > 0 else alpha[i]
        t_max_j = alpha[j] if y[j] > 0 else C - alpha[j]
        t = min(t_max_i, t_max_j)
        if eta > 1e-12:
            t = min(t, gap / eta)
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        # snap to the box so bound membership tests stay exact
        alpha[i] = min(max(alpha[i], 0.0), C)
        alpha[j] = min(max(alpha[j], 0.0), C)
        grad += t * y * (K[:, i] - K[:, j])

    sv = alpha > 0
    model = SvmModel(
        support_vectors=X[sv].copy(),
        dual_coefs=(alpha[sv] * y[sv]).copy(),
        bias=_solve_bias(alpha, grad, y, C),
        C=float(C),
        gamma=float(gamma),
    )
    if gap > tol:
        raise NoConvergence(
            f"KKT gap still above tol={tol} after {max_passes} pair updates", model=model
        )
    return model


def _violators(alpha, grad, y, C):
    """(-y * grad, up, low): up marks the samples whose y_i * a_i can grow
    inside the box [0, C], low those whose y_i * a_i can shrink."""
    up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
    low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
    return -y * grad, up, low


def _solve_bias(alpha, grad, y, C) -> float:
    vals, up, low = _violators(alpha, grad, y, C)
    free = (alpha > 0) & (alpha < C)
    if np.any(free):
        return float(vals[free].mean())
    # up and low each hold a sample: both classes are present and sum(a * y) = 0
    return float((vals[up].max() + vals[low].min()) / 2.0)


def decision_values(model: SvmModel, X) -> np.ndarray:
    """f(x) for each standardized row of X; sign is the class.

    Each row's value is bit-identical whether it is scored alone or in any
    batch: its cross terms with the support vectors are one gemv of a stacked
    matmul and its sum over them one ddot of np.vecdot, the calls rbf_gram and
    a dot make for that row alone. One gemm over all rows would round otherwise.
    """
    X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
    sv = model.support_vectors
    if X.shape[1] != sv.shape[1]:
        raise SvmError(f"input dim {X.shape[1]} != model dim {sv.shape[1]}")
    cross = np.matmul(sv, X[:, :, None])[..., 0]  # (rows, support vectors)
    sq = (sv * sv).sum(axis=1) + (X * X).sum(axis=1)[:, None] - 2.0 * cross
    return np.vecdot(np.exp(-model.gamma * np.maximum(sq, 0.0)), model.dual_coefs) + model.bias


def _prob_pos(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(z)), overflow-safe on both tails."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    hi = z >= 0
    e = np.exp(-z[hi])
    out[hi] = e / (1.0 + e)
    e = np.exp(z[~hi])
    out[~hi] = 1.0 / (1.0 + e)
    return out


def platt_fit(scores, labels) -> tuple[float, float]:
    """Fit p(+1|f) = 1 / (1 + exp(A*f + B)) by Newton descent on the
    smoothed-target negative log-likelihood (targets (N+ + 1)/(N+ + 2) and
    1/(N- + 2) regularize against overconfident sigmoids).
    """
    f = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    pos = y > 0
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise SvmError("calibration labels contain a single class")

    hi_t = (n_pos + 1.0) / (n_pos + 2.0)
    lo_t = 1.0 / (n_neg + 2.0)
    t = np.where(pos, hi_t, lo_t)

    def objective(a, b):
        z = a * f + b
        # sum of t*z + log(1 + e^-z), evaluated stably on both tails
        softplus_neg = np.log1p(np.exp(-np.abs(z))) + np.maximum(-z, 0.0)
        return float(np.sum(t * z + softplus_neg))

    A, B = 0.0, np.log((n_neg + 1.0) / (n_pos + 1.0))
    best = objective(A, B)
    sigma = 1e-12
    for _ in range(100):
        z = A * f + B
        p = _prob_pos(z)
        d1 = t - p                      # dNLL/dz per sample
        d2 = np.maximum(p * (1.0 - p), 1e-300)
        g = np.array([np.dot(d1, f), d1.sum()])
        if np.abs(g).max() < 1e-10:
            break
        h11 = np.dot(d2, f * f) + sigma
        h12 = np.dot(d2, f)
        h22 = d2.sum() + sigma
        det = h11 * h22 - h12 * h12
        dA = -(h22 * g[0] - h12 * g[1]) / det
        dB = -(h11 * g[1] - h12 * g[0]) / det
        step = 1.0
        g_dot_d = g[0] * dA + g[1] * dB
        while step >= 1e-10:
            cand = objective(A + step * dA, B + step * dB)
            if cand <= best + 1e-4 * step * g_dot_d:
                A, B = A + step * dA, B + step * dB
                best = cand
                break
            step /= 2.0
        else:
            break
    return float(A), float(B)


def calibrated_probability(f, calibration: tuple[float, float]):
    """Map decision values to p(+1|x) with fitted (A, B)."""
    A, B = calibration
    return _prob_pos(A * np.asarray(f, dtype=np.float64) + B)


def stratified_folds(y, k: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified k-fold assignment: each class is shuffled with the
    seed and dealt round-robin (its i-th sample to fold i % k), so every fold sees
    both classes; a fold's indices are sorted."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    fold = np.empty(len(y), dtype=np.int64)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        fold[idx] = np.arange(len(idx)) % k
    return [np.flatnonzero(fold == f) for f in range(k)]


@dataclass(frozen=True)
class GridCell:
    C: float
    gamma: float
    accuracy: float


def grid_search(X, y, C_grid=C_GRID, gamma_grid=GAMMA_GRID, k_folds: int = K_FOLDS,
                seed: int = 0) -> tuple[GridCell, tuple[GridCell, ...]]:
    """Mean stratified-CV accuracy over rows X and labels y for every
    (C, gamma): returns (best, table), the table in ascending C then gamma
    and best its first cell of highest accuracy, so ties go to the smaller
    C, then the smaller gamma.
    """
    X, y = _samples(X, y)
    if k_folds < 2:
        raise ValueError("k_folds must be at least 2")
    for cls in (-1.0, 1.0):
        if int((y == cls).sum()) < k_folds:
            raise SvmError(f"class {cls:+.0f} has fewer samples than folds")

    folds = stratified_folds(y, k_folds, seed)
    cells = []
    for C in sorted(C_grid):
        for gamma in sorted(gamma_grid):
            accs = []
            for fold in folds:
                mask = np.ones(len(y), dtype=bool)
                mask[fold] = False
                try:
                    model = train(X[mask], y[mask], C, gamma)
                except NoConvergence as err:
                    model = err.model
                pred = np.sign(decision_values(model, X[fold]))
                accs.append(float(np.mean(pred == y[fold])))
            mean_acc = float(np.mean(accs))
            cells.append(GridCell(C=float(C), gamma=float(gamma), accuracy=mean_acc))
    return max(cells, key=lambda c: c.accuracy), tuple(cells)  # max keeps the first of ties
