"""Wrapper feature selection: continuous positions in [-1, 1]^F are
thresholded into feature masks and scored by a 1-nearest-neighbor objective
under leave-one-out or stratified k-fold evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, stratified_folds
from .errors import ConfigError, ContractError, check_field_types
from .swarm import EpsoConfig, Objective, RunResult, optimize

POSITION_LOW, POSITION_HIGH = -1.0, 1.0


@dataclass(frozen=True)
class WrapperConfig:
    """How candidate masks are scored."""

    threshold: float = 0.5
    protocol: str = "kfold"  # "kfold" or "loo"
    k_folds: int = 10

    def __post_init__(self):
        check_field_types(self)
        if not (POSITION_LOW < self.threshold < POSITION_HIGH):
            raise ConfigError("threshold must lie strictly inside [-1, +1]")
        if self.protocol not in ("kfold", "loo"):
            raise ConfigError("protocol must be 'kfold' or 'loo'")
        if self.protocol == "kfold" and self.k_folds < 2:
            raise ConfigError("k_folds must be at least 2")


@dataclass
class FeatureSelectionResult:
    mask: np.ndarray  # (F,) bool
    accuracy: float
    wall_time: float
    run: RunResult


def binarize(position, threshold: float) -> np.ndarray:
    """The (F,) bool mask selecting feature f iff position_f > threshold (strictly)."""
    return np.asarray(position, dtype=float) > threshold


def knn_classify(train_features, train_labels, query, k: int = 1) -> int:
    """Label of the majority among the k nearest training rows.

    Distance ties break toward the lower row index; a vote tie goes to the
    class of the nearest tied-class neighbor.
    """
    x = np.asarray(train_features, dtype=float)
    y = np.asarray(train_labels, dtype=int)
    q = np.asarray(query, dtype=float)
    if x.shape[0] == 0:
        raise ContractError("training set is empty")
    if x.shape[1] != q.size:
        raise ContractError("query dimension does not match the training features")
    if k < 1:
        raise ContractError("k must be at least 1")
    dists = np.sum((x - q) ** 2, axis=1)
    order = np.argsort(dists, kind="stable")[: min(k, x.shape[0])]
    if k == 1:
        return int(y[order[0]])
    votes = np.bincount(y[order])
    top = np.flatnonzero(votes == votes.max())
    for idx in order:  # earliest neighbor among the tied classes decides
        if y[idx] in top:
            return int(y[idx])
    return int(y[order[0]])


def _knn_accuracy(d: Dataset, mask: np.ndarray, folds: tuple[np.ndarray, ...]) -> float:
    """Mean per-fold 1NN accuracy of the s features a (F,) bool mask selects
    (0 for an empty mask), every fold scored from one n x n float32 Gram,
    with float64 only where a near tie could change a hit.

    The (s, n) block is gathered from the Dataset's float32 copy of
    features.T, which a power of two scales to |values| <= 1: the nearest
    neighbors are unchanged and nothing overflows. Row i scores sample j by sq_j - 2 g_ij
    (sq_i is constant along the row), and same-fold pairs, the diagonal
    among them, by +inf. Its candidates are the samples scoring within
    8 sqrt(s) u (sq_i + max sq) + s 2^-146 of its best, u = 2^-24 (the
    second term covers float32 underflow). A row is a hit when every
    candidate has its label and a miss when none has; otherwise knn_classify
    settles it from the candidates' float64 values, so distance ties go to
    the lower row index. The tolerance was measured, not proven: a float32
    error beyond it could drop the true nearest sample from the candidates.
    """
    if not mask.any():
        return 0.0  # empty masks score worst instead of erroring
    fold_id, same_fold, fold_sizes = folds
    x = np.compress(mask, d._features32, axis=0)
    s = x.shape[0]
    score = x.T @ x
    sq = score.diagonal().copy()
    score *= -2.0
    score += sq
    np.putmask(score, same_fold, np.inf)
    tol = 8.0 * np.sqrt(s) * 2.0**-24 * (sq + sq.max()) + s * 2.0**-146
    # a float32 bound keeps the compare in float32; rounding is monotone, so
    # it admits exactly the scores the float64 bound admits
    cand = score <= (score.min(axis=1) + tol).astype(np.float32)[:, None]
    y = d.labels
    same_label = y[:, None] == y
    hit = ~(cand > same_label).any(axis=1)
    for i in np.flatnonzero(~hit & (cand & same_label).any(axis=1)):
        j = np.flatnonzero(cand[i])
        x64 = d.features[np.ix_(np.append(j, i), np.flatnonzero(mask))]  # row i last
        hit[i] = knn_classify(x64[:-1], y[j], x64[-1]) == y[i]
    return float(np.mean(np.bincount(fold_id, weights=hit) / fold_sizes))


def _folds(d: Dataset, cfg: WrapperConfig, seed: int) -> tuple[np.ndarray, ...]:
    """_knn_accuracy's fold arguments, built once per objective: the fold index
    of every row, the n x n same-fold mask and the fold sizes."""
    fold_id = np.arange(d.n_samples)  # leave-one-out: each row is its own fold
    if cfg.protocol == "kfold":
        for f, fold in enumerate(stratified_folds(d, cfg.k_folds, seed)):
            fold_id[fold] = f
    return fold_id, fold_id[:, None] == fold_id[None, :], np.bincount(fold_id)


def evaluate_mask(d: Dataset, mask, cfg: WrapperConfig, seed: int = 0) -> float:
    """Protocol accuracy of the feature subset a (F,) bool mask selects; empty masks score 0."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (d.n_features,):
        raise ContractError(f"mask must have shape ({d.n_features},), got {mask.shape}")
    return _knn_accuracy(d, mask, _folds(d, cfg, seed))


def wrapper_objective(d: Dataset, cfg: WrapperConfig, seed: int = 0) -> Objective:
    """Minimization objective 1 - accuracy over positions in [-1, 1]^F.

    Fold assignments are frozen here, once, so the objective is a pure
    function of the position for the whole run. A position of any shape
    other than (F,) is a ContractError.
    """
    folds = _folds(d, cfg, seed)

    def objective(position) -> float:
        mask = binarize(position, cfg.threshold)
        if mask.shape != (d.n_features,):
            raise ContractError(f"position must have shape ({d.n_features},), got {mask.shape}")
        return 1.0 - _knn_accuracy(d, mask, folds)

    return objective


def position_bounds(n_features: int) -> np.ndarray:
    return np.tile([POSITION_LOW, POSITION_HIGH], (n_features, 1))


def select_features(
    d: Dataset,
    epso_config: EpsoConfig,
    wrapper_cfg: WrapperConfig,
    mode: str = "epso",
) -> FeatureSelectionResult:
    """Optimize the wrapper objective and report the best mask found."""
    if epso_config.dimension != d.n_features:
        raise ConfigError(
            f"config dimension {epso_config.dimension} != dataset features {d.n_features}"
        )
    expected = position_bounds(d.n_features)
    if not np.array_equal(epso_config.bounds, expected):
        raise ConfigError("feature selection requires bounds of [-1, +1] per feature")

    start = time.perf_counter()
    objective = wrapper_objective(d, wrapper_cfg, seed=epso_config.seed)
    run = optimize(epso_config, objective, mode=mode)
    return FeatureSelectionResult(
        mask=binarize(run.best_position, wrapper_cfg.threshold),
        accuracy=1.0 - run.best_fitness,
        wall_time=time.perf_counter() - start,
        run=run,
    )
