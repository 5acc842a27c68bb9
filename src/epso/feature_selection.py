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


def _knn_accuracy(x: np.ndarray, y: np.ndarray, fold_id: np.ndarray, same_fold: np.ndarray,
                  fold_sizes: np.ndarray) -> float:
    """Mean per-fold 1NN accuracy of the (selected, n) feature-major block x,
    every fold scored from one n x n distance matrix.

    An evaluation holds x and one n x n Gram x.T @ x, which is reused in
    place for the distances; the squared row norms are the Gram's diagonal,
    so every self-distance is exactly 0. Same-fold pairs (same_fold, the
    diagonal among them) are set to +inf, so each row only finds neighbors in
    the other folds. Among distances that compare equal, the lower row index
    wins, as in knn_classify with k=1. That rule is exact only where the computed
    distances tie exactly: among two or more exact duplicates of a row,
    rounding can make a duplicate other than the lowest-indexed one nearest.
    """
    dist = x.T @ x
    sq = dist.diagonal().copy()
    dist *= 2.0
    np.subtract(np.add.outer(sq, sq), dist, out=dist)
    np.maximum(dist, 0.0, out=dist)
    np.putmask(dist, same_fold, np.inf)
    pred = y[np.argmin(dist, axis=1)]
    hits = np.bincount(fold_id, weights=pred == y)
    return float(np.mean(hits / fold_sizes))


def _folds(d: Dataset, cfg: WrapperConfig, seed: int) -> tuple[np.ndarray, ...]:
    """_knn_accuracy's fold arguments, built once per objective: the fold index
    of every row, the n x n same-fold mask and the fold sizes."""
    fold_id = np.arange(d.n_samples)  # leave-one-out: each row is its own fold
    if cfg.protocol == "kfold":
        for f, fold in enumerate(stratified_folds(d, cfg.k_folds, seed)):
            fold_id[fold] = f
    return fold_id, fold_id[:, None] == fold_id[None, :], np.bincount(fold_id)


def _masked_accuracy(d: Dataset, mask: np.ndarray, folds: tuple[np.ndarray, ...]) -> float:
    if not mask.any():
        return 0.0  # empty masks score worst instead of erroring
    # features.T is a C-contiguous (F, n) view, so the gather copies whole rows
    return _knn_accuracy(np.compress(mask, d.features.T, axis=0), d.labels, *folds)


def evaluate_mask(d: Dataset, mask, cfg: WrapperConfig, seed: int = 0) -> float:
    """Protocol accuracy of the feature subset a (F,) bool mask selects; empty masks score 0."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (d.n_features,):
        raise ContractError(f"mask must have shape ({d.n_features},), got {mask.shape}")
    return _masked_accuracy(d, mask, _folds(d, cfg, seed))


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
        return 1.0 - _masked_accuracy(d, mask, folds)

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
