"""Wrapper feature selection: continuous positions in [-1, 1]^F are
thresholded into feature masks and scored by a 1-nearest-neighbor objective
under stratified k-fold evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .datasets import Dataset, stratified_folds
from .errors import ConfigError, ContractError, check_field_types
from .swarm import EpsoConfig, RunResult, optimize

POSITION_LOW, POSITION_HIGH = -1.0, 1.0


@dataclass(frozen=True)
class WrapperConfig:
    """How candidate masks are scored."""

    threshold: float = 0.5
    k_folds: int = 10

    def __post_init__(self):
        check_field_types(self)
        if not (POSITION_LOW < self.threshold < POSITION_HIGH):
            raise ConfigError("threshold must lie strictly inside [-1, +1]")
        if self.k_folds < 2:
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
    """Label of the nearest training row; k must be 1.

    Distance ties break toward the lower row index. Squared distances do not
    underflow or overflow, for any finite features.
    """
    x = np.asarray(train_features, dtype=float)
    y = np.asarray(train_labels, dtype=int)
    q = np.asarray(query, dtype=float)
    if x.shape[0] == 0:
        raise ContractError("training set is empty")
    if x.shape[1] != q.size:
        raise ContractError("query dimension does not match the training features")
    if k != 1:
        raise ContractError(f"k must be 1 (the nearest neighbor decides), got {k}")
    # each row's differences are scaled by the power of two that brings their
    # largest magnitude into [0.5, 1), then squared and compared as (binary
    # exponent, mantissa): the order of the plain float64 sums of squares
    # wherever those neither underflow nor overflow, and no row's distance
    # depends on the other rows. From 2^1022 up a difference can overflow, so
    # both operands are halved first, which rounds only subnormal values.
    if max(np.abs(x).max(initial=0.0), np.abs(q).max(initial=0.0)) >= 2.0**1022:
        x, q = x / 2, q / 2
    diff = x - q
    largest = np.maximum(diff.max(axis=1, initial=0.0), -diff.min(axis=1, initial=0.0))
    exponent = np.frexp(largest)[1]
    np.ldexp(diff, -exponent[:, None], out=diff)
    mantissa, scaled_exponent = np.frexp(np.sum(np.square(diff, out=diff), axis=1))
    # zero distances first, then by binary exponent, then by mantissa; stable
    keys = (mantissa, 2 * exponent + scaled_exponent, mantissa > 0)
    return int(y[np.lexsort(keys)[0]])


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
    """_knn_accuracy's fold arguments, built once per objective: the stratified
    fold index of every row, the n x n same-fold mask and the fold sizes."""
    fold_id = np.empty(d.n_samples, dtype=np.intp)
    for f, fold in enumerate(stratified_folds(d, cfg.k_folds, seed)):
        fold_id[fold] = f
    return fold_id, fold_id[:, None] == fold_id[None, :], np.bincount(fold_id)


def evaluate_mask(d: Dataset, mask, cfg: WrapperConfig, seed: int = 0) -> float:
    """Mean stratified k-fold 1NN accuracy of the feature subset a (F,) bool mask
    selects, on the folds of seed; empty masks score 0."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (d.n_features,):
        raise ContractError(f"mask must have shape ({d.n_features},), got {mask.shape}")
    return _knn_accuracy(d, mask, _folds(d, cfg, seed))


class WrapperObjective:
    """Minimization objective 1 - accuracy over positions in [-1, 1]^F.

    The folds are frozen when it is built, so it is a pure function of the
    position, and each distinct mask is scored once: a memo maps the exact
    packed mask (np.packbits(mask).tobytes()) to its value and its scoring
    seconds. reused_seconds sums the recorded seconds of every value taken
    from the memo, a run's repeats of its own masks included. A position of
    any shape other than (F,) is a ContractError.
    """

    def __init__(self, d: Dataset, cfg: WrapperConfig, seed: int = 0):
        start = perf_counter()
        self.data, self.cfg, self.seed = d, cfg, seed
        self._fold_args = _folds(d, cfg, seed)
        self._memo: dict[bytes, tuple[float, float]] = {}
        self.reused_seconds = 0.0
        self.build_seconds = perf_counter() - start

    def __call__(self, position) -> float:
        start = perf_counter()
        mask = binarize(position, self.cfg.threshold)
        if mask.shape != (self.data.n_features,):
            raise ContractError(
                f"position must have shape ({self.data.n_features},), got {mask.shape}")
        key = np.packbits(mask).tobytes()
        if key in self._memo:
            value, seconds = self._memo[key]
            self.reused_seconds += seconds
            return value
        value = 1.0 - _knn_accuracy(self.data, mask, self._fold_args)
        self._memo[key] = value, perf_counter() - start
        return value


def wrapper_objective(d: Dataset, cfg: WrapperConfig, seed: int = 0) -> WrapperObjective:
    """The memoized wrapper objective of (d, cfg, seed); see WrapperObjective."""
    return WrapperObjective(d, cfg, seed)


def position_bounds(n_features: int) -> np.ndarray:
    return np.tile([POSITION_LOW, POSITION_HIGH], (n_features, 1))


def select_features(
    d: Dataset,
    epso_config: EpsoConfig,
    wrapper_cfg: WrapperConfig,
    mode: str = "epso",
    *,
    objective: WrapperObjective | None = None,
) -> FeatureSelectionResult:
    """Optimize the wrapper objective and report the best mask found.

    objective, if given, must be built for (d, wrapper_cfg, epso_config.seed);
    runs that share it score each mask once. wall_time charges the run the
    objective's build and the recorded seconds of every memo hit, its own
    repeats too: the time the run would take scoring every evaluation itself.
    """
    if epso_config.dimension != d.n_features:
        raise ConfigError(
            f"config dimension {epso_config.dimension} != dataset features {d.n_features}"
        )
    expected = position_bounds(d.n_features)
    if not np.array_equal(epso_config.bounds, expected):
        raise ConfigError("feature selection requires bounds of [-1, +1] per feature")
    if objective is None:
        objective = wrapper_objective(d, wrapper_cfg, seed=epso_config.seed)
    elif (objective.data is not d or objective.cfg != wrapper_cfg
          or objective.seed != epso_config.seed):
        raise ConfigError("the objective was built for another dataset, config or seed")

    reused = objective.reused_seconds
    start = perf_counter()
    run = optimize(epso_config, objective, mode=mode)
    elapsed = perf_counter() - start
    return FeatureSelectionResult(
        mask=binarize(run.best_position, wrapper_cfg.threshold),
        accuracy=1.0 - run.best_fitness,
        wall_time=objective.build_seconds + elapsed + objective.reused_seconds - reused,
        run=run,
    )
