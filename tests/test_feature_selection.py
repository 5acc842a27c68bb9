import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from epso import (
    ConfigError,
    ContractError,
    EpsoConfig,
    WrapperConfig,
    evaluate_mask,
    position_bounds,
    select_features,
    synth_dataset,
)
from epso import feature_selection
from epso.datasets import Dataset, stratified_folds
from epso.feature_selection import _folds, _knn_accuracy, binarize, knn_classify, wrapper_objective


def small_dataset(seed=0, n=24, f=6, informative=2):
    return synth_dataset(n, f, informative, seed=seed)


# ---------------------------------------------------------------------------
# binarization
# ---------------------------------------------------------------------------

def test_binarize_strict_threshold():
    m = binarize([0.6, 0.5, 0.4, -1.0, 1.0], 0.5)
    assert m.dtype == bool and m.tolist() == [True, False, False, False, True]
    assert m.sum() == 2


def test_binarize_extreme_thresholds():
    # threshold -1 selects everything in (-1, 1]; threshold just under +1
    # keeps only positions above it
    assert binarize([-0.9, 0.0, 1.0], -1.0).sum() == 3
    assert binarize([-0.9, 0.0, 1.0], 0.999).sum() == 1


def test_binarize_monotone_in_threshold():
    rng = np.random.default_rng(4)
    pos = rng.uniform(-1, 1, 50)
    prev = 51
    for t in np.linspace(-0.99, 0.99, 21):
        c = binarize(pos, t).sum()
        assert c <= prev
        prev = c


# ---------------------------------------------------------------------------
# nearest neighbor classifier
# ---------------------------------------------------------------------------

def test_knn_nearest_point_wins():
    x = np.array([[0.0], [10.0]])
    y = np.array([0, 1])
    assert knn_classify(x, y, [1.0]) == 0
    assert knn_classify(x, y, [9.0]) == 1


def test_knn_distance_tie_prefers_lower_index():
    x = np.array([[1.0], [-1.0]])
    y = np.array([7, 3])
    assert knn_classify(x, y, [0.0]) == 7


def test_knn_validation():
    with pytest.raises(ContractError):
        knn_classify(np.empty((0, 2)), np.empty(0, dtype=int), [0.0, 0.0])
    with pytest.raises(ContractError):
        knn_classify(np.ones((2, 2)), [0, 1], [0.0])
    assert knn_classify(np.ones((2, 2)), [0, 1], [0.0, 0.0], 1) == 0
    for k in (0, 2):
        with pytest.raises(ContractError, match=f"k must be 1 .*, got {k}"):
            knn_classify(np.ones((2, 2)), [0, 1], [0.0, 0.0], k=k)


# ---------------------------------------------------------------------------
# mask evaluation
# ---------------------------------------------------------------------------

def loo_folds(n):
    """_knn_accuracy's fold arguments for leave-one-out: each row is its own fold."""
    return np.arange(n), np.eye(n, dtype=bool), np.ones(n, dtype=np.intp)


def loo_accuracy(d, mask):
    """The kernel's leave-one-out 1NN accuracy of a (F,) bool mask."""
    return _knn_accuracy(d, np.asarray(mask, dtype=bool), loo_folds(d.n_samples))


def brute_force_loo(x, y):
    n = len(y)
    hits = 0
    for i in range(n):
        best_j, best_d = -1, np.inf
        for j in range(n):
            if j == i:
                continue
            d = float(np.sum((x[i] - x[j]) ** 2))
            if d < best_d:
                best_j, best_d = j, d
        hits += y[best_j] == y[i]
    return hits / n


def test_loo_accuracy_matches_brute_force():
    rng = np.random.default_rng(1)
    for seed in range(10):
        d = small_dataset(seed=seed, n=16, f=4)
        mask = rng.random(4) > 0.3
        if not mask.any():
            continue
        got = loo_accuracy(d, mask)
        want = brute_force_loo(d.features[:, mask], d.labels)
        assert got == pytest.approx(want)


def test_kfold_accuracy_matches_per_fold_brute_force():
    d = small_dataset(seed=2, n=20, f=5)
    mask = np.array([True, False, True, True, False])
    cfg = WrapperConfig(k_folds=4)
    got = evaluate_mask(d, mask, cfg, seed=3)

    x = d.features[:, mask]
    y = d.labels
    folds = stratified_folds(d, 4, seed=3)
    accs = []
    for fold in folds:
        train = np.setdiff1d(np.arange(d.n_samples), fold)
        hits = sum(
            knn_classify(x[train], y[train], x[i]) == y[i] for i in fold
        )
        accs.append(hits / fold.size)
    assert got == pytest.approx(float(np.mean(accs)))


def knn_recount(d, mask, folds):
    """Mean per-fold accuracy over a list of row-index folds, recounted query
    by query with knn_classify."""
    if not mask.any():
        return 0.0
    x = d.features[:, mask]
    y = d.labels
    accs = []
    for fold in folds:
        train = np.setdiff1d(np.arange(d.n_samples), fold)
        hits = sum(
            knn_classify(x[train], y[train], x[i], 1) == y[i] for i in fold
        )
        accs.append(hits / fold.size)
    return float(np.mean(accs))


def loo_recount(d, mask):
    return knn_recount(d, mask, [np.array([i]) for i in range(d.n_samples)])


def kfold_recount(d, mask, cfg, seed):
    return knn_recount(d, mask, stratified_folds(d, cfg.k_folds, seed))


def kernel_and_recount(d, mask, k_folds, seed):
    """The kernel's accuracy and knn_recount's, on leave-one-out folds when
    k_folds is None and on the seed's stratified folds otherwise."""
    if k_folds is None:
        return loo_accuracy(d, mask), loo_recount(d, mask)
    cfg = WrapperConfig(k_folds=k_folds)
    return evaluate_mask(d, mask, cfg, seed=seed), kfold_recount(d, mask, cfg, seed)


@st.composite
def tie_heavy_cases(draw):
    """Small integer features (so distances are exact and often tied), a
    random mask, and a partition: leave-one-out (k_folds None) or k folds."""
    n_classes = draw(st.integers(2, 4))
    n = draw(st.integers(2 * n_classes, 24))
    f = draw(st.integers(1, 6))
    x = draw(arrays(np.int64, (n, f), elements=st.integers(0, 3))).astype(float)
    labels = np.array(draw(st.permutations(list(np.arange(n) % n_classes))))
    d = Dataset(x, labels, tuple(f"f{i}" for i in range(f)), "ties")
    mask = draw(arrays(np.bool_, f))
    # never more folds than the smallest class
    k_folds = draw(st.none() | st.integers(2, n // n_classes))
    return d, mask, k_folds, draw(st.integers(0, 2**16))


@settings(max_examples=300, deadline=None)
@given(tie_heavy_cases())
def test_kernel_matches_knn_recount_with_ties(case):
    got, want = kernel_and_recount(*case)
    assert got == want


def test_kernel_matches_knn_recount_on_float_kfold():
    synth = synth_dataset(60, 200, 5, class_count=3, seed=8)
    cfg = WrapperConfig(k_folds=5)
    for order in ("C", "F"):  # the Dataset's layout must not depend on its source's
        d = Dataset(np.asarray(synth.features, order=order), synth.labels, synth.feature_names, "t")
        rng = np.random.default_rng(1)
        for density in (0.05, 0.3, 0.9):
            mask = rng.random(200) < density
            assert evaluate_mask(d, mask, cfg, seed=4) == kfold_recount(d, mask, cfg, 4)
    # many more features than samples, as in gene selection
    wide = synth_dataset(40, 600, 5, class_count=3, seed=9)
    rng = np.random.default_rng(2)
    for seed in (0, 1, 2):
        for density in (0.002, 0.02, 0.25, 0.5):
            mask = rng.random(600) < density
            assert evaluate_mask(wide, mask, cfg, seed=seed) == kfold_recount(wide, mask, cfg, seed)


def gram_accuracy(d, mask, folds, dtype=np.float64):
    """Mean per-fold 1NN accuracy on _knn_accuracy's fold arguments from one
    n x n Gram matrix in dtype, with no recheck: the float64 kernel that the
    mixed-precision one replaced, or a plain float32 cast of it."""
    x = d.features[:, mask].T.astype(dtype)
    fold_id, same_fold, fold_sizes = folds
    dist = x.T @ x
    sq = dist.diagonal().copy()
    dist *= 2
    np.subtract(np.add.outer(sq, sq), dist, out=dist)
    np.maximum(dist, 0, out=dist)
    np.putmask(dist, same_fold, np.inf)
    pred = d.labels[np.argmin(dist, axis=1)]
    return float(np.mean(np.bincount(fold_id, weights=pred == d.labels) / fold_sizes))


def test_near_tie_that_float32_gets_wrong_is_rechecked_in_float64():
    # Row 1 (label 0) is nearer to row 2 than row 0 (label 1) is, but a float32
    # Gram puts rows 0-2 at distance 0 from each other, and the tie goes to
    # row 0, the lower index; the float64 Gram is exact here
    x = np.array([[1 - 2.0**-19], [1 + 2.0**-20], [1.0], [5.0], [6.0]])
    d = Dataset(x, [1, 0, 0, 1, 1], ("g",), "near_tie")
    mask, folds = np.ones(1, dtype=bool), loo_folds(5)
    assert loo_recount(d, mask) == gram_accuracy(d, mask, folds) == 0.8
    assert gram_accuracy(d, mask, folds, np.float32) == 0.4
    assert loo_accuracy(d, mask) == 0.8


def test_near_tie_in_float32_underflow_is_rechecked_in_float64():
    # The unselected column sets the float32 copy's scale, so the selected
    # values (about 2^-73) square into float32's subnormal range, where
    # rounding is absolute, not relative to the squared norms
    x = np.zeros((4, 2))
    x[0, 0] = 0.75
    x[:, 1] = np.array([2, 1.25, 1.26, 1.07]) * 2.0**-73
    d = Dataset(x, [0, 1, 0, 1], ("scale", "g"), "subnormal")
    mask = np.array([False, True])
    assert loo_accuracy(d, mask) == loo_recount(d, mask) == 0.5


@pytest.mark.parametrize("x, labels, want", [
    # one feature far below 1e-154: its squared distances once underflowed to 0 and tied
    ([2.456e-302, 0, 0, 0], [0, 1, 1, 0], 0.5),
    # a range of 1e209 in one training set: 1e-209 is still farther from 0 than 0 is
    ([1, 1.09384865e-209, 0, 0], [0, 1, 0, 1], 0.0),
])
def test_knn_classify_orders_distances_that_underflow_when_squared(x, labels, want):
    d = Dataset(np.array(x)[:, None], labels, ("g",), "tiny")
    mask = np.ones(1, dtype=bool)
    assert loo_accuracy(d, mask) == loo_recount(d, mask) == want


def test_knn_classify_orders_differences_that_overflow():
    # -1.5e308 - 1.5e308 overflows to inf unless both are halved first
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning either
        assert knn_classify([[1.5e308], [0.0]], [0, 1], [-1.5e308]) == 1
        assert knn_classify([[0.0], [-1.7e308]], [0, 1], [1.7e308]) == 0
        # unnormalized, row 0's two neighbors tie in float32, so the kernel asks knn_classify
        d = Dataset(np.array([[-1.5e308], [1.5e308], [1.5e308 * (1 - 2.0**-30)]]), [0, 1, 0],
                    ("g",), "huge")
        mask = np.ones(1, dtype=bool)
        assert loo_accuracy(d, mask) == loo_recount(d, mask) == 1 / 3


@st.composite
def wide_scale_cases(draw):
    """Float features with exact duplicate rows and column scales from 1e-30
    to 1e30 in one dataset, so float32 rounds, underflows whole columns and
    ties duplicates, a random mask and a partition: leave-one-out (k_folds
    None) or k folds."""
    n_classes = draw(st.integers(2, 3))
    n = draw(st.integers(2 * n_classes, 20))
    f = draw(st.integers(1, 6))
    pool = draw(arrays(np.float64, (draw(st.integers(1, n)), f), elements=st.floats(-1, 1)))
    rows = draw(arrays(np.intp, n, elements=st.integers(0, pool.shape[0] - 1)))
    scales = 10.0 ** draw(arrays(np.int64, f, elements=st.integers(-30, 30))).astype(float)
    labels = np.array(draw(st.permutations(list(np.arange(n) % n_classes))))
    d = Dataset(pool[rows] * scales, labels, tuple(f"f{i}" for i in range(f)), "wide")
    mask = draw(arrays(np.bool_, f))
    k_folds = draw(st.none() | st.integers(2, n // n_classes))
    return d, mask, k_folds, draw(st.integers(0, 2**16))


@settings(max_examples=300, deadline=None)
@given(wide_scale_cases())
def test_kernel_matches_knn_recount_across_scales_and_duplicates(case):
    # gram_accuracy is not the oracle here: its float64 cancellation
    # disagrees with knn_recount on a few draws in a thousand
    got, want = kernel_and_recount(*case)
    assert got == want


def test_kernel_matches_float64_gram_at_gene_scale():
    d = synth_dataset(308, 15010, 20, 26)
    cfg = WrapperConfig(k_folds=10)
    rng = np.random.default_rng(3)
    for density in np.geomspace(0.002, 0.5, 60):
        mask = rng.random(d.n_features) < density
        assert evaluate_mask(d, mask, cfg) == gram_accuracy(d, mask, _folds(d, cfg, 0))


def test_empty_mask_scores_zero():
    d = small_dataset()
    assert evaluate_mask(d, np.zeros(6, dtype=bool), WrapperConfig(k_folds=3)) == 0.0
    assert loo_accuracy(d, np.zeros(6, dtype=bool)) == 0.0


def test_evaluate_mask_refuses_a_mask_of_the_wrong_shape():
    d = small_dataset()
    cfg = WrapperConfig(k_folds=3)
    for mask in (np.ones(5, dtype=bool), np.ones((1, 6), dtype=bool), True):
        with pytest.raises(ContractError, match=r"mask must have shape \(6,\), got"):
            evaluate_mask(d, mask, cfg)
    assert evaluate_mask(d, [0, 1, 1, 0, 1, 1], cfg) == evaluate_mask(d, np.arange(6) % 3 > 0, cfg)


def test_evaluate_mask_ignores_unselected_columns():
    d = small_dataset(seed=5)
    noisy = d.features.copy()
    noisy[:, 0] = np.random.default_rng(0).normal(size=d.n_samples) * 100
    d2 = Dataset(noisy, d.labels, d.feature_names, "t")
    mask = np.array([False, True, True, True, True, True])
    cfg = WrapperConfig(k_folds=3)
    assert evaluate_mask(d, mask, cfg) == evaluate_mask(d2, mask, cfg)
    assert loo_accuracy(d, mask) == loo_accuracy(d2, mask)


def test_wrapper_config_validation():
    with pytest.raises(ConfigError):
        WrapperConfig(threshold=1.0)
    with pytest.raises(ConfigError):
        WrapperConfig(threshold=-1.0)
    with pytest.raises(ConfigError):
        WrapperConfig(k_folds=1)


@pytest.mark.parametrize("key,value,noun", [
    ("k_folds", 2.5, "an integer"), ("k_folds", True, "an integer"),
    ("threshold", "0.5", "a finite number"), ("threshold", float("nan"), "a finite number"),
])
def test_wrapper_config_rejects_values_of_the_wrong_type(key, value, noun):
    with pytest.raises(ConfigError, match=f"^{key} must be {noun}, got "):
        WrapperConfig(**{key: value})


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_is_one_minus_accuracy():
    d = small_dataset(seed=7)
    cfg = WrapperConfig(k_folds=3)
    obj = wrapper_objective(d, cfg, seed=11)
    rng = np.random.default_rng(2)
    for _ in range(10):
        pos = rng.uniform(-1, 1, d.n_features)
        mask = binarize(pos, cfg.threshold)
        # same seed => same frozen folds
        assert obj(pos) == pytest.approx(1.0 - evaluate_mask(d, mask, cfg, seed=11))


def test_objective_refuses_a_position_of_the_wrong_shape():
    d = small_dataset(seed=7)
    obj = wrapper_objective(d, WrapperConfig(k_folds=3))
    for position in (np.ones(5), np.ones((1, 6)), 0.9):
        with pytest.raises(ContractError, match=r"position must have shape \(6,\), got"):
            obj(position)


def test_objective_pure_within_run():
    d = small_dataset(seed=9)
    obj = wrapper_objective(d, WrapperConfig(k_folds=3), seed=1)
    pos = np.full(d.n_features, 0.9)
    assert obj(pos) == obj(pos)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=20), st.integers(0, 2**16))
def test_shared_memo_objective_returns_what_a_fresh_one_returns(picks, seed):
    # positions drawn from a small pool, so masks repeat within the sequence;
    # the pool's masks are two bytes long and differ in a few bits, as a
    # swarm's steps do, so a key that dropped bits would collide
    d = small_dataset(seed=seed % 7, n=18, f=12)
    rng = np.random.default_rng(seed)
    pool = np.tile(rng.uniform(-1, 1, d.n_features), (6, 1))
    redraw = rng.random(pool.shape) < 0.3
    pool[redraw] = rng.uniform(-1, 1, redraw.sum())
    cfg = WrapperConfig(k_folds=3)
    shared = wrapper_objective(d, cfg, seed=seed)
    for i in picks:
        assert shared(pool[i]) == wrapper_objective(d, cfg, seed=seed)(pool[i])


def test_paired_runs_sharing_an_objective_score_each_mask_once(monkeypatch):
    scored = []  # the packed mask of every kernel call
    kernel = feature_selection._knn_accuracy

    def counted(d, mask, folds):
        scored.append(np.packbits(mask).tobytes())
        return kernel(d, mask, folds)

    monkeypatch.setattr(feature_selection, "_knn_accuracy", counted)
    d = small_dataset(seed=4, n=30, f=12, informative=3)
    cfg = WrapperConfig(k_folds=3)
    ec = make_epso(d, seed=3, population_size=6, max_iterations=8)
    alone = [select_features(d, ec, cfg, mode=m) for m in ("pso", "epso")]
    each_run = list(scored)  # each run's distinct masks
    scored.clear()
    objective = wrapper_objective(d, cfg, seed=3)
    paired = [select_features(d, ec, cfg, mode=m, objective=objective) for m in ("pso", "epso")]
    assert len(set(each_run)) < len(each_run)  # the two runs have masks in common
    assert sorted(scored) == sorted(set(each_run))  # each scored once, and nothing else
    for a, b in zip(alone, paired):
        assert np.array_equal(a.mask, b.mask) and a.accuracy == b.accuracy
        assert a.run.trace == b.run.trace


def test_wall_time_charges_the_scoring_seconds_of_memo_hits(monkeypatch):
    # a fake clock that only the kernel moves, by one second per call: a run
    # that scored every mask itself would take P (T + 1) seconds
    clock = [0.0]
    kernel = feature_selection._knn_accuracy

    def one_second(d, mask, folds):
        clock[0] += 1.0
        return kernel(d, mask, folds)

    monkeypatch.setattr(feature_selection, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(feature_selection, "_knn_accuracy", one_second)
    d = small_dataset(seed=4, n=30, f=12, informative=3)
    cfg = WrapperConfig(k_folds=3)
    ec = make_epso(d, seed=3, population_size=6, max_iterations=8)
    objective = wrapper_objective(d, cfg, seed=3)
    for mode in ("pso", "epso", "epso"):
        assert select_features(d, ec, cfg, mode=mode, objective=objective).wall_time == 6 * 9
    assert clock[0] < 2 * 6 * 9  # the second EPSO run, at least, scored nothing


def test_select_features_refuses_an_objective_built_for_another_run():
    d = small_dataset(seed=3)
    cfg = WrapperConfig(k_folds=3)
    objective = wrapper_objective(d, cfg, seed=5)
    assert select_features(d, make_epso(d, seed=5), cfg, objective=objective).accuracy > 0
    copy = Dataset(d.features, d.labels, d.feature_names, d.name)
    for other in (wrapper_objective(copy, cfg, seed=5),
                  wrapper_objective(d, WrapperConfig(threshold=0.4, k_folds=3), seed=5),
                  wrapper_objective(d, cfg, seed=6)):
        with pytest.raises(ConfigError, match="another dataset, config or seed"):
            select_features(d, make_epso(d, seed=5), cfg, objective=other)


# ---------------------------------------------------------------------------
# end-to-end selection
# ---------------------------------------------------------------------------

def make_epso(d, seed=0, **kw):
    kw.setdefault("population_size", 8)
    kw.setdefault("max_iterations", 10)
    return EpsoConfig(
        dimension=d.n_features,
        bounds=position_bounds(d.n_features),
        seed=seed,
        **kw,
    )


def test_select_features_deterministic():
    d = small_dataset(seed=3)
    cfg = WrapperConfig(k_folds=3)
    a = select_features(d, make_epso(d, seed=5), cfg)
    b = select_features(d, make_epso(d, seed=5), cfg)
    assert np.array_equal(a.mask, b.mask)
    assert a.accuracy == b.accuracy


def test_select_features_accuracy_consistent_with_mask():
    d = small_dataset(seed=3)
    cfg = WrapperConfig(k_folds=3)
    res = select_features(d, make_epso(d, seed=5), cfg)
    assert res.accuracy == pytest.approx(evaluate_mask(d, res.mask, cfg))
    assert np.array_equal(res.mask, binarize(res.run.best_position, cfg.threshold))
    assert 0.0 <= res.accuracy <= 1.0
    assert res.wall_time >= 0.0


def test_pso_and_degenerate_epso_find_same_mask():
    d = small_dataset(seed=6)
    cfg = WrapperConfig(k_folds=3)
    pso = select_features(d, make_epso(d, seed=2), cfg, mode="pso")
    degen = select_features(
        d, make_epso(d, seed=2, g_pini=1.0, g_pfine=1.0), cfg, mode="epso"
    )
    assert np.array_equal(pso.mask, degen.mask)
    assert pso.accuracy == degen.accuracy


def test_select_features_validates_dimension_and_bounds():
    d = small_dataset()
    cfg = WrapperConfig(k_folds=3)
    bad_dim = EpsoConfig(dimension=3, bounds=position_bounds(3), seed=0)
    with pytest.raises(ConfigError):
        select_features(d, bad_dim, cfg)
    bad_bounds = EpsoConfig(dimension=6, bounds=[-2.0, 2.0], seed=0)
    with pytest.raises(ConfigError):
        select_features(d, bad_bounds, cfg)


def test_selection_recovers_informative_signal():
    # strong separation: the best mask should beat the all-features baseline
    d = synth_dataset(40, 12, 2, seed=1, separation=6.0)
    cfg = WrapperConfig(k_folds=3)
    res = select_features(d, make_epso(d, seed=4, max_iterations=20), cfg)
    baseline = evaluate_mask(d, np.ones(12, dtype=bool), cfg)
    assert res.accuracy >= baseline
