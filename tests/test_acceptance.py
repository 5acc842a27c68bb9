"""End-to-end acceptance checks for the whole package.

Each test prints an explicit PASS line so a -s run doubles as a checklist.
The suite favors independent oracles (brute force, two-pass statistics,
hand-computed tables) over re-derived expectations.
"""

import csv
import json
import math

import numpy as np
import pytest

from epso import (
    EpsoConfig,
    evaluate_mask,
    group1_size,
    mutation_gene_count,
    optimize,
    position_bounds,
    registry,
    select_features,
    summarize,
    synth_dataset,
    WrapperConfig,
)
from epso.benchmarks import (
    CompositionComponent,
    available_functions,
    composition_weights,
    elliptic,
    cigar,
    ackley,
    rastrigin,
    schwefel,
)
from epso.datasets import cfo_index, save_csv
from epso.feature_selection import _knn_accuracy, binarize, knn_classify
from epso.swarm import assign_groups, init_swarm, step
from epso.cli import main


def report(name: str) -> None:
    print(f"PASS {name}")


def test_acceptance_01_reduction_equivalence():
    """EPSO with both group fractions at 1.0 is bit-identical to PSO mode."""
    spec, fn = registry("rastrigin_shifted_rotated", 10, seed=1)
    base = dict(
        dimension=10, bounds=spec.bounds, population_size=50,
        max_iterations=100, seed=123,
    )
    pso = optimize(EpsoConfig(**base), fn, mode="pso")
    degen = optimize(
        EpsoConfig(g_pini=1.0, g_pfine=1.0, **base), fn, mode="epso"
    )
    assert len(pso.trace) == len(degen.trace) == 101
    for (ta, fa), (tb, fb) in zip(pso.trace, degen.trace):
        assert ta == tb
        assert fa == fb  # bit-identical, no tolerance
    assert np.array_equal(pso.best_position, degen.best_position)
    report("reduction equivalence: degenerate schedule reproduces plain mode exactly")


def test_acceptance_02_schedule_tables():
    """Group sizes and gene counts match hand-computed values; groups tile the swarm."""
    cfg = EpsoConfig(
        dimension=10, bounds=[-1.0, 1.0], population_size=50,
        max_iterations=100, g_pini=0.9, g_pfine=0.5, m_min=1, m_max=10,
    )
    # hand computation: round((0.9 - (t/100)^2 * 0.4) * 50)
    expected_g1 = {0: 45, 25: 44, 50: 40, 75: 34, 100: 25}
    # hand computation: round(1 + (t/100)^2 * 9)
    expected_m = {0: 1, 25: 2, 50: 3, 75: 6, 100: 10}
    for t, want in expected_g1.items():
        g1 = group1_size(t, cfg)
        assert g1 == want, (t, g1, want)
    for t, want in expected_m.items():
        assert mutation_gene_count(t, cfg) == want, t
    fitness = np.random.default_rng(0).random(50)
    for t in range(101):
        g1 = group1_size(t, cfg)
        group1, group2 = assign_groups(fitness, g1)
        assert len(group1) == g1
        assert np.array_equal(np.sort(np.concatenate([group1, group2])), np.arange(50))
    report("schedule tables: group sizes and gene counts match hand values, sums exact")


def test_acceptance_03_monotonicity_all_functions():
    """Every trace is non-increasing and every position in bounds, all functions."""
    for name in available_functions():
        spec, fn = registry(name, 10, seed=3)
        for run in range(30):
            cfg = EpsoConfig(
                dimension=10, bounds=spec.bounds, population_size=15,
                max_iterations=20, seed=run,
            )
            rng = np.random.default_rng(cfg.seed)
            swarm = init_swarm(cfg, fn, rng)
            prev = swarm.gbest_fitness
            lo, hi = cfg.bounds[:, 0], cfg.bounds[:, 1]
            for _ in range(cfg.max_iterations):
                step(swarm, fn, cfg, rng)
                assert swarm.gbest_fitness <= prev
                prev = swarm.gbest_fitness
                assert np.all(swarm.positions >= lo) and np.all(swarm.positions <= hi)
    report("monotonicity: 30 runs x all registry functions, traces and bounds hold")


@pytest.mark.slow
def test_acceptance_04_multimodal_advantage():
    """Two-group schedule is no worse than plain updates on multimodal problems."""
    for name in ("rastrigin_shifted_rotated", "ackley_shifted_rotated"):
        spec, fn = registry(name, 10, seed=1)
        finals = {"pso": [], "epso": []}
        for mode in finals:
            for run in range(30):
                cfg = EpsoConfig(
                    dimension=10, bounds=spec.bounds, population_size=50,
                    max_iterations=1000, seed=1 + run,
                )
                finals[mode].append(optimize(cfg, fn, mode=mode).best_fitness)
        med_pso = float(np.median(finals["pso"]))
        med_epso = float(np.median(finals["epso"]))
        assert med_epso <= med_pso, (name, med_epso, med_pso)
        print(f"  {name}: median epso={med_epso:.4f} <= pso={med_pso:.4f}")
    report("multimodal advantage: epso median <= pso median on both functions")


def test_acceptance_05_base_function_anchors():
    """Known optima evaluate correctly; composition weights always normalize."""
    assert elliptic(np.zeros(10)) == 0.0
    assert cigar(np.zeros(10)) == 0.0
    assert ackley(np.zeros(10)) == pytest.approx(0.0, abs=1e-12)
    assert rastrigin(np.zeros(10)) == 0.0
    assert abs(schwefel(np.full(10, 420.9687))) <= 1e-3

    comps = [
        CompositionComponent(rastrigin, 10.0, 0.0, np.full(6, 3.0)),
        CompositionComponent(ackley, 20.0, 100.0, np.full(6, -3.0)),
        CompositionComponent(elliptic, 30.0, 200.0, np.zeros(6)),
    ]
    rng = np.random.default_rng(0)
    for _ in range(1000):
        w = composition_weights(rng.uniform(-100, 100, 6), comps)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0.0)
    report("base anchors: optima exact, schwefel <= 1e-3, 1000 weight sums within 1e-12")


def test_acceptance_06_nearest_neighbor_oracle():
    """Classifier and LOO mask scoring agree exactly with brute force."""
    rng = np.random.default_rng(7)
    for case in range(20):
        n = int(rng.integers(10, 51))
        f = int(rng.integers(2, 21))
        x = rng.normal(size=(n, f))
        y = rng.integers(0, 3, n)
        y[: 3] = [0, 1, 2]  # guarantee multiple classes
        # brute-force 1NN prediction for a fresh query point
        q = rng.normal(size=f)
        dists = [float(np.sum((x[i] - q) ** 2)) for i in range(n)]
        best = min(range(n), key=lambda i: (dists[i], i))
        assert knn_classify(x, y, q) == y[best]

        # LOO accuracy vs. all-pairs brute force on a random mask
        from epso.datasets import Dataset
        d = Dataset(x, y, tuple(f"g{i}" for i in range(f)), f"case{case}")
        mask = rng.random(f) > 0.3
        if not mask.any():
            mask = np.ones(f, dtype=bool)
        xm = x[:, mask]
        hits = 0
        for i in range(n):
            dd = [
                (float(np.sum((xm[i] - xm[j]) ** 2)), j)
                for j in range(n) if j != i
            ]
            hits += y[min(dd)[1]] == y[i]
        loo_folds = np.arange(n), np.eye(n, dtype=bool), np.ones(n, dtype=np.intp)
        got = _knn_accuracy(d, mask, loo_folds)  # each row is its own fold
        assert got == hits / n  # exact
    report("nearest neighbor oracle: 20 random datasets agree exactly with brute force")


@pytest.mark.slow
def test_acceptance_07_feature_selection_competence():
    """Best-of-30-runs mask beats the all-features baseline with <= half the features."""
    from epso import normalize_minmax
    d = normalize_minmax(synth_dataset(200, 500, 10, seed=42))
    wrapper = WrapperConfig(k_folds=10)
    baseline = evaluate_mask(
        d, np.ones(500, dtype=bool), wrapper, seed=0
    )
    best_acc, best_count = -1.0, 501
    for run in range(30):
        cfg = EpsoConfig(
            dimension=500, bounds=position_bounds(500), population_size=20,
            max_iterations=30, seed=run,
        )
        res = select_features(d, cfg, wrapper)
        if (res.accuracy, -res.mask.sum()) > (best_acc, -best_count):
            best_acc, best_count = res.accuracy, res.mask.sum()
    assert best_acc >= baseline, (best_acc, baseline)
    assert best_count <= 250, best_count
    print(f"  best-of-runs accuracy {best_acc:.4f} >= baseline {baseline:.4f}, "
          f"{best_count} features")
    report("feature selection: best run beats all-features baseline with <= 250 features")


def test_acceptance_08_complexity_index():
    """C*F/O reproduces the reference dataset-complexity values within +-1."""
    rows = [(26, 15010, 308, 1267), (2, 2000, 62, 65), (4, 2308, 82, 113)]
    for c, f, o, want in rows:
        got = cfo_index(c, f, o)
        assert abs(round(got) - want) <= 1, (c, f, o, got)
    report("complexity index: all three reference triples within +-1")


def test_acceptance_09_statistics_oracle():
    """summarize matches a from-scratch two-pass oracle to 1e-12."""
    s = summarize([1, 2, 3, 4, 5])
    assert abs(s.std - math.sqrt(2.5)) <= 1e-12  # ~1.5811
    rng = np.random.default_rng(12)
    for _ in range(100):
        v = rng.normal(scale=rng.uniform(0.1, 100), size=int(rng.integers(2, 60)))
        s = summarize(v)
        mean = sum(v) / len(v)
        var = sum((x - mean) ** 2 for x in v) / (len(v) - 1)
        assert abs(s.mean - mean) <= 1e-12 * max(1, abs(mean))
        assert abs(s.std - math.sqrt(var)) <= 1e-12 * max(1, math.sqrt(var))
        assert s.best == min(v) and s.worst == max(v)
        assert abs(s.median - float(np.median(v))) <= 1e-12
    report("statistics oracle: 100 random vectors within 1e-12, hand case included")


def _strip_times(path):
    """Report contents with wall-time fields removed, for comparison."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        for recs in payload.get("runs", {}).values():
            for rec in recs:
                rec.pop("time_sec", None)
        for row in payload.get("rows", []):
            row.pop("time_sec", None)
        return json.dumps(payload, sort_keys=True)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if "time_sec" in rows[0]:
        drop = rows[0].index("time_sec")
        rows = [r[:drop] + r[drop + 1:] for r in rows]
    return rows


def test_acceptance_10_cli_determinism(tmp_path, capsys):
    """Repeated identical invocations produce identical reports (times aside)."""
    bench_args = [
        "bench", "--function", "hybrid_3", "--dim", "10", "--runs", "3",
        "--population", "10", "--iterations", "10", "--seed", "4",
    ]
    assert main(bench_args + ["--out", str(tmp_path / "b1")]) == 0
    assert main(bench_args + ["--out", str(tmp_path / "b2")]) == 0
    assert (tmp_path / "b1" / "report.csv").read_bytes() == \
        (tmp_path / "b2" / "report.csv").read_bytes()
    j1 = json.loads((tmp_path / "b1" / "report.json").read_text())
    j2 = json.loads((tmp_path / "b2" / "report.json").read_text())
    j1["config"]["out_dir"] = j2["config"]["out_dir"] = ""
    for j in (j1, j2):
        for recs in j["runs"].values():
            for rec in recs:
                rec.pop("time_sec", None)
    assert j1 == j2

    data = tmp_path / "d.csv"
    save_csv(synth_dataset(30, 8, 2, seed=5), data)
    sel_args = [
        "select", "--data", str(data), "--runs", "2", "--population", "6",
        "--iterations", "5", "--folds", "3", "--seed", "9",
    ]
    assert main(sel_args + ["--out", str(tmp_path / "s1")]) == 0
    assert main(sel_args + ["--out", str(tmp_path / "s2")]) == 0
    capsys.readouterr()
    a = _strip_times(tmp_path / "s1" / "report.csv")
    b = _strip_times(tmp_path / "s2" / "report.csv")
    assert a == b
    report("determinism: repeated bench and select runs byte-identical minus times")
