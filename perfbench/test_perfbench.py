"""Tests of the benchmark's own checks and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each correctness check must pass a genuine result and flag a deliberately
corrupted copy of it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from spans import MaskLog, Tracer, interpose, layer_metrics  # noqa: E402
from workloads import WORKLOADS, synth_features, write_csv  # noqa: E402

from epso import cli  # noqa: E402
from epso.benchmarks import registry  # noqa: E402
from epso.datasets import Dataset, normalize_minmax, stratified_folds, synth_dataset  # noqa: E402
from epso.feature_selection import WrapperConfig, position_bounds, wrapper_objective  # noqa: E402
from epso.swarm import EpsoConfig, optimize  # noqa: E402

T = 15


@pytest.fixture(scope="module")
def bench_run():
    spec, objective = registry("rastrigin_shifted_rotated", 4, 3)
    run = optimize(EpsoConfig(dimension=4, bounds=spec.bounds, population_size=8,
                              max_iterations=T, seed=3), objective, "epso")
    return run, spec, objective


@pytest.fixture(scope="module")
def select_run():
    x, y = synth_features(60, 30, 3, 3, seed=5, separation=0.7)
    data = normalize_minmax(Dataset(x, y, tuple(f"f{i}" for i in range(30))))
    cfg = WrapperConfig(threshold=0.5, k_folds=5)
    objective = wrapper_objective(data, cfg, seed=2)
    run = optimize(EpsoConfig(dimension=30, bounds=position_bounds(30), population_size=6,
                              max_iterations=T, seed=2), objective, "epso")
    folds = stratified_folds(data, cfg.k_folds, 2)
    mask = run.best_position > cfg.threshold
    return run, data, objective, folds, 1.0 - run.best_fitness, int(mask.sum())


def non_monotone(run):
    """The same run with its trace rising at the middle iteration."""
    trace = list(run.trace)
    mid = len(trace) // 2
    trace[mid] = (mid, trace[mid - 1][1] + 1.0)
    return dataclasses.replace(run, trace=trace)


def test_bench_checks_pass_a_genuine_run(bench_run):
    run, spec, objective = bench_run
    assert checks.check_bench_run(run, spec, objective, T) == []


def test_bench_check_flags_best_value_off_by_one_ulp(bench_run):
    run, spec, objective = bench_run
    bad = dataclasses.replace(run, best_fitness=np.nextafter(run.best_fitness, np.inf))
    assert any("re-evaluation" in e for e in checks.check_bench_run(bad, spec, objective, T))


def test_bench_check_flags_non_monotone_trace(bench_run):
    run, spec, objective = bench_run
    errors = checks.check_bench_run(non_monotone(run), spec, objective, T)
    assert any("increases" in e for e in errors)


def test_bench_check_flags_short_trace_and_out_of_bounds(bench_run):
    run, spec, objective = bench_run
    assert checks.check_trace(run.trace[:-1], T)
    outside = run.best_position.copy()
    outside[0] = spec.bounds[0, 1] + 1.0
    assert checks.check_bounds(outside, spec.bounds)


def test_select_checks_pass_a_genuine_run(select_run):
    run, data, objective, folds, accuracy, features = select_run
    assert checks.check_select_run(run, data, objective, folds, 0.5, T, accuracy, features) == []


def test_select_check_flags_wrong_accuracy(select_run):
    run, data, objective, folds, accuracy, features = select_run
    errors = checks.check_select_run(run, data, objective, folds, 0.5, T,
                                     accuracy + 1.0 / data.n_samples, features)
    assert any("reported accuracy" in e for e in errors)


def test_select_check_flags_best_value_off_by_one_ulp(select_run):
    run, data, objective, folds, accuracy, features = select_run
    bad = dataclasses.replace(run, best_fitness=np.nextafter(run.best_fitness, -np.inf))
    errors = checks.check_select_run(bad, data, objective, folds, 0.5, T, accuracy, features)
    assert any("re-evaluation" in e for e in errors)
    assert any("oracle" in e for e in errors)


def test_select_check_flags_non_monotone_trace(select_run):
    run, data, objective, folds, accuracy, features = select_run
    errors = checks.check_select_run(non_monotone(run), data, objective, folds, 0.5, T,
                                     accuracy, features)
    assert any("increases" in e for e in errors)


def test_oracle_matches_the_wrapper_objective(select_run):
    run, data, objective, folds, _, _ = select_run
    rng = np.random.default_rng(0)
    for _ in range(5):
        position = rng.uniform(-1, 1, data.n_features)
        acc = checks.oracle_accuracy(data.features, data.labels, position > 0.5, folds)
        assert 1.0 - acc == objective(position)


def test_determinism_check_flags_a_differing_repetition():
    rep = [(1, "pso", 401.5), (1, "epso", 400.25)]
    changed = [(1, "pso", 401.5), (1, "epso", float(np.nextafter(400.25, 0)))]
    assert checks.check_determinism([rep, list(rep), rep]) == []
    assert checks.check_determinism([rep, changed, rep]) == [1]


def test_cli_chain_under_interposition(tmp_path):
    """The traced run sees every layer call, counts every evaluation, gives
    the untraced result, and puts the original functions back."""
    import epso.harness as harness

    argv = ["bench", "--function", "rastrigin_shifted_rotated", "--dim", "3", "--population",
            "4", "--iterations", "5", "--runs", "1", "--algo", "both", "--seed", "2"]
    assert cli.main(argv + ["--out", str(tmp_path / "plain")]) == 0
    original = harness.optimize
    tracer, masks = Tracer(), []
    with interpose(tracer, masks):
        with tracer.span("cli.main"):
            assert cli.main(argv + ["--trace", "--out", str(tmp_path / "traced")]) == 0
    assert harness.optimize is original
    names = {s[0] for s in tracer.spans}
    assert {"benchmarks.registry", "swarm.optimize", "benchmarks.objective",
            "harness.emit_report", "harness.emit_traces"} <= names
    row = layer_metrics(tracer, masks)
    assert row["benchmarks.evals"] == 4 * 6 * 2
    assert 0.0 < row["swarm.update_share"] < 1.0
    plain = json.loads((tmp_path / "plain" / "report.json").read_text())
    traced = json.loads((tmp_path / "traced" / "report.json").read_text())
    assert plain["rows"][0]["best"] == traced["rows"][0]["best"]


def test_self_times_subtract_children():
    tracer = Tracer()
    tracer.spans = [["root", 0.0, 10.0, None], ["child", 1.0, 4.0, 0], ["leaf", 2.0, 3.0, 1]]
    assert tracer.self_times() == [7.0, 2.0, 1.0]


def test_mask_log_counts_flips_and_repeats():
    log = MaskLog(n_features=200, population=2, threshold=0.5)
    a = np.full(200, -1.0)
    b = a.copy()
    b[:3] = 1.0
    for position in (a, b, a, a):  # particle 0: a, a; particle 1: b, a
        log(position)
    assert log.selected == [0, 3, 0, 0]
    assert log.flips == [0, 3]
    assert log.repeats == 2


def test_synthetic_inputs_follow_synth_dataset(tmp_path):
    x, y = synth_features(12, 7, 2, 3, seed=4)
    ref = synth_dataset(12, 7, 2, class_count=3, seed=4)
    assert np.array_equal(x, ref.features) and np.array_equal(y, ref.labels)
    write_csv(tmp_path / "d.csv", x, y)
    from epso.datasets import load_csv

    assert np.array_equal(load_csv(tmp_path / "d.csv").features, x)


def test_layer_map_covers_the_benchmark_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    assert set(layer_map["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    ends = {m["name"] for m in spec["end_to_end"]}
    for entry in layer_map["per_layer"].values():
        assert set(entry["moves"]) <= ends
        assert set(entry["workloads"]) <= set(WORKLOADS)


def test_host_speed_scale_uses_the_probes_over_the_interval():
    # Probes at 25 ms taking twice the reference time: the host runs at half speed.
    samples = [(k * 0.025, 2 * hostspeed.REFERENCE_PROBE_S) for k in range(100)]
    assert hostspeed.scale(samples, 1.0, 2.0) == pytest.approx(0.5)
    assert hostspeed.scale(samples, 1.0, 1.0001) == pytest.approx(0.5)  # widened window
    assert hostspeed.scale(samples, 10.0, 11.0) is None  # no probes there
    assert run.scaled([4.0], [(1.0, 2.0)], samples) == pytest.approx([2.0])
    assert run.scaled([4.0, 4.0], [(1.0, 2.0), (10.0, 11.0)], samples) is None


def test_host_speed_monitor_records_and_stops(tmp_path):
    monitor = hostspeed.HostSpeed(tmp_path / "probes.txt")
    start = hostspeed.now()
    while monitor.proc.poll() is None and hostspeed.now() - start < 2.0:
        time.sleep(0.05)
    samples = monitor.stop()
    assert monitor.proc.returncode is not None
    assert not (tmp_path / "probes.txt").exists()
    assert len(samples) >= hostspeed.MIN_PROBES
    assert all(start <= t <= hostspeed.now() and c > 0 for t, c in samples)
