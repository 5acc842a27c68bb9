"""Correctness checks applied to every benchmark run, outside the timed region.

Each check returns a list of failure messages; an empty list means the run
passed. The checks recompute results from the public API (a fresh registry
instance, a fresh wrapper objective, the knn_classify oracle) and compare
them exactly with what the program reported.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

BENCH_COLUMNS = ["function", "algorithm", "mean", "median", "std", "best", "worst"]
SELECT_COLUMNS = ["dataset", "cfo", "algorithm", "features", "accuracy", "std", "time_sec"]


def check_trace(trace, iterations: int) -> list[str]:
    """T+1 entries numbered 0..T whose gbest values never increase."""
    errors = []
    if [it for it, _ in trace] != list(range(iterations + 1)):
        errors.append(f"trace has {len(trace)} entries, expected iterations 0..{iterations}")
    values = [v for _, v in trace]
    bad = [i for i in range(1, len(values)) if values[i] > values[i - 1]]
    if bad:
        errors.append(f"trace increases at iteration {bad[0]}")
    return errors


def check_bounds(position, bounds) -> list[str]:
    x = np.asarray(position, dtype=float)
    b = np.asarray(bounds, dtype=float)
    outside = np.flatnonzero((x < b[:, 0]) | (x > b[:, 1]))
    if outside.size:
        return [f"best_position leaves the bounds at coordinate {int(outside[0])}"]
    return []


def check_bench_run(run, spec, objective, iterations: int) -> list[str]:
    """Trace, bounds, exact re-evaluation on a fresh instance, and value >= bias."""
    errors = check_trace(run.trace, iterations) + check_bounds(run.best_position, spec.bounds)
    value = objective(run.best_position)
    if value != run.best_fitness:
        errors.append(f"re-evaluation gives {value!r}, run reported {run.best_fitness!r}")
    if run.best_fitness < spec.bias:
        errors.append(f"best_fitness {run.best_fitness!r} is below the bias {spec.bias!r}")
    if run.trace and run.trace[-1][1] != run.best_fitness:
        errors.append("last trace value differs from best_fitness")
    return errors


def oracle_accuracy(features, labels, mask, folds) -> float:
    """Mean per-fold 1NN accuracy, recounted query by query with knn_classify."""
    from epso.feature_selection import knn_classify

    x = np.asarray(features)[:, mask]
    y = np.asarray(labels)
    n = x.shape[0]
    if not mask.any():
        return 0.0
    accs = []
    for fold in folds:
        train = np.ones(n, dtype=bool)
        train[fold] = False
        hits = sum(knn_classify(x[train], y[train], x[i], 1) == y[i] for i in fold)
        accs.append(hits / len(fold))
    return float(np.mean(accs))


def check_select_run(run, data, objective, folds, threshold: float, iterations: int,
                     reported_accuracy: float, reported_features: int) -> list[str]:
    """Trace, bounds, exact re-evaluation, and an oracle recount of the accuracy."""
    errors = check_trace(run.trace, iterations)
    errors += check_bounds(run.best_position, np.tile([-1.0, 1.0], (data.n_features, 1)))
    value = objective(run.best_position)
    if value != run.best_fitness:
        errors.append(f"re-evaluation gives {value!r}, run reported {run.best_fitness!r}")
    mask = np.asarray(run.best_position) > threshold
    oracle = oracle_accuracy(data.features, data.labels, mask, folds)
    if 1.0 - oracle != run.best_fitness:
        errors.append(f"oracle accuracy {oracle!r} disagrees with best_fitness {run.best_fitness!r}")
    if reported_accuracy != 1.0 - run.best_fitness:
        errors.append(f"reported accuracy {reported_accuracy!r} != 1 - best_fitness")
    if reported_features != int(mask.sum()):
        errors.append(f"reported {reported_features} features, mask has {int(mask.sum())}")
    return errors


def read_report(out_dir: Path, task: str) -> tuple[list[dict], dict]:
    """Parse report.csv and report.json; raise ValueError on a malformed file."""
    columns = BENCH_COLUMNS if task == "benchmark" else SELECT_COLUMNS
    with open(out_dir / "report.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != columns:
            raise ValueError(f"report.csv columns {reader.fieldnames} != {columns}")
        rows = list(reader)
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        payload = json.load(fh)
    if set(payload) != {"task", "config", "rows", "runs"} or payload["task"] != task:
        raise ValueError("report.json lacks task/config/rows/runs")
    if [r["algorithm"] for r in rows] != [r["algorithm"] for r in payload["rows"]]:
        raise ValueError("report.csv and report.json list different algorithms")
    for csv_row, json_row in zip(rows, payload["rows"]):
        for c in columns:
            if c not in json_row or str(json_row[c]) != csv_row[c]:
                raise ValueError(f"report.csv and report.json disagree on {c!r}")
    return rows, payload


def check_trace_file(path: Path, run) -> list[str]:
    """A --trace CSV must hold exactly the run's trace."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"cannot read {path.name}: {exc}"]
    if rows[:1] != [["iteration", "gbest_fitness"]]:
        return [f"{path.name} has header {rows[:1]}"]
    if [(int(i), float(v)) for i, v in rows[1:]] != [(i, float(v)) for i, v in run.trace]:
        return [f"{path.name} differs from the run's trace"]
    return []


def check_determinism(repetitions: list[list[tuple]]) -> list[int]:
    """Indices of repetitions whose (seed, algorithm, best_fitness) list
    differs from the first repetition's."""
    return [i for i, rep in enumerate(repetitions) if rep != repetitions[0]]
