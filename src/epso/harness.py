"""Experiment orchestration: validated run configurations, repeated seeded
runs, five-number summaries, and CSV/JSON reports plus convergence traces.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .benchmarks import registry
from .datasets import Dataset, complexity_index, load_csv, normalize_minmax
from .errors import ConfigError, ContractError
from .feature_selection import (
    FeatureSelectionResult,
    WrapperConfig,
    position_bounds,
    select_features,
)
from .swarm import EpsoConfig, RunResult, optimize

TASKS = ("benchmark", "feature-selection")
ALGORITHMS = ("pso", "epso", "both")

BENCH_CSV_COLUMNS = ["function", "algorithm", "mean", "median", "std", "best", "worst"]
SELECT_CSV_COLUMNS = ["dataset", "cfo", "algorithm", "features", "accuracy", "std", "time_sec"]


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    median: float
    std: float
    best: float
    worst: float


def summarize(values) -> SummaryStats:
    """Five-number summary (minimization): sample std uses the n-1 denominator."""
    v = np.asarray(list(values), dtype=float)
    if v.size == 0:
        raise ContractError("cannot summarize an empty sequence")
    std = float(np.std(v, ddof=1)) if v.size > 1 else 0.0
    return SummaryStats(
        mean=float(np.mean(v)),
        median=float(np.median(v)),
        std=std,
        best=float(np.min(v)),
        worst=float(np.max(v)),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved experiment; run i always uses seed base_seed + i."""

    task: str
    algorithm: str = "both"
    runs: int = 30
    base_seed: int = 1
    out_dir: str = "out"
    emit_traces: bool = False
    # benchmark task
    function: str | None = None
    dimension: int = 10
    # feature-selection task
    data_path: str | None = None
    label_col: str = "last"
    threshold: float = 0.5
    k_folds: int = 10
    normalize: bool = True
    # swarm hyperparameters
    population_size: int = 50
    max_iterations: int = 100
    inertia_start: float = 0.9
    inertia_end: float = 0.4
    c1: float = 2.0
    c2: float = 2.0
    g_pini: float = 1.0
    g_pfine: float = 0.9
    m_min: int = 1
    m_max: int | None = None
    velocity_clamp_fraction: float = 0.2

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be non-negative")
        if not (0.0 <= self.g_pfine <= self.g_pini <= 1.0):
            raise ConfigError("need 0 <= g_pfine <= g_pini <= 1")
        if self.task == "benchmark":
            if not self.function:
                raise ConfigError("benchmark task requires 'function'")
            if self.dimension < 1:
                raise ConfigError("dimension must be positive")
        else:
            if not self.data_path:
                raise ConfigError("feature-selection task requires 'data_path'")
            WrapperConfig(threshold=self.threshold, k_folds=self.k_folds)

    def swarm_config(self, dimension: int, bounds, seed: int) -> EpsoConfig:
        m_max = self.m_max
        if m_max is not None:
            m_max = min(m_max, dimension)
        return EpsoConfig(
            dimension=dimension,
            bounds=bounds,
            population_size=self.population_size,
            max_iterations=self.max_iterations,
            inertia_start=self.inertia_start,
            inertia_end=self.inertia_end,
            c1=self.c1,
            c2=self.c2,
            g_pini=self.g_pini,
            g_pfine=self.g_pfine,
            m_min=self.m_min,
            m_max=m_max,
            velocity_clamp_fraction=self.velocity_clamp_fraction,
            seed=seed,
        )

    def algorithms(self) -> list[str]:
        return ["pso", "epso"] if self.algorithm == "both" else [self.algorithm]


_CONFIG_KEYS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def build_config(task: str, values: dict) -> ExperimentConfig:
    """Build a validated config from a mapping, rejecting unknown keys."""
    unknown = sorted(set(values) - (_CONFIG_KEYS - {"task"}))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return ExperimentConfig(task=task, **values)


def parse_config(path, task: str, overrides: dict | None = None) -> ExperimentConfig:
    """Read a JSON config file; explicit overrides win over file values."""
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise ConfigError("config file must hold a JSON object")
    values.pop("task", None)
    if overrides:
        values.update(overrides)
    return build_config(task, values)


@dataclass
class ExperimentReport:
    task: str
    config: dict
    rows: list[dict]
    runs: dict[str, list[dict]]
    traces: dict[str, list[RunResult]]


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute cfg.runs independent seeded runs per algorithm.

    PSO and EPSO receive the identical seed sequence base_seed..base_seed+runs-1,
    so run i of each algorithm starts from the same initial population.
    """
    rows: list[dict] = []
    run_records: dict[str, list[dict]] = {}
    traces: dict[str, list[RunResult]] = {}

    if cfg.task == "benchmark":
        spec, objective = registry(cfg.function, cfg.dimension, cfg.base_seed)
        for algo in cfg.algorithms():
            results = []
            for i in range(cfg.runs):
                ec = cfg.swarm_config(cfg.dimension, spec.bounds, cfg.base_seed + i)
                results.append(optimize(ec, objective, mode=algo))
            stats = summarize([r.best_fitness for r in results])
            rows.append({
                "function": cfg.function,
                "algorithm": algo,
                "mean": stats.mean,
                "median": stats.median,
                "std": stats.std,
                "best": stats.best,
                "worst": stats.worst,
            })
            run_records[algo] = [
                {"seed": r.seed, "best_fitness": r.best_fitness, "time_sec": r.wall_time}
                for r in results
            ]
            traces[algo] = results
    else:
        data = load_csv(cfg.data_path, label_column=cfg.label_col)
        if cfg.normalize:
            data = normalize_minmax(data)
        wrapper_cfg = WrapperConfig(threshold=cfg.threshold, k_folds=cfg.k_folds)
        bounds = position_bounds(data.n_features)
        cfo = complexity_index(data)
        for algo in cfg.algorithms():
            results = []
            for i in range(cfg.runs):
                ec = cfg.swarm_config(data.n_features, bounds, cfg.base_seed + i)
                results.append(select_features(data, ec, wrapper_cfg, mode=algo))
            accuracies = [r.accuracy for r in results]
            best_i = min(
                range(len(results)),
                key=lambda i: (-results[i].accuracy, results[i].mask.count, i),
            )
            best = results[best_i]
            rows.append({
                "dataset": data.name,
                "cfo": round(cfo),
                "algorithm": algo,
                "features": best.mask.count,
                "accuracy": best.accuracy,
                "std": summarize(accuracies).std,
                "time_sec": float(np.mean([r.wall_time for r in results])),
            })
            run_records[algo] = [
                {
                    "seed": cfg.base_seed + i,
                    "accuracy": r.accuracy,
                    "features": r.mask.count,
                    "time_sec": r.wall_time,
                }
                for i, r in enumerate(results)
            ]
            traces[algo] = [r.run for r in results]

    return ExperimentReport(
        task=cfg.task,
        config=asdict(cfg),
        rows=rows,
        runs=run_records,
        traces=traces,
    )


def emit_report(report: ExperimentReport, fmt: str, out_dir) -> list[Path]:
    """Write report.csv and/or report.json into out_dir; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    fmt = fmt.lower()
    if fmt not in ("csv", "json", "both"):
        raise ConfigError("format must be 'csv', 'json', or 'both'")

    if fmt in ("csv", "both"):
        columns = BENCH_CSV_COLUMNS if report.task == "benchmark" else SELECT_CSV_COLUMNS
        path = out / "report.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in report.rows:
                writer.writerow([row[c] for c in columns])
        written.append(path)

    if fmt in ("json", "both"):
        path = out / "report.json"
        payload = {
            "task": report.task,
            "config": report.config,
            "rows": report.rows,
            "runs": report.runs,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)

    return written


def emit_trace(run: RunResult, path) -> Path:
    """Write one run's convergence curve as CSV: iteration,gbest_fitness."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "gbest_fitness"])
        for it, fit in run.trace:
            writer.writerow([it, fit])
    return path


def emit_traces(report: ExperimentReport, out_dir) -> list[Path]:
    out = Path(out_dir)
    written = []
    for algo, runs in report.traces.items():
        for i, run in enumerate(runs):
            if run is None:
                continue
            written.append(emit_trace(run, out / f"trace_{algo}_run{i:03d}.csv"))
    return written
