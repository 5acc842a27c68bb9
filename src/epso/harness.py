"""Experiment orchestration: validated run configurations, repeated seeded
runs, five-number summaries, and CSV/JSON reports plus convergence traces.
"""

from __future__ import annotations

import csv
import json
import numbers
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import feature_selection
from .benchmarks import registry
from .datasets import complexity_index, load_csv, normalize_minmax
from .errors import ConfigError, ContractError, check_field_types
from .feature_selection import WrapperConfig, position_bounds, select_features
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


# EpsoConfig's keywords and defaults, less the three that each run sets
SWARM_DEFAULTS = {
    f.name: f.default for f in fields(EpsoConfig)
    if f.name not in ("dimension", "bounds", "seed")
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved experiment; run i always uses seed base_seed + i.

    swarm holds EpsoConfig keywords (SWARM_DEFAULTS keys only); the missing
    ones take EpsoConfig's defaults, and EpsoConfig checks the values.
    """

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
    swarm: dict = field(default_factory=dict)

    def __post_init__(self):
        check_field_types(self)
        unknown = sorted(str(k) for k in self.swarm if k not in SWARM_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if self.runs < 1:
            raise ConfigError("runs must be at least 1")
        object.__setattr__(self, "swarm", {**SWARM_DEFAULTS, **self.swarm})
        if self.task == "benchmark":
            if not self.function:
                raise ConfigError("benchmark task requires 'function'")
            dimension = self.dimension
        else:
            if not self.data_path:
                raise ConfigError("feature-selection task requires 'data_path'")
            WrapperConfig(threshold=self.threshold, k_folds=self.k_folds)
            # the dataset's width is known only once it is loaded: check at the
            # least width that m_min allows, so only m_min > width waits for it
            m_min = self.swarm["m_min"]
            dimension = max(int(m_min), 1) if isinstance(m_min, numbers.Integral) else 1
        self.swarm_config(dimension, (0.0, 1.0), self.base_seed)  # fails before any run

    def swarm_config(self, dimension: int, bounds, seed: int) -> EpsoConfig:
        """EpsoConfig(dimension, bounds, seed, **swarm) for one run.

        An m_max above the dimension is capped at it, so one config serves
        datasets of any width.
        """
        m_max = self.swarm["m_max"]
        if isinstance(m_max, numbers.Integral) and m_max > dimension:
            m_max = dimension
        return EpsoConfig(dimension=dimension, bounds=bounds, seed=seed,
                          **{**self.swarm, "m_max": m_max})

    def algorithms(self) -> list[str]:
        return ["pso", "epso"] if self.algorithm == "both" else [self.algorithm]


_EXPERIMENT_KEYS = {f.name for f in fields(ExperimentConfig)} - {"task", "swarm"}


def build_config(task: str, values: dict) -> ExperimentConfig:
    """Build a validated config from a flat mapping, rejecting unknown keys.

    The experiment keys are fields; every other key goes to the swarm block.
    """
    swarm = {k: v for k, v in values.items() if k not in _EXPERIMENT_KEYS}
    experiment = {k: v for k, v in values.items() if k in _EXPERIMENT_KEYS}
    return ExperimentConfig(task=task, swarm=swarm, **experiment)


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


def _benchmark_setup(cfg: ExperimentConfig):
    """The registry function's dimension and bounds, the seeded runs of
    several algorithms giving one (RunResult, run record) each, and the
    summary row of an algorithm's records."""
    spec, objective = registry(cfg.function, cfg.dimension, cfg.base_seed)

    def run(ec: EpsoConfig, algos: list[str]):
        runs = [optimize(ec, objective, mode=algo) for algo in algos]
        return [(r, {"seed": r.seed, "best_fitness": r.best_fitness, "time_sec": r.wall_time})
                for r in runs]

    def row(algo: str, records: list[dict]) -> dict:
        stats = summarize([r["best_fitness"] for r in records])
        return {"function": cfg.function, "algorithm": algo, **asdict(stats)}

    return cfg.dimension, spec.bounds, run, row


def _selection_setup(cfg: ExperimentConfig):
    """As _benchmark_setup, for wrapper selection on the loaded dataset."""
    data = load_csv(cfg.data_path, label_column=cfg.label_col)
    if cfg.normalize:
        data = normalize_minmax(data)
    wrapper_cfg = WrapperConfig(threshold=cfg.threshold, k_folds=cfg.k_folds)

    def run(ec: EpsoConfig, algos: list[str]):
        # the seed's runs share one objective, so each mask is scored once;
        # it is dropped on return, so at most one memo is alive
        objective = feature_selection.wrapper_objective(data, wrapper_cfg, ec.seed)
        runs = [select_features(data, ec, wrapper_cfg, mode=algo, objective=objective)
                for algo in algos]
        return [(r.run, {"seed": ec.seed, "accuracy": r.accuracy, "features": int(r.mask.sum()),
                         "time_sec": r.wall_time}) for r in runs]

    def row(algo: str, records: list[dict]) -> dict:
        # the best run: highest accuracy, then fewest features, then the first
        best = min(records, key=lambda r: (-r["accuracy"], r["features"]))
        return {
            "dataset": data.name, "cfo": round(complexity_index(data)), "algorithm": algo,
            "features": best["features"], "accuracy": best["accuracy"],
            "std": summarize([r["accuracy"] for r in records]).std,
            "time_sec": float(np.mean([r["time_sec"] for r in records])),
        }

    return data.n_features, position_bounds(data.n_features), run, row


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute cfg.runs independent seeded runs per algorithm.

    PSO and EPSO receive the identical seed sequence base_seed..base_seed+runs-1,
    so run i of each algorithm starts from the same initial population. The
    runs go seed by seed, each seed's algorithms back to back. Only the setup
    depends on the task; each row summarizes its algorithm's records.
    """
    setup = _benchmark_setup if cfg.task == "benchmark" else _selection_setup
    dimension, bounds, run, row = setup(cfg)
    algos = cfg.algorithms()
    results: dict[str, list] = {algo: [] for algo in algos}
    for seed in range(cfg.base_seed, cfg.base_seed + cfg.runs):
        for algo, result in zip(algos, run(cfg.swarm_config(dimension, bounds, seed), algos)):
            results[algo].append(result)
    traces = {algo: [r for r, _ in results[algo]] for algo in algos}
    run_records = {algo: [record for _, record in results[algo]] for algo in algos}
    rows = [row(algo, run_records[algo]) for algo in algos]

    config = asdict(cfg)
    config.update(config.pop("swarm"))
    return ExperimentReport(task=cfg.task, config=config, rows=rows, runs=run_records,
                            traces=traces)


def emit_report(report: ExperimentReport, out_dir) -> list[Path]:
    """Write report.csv and report.json into out_dir; returns both paths.

    Each is written under a temporary name, and both are then renamed into
    place. On any failure the files this call made, temporary or renamed,
    are deleted before the error propagates, so out_dir never holds one
    fresh report file without its partner."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns = BENCH_CSV_COLUMNS if report.task == "benchmark" else SELECT_CSV_COLUMNS
    payload = {
        "task": report.task,
        "config": report.config,
        "rows": report.rows,
        "runs": report.runs,
    }
    paths = [out / "report.csv", out / "report.json"]
    temps = [path.with_name(path.name + ".tmp") for path in paths]
    made: list[Path] = []
    try:
        with open(temps[0], "w", newline="", encoding="utf-8") as fh:
            made.append(temps[0])
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in report.rows:
                writer.writerow([row[c] for c in columns])
        with open(temps[1], "w", encoding="utf-8") as fh:
            made.append(temps[1])
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for i, (temp, path) in enumerate(zip(temps, paths)):
            temp.replace(path)
            made[i] = path
    except BaseException:
        for path in made:
            path.unlink(missing_ok=True)
        raise
    return paths


def emit_trace(run: RunResult, path) -> Path:
    """Write one run's convergence curve as CSV: iteration,gbest_fitness.

    One write of the bytes csv.writer gives: CRLF line ends, each value as its repr.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = "".join(f"{it},{fit!r}\r\n" for it, fit in run.trace)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("iteration,gbest_fitness\r\n" + rows)
    return path


def emit_traces(report: ExperimentReport, out_dir) -> list[Path]:
    out = Path(out_dir)
    written = []
    for algo, runs in report.traces.items():
        for i, run in enumerate(runs):
            written.append(emit_trace(run, out / f"trace_{algo}_run{i:03d}.csv"))
    return written
