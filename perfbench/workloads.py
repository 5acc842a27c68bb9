"""Workload definitions and seeded input generation for the epso benchmark.

Each workload is one `epso bench` or `epso select` command line. The seed
argument picks the registry instance, the synthetic dataset and `--seed`;
the program only ever sees the generated inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Number of synthetic CSVs kept in the cache; each wide one is ~91 MB.
CACHE_KEEP = 4
THRESHOLD = 0.5    # --threshold of the select workload
K_FOLDS = 10       # --folds of the select workload


@dataclass(frozen=True)
class Workload:
    name: str
    command: str              # "bench" or "select"
    population: int
    iterations: int
    function: str = ""        # bench only
    dimension: int = 0        # bench only
    trace_files: bool = False  # pass --trace so the harness writes per-run traces
    shape: tuple[int, int, int, int] = (0, 0, 0, 0)  # select only: n, features, informative, classes
    setup_samples: int = 40   # set-up repetitions before each timed invocation and after the last
    runs: int = 1             # --runs: seeded runs per algorithm in one invocation

    def evals_per_invocation(self) -> int:
        """Objective evaluations of one invocation: P*(T+1) per run per algorithm."""
        return self.population * (self.iterations + 1) * self.runs * 2

    def argv(self, seed: int, out_dir: Path, data: Path | None = None,
             iterations: int | None = None) -> list[str]:
        t = self.iterations if iterations is None else iterations
        common = [
            "--population", str(self.population), "--iterations", str(t),
            "--runs", str(self.runs), "--algo", "both", "--seed", str(seed),
            "--out", str(out_dir),
        ]
        if self.trace_files:
            common.append("--trace")
        if self.command == "bench":
            return ["bench", "--function", self.function, "--dim", str(self.dimension)] + common
        return ["select", "--data", str(data), "--threshold", str(THRESHOLD),
                "--folds", str(K_FOLDS)] + common


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bench-d10", "bench", population=50, iterations=1000,
                 function="rastrigin_shifted_rotated", dimension=10, trace_files=True),
        # Each set-up sample loads the ~91 MB CSV, so one per invocation.
        # A mask's cost grows faster than its size. Over 12 iterations two
        # seeds' searches averaged 2,850 and 4,000 features, at 44 and 100 ms
        # per evaluation; over 4 they stay within 2,500-3,000. So runs are
        # short, and three seeds share each invocation.
        Workload("select-wide", "select", population=10, iterations=4,
                 shape=(308, 15010, 20, 26), setup_samples=1, runs=3),
    )
}


def synth_features(n_samples: int, n_features: int, n_informative: int,
                   class_count: int, seed: int, separation: float = 4.0):
    """Same recipe and draws as epso.datasets.synth_dataset, kept here so the
    benchmark inputs do not move when the program changes."""
    rng = np.random.default_rng(seed)
    informative = np.sort(rng.choice(n_features, size=n_informative, replace=False))
    labels = rng.permutation(np.arange(n_samples) % class_count)
    x = rng.standard_normal((n_samples, n_features))
    if n_informative:
        x[:, informative] += separation * labels[:, None]
    return x, labels


def write_csv(path: Path, x: np.ndarray, labels: np.ndarray) -> None:
    """Header row, then shortest round-trip floats with the label last."""
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([f"f{i}" for i in range(x.shape[1])] + ["label"]) + "\n")
        for row, lab in zip(x.tolist(), labels.tolist()):
            fh.write(",".join(map(repr, row)) + f",{lab}\n")
    os.replace(tmp, path)


def dataset_csv(data_dir: Path, shape: tuple[int, int, int, int], seed: int) -> Path:
    """Path of the CSV for (shape, seed), generating it on a cache miss.

    Only the CACHE_KEEP most recently used CSVs stay on disk.
    """
    n, f, inf, c = shape
    data_dir.mkdir(parents=True, exist_ok=True)
    path = data_dir / f"synth_{n}x{f}_i{inf}_c{c}_s{seed}.csv"
    if path.exists():
        path.touch()
    else:
        write_csv(path, *synth_features(n, f, inf, c, seed))
    cached = sorted(data_dir.glob("synth_*.csv"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in cached[CACHE_KEEP:]:
        old.unlink()
    return path
