"""Runs one workload in a fresh process and prints its raw results as one
JSON line: warm-up, timed `epso` invocations through `epso.cli.main`, set-up
samples, and the correctness checks of every run.

Started by run.py with a JSON request as its only argument; one workload per
process, so the process's peak RSS belongs to that workload.
"""

from __future__ import annotations

import io
import json
import resource
import shutil
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from hostspeed import now
from spans import Tracer, interpose, layer_metrics, write_spans
from workloads import K_FOLDS, THRESHOLD, WORKLOADS

ALGORITHMS = ("pso", "epso")


@dataclass
class Invocation:
    """One `epso` command run in-process, with the report it built."""

    seed: int
    wall: float
    interval: tuple[float, float]  # CLOCK_MONOTONIC start and end, for hostspeed.scale
    code: int | None
    report: object
    out_dir: Path
    error: str | None = None


def invoke(cli, seed, argv, out_dir: Path, tracer: Tracer | None = None) -> Invocation:
    """Time epso.cli.main(argv); keep the ExperimentReport run_experiment returns."""
    shutil.rmtree(out_dir, ignore_errors=True)
    original = cli.run_experiment
    captured = []

    def capture(cfg):
        captured.append(original(cfg))
        return captured[-1]

    cli.run_experiment = capture
    code, error = None, None
    try:
        with redirect_stdout(io.StringIO()):
            start = now()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer.span("cli.main"):
                        code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - a crash counts as failed runs
                error = repr(exc)
            interval = (start, now())
    finally:
        cli.run_experiment = original
    return Invocation(seed, interval[1] - interval[0], interval, code,
                      captured[0] if captured else None, out_dir, error)


class Checker:
    """Correctness checks for the invocations of one workload."""

    def __init__(self, wl, data_path: Path | None):
        self.wl, self.data_path = wl, data_path
        self.data = None
        self._select_cache: dict = {}

    def load(self) -> None:
        """The dataset as the CLI prepares it, for the select checks."""
        from epso.datasets import load_csv, normalize_minmax

        self.data = normalize_minmax(load_csv(self.data_path))

    def _bench_run(self, run, seed):
        from epso.benchmarks import registry

        spec, objective = registry(self.wl.function, self.wl.dimension, seed)
        return checks.check_bench_run(run, spec, objective, self.wl.iterations)

    def _select_run(self, run, record):
        from epso.datasets import stratified_folds
        from epso.feature_selection import WrapperConfig, wrapper_objective

        key = (run.seed, run.best_fitness, np.asarray(run.best_position).tobytes(),
               record["accuracy"], record["features"])
        if key not in self._select_cache:
            cfg = WrapperConfig(threshold=THRESHOLD, k_folds=K_FOLDS)
            folds = stratified_folds(self.data, cfg.k_folds, run.seed)
            objective = wrapper_objective(self.data, cfg, seed=run.seed)
            self._select_cache[key] = checks.check_select_run(
                run, self.data, objective, folds, cfg.threshold, self.wl.iterations,
                record["accuracy"], record["features"])
        return self._select_cache[key]

    def check(self, inv: Invocation) -> tuple[int, list[str], list[tuple]]:
        """(failed run count, messages, (seed, algorithm, best_fitness) list)."""
        runs_each = self.wl.runs
        expected = runs_each * len(ALGORITHMS)
        if inv.code != 0 or inv.report is None:
            return expected, [f"invocation exited with {inv.code}, error {inv.error}"], []
        task = "benchmark" if self.wl.command == "bench" else "feature-selection"
        try:
            rows, payload = checks.read_report(inv.out_dir, task)
        except (OSError, ValueError, KeyError) as exc:
            return expected, [f"report files: {exc}"], []
        failed, messages, fingerprint = 0, [], []
        for algo in ALGORITHMS:
            runs = inv.report.traces.get(algo, [])
            records = payload["runs"].get(algo, [])
            if len(runs) != runs_each or len(records) != runs_each:
                failed += runs_each
                messages.append(f"{algo}: expected {runs_each} runs")
                continue
            for i, (run, record) in enumerate(zip(runs, records)):
                errors = []
                if run.seed != inv.seed + i or record["seed"] != inv.seed + i:
                    errors.append(f"run {i} has seed {run.seed}, expected {inv.seed + i}")
                if self.wl.command == "bench":
                    errors += self._bench_run(run, inv.seed)
                    if record["best_fitness"] != run.best_fitness:
                        errors.append("report.json best_fitness differs from the run")
                    if self.wl.trace_files:
                        errors += checks.check_trace_file(
                            inv.out_dir / f"trace_{algo}_run{i:03d}.csv", run)
                else:
                    errors += self._select_run(run, record)
                if errors:
                    failed += 1
                    messages += [f"{algo} run {i}: {e}" for e in errors]
                fingerprint.append((run.seed, algo, run.best_fitness))
            row = {r["algorithm"]: r for r in rows}.get(algo, {})
            if self.wl.command == "bench":
                best, column = min(r.best_fitness for r in runs), "best"
            else:
                best, column = max(r["accuracy"] for r in records), "accuracy"
            if row.get(column) != repr(best):
                failed += runs_each
                messages.append(f"{algo}: report row does not hold the best run ({best!r})")
        return min(failed, expected), messages, fingerprint


def check_all(checker: Checker, invocations: list[Invocation]) -> dict:
    per_invocation = checker.wl.runs * len(ALGORITHMS)
    attempted = failed = 0
    messages, fingerprints = [], []
    for inv in invocations:
        f, m, fp = checker.check(inv)
        attempted += per_invocation
        failed += f
        messages += m
        fingerprints.append(fp)
    best = []
    for seed in dict.fromkeys(inv.seed for inv in invocations):
        prints = [fp for inv, fp in zip(invocations, fingerprints) if inv.seed == seed and fp]
        for _ in checks.check_determinism(prints):
            failed += per_invocation
            messages.append(f"seed {seed}: a repetition gave other best_fitness values")
        if prints:
            best += [v for _, _, v in prints[0]]
    return {
        "attempted": attempted,
        "failed": min(failed, attempted),
        "messages": messages[:20],
        "best_fitness": best,
    }


def warm_up(cli, wl, seed, work: Path, data: Path | None):
    """Untimed: a short bench invocation for imports and first-call paths,
    or one select set-up and a few mask evaluations, so the page cache, the
    heap and the BLAS threads are warm before the first timed sample (a cold
    first load read ~10% slower). Returns the select dataset."""
    if wl.command == "select":
        _, _, d = setup_once(wl, seed, data)
        warm_objective(wl, d)
        return d
    out = work / "out" / wl.name / "warmup"
    invoke(cli, seed, wl.argv(seed, out, iterations=20), out)
    return None


def warm_objective(wl, data, evaluations: int = 10) -> None:
    """Score a few random masks on the full-size data, untimed, so the first
    timed invocation does not pay for first-use allocations."""
    from epso.feature_selection import WrapperConfig, wrapper_objective

    objective = wrapper_objective(data, WrapperConfig(THRESHOLD, k_folds=K_FOLDS))
    rng = np.random.default_rng(0)
    for _ in range(evaluations):
        objective(rng.uniform(-1.0, 1.0, data.n_features))


def setup_once(wl, seed: int, data: Path | None):
    """One-off preparation before the search, timed: the registry build for
    bench, load + normalize + fold assignment for select. Returns the
    seconds, their CLOCK_MONOTONIC interval and, for select, the prepared
    dataset."""
    if wl.command == "bench":
        from epso.benchmarks import registry

        start = now()
        registry(wl.function, wl.dimension, seed)
        end = now()
        return end - start, (start, end), None
    from epso.datasets import load_csv, normalize_minmax, stratified_folds

    start = now()
    d = normalize_minmax(load_csv(data))
    stratified_folds(d, K_FOLDS, seed)
    end = now()
    return end - start, (start, end), d


def main() -> int:
    req = json.loads(sys.argv[1])
    root, work = Path(req["root"]), Path(req["work"])
    sys.path.insert(0, str(root / "src"))
    import epso
    from epso import cli

    if Path(epso.__file__).resolve().parent != (root / "src" / "epso").resolve():
        print(f"epso imported from {epso.__file__}, not from the checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[req["workload"]]
    seed, seconds, traced = req["seed"], req["seconds"], req["trace"]
    data = Path(req["data"]) if req.get("data") else None

    checker = Checker(wl, data)
    warmed = warm_up(cli, wl, seed, work, data)
    if traced:
        checker.data = warmed  # kept for the checks; a traced run does not report peak RSS
    del warmed
    setups, setup_intervals = [], []

    def take_setup():
        for _ in range(wl.setup_samples):
            seconds_taken, interval, checker.data = setup_once(wl, seed, data)
            setups.append(seconds_taken)
            setup_intervals.append(interval)

    out = work / "out" / wl.name

    def run_rep(tracer=None):
        rep_dir = out / f"rep{len(plain) + len(traced_runs)}"
        return invoke(cli, seed, wl.argv(seed, rep_dir, data=data), rep_dir, tracer)

    plain, traced_runs, layer_rows, tracers = [], [], [], []
    deadline = perf_counter() + seconds
    while True:
        if not traced:
            # Interleaved, so host speed drift reaches both alike.
            take_setup()
            checker.data = None
        plain.append(run_rep())
        if traced:
            tracer, masks = Tracer(), []
            with interpose(tracer, masks):
                inv = run_rep(tracer)
            traced_runs.append(inv)
            tracers.append(tracer)
            layer_rows.append(layer_metrics(tracer, masks))
        # Untraced, at least two, so determinism has a pair to compare.
        enough = len(plain) >= (1 if traced else 2)
        if enough and perf_counter() >= deadline:
            break

    # ru_maxrss is in KiB on Linux; read it before anything else is loaded.
    result = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
              "walls": [inv.wall for inv in plain],
              "intervals": [inv.interval for inv in plain]}
    if not traced:
        take_setup()  # after the last invocation too; for select its dataset serves the checks
    if traced:
        result["traced_walls"] = [inv.wall for inv in traced_runs]
        result["layers"] = layer_rows
        write_spans(work / "spans" / f"{wl.name}.jsonl", tracers)
    else:
        result["setups"] = setups
        result["setup_intervals"] = setup_intervals
    if wl.command == "select" and checker.data is None:
        checker.load()
    result.update(check_all(checker, plain + traced_runs))
    if traced:
        messages = span_checks(wl, tracers, layer_rows)
        result["failed"] = min(result["attempted"],
                               result["failed"] + len(messages) * wl.runs * len(ALGORITHMS))
        result["messages"] += messages
    print(json.dumps(result))
    return 0


def span_checks(wl, tracers, layer_rows) -> list[str]:
    """One message per traced invocation that misses a layer call the CLI
    chain makes: the chain no longer passes through the wrappers."""
    evals = wl.evals_per_invocation()
    key = "benchmarks.evals" if wl.command == "bench" else "feature_selection.evals"
    needed = ["cli.main", "swarm.optimize", "harness.emit_report"]
    needed += ["benchmarks.registry"] if wl.command == "bench" else [
        "datasets.load_csv", "datasets.normalize_minmax", "datasets.stratified_folds"]
    messages = []
    for k, (tracer, row) in enumerate(zip(tracers, layer_rows)):
        missing = sorted(set(needed) - {s[0] for s in tracer.spans})
        if missing or row[key] != evals:
            messages.append(f"traced rep {k}: spans missing {missing}, "
                            f"{row[key]:.0f} evaluations of {evals}")
    return messages


if __name__ == "__main__":
    sys.exit(main())
