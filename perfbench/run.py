"""Benchmark entry point for epso.

    python3 perfbench/run.py --workload bench-d10 --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from --seed (cached under .perfbench_work/),
runs the workload in a fresh worker process through `epso.cli.main`, checks
every run's output, and prints each metric by name and unit. The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 a traced run adds spans around the
calls into each layer and the metrics are the per-layer ones.

The end-to-end times are scaled to a fixed host speed with a monitor that
runs beside the untraced worker (see hostspeed.py); the raw medians are
printed too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0  # a run must end within 180 s


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed: int) -> dict:
    """Machine and software facts recorded with every result."""
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, when numpy bundles OpenBLAS."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_worker(request: dict, timeout: float) -> dict | None:
    """The worker's raw results, or None if it crashed, timed out or
    printed no result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(request)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not end within {timeout:.0f} s", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print("error: worker printed no result line", file=sys.stderr)
        return None


def scaled(seconds: list[float], intervals: list, samples: list) -> list[float] | None:
    """Each time scaled to the reference host speed; None when the monitor
    has too few probes over one of them."""
    factors = [hostspeed.scale(samples, t0, t1) for t0, t1 in intervals]
    if not seconds or None in factors:
        return None
    return [s * f for s, f in zip(seconds, factors)]


def end_to_end(walls: list[float], setups: list[float], raw: dict,
               evals: int) -> dict[str, float]:
    wall = statistics.median(walls)
    setup = statistics.median(setups)
    return {
        "wall_s": wall,
        "setup_s": setup,
        "evals_per_s": evals / (wall - setup),
        "peak_rss_mb": raw["peak_rss_mb"],
        "best_fitness": statistics.median(raw["best_fitness"]) if raw["best_fitness"] else 0.0,
    }


def per_layer(raw: dict) -> dict[str, float]:
    rows = raw["layers"]
    values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    untraced = statistics.median(raw["walls"])
    values["tracing_overhead_share"] = (statistics.median(raw["traced_walls"]) - untraced) / untraced
    return values


def main(argv=None) -> int:
    started = monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "epso" / "__init__.py").is_file():
        print(f"error: no epso sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, dataset_csv

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    spec = load_spec()

    request = {"root": str(ROOT), "work": str(WORK), "workload": wl.name, "seed": args.seed,
               "seconds": args.seconds, "trace": bool(args.trace)}
    if wl.command == "select":
        request["data"] = str(dataset_csv(WORK / "data", wl.shape, args.seed))
    monitor = None if args.trace else hostspeed.HostSpeed(WORK / f"hostspeed_{os.getpid()}.txt")
    try:
        raw = run_worker(request, DEADLINE_S - (monotonic() - started))
    finally:
        samples = monitor.stop() if monitor else []
    if raw is not None and not args.trace:
        walls = scaled(raw["walls"], raw["intervals"], samples)
        setups = scaled(raw["setups"], raw["setup_intervals"], samples)
        if walls is None or setups is None:
            print(f"error: the host-speed monitor left {len(samples)} probes", file=sys.stderr)
            raw = None
    if raw is None:
        # Every run the worker would have made counts as failed.
        runs = wl.runs * 2 * 2  # two invocations, traced or not, each with both algorithms
        print(f"{wl.name} failed_share = 1 ratio ({runs} of {runs} runs)")
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        print(json.dumps({"correct": False, "attempted": runs, "failed": runs, "metrics": {}}))
        return 1

    if args.trace:
        values = per_layer(raw)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = end_to_end(walls, setups, raw, wl.evals_per_invocation())
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    failed_share = raw["failed"] / raw["attempted"]
    env = environment(args.seed)
    for message in raw["messages"]:
        print(f"check failed: {message}")
    for name, m in metrics.items():
        print(f"{wl.name} {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{wl.name} unscaled: wall {statistics.median(raw['walls']):.6g} s, "
              f"setup {statistics.median(raw['setups']):.6g} s, "
              f"mean host speed {len(samples) * hostspeed.REFERENCE_PROBE_S / sum(c for _, c in samples):.4g}"
              f" x reference over {len(samples)} probes")
    print(f"{wl.name} failed_share = {failed_share:.6g} ratio "
          f"({raw['failed']} of {raw['attempted']} runs)")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    record = dict(result, workload=wl.name, trace=args.trace, failed_share=failed_share,
                  env=env, samples={k: raw[k] for k in ("walls", "setups", "traced_walls")
                                    if k in raw})
    if not args.trace:
        record["samples"].update(walls_scaled=walls, setups_scaled=setups)
    out = WORK / "results" / f"{wl.name}_seed{args.seed}_trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
