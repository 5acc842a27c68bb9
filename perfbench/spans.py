"""In-memory spans around the calls the `epso` CLI chain makes into each layer.

The traced run swaps the module attributes that the CLI chain looks up
(`epso.harness.registry`, `epso.feature_selection.optimize`, ...) for timing
wrappers, runs `epso.cli.main` unchanged, and restores the originals. Every
objective handed to `optimize` is wrapped in a timing callable, so the swarm's
self time is the `optimize` span minus its evaluation spans. Spans are kept
in memory and written out when the run ends; per-layer numbers are self times
computed from them.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    """Spans as [name, start, end, parent] rows; the row index is the span id."""

    def __init__(self):
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the caller may fill the yielded dict with attributes."""
        sid = len(self.spans)
        row = [name, perf_counter(), None, self._stack[-1] if self._stack else None]
        self.spans.append(row)
        self._stack.append(sid)
        attrs: dict = {}
        try:
            yield attrs
        finally:
            self._stack.pop()
            row[2] = perf_counter()
            if attrs:
                self.attrs[sid] = attrs

    def timed_objective(self, name: str, objective, on_call=None):
        """Wrap an objective so each call becomes a child span of the caller."""
        spans, stack = self.spans, self._stack

        def timed(position):
            t0 = perf_counter()
            value = objective(position)
            t1 = perf_counter()
            spans.append([name, t0, t1, stack[-1]])
            if on_call is not None:
                on_call(position)
                spans.append(["tracing.bookkeeping", t1, perf_counter(), stack[-1]])
            return value

        return timed

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own


class MaskLog:
    """Per-evaluation feature-mask statistics for the wrapper objective."""

    def __init__(self, n_features: int, population: int, threshold: float):
        self.population = population
        self.threshold = threshold
        self.small = max(1, n_features // 100)  # a "small" step flips <= 1% of features
        self.selected: list[int] = []
        self.flips: list[int] = []
        self.repeats = 0
        self._seen: set[bytes] = set()
        self._previous: dict[int, np.ndarray] = {}
        self._calls = 0

    def __call__(self, position) -> None:
        mask = np.asarray(position) > self.threshold
        particle = self._calls % self.population
        self._calls += 1
        key = np.packbits(mask).tobytes()
        self.repeats += key in self._seen
        self._seen.add(key)
        self.selected.append(int(mask.sum()))
        prev = self._previous.get(particle)
        if prev is not None:
            self.flips.append(int(np.count_nonzero(prev != mask)))
        self._previous[particle] = mask


@contextmanager
def interpose(tracer: Tracer, masks: list):
    """Swap the CLI chain's layer entry points for span-recording wrappers.

    `masks` receives one MaskLog per feature-selection `optimize` call.
    """
    wrapper_cfg: dict = {}

    def spanned(name, fn, attrs_of=None):
        def wrapper(*args, **kwargs):
            with tracer.span(name) as attrs:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs.update(attrs_of(args, result))
            return result
        return wrapper

    def optimize_wrapper(fn, eval_name, mask_log):
        def wrapper(config, objective, mode="epso"):
            on_call = None
            if mask_log:
                on_call = MaskLog(config.dimension, config.population_size,
                                  wrapper_cfg["threshold"])
                masks.append(on_call)
            with tracer.span("swarm.optimize") as attrs:
                result = fn(config, tracer.timed_objective(eval_name, objective, on_call), mode)
                attrs.update(mode=mode, seed=int(config.seed),
                             population=config.population_size,
                             iterations=config.max_iterations,
                             trace=[float(v) for _, v in result.trace])
            return result
        return wrapper

    def wrapper_objective_attrs(args, result):
        data, cfg = args[0], args[1]
        wrapper_cfg["threshold"] = cfg.threshold
        return {"n_samples": int(data.n_samples), "n_features": int(data.n_features)}

    def written_bytes(args, paths):
        return {"bytes": sum(Path(p).stat().st_size for p in paths)}

    def csv_bytes(args, result):
        return {"bytes": Path(args[0]).stat().st_size}

    patches = [
        ("epso.harness", "registry", lambda f: spanned("benchmarks.registry", f)),
        ("epso.harness", "optimize", lambda f: optimize_wrapper(f, "benchmarks.objective", False)),
        ("epso.harness", "load_csv", lambda f: spanned("datasets.load_csv", f, csv_bytes)),
        ("epso.harness", "normalize_minmax", lambda f: spanned("datasets.normalize_minmax", f)),
        ("epso.feature_selection", "stratified_folds",
         lambda f: spanned("datasets.stratified_folds", f)),
        ("epso.feature_selection", "wrapper_objective",
         lambda f: spanned("feature_selection.wrapper_objective", f, wrapper_objective_attrs)),
        ("epso.feature_selection", "optimize",
         lambda f: optimize_wrapper(f, "feature_selection.objective", True)),
        ("epso.cli", "emit_report", lambda f: spanned("harness.emit_report", f, written_bytes)),
        ("epso.cli", "emit_traces", lambda f: spanned("harness.emit_traces", f, written_bytes)),
    ]
    saved = []
    try:
        for module_name, attr, make in patches:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)  # AttributeError: the chain was refactored
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """One JSON line per span; `rep` numbers the traced invocation."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rep, tracer in enumerate(tracers):
            for sid, (name, start, end, parent) in enumerate(tracer.spans):
                rec = {"rep": rep, "id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "attrs": tracer.attrs.get(sid, {})}
                fh.write(json.dumps(rec) + "\n")


def _diverge_iter(traces_by_mode: dict) -> float:
    """Median over seeds of the first iteration where the paired PSO and
    EPSO traces differ; T+1 when they never do."""
    firsts = []
    for seed, pso in traces_by_mode.get("pso", {}).items():
        epso = traces_by_mode.get("epso", {}).get(seed)
        if epso is None:
            continue
        diff = [i for i, (a, b) in enumerate(zip(pso, epso)) if a != b]
        firsts.append(diff[0] if diff else len(pso))
    return float(np.median(firsts)) if firsts else 0.0


def layer_metrics(tracer: Tracer, masks: list) -> dict[str, float]:
    """Per-layer numbers of one traced invocation, from span self times."""
    own = tracer.self_times()
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    attrs_of: dict[str, list[dict]] = {}
    for sid, (name, start, end, _) in enumerate(tracer.spans):
        self_s[name] = self_s.get(name, 0.0) + own[sid]
        durations.setdefault(name, []).append(end - start)
        attrs_of.setdefault(name, []).append(tracer.attrs.get(sid, {}))

    def total(name):
        return float(sum(durations.get(name, [])))

    def pct(name, q, scale):
        d = durations.get(name)
        return float(np.percentile(d, q)) * scale if d else 0.0

    optimize_s = total("swarm.optimize")
    update_s = self_s.get("swarm.optimize", 0.0)
    steps = sum(a["population"] * a["iterations"] for a in attrs_of.get("swarm.optimize", []))
    traces: dict[str, dict] = {}
    for a in attrs_of.get("swarm.optimize", []):
        traces.setdefault(a["mode"], {})[a["seed"]] = a["trace"]

    n_samples = [a["n_samples"] for a in attrs_of.get("feature_selection.wrapper_objective", [])]
    n = n_samples[0] if n_samples else 0
    selected = [s for m in masks for s in m.selected]
    flips = [f for m in masks for f in m.flips]
    small = [f <= m.small for m in masks for f in m.flips]
    load_s = self_s.get("datasets.load_csv", 0.0)
    load_bytes = sum(a["bytes"] for a in attrs_of.get("datasets.load_csv", []))
    written = sum(a["bytes"] for name in ("harness.emit_report", "harness.emit_traces")
                  for a in attrs_of.get(name, []))
    return {
        "swarm.optimize_s": optimize_s,
        "swarm.update_s": update_s,
        "swarm.update_us_per_particle_step": update_s / steps * 1e6 if steps else 0.0,
        "swarm.update_share": update_s / optimize_s if optimize_s else 0.0,
        "swarm.diverge_iter": _diverge_iter(traces),
        "benchmarks.build_s": self_s.get("benchmarks.registry", 0.0),
        "benchmarks.evals": float(len(durations.get("benchmarks.objective", []))),
        "benchmarks.eval_s": total("benchmarks.objective"),
        "benchmarks.eval_us_p50": pct("benchmarks.objective", 50, 1e6),
        "benchmarks.eval_us_p99": pct("benchmarks.objective", 99, 1e6),
        "feature_selection.evals": float(len(durations.get("feature_selection.objective", []))),
        "feature_selection.eval_s": total("feature_selection.objective"),
        "feature_selection.eval_ms_p50": pct("feature_selection.objective", 50, 1e3),
        "feature_selection.eval_ms_p95": pct("feature_selection.objective", 95, 1e3),
        "feature_selection.selected_mean": float(np.mean(selected)) if selected else 0.0,
        "feature_selection.gflop_computed": sum(2.0 * n * n * s for s in selected) / 1e9,
        "feature_selection.gather_mb_computed": sum(8.0 * n * s for s in selected) / 1e6,
        "feature_selection.bits_flipped_mean": float(np.mean(flips)) if flips else 0.0,
        "feature_selection.small_flip_share": float(np.mean(small)) if small else 0.0,
        "feature_selection.repeat_mask_share":
            sum(m.repeats for m in masks) / len(selected) if selected else 0.0,
        "datasets.load_s": load_s,
        "datasets.normalize_s": self_s.get("datasets.normalize_minmax", 0.0),
        "datasets.folds_s": self_s.get("datasets.stratified_folds", 0.0),
        "datasets.load_mb_per_s": load_bytes / 1e6 / load_s if load_s else 0.0,
        "harness.emit_report_s": self_s.get("harness.emit_report", 0.0),
        "harness.emit_traces_s": self_s.get("harness.emit_traces", 0.0),
        "harness.bytes_written": float(written),
    }
