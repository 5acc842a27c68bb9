import csv
import gc
import io
import json
import math
import re
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from epso import ConfigError, ContractError, UnknownFunctionError, summarize, synth_dataset
from epso.benchmarks import available_functions
from epso.datasets import save_csv
from epso.harness import (
    BENCH_CSV_COLUMNS,
    SELECT_CSV_COLUMNS,
    SWARM_DEFAULTS,
    ExperimentConfig,
    build_config,
    emit_report,
    emit_trace,
    parse_config,
    run_experiment,
)
from epso import cli, feature_selection, harness
from epso.cli import main
from epso.swarm import EpsoConfig, RunResult, Trace, optimize


# ---------------------------------------------------------------------------
# summary statistics
# ---------------------------------------------------------------------------

def test_summarize_hand_case():
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s.mean == 3.0
    assert s.median == 3.0
    assert s.best == 1.0
    assert s.worst == 5.0
    assert s.std == pytest.approx(math.sqrt(2.5), abs=1e-12)


def test_summarize_against_two_pass_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=rng.integers(2, 40)).tolist()
        s = summarize(v)
        mean = sum(v) / len(v)
        var = sum((x - mean) ** 2 for x in v) / (len(v) - 1)
        assert s.mean == pytest.approx(mean)
        assert s.std == pytest.approx(math.sqrt(var))
        assert s.best == min(v) and s.worst == max(v)


def test_summarize_single_value_and_empty():
    s = summarize([7.0])
    assert s == summarize([7.0])
    assert (s.mean, s.median, s.std, s.best, s.worst) == (7.0, 7.0, 0.0, 7.0, 7.0)
    with pytest.raises(ContractError):
        summarize([])


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_build_config_unknown_key_is_named():
    with pytest.raises(ConfigError, match="populaton"):
        build_config("benchmark", {"function": "hybrid_1", "populaton": 30})


@pytest.mark.parametrize("key", ["bogus", "dimension"])
def test_experiment_config_names_unknown_swarm_keys(key):
    # dimension is an experiment key, and each run sets the swarm's own
    with pytest.raises(ConfigError, match=f"^unknown config key\\(s\\): {key}$"):
        ExperimentConfig(task="benchmark", function="hybrid_1", swarm={key: 1})


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(task="benchmark")  # missing function
    with pytest.raises(ConfigError):
        ExperimentConfig(task="feature-selection")  # missing data_path
    with pytest.raises(ConfigError):
        ExperimentConfig(task="nope", function="hybrid_1")
    with pytest.raises(ConfigError):
        ExperimentConfig(task="benchmark", function="hybrid_1", runs=0)
    with pytest.raises(ConfigError):
        build_config("benchmark", {"function": "hybrid_1", "g_pini": 0.5, "g_pfine": 0.9})


def test_parse_config_overrides_win(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"function": "hybrid_1", "runs": 9, "dimension": 4}))
    cfg = parse_config(p, "benchmark", {"runs": 2})
    assert cfg.runs == 2 and cfg.dimension == 4 and cfg.function == "hybrid_1"


def test_parse_config_bad_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(p, "benchmark")
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "missing.json", "benchmark")


def test_swarm_config_caps_mutation_span():
    cfg = build_config("benchmark", {"function": "hybrid_1", "m_max": 50})
    ec = cfg.swarm_config(4, [-1.0, 1.0], seed=0)
    assert ec.m_max == 4


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def bench_cfg(**kw):
    kw.setdefault("function", "rastrigin_shifted_rotated")
    kw.setdefault("dimension", 4)
    kw.setdefault("runs", 3)
    kw.setdefault("population_size", 8)
    kw.setdefault("max_iterations", 5)
    return build_config("benchmark", kw)


def test_benchmark_experiment_shape_and_seeds():
    report = run_experiment(bench_cfg(base_seed=10))
    assert [r["algorithm"] for r in report.rows] == ["pso", "epso"]
    for algo in ("pso", "epso"):
        assert [r["seed"] for r in report.runs[algo]] == [10, 11, 12]
    row = report.rows[0]
    stats = summarize([r["best_fitness"] for r in report.runs["pso"]])
    assert row["mean"] == stats.mean and row["std"] == stats.std
    assert row["best"] <= row["median"] <= row["worst"]


def test_benchmark_experiment_deterministic():
    a = run_experiment(bench_cfg())
    b = run_experiment(bench_cfg())
    assert a.rows == b.rows


def test_single_run_summary_collapses():
    report = run_experiment(bench_cfg(runs=1, algorithm="epso"))
    row = report.rows[0]
    assert row["std"] == 0.0
    assert row["mean"] == row["median"] == row["best"] == row["worst"]


def select_cfg(tmp_path, **kw):
    d = synth_dataset(24, 6, 2, seed=1)
    path = tmp_path / "data.csv"
    save_csv(d, path)
    kw.setdefault("runs", 2)
    kw.setdefault("population_size", 6)
    kw.setdefault("max_iterations", 4)
    kw.setdefault("k_folds", 3)
    return build_config("feature-selection", {"data_path": str(path), **kw})


def test_selection_experiment_rows(tmp_path):
    report = run_experiment(select_cfg(tmp_path))
    assert len(report.rows) == 2
    for row in report.rows:
        assert set(row) == set(SELECT_CSV_COLUMNS)
        assert 0.0 <= row["accuracy"] <= 1.0
        assert 0 <= row["features"] <= 6
        assert row["cfo"] == round(2 * 6 / 24)
        # the reported row is the best run: no run beats it
        for rec in report.runs[row["algorithm"]]:
            assert rec["accuracy"] <= row["accuracy"]


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def test_emit_report_csv_columns_and_json_roundtrip(tmp_path):
    report = run_experiment(bench_cfg())
    paths = emit_report(report, tmp_path)
    assert sorted(p.name for p in paths) == ["report.csv", "report.json"]

    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == BENCH_CSV_COLUMNS
    assert len(rows) == 3

    with open(tmp_path / "report.json") as fh:
        payload = json.load(fh)
    assert payload["task"] == "benchmark"
    assert payload["rows"] == report.rows
    assert payload["config"]["function"] == "rastrigin_shifted_rotated"
    # csv and json agree row by row
    for parsed, row in zip(rows[1:], report.rows):
        assert parsed[0] == row["function"]
        assert float(parsed[2]) == pytest.approx(row["mean"])


def test_emit_report_selection_columns(tmp_path):
    report = run_experiment(select_cfg(tmp_path))
    emit_report(report, tmp_path / "out")
    with open(tmp_path / "out" / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SELECT_CSV_COLUMNS


def test_emit_report_leaves_no_half_report(tmp_path):
    first, second = run_experiment(bench_cfg()), run_experiment(bench_cfg(base_seed=7))
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        emit_report(first, tmp_path / "out")
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["report.json"]
    (tmp_path / "out" / "report.json").rmdir()
    emit_report(first, tmp_path / "out")
    emit_report(second, tmp_path / "out")  # a rerun replaces both files
    emit_report(first, tmp_path / "first")
    emit_report(second, tmp_path / "second")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["report.csv", "report.json"]
    for name in ("report.csv", "report.json"):
        got = masked(tmp_path / "out" / name)
        assert got == masked(tmp_path / "second" / name) != masked(tmp_path / "first" / name)


def test_emit_trace_is_full_curve(tmp_path):
    report = run_experiment(bench_cfg(runs=1, algorithm="pso"))
    run = report.traces["pso"][0]
    path = emit_trace(run, tmp_path / "trace.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "gbest_fitness"]
    assert len(rows) == 2 + 5  # header + initial point + one per iteration
    fits = [float(r[1]) for r in rows[1:]]
    assert fits == sorted(fits, reverse=True) or all(
        b <= a for a, b in zip(fits, fits[1:])
    )


def csv_writer_bytes(run) -> bytes:
    """The trace file as csv.writer writes it, the writer emit_trace replaced."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["iteration", "gbest_fitness"])
    for it, fit in run.trace:
        writer.writerow([it, fit])
    return out.getvalue().encode()


def test_emit_trace_writes_the_bytes_of_csv_writer(tmp_path):
    # +inf, a 17-digit value, the least subnormal and a negative zero
    run = RunResult(np.zeros(1), -0.0, Trace([math.inf, 0.1 + 0.2, 5e-324, -0.0]), 0.0, 0)
    data = emit_trace(run, tmp_path / "trace.csv").read_bytes()
    assert data == csv_writer_bytes(run)
    assert data == b"iteration,gbest_fitness\r\n0,inf\r\n1,0.30000000000000004\r\n2,5e-324\r\n3,-0.0\r\n"


def test_trace_of_a_run_whose_first_values_are_non_finite_starts_at_inf(tmp_path):
    calls = []

    def objective(x):  # NaN for the whole first (init) evaluation, then the sphere
        calls.append(1)
        return math.nan if len(calls) <= 8 else float(np.sum(x ** 2))

    run = optimize(EpsoConfig(dimension=4, bounds=[-5.0, 5.0], population_size=8,
                              max_iterations=5), objective, "pso")
    data = emit_trace(run, tmp_path / "trace.csv").read_bytes()
    assert data.startswith(b"iteration,gbest_fitness\r\n0,inf\r\n1,")
    assert math.isfinite(run.trace[1][1]) and data == csv_writer_bytes(run)


# golden reports: every file that one bench and one select run write, recorded
# before the two task branches of run_experiment became one run loop

GOLDEN_REPORTS = Path(__file__).with_name("golden_reports.json")


def masked(path) -> str:
    """The file's text (line ends kept), with time_sec and the paths as "*"."""
    text = path.read_bytes().decode()
    if path.name == "report.json":
        return re.sub(r'("(?:time_sec|out_dir|data_path)": )[^,\n]+', r'\1"*"', text)
    head, body = text.split("\r\n", 1)
    if head == ",".join(SELECT_CSV_COLUMNS):  # the last column is time_sec
        return head + "\r\n" + re.sub(r",[^,\r\n]*(?=\r\n)", ",*", body)
    return text


def golden_outputs(tmp_path) -> dict:
    data = tmp_path / "d.csv"
    save_csv(synth_dataset(40, 12, 3, class_count=3, seed=2, separation=1.0), data)
    groups = tmp_path / "groups.json"  # group 2 acts from the first iteration
    groups.write_text(json.dumps({"g_pini": 0.8, "g_pfine": 0.3}))
    common = ["--config", str(groups), "--population", "6", "--iterations", "5", "--trace"]
    argvs = {
        "bench": ["bench", "--function", "hybrid_2", "--dim", "10", "--runs", "2",
                  "--seed", "4"],
        "select": ["select", "--data", str(data), "--runs", "3", "--folds", "3"],
    }
    outputs = {}
    for name, argv in argvs.items():
        out = tmp_path / name
        assert main(argv + common + ["--out", str(out)]) == 0
        outputs[name] = {p.name: masked(p) for p in sorted(out.iterdir())}
    return outputs


def test_reports_and_traces_match_the_golden_files(tmp_path, capsys):
    expected = json.loads(GOLDEN_REPORTS.read_text())
    assert golden_outputs(tmp_path) == expected
    assert len(expected["bench"]) == 2 + 4 and len(expected["select"]) == 2 + 6
    capsys.readouterr()


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_bench_end_to_end(tmp_path, capsys):
    rc = main([
        "bench", "--function", "hybrid_1", "--dim", "4", "--runs", "2",
        "--population", "6", "--iterations", "3", "--seed", "5",
        "--out", str(tmp_path), "--trace",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "report.csv" in out and "report.json" in out
    assert (tmp_path / "trace_pso_run000.csv").exists()
    assert (tmp_path / "trace_epso_run001.csv").exists()


def test_cli_rerun_reports_identical(tmp_path, capsys):
    args = [
        "bench", "--function", "cigar_rotated", "--dim", "3", "--runs", "2",
        "--population", "5", "--iterations", "3", "--seed", "2",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    a = (tmp_path / "a" / "report.csv").read_bytes()
    b = (tmp_path / "b" / "report.csv").read_bytes()
    assert a == b


def test_cli_select_end_to_end(tmp_path, capsys):
    d = synth_dataset(20, 5, 2, seed=2)
    data = tmp_path / "d.csv"
    save_csv(d, data)
    rc = main([
        "select", "--data", str(data), "--runs", "1", "--algo", "epso",
        "--population", "5", "--iterations", "3", "--folds", "2",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    assert (tmp_path / "out" / "report.csv").exists()
    assert "accuracy=" in capsys.readouterr().out


def test_cli_select_both_reports_the_runs_of_each_algorithm_alone(tmp_path, capsys):
    # the shared objective changes no record but time_sec
    save_csv(synth_dataset(30, 16, 3, class_count=3, seed=4), tmp_path / "d.csv")
    argv = ["select", "--data", str(tmp_path / "d.csv"), "--runs", "3", "--population", "6",
            "--iterations", "6", "--folds", "3", "--seed", "7"]
    runs = {}
    for algo in ("both", "pso", "epso"):
        assert main(argv + ["--algo", algo, "--out", str(tmp_path / algo)]) == 0
        for name, records in json.loads((tmp_path / algo / "report.json").read_text())["runs"].items():
            runs[algo, name] = [{k: v for k, v in r.items() if k != "time_sec"} for r in records]
    capsys.readouterr()
    assert [r["seed"] for r in runs["both", "pso"]] == [7, 8, 9]
    assert runs["both", "pso"] == runs["pso", "pso"]
    assert runs["both", "epso"] == runs["epso", "epso"]


def test_selection_objective_is_freed_after_each_seed(tmp_path, monkeypatch):
    # without the cyclic collector: the objective must not sit in a reference
    # cycle, and only the current seed's objective is alive
    save_csv(synth_dataset(20, 6, 2, seed=1), tmp_path / "d.csv")
    cfg = build_config("feature-selection", {"data_path": str(tmp_path / "d.csv"), "runs": 3,
                                             "population_size": 4, "max_iterations": 3,
                                             "k_folds": 2})
    refs = []
    build = feature_selection.wrapper_objective

    def tracked(*args, **kwargs):
        assert all(ref() is None for ref in refs)
        objective = build(*args, **kwargs)
        refs.append(weakref.ref(objective))
        return objective

    monkeypatch.setattr(feature_selection, "wrapper_objective", tracked)
    gc.disable()
    try:
        report = run_experiment(cfg)
        assert len(refs) == 3 and all(ref() is None for ref in refs)
    finally:
        gc.enable()
    assert len(report.runs["pso"]) == len(report.runs["epso"]) == 3


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "function": "hybrid_2", "dimension": 10, "runs": 5,
        "population_size": 5, "max_iterations": 2,
    }))
    rc = main(["bench", "--config", str(cfgfile), "--runs", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    capsys.readouterr()
    with open(tmp_path / "o" / "report.json") as fh:
        payload = json.load(fh)
    assert payload["config"]["runs"] == 1
    assert payload["config"]["function"] == "hybrid_2"


def test_cli_error_paths(tmp_path, capsys):
    assert main(["bench", "--function", "no_such_fn", "--runs", "1"]) == 2
    assert main(["bench", "--runs", "1"]) == 2  # function missing
    assert main(["select", "--data", str(tmp_path / "absent.csv")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    (tmp_path / "labels.csv").write_text("label\nA\nB\nA\nB\n")
    assert main(["select", "--data", str(tmp_path / "labels.csv"), "--runs", "1",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: features must have at least one column\n"


def test_cli_dimension_too_small_for_a_hybrid_exits_2_before_any_run(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["bench", "--function", "hybrid_1", "--dim", "2", "--runs", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: hybrid blocks must be non-empty; got sizes [1, 1, 0] for dim 2\n"
    assert not out.exists()


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_cli_non_finite_data_cell_exits_2(tmp_path, capsys, cell):
    data = tmp_path / "d.csv"
    data.write_text(f"x,y,label\n1,2,A\n3,4,B\n5,{cell},A\n6,7,B\n")
    out = tmp_path / "out"
    assert main(["select", "--data", str(data), "--runs", "1", "--folds", "2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: non-finite feature value {cell} in observation 2 (from 0), column 'y'\n"
    assert not out.exists()


def test_cli_select_on_a_finite_column_whose_span_overflows(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x,y,label\n1e308,2,A\n-1e308,4,B\n0,1,A\n5,7,B\n")
    assert main(["select", "--data", str(data), "--runs", "1", "--folds", "2",
                 "--population", "4", "--iterations", "2", "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_refuses_an_out_under_a_file_before_any_run(tmp_path, capsys, monkeypatch):
    def no_run(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    (tmp_path / "file").write_text("")
    before = sorted(tmp_path.rglob("*"))
    for out in (tmp_path / "file", tmp_path / "file" / "a" / "b"):
        assert main(["bench", "--function", "rastrigin_shifted_rotated", "--runs", "1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: out_dir {str(out)!r}: {tmp_path / 'file'} is not a writable directory\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_report_that_cannot_be_written_exits_1(tmp_path, capsys):
    (tmp_path / "report.json").mkdir()  # open() of a directory is an OSError
    assert main(["bench", "--function", "rastrigin_shifted_rotated", "--runs", "1",
                 "--dim", "2", "--population", "4", "--iterations", "2",
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write the reports: [Errno 21] Is a directory: ")
    assert err.count("\n") == 1


def test_cli_select_calls_each_layer_by_its_module_name(tmp_path, capsys, monkeypatch):
    # perfbench times the select chain by swapping these names; each must be
    # looked up when it is called, and the swaps must not change the report
    d = synth_dataset(30, 8, 2, seed=3)
    save_csv(d, tmp_path / "d.csv")
    argv = ["select", "--data", str(tmp_path / "d.csv"), "--runs", "2", "--population", "5",
            "--iterations", "3", "--folds", "3", "--out"]
    assert main(argv + [str(tmp_path / "plain")]) == 0
    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(harness, "load_csv"), (harness, "normalize_minmax"),
                         (feature_selection, "stratified_folds"),
                         (feature_selection, "wrapper_objective"),
                         (feature_selection, "optimize")]:
        counting(module, name)
    assert main(argv + [str(tmp_path / "patched")]) == 0
    capsys.readouterr()
    # 2 runs of each algorithm; a seed's PSO and EPSO runs share one objective
    assert calls == {"load_csv": 1, "normalize_minmax": 1, "stratified_folds": 2,
                     "wrapper_objective": 2, "optimize": 4}
    for name in ("report.csv", "report.json"):
        assert masked(tmp_path / "patched" / name) == masked(tmp_path / "plain" / name)


def test_cli_unknown_function_message_is_unquoted(capsys):
    assert issubclass(UnknownFunctionError, KeyError)
    assert main(["bench", "--function", "nope", "--runs", "1"]) == 2
    err = capsys.readouterr().err
    names = ", ".join(available_functions())
    assert err == f"error: unknown function 'nope'; available: {names}\n"


def test_cli_lets_an_internal_key_error_propagate(tmp_path, monkeypatch):
    def broken(cfg):
        raise KeyError("x")

    monkeypatch.setattr(cli, "run_experiment", broken)
    with pytest.raises(KeyError, match="'x'"):
        main(["bench", "--function", "hybrid_1", "--runs", "1", "--out", str(tmp_path)])


def test_cli_select_on_an_overlong_cell_exits_2(tmp_path, capsys):
    data = tmp_path / "long.csv"
    data.write_text('x,y,label\n1,2,A\n3,"' + "z" * 140_000 + '",B\n5,6,B\n', encoding="utf-8")
    assert main(["select", "--data", str(data), "--runs", "1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("error: row 3: field larger than field limit (131072)\n")
    assert not (tmp_path / "out").exists()


def test_cli_select_on_a_latin1_csv_exits_2(tmp_path, capsys):
    data = tmp_path / "latin1.csv"
    data.write_bytes(b"x,y,label\n1,2,A\n3,4,B\n5,6,caf\xe9\n7,8,B\n")
    assert main(["select", "--data", str(data), "--runs", "1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {data} is not UTF-8 text: cannot decode byte 0xe9\n"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# config keys, end to end
# ---------------------------------------------------------------------------

# each swarm key with an out-of-range value and with a value of the wrong type
BAD_SWARM_VALUES = [
    ("population_size", 0), ("population_size", "50"),
    ("max_iterations", -1), ("max_iterations", 2.5),
    ("inertia_start", float("nan")), ("inertia_start", "0.9"),
    ("inertia_end", float("inf")), ("inertia_end", None),
    ("c1", -1.0), ("c1", "2"),
    ("c2", -0.5), ("c2", True),
    ("g_pini", 1.5), ("g_pini", [1.0]),
    ("g_pfine", -0.1), ("g_pfine", "0.9"),
    ("m_min", 0), ("m_min", 1.0),
    ("m_max", 0), ("m_max", "half"),
    ("velocity_clamp_fraction", 0.0), ("velocity_clamp_fraction", float("nan")),
]


@pytest.mark.parametrize("command", ["bench", "select"])
@pytest.mark.parametrize("key,value", BAD_SWARM_VALUES)
def test_cli_bad_swarm_value_exits_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                    command, key, value):
    assert {k for k, _ in BAD_SWARM_VALUES} == set(SWARM_DEFAULTS)

    def no_run(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    data = tmp_path / "d.csv"
    save_csv(synth_dataset(12, 4, 2, seed=1), data)
    values = {"function": "hybrid_1"} if command == "bench" else {"data_path": str(data)}
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({**values, key: value}))
    assert main([command, "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# each experiment key with a value of the wrong type
BAD_EXPERIMENT_VALUES = [
    ("algorithm", 1), ("runs", "3"), ("runs", 2.0), ("base_seed", "1"), ("base_seed", True),
    ("out_dir", 5), ("emit_traces", "yes"), ("function", 3), ("dimension", "10"),
    ("data_path", ["d.csv"]), ("label_col", 0), ("threshold", "0.5"), ("k_folds", "5"),
    ("k_folds", 5.0), ("normalize", 1),
]


@pytest.mark.parametrize("command", ["bench", "select"])
@pytest.mark.parametrize("key,value", BAD_EXPERIMENT_VALUES)
def test_cli_experiment_value_of_wrong_type_exits_2(tmp_path, capsys, monkeypatch,
                                                    command, key, value):
    assert {k for k, _ in BAD_EXPERIMENT_VALUES} == harness._EXPERIMENT_KEYS

    def no_run(cfg):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    monkeypatch.chdir(tmp_path)  # out_dir comes from the file here, so no --out
    save_csv(synth_dataset(12, 4, 2, seed=1), tmp_path / "d.csv")
    values = {"function": "hybrid_1"} if command == "bench" else {"data_path": "d.csv"}
    (tmp_path / "c.json").write_text(json.dumps({**values, key: value}))
    assert main([command, "--config", "c.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.endswith(f", got {value!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "d.csv"]


def test_cli_select_m_min_above_width_waits_for_the_data(tmp_path, capsys):
    data = tmp_path / "d.csv"
    save_csv(synth_dataset(12, 4, 2, seed=1), data)
    values = {"data_path": str(data), "m_min": 5}  # 4 features
    assert build_config("feature-selection", values).swarm["m_min"] == 5
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(values))
    assert main(["select", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 2
    assert "m_min <= m_max <= dimension" in capsys.readouterr().err


def test_select_config_check_costs_no_memory_per_m_min():
    tracemalloc.start()
    try:
        build_config("feature-selection", {"data_path": "d.csv", "m_min": 10**6})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a (10**6, 2) float copy of the bounds would be 16 MB


def test_cli_every_flag_sets_its_own_config_key(tmp_path, capsys):
    data = tmp_path / "d.csv"
    save_csv(synth_dataset(20, 5, 2, seed=2), data)
    # values differ from the defaults and from each other, so a flag that
    # lands in another key shows up as a wrong value
    common = {
        "--runs": ("runs", 2), "--algo": ("algorithm", "pso"), "--seed": ("base_seed", 7),
        "--population": ("population_size", 4), "--iterations": ("max_iterations", 3),
    }
    flags = {
        "bench": {**common, "--function": ("function", "cigar_rotated"),
                  "--dim": ("dimension", 5)},
        "select": {**common, "--data": ("data_path", str(data)),
                   "--label-col": ("label_col", "label"), "--threshold": ("threshold", 0.25),
                   "--folds": ("k_folds", 6)},
    }
    for command, by_flag in flags.items():
        out = tmp_path / command
        argv = [command, "--out", str(out), "--trace"]
        for flag, (_, value) in by_flag.items():
            argv += [flag, str(value)]
        assert main(argv) == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert config["out_dir"] == str(out) and config["emit_traces"] is True
        for flag, (key, value) in by_flag.items():
            assert config[key] == value, flag
    capsys.readouterr()


# report.json "config" of `epso bench --function rastrigin_shifted_rotated`,
# recorded before the swarm keys moved into ExperimentConfig.swarm
DEFAULT_BENCH_CONFIG = {
    "algorithm": "both", "base_seed": 1, "c1": 2.0, "c2": 2.0, "data_path": None,
    "dimension": 10, "emit_traces": False, "function": "rastrigin_shifted_rotated",
    "g_pfine": 0.9, "g_pini": 1.0, "inertia_end": 0.4, "inertia_start": 0.9, "k_folds": 10,
    "label_col": "last", "m_max": None, "m_min": 1, "max_iterations": 100, "normalize": True,
    "out_dir": "out", "population_size": 50, "runs": 30, "task": "benchmark",
    "threshold": 0.5, "velocity_clamp_fraction": 0.2,
}


def test_cli_default_bench_config_is_flat_and_unchanged(tmp_path, capsys, monkeypatch):
    def quick(config, objective, mode="epso"):  # the config does not depend on the search
        return RunResult(np.zeros(config.dimension), 1.0, Trace([1.0]), 0.0, config.seed)

    monkeypatch.setattr(harness, "optimize", quick)
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--function", "rastrigin_shifted_rotated"]) == 0
    capsys.readouterr()
    config = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
    assert json.dumps(config, sort_keys=True) == json.dumps(DEFAULT_BENCH_CONFIG, sort_keys=True)


if __name__ == "__main__":  # PYTHONPATH=src python tests/test_harness.py re-records the goldens
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN_REPORTS.write_text(json.dumps(golden_outputs(Path(tmp)), indent=1) + "\n")
