"""Smoke tests for mvbench; not part of the tier-1 ``testpaths``.

Run explicitly (about two minutes — every run loads its full table)::

    PYTHONPATH=src python -m pytest benchmarks/mvbench -q
"""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from benchmarks.mvbench import runner, trace
from benchmarks.mvbench.layers import PER_LAYER, is_host_clock
from benchmarks.mvbench.workloads import SPECS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SMALL = 10 / 50  # --seconds for a run at 1/50 of the standing size

# Which roles each workload's op mix has; the rest must be null.
ROLES = {
    "bt_mixed": {"read", "write"},
    "mv_read": {"read"},
    "mv_write": {"write", "visibility_lag"},
    "mv_skew_session": {"read", "write", "fresh_read", "visibility_lag"},
}


def _small(name, seed=0, **kwargs):
    return runner.run_workload(name, seed, SMALL, setup_repeats=1, **kwargs)


def _sim(result):
    return json.dumps({k: v for k, v in result["metrics"].items()
                       if k.startswith("sim_")}, sort_keys=True)


@pytest.fixture(scope="module")
def small_runs():
    return {name: _small(name) for name in SPECS}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_workload_completes_with_declared_metrics(small_runs, name):
    result = small_runs[name]
    assert result["correct"] and result["failed"] == 0
    assert result["check"]["mismatches"] == 0
    assert result["completed_ops"] == result["op_budget"]
    metrics = result["metrics"]
    assert list(metrics) == list(runner.END_TO_END)
    for always in ("setup_s", "host_ops_per_s", "peak_rss_mb",
                   "sim_throughput_ops_s", "sim_op_p50_ms"):
        assert metrics[always]["value"] > 0
    assert metrics["failed_ops_frac"]["value"] == 0
    for role in ("read", "write", "fresh_read", "visibility_lag"):
        p50 = metrics[f"sim_{role}_p50_ms"]
        if role in ROLES[name]:
            assert p50["n"] > 0 and p50["value"] > 0
        else:
            assert p50["n"] == 0 and p50["value"] is None
    # A p99 of fewer than 1000 samples is withheld, not guessed.
    for key, metric in metrics.items():
        if key.endswith("_p99_ms") and metric["n"] < 1000:
            assert metric["value"] is None


@pytest.mark.parametrize("name", sorted(SPECS))
def test_sim_metrics_repeat_exactly_and_follow_the_seed(small_runs, name):
    again = _small(name)
    other = _small(name, seed=1)
    assert _sim(again) == _sim(small_runs[name])
    assert _sim(other) != _sim(small_runs[name])


def test_check_catches_a_corrupted_expectation():
    result = _small("mv_read", corrupt_check=True)
    assert result["check"]["mismatches"] == 1
    assert not result["correct"]
    assert result["metrics"]["failed_ops_frac"]["value"] > 0


def test_traced_run_attributes_every_layer(tmp_path):
    result = runner.traced_run("mv_skew_session", 0, SMALL * 4, tmp_path)
    assert result["correct"]
    assert result["trace_left_simulation_unchanged"]
    assert result["missing_targets"] == []
    layers = result["layers"]
    assert set(layers) == set(PER_LAYER)
    shares = sum(v for k, v in layers.items()
                 if k.endswith("host_self_share")
                 or k == "bench.generator_host_share")
    assert shares == pytest.approx(1.0, abs=0.02)
    assert layers["views.maintenance.propagations_per_op"] > 0
    assert layers["views.session.barriers_per_op"] > 0
    assert layers["freshness.certificates_per_op"] > 0
    assert layers["bench.trace_overhead_ratio"] > 1
    assert (tmp_path / "mv_skew_session-seed0.spans.bin").stat().st_size > 0
    meta = json.loads(
        (tmp_path / "mv_skew_session-seed0.spans.json").read_text())
    assert meta["spans"] > 0 and "views.read.view_get" in meta["names"]


def test_deterministic_layer_values_repeat(tmp_path):
    first, second = (runner.traced_run("mv_write", 3, SMALL * 4, tmp_path)
                     for _ in range(2))
    for name in PER_LAYER:
        if not is_host_clock(name):
            assert first["layers"][name] == second["layers"][name], name
    assert first["layers"]["views.outbox.appended_per_op"] >= 1


def test_views_do_no_work_without_a_view(tmp_path):
    layers = runner.traced_run("bt_mixed", 0, SMALL * 4, tmp_path)["layers"]
    for name, value in layers.items():
        if name.startswith(("views.", "freshness.")):
            assert not value, name


def test_tracer_tolerates_a_missing_wrap_target(monkeypatch):
    from repro.common import records

    monkeypatch.delattr(records, "merge_cells")
    gone = trace.Target("repro.views.no_such_module.Thing.method",
                        "views.gone", "gen")
    tracer = trace.Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install(trace.TARGETS + (gone,))
    try:
        assert set(tracer.missing) == {"repro.common.records.merge_cells",
                                       gone.dotted}
        assert len(caught) == 2
        result = _small("bt_mixed", tracer=tracer)
    finally:
        tracer.uninstall()
    assert result["correct"]
    assert result["layers"]["common.records.merges_per_op"] is None
    assert result["layers"]["common.records.row_applies_per_op"] > 0


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/mvbench/bench.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("flag,section", [("0", "end_to_end"),
                                          ("1", "per_layer")])
def test_driver_line_matches_the_manifest(tmp_path, flag, section):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _bench(ROOT, "--workload", "mv_write", "--seed", "5", "--seconds",
                  "0.5", "--trace", flag, "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in manifest[section]]
    for declared in manifest[section]:
        got = line["metrics"][declared["name"]]
        assert got["unit"] == declared["unit"]
        assert isinstance(got["value"], (int, float))


def test_bench_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "mvbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, "--workload", "bt_mixed", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
