"""Aggregation, honest stamping, tables and the A/B comparison rule."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .calibrate import FROZEN, REF_LOOP_S_NOMINAL
from .layers import PER_LAYER, is_host_clock
from .runner import END_TO_END

ROOT = Path(__file__).resolve().parents[2]


def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(seed: int, seconds: float) -> Dict[str, Any]:
    """Where and on what these numbers were taken.  ``dirty`` is true
    when the working tree differs from ``git_sha`` — numbers from a
    dirty tree belong to no commit."""
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "ref_loop_s_nominal": REF_LOOP_S_NOMINAL,
    }


# -- aggregation --------------------------------------------------------------


def aggregate_runs(results: List[dict]) -> Dict[str, Any]:
    """Fold the repeats of one workload into per-metric value lists."""
    metrics: Dict[str, Any] = {}
    for name, (unit, better) in END_TO_END.items():
        values = [r["metrics"][name]["value"] for r in results]
        entry: Dict[str, Any] = {
            "unit": unit, "better": better, "values": values,
            "n": [r["metrics"][name]["n"] for r in results]}
        if all(v is not None for v in values):
            q1, med, q3 = quartiles(values)
            entry.update(q1=q1, median=med, q3=q3)
        else:
            entry.update(q1=None, median=None, q3=None)
        metrics[name] = entry
    refs = [r["host"][key] for r in results
            for key in ("ref_loop_s_min", "ref_loop_s_max")]
    return {
        "correct": all(r["correct"] for r in results),
        "op_budget": results[0]["op_budget"],
        "clients": results[0]["clients"],
        "check": [r["check"] for r in results],
        "metrics": metrics,
        "ref_loop_s_range": [min(refs), max(refs)],
        "host": [r["host"] for r in results],
        "bench": [r["bench"] for r in results],
    }


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "null"
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:.1f}"
    return f"{value:.4g}"


def print_run(doc: dict) -> None:
    s = doc["stamp"]
    print(f"mvbench run  sha={s['git_sha']} dirty={s['dirty']} "
          f"python={s['python']} nproc={s['nproc']} seed={s['seed']} "
          f"seconds={s['seconds']} ref_loop_s_nominal="
          f"{s['ref_loop_s_nominal']}")
    for workload, agg in doc["workloads"].items():
        lo, hi = agg["ref_loop_s_range"]
        print(f"\n{workload}: {agg['clients']} clients, "
              f"{agg['op_budget']} ops, correct={agg['correct']}, "
              f"ref loop {lo:.4f}-{hi:.4f} s, check "
              f"{agg['check'][0]['rows']} rows / "
              f"{sum(c['mismatches'] for c in agg['check'])} mismatches")
        print(f"  {'metric':28} {'unit':9} {'samples':>8}  "
              f"{'median':>10} {'q1':>10} {'q3':>10}  per-repeat")
        for name, m in agg["metrics"].items():
            print(f"  {name:28} {m['unit']:9} {m['n'][0]:>8}  "
                  f"{_fmt(m['median']):>10} {_fmt(m['q1']):>10} "
                  f"{_fmt(m['q3']):>10}  "
                  + " ".join(_fmt(v) for v in m["values"]))


def print_trace(doc: dict) -> None:
    s = doc["stamp"]
    workloads = list(doc["workloads"])
    print(f"mvbench trace  sha={s['git_sha']} dirty={s['dirty']} "
          f"seed={s['seed']} seconds={s['seconds']} "
          "(quarter op count; per op = per completed non-probe client op)")
    print(f"  {'metric':46} {'unit':9} "
          + " ".join(f"{w:>16}" for w in workloads))
    for name, (unit, _better) in PER_LAYER.items():
        print(f"  {name:46} {unit:9} " + " ".join(
            f"{_fmt(doc['workloads'][w]['layers'].get(name)):>16}"
            for w in workloads))
    for workload, result in doc["workloads"].items():
        shares = sum(v for k, v in result["layers"].items()
                     if k.endswith("host_self_share")
                     or k == "bench.generator_host_share")
        print(f"  {workload}: host self shares sum to {shares:.4f}; "
              f"tracer left the simulation unchanged: "
              f"{result['trace_left_simulation_unchanged']}; "
              f"missing wrap targets: {result['missing_targets'] or 'none'}")


# -- comparison ---------------------------------------------------------------


def bound_for(metric: str, workload: str, declared: Dict[str, float]
              ) -> float:
    """The frozen regression bound for one metric on one workload.

    ``sim_*``: the recorded spread across seeds 0-2 on the commit that
    added the benchmark (this system's sensitivity to an innocent
    reordering of events), floored at 2 %.  Host metrics: the bound
    ``BENCHMARK.json`` declares.  Anything else — ``failed_ops_frac`` —
    0: any rise fails.
    """
    spread = FROZEN["sim_seed_spread"].get(metric, {}).get(workload)
    if spread is not None:
        return max(FROZEN["sim_bound_floor"], spread)
    return declared.get(metric, 0.0)


def compare_runs(a: dict, b: dict) -> Tuple[List[dict], bool]:
    """One row per metric x workload; ok is False on any regression."""
    declared = {e["name"]: e["bound"] for e in manifest()["end_to_end"]}
    rows: List[dict] = []
    ok = True
    for workload, agg_a in a["workloads"].items():
        agg_b = b["workloads"].get(workload)
        if agg_b is None:
            rows.append({"workload": workload, "metric": "*",
                         "verdict": "MISSING in B"})
            ok = False
            continue
        for name, m_a in agg_a["metrics"].items():
            m_b = agg_b["metrics"][name]
            bound = bound_for(name, workload, declared)
            row = {"workload": workload, "metric": name, "bound": bound,
                   "a": m_a["median"], "b": m_b["median"]}
            rows.append(row)
            if m_a["median"] is None and m_b["median"] is None:
                row["verdict"] = "n/a"
                continue
            if m_a["median"] is None or m_b["median"] is None:
                row["verdict"] = "REGRESSION (null on one side)"
                ok = False
                continue
            med_a, med_b = m_a["median"], m_b["median"]
            sign = 1.0 if m_a["better"] == "lower" else -1.0
            worse = (sign * (med_b - med_a) / abs(med_a) if med_a
                     else float(sign * (med_b - med_a) > 0))
            spread = ((m_a["q3"] - m_a["q1"]) / abs(med_a) if med_a else 0.0)
            row.update(worse=worse, spread_a=spread)
            if worse > bound:
                row["verdict"] = "REGRESSION"
                ok = False
            elif spread > bound:
                row["verdict"] = "unresolved"
            elif worse < -bound:
                row["verdict"] = "improved"
            else:
                row["verdict"] = "unchanged"
        if not agg_b["correct"]:
            rows.append({"workload": workload, "metric": "correct",
                         "verdict": "REGRESSION (B failed its check)"})
            ok = False
    return rows, ok


def compare_traces(a: dict, b: dict) -> Tuple[List[dict], bool]:
    """Deterministic per-layer values must repeat exactly."""
    rows: List[dict] = []
    ok = True
    for workload, res_a in a["workloads"].items():
        res_b = b["workloads"][workload]
        for name in PER_LAYER:
            if is_host_clock(name):
                continue
            va, vb = res_a["layers"].get(name), res_b["layers"].get(name)
            if va != vb:
                rows.append({"workload": workload, "metric": name,
                             "a": va, "b": vb, "verdict": "DIFFERS"})
                ok = False
    return rows, ok


def print_comparison(rows: Iterable[dict]) -> None:
    print(f"  {'workload':16} {'metric':28} {'A':>11} {'B':>11} "
          f"{'worse by':>9} {'bound':>7} {'A spread':>9}  verdict")
    for row in rows:
        worse = row.get("worse")
        spread = row.get("spread_a")
        print(f"  {row['workload']:16} {row['metric']:28} "
              f"{_fmt(row.get('a')):>11} {_fmt(row.get('b')):>11} "
              f"{'' if worse is None else format(worse, '+.2%'):>9} "
              f"{'' if 'bound' not in row else format(row['bound'], '.2%'):>7} "
              f"{'' if spread is None else format(spread, '.2%'):>9}  "
              f"{row['verdict']}")
