"""``python -m benchmarks.mvbench {run,trace,compare,selfcheck}``.

``run`` and ``trace`` start one fresh ``bench.py`` subprocess per
workload per repeat (so ``peak_rss_mb`` belongs to one workload and no
run warms another), print every metric by name and write one results
JSON.  ``compare`` applies the frozen bounds to two such files.
``selfcheck`` is the A/A test: two full sets, then ``compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from . import report
from .runner import SETUP_REPEATS
from .workloads import SPECS

BENCH = Path(__file__).resolve().parent / "bench.py"
DEFAULT_OUT = Path(".benchmarks")


def _bench(workload: str, seed: int, seconds: float, trace: int,
           out: Path) -> dict:
    """One ``bench.py`` subprocess; returns its full result document."""
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        result_path = Path(scratch) / "result.json"
        command = [sys.executable, str(BENCH), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--out", str(out),
                   "--json-out", str(result_path)]
        done = subprocess.run(
            command, env={**os.environ, "PYTHONHASHSEED": "0"},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"mvbench: {workload} run failed "
                             f"(exit {done.returncode})")
        return json.loads(result_path.read_text())


def _write(doc: dict, out: Path, kind: str) -> Path:
    name = f"mvbench-{kind}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    path = out / f"{name}.json"
    n = 0
    while path.exists():
        n += 1
        path = out / f"{name}-{n}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return path


def run_set(seed: int, seconds: float, repeats: int,
            workloads: List[str], out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    doc = {"kind": "run", "stamp": report.stamp(seed, seconds),
           "repeats": repeats, "setup_repeats_per_run": SETUP_REPEATS,
           "workloads": {}}
    for workload in workloads:
        results = [_bench(workload, seed, seconds, 0, out)
                   for _ in range(repeats)]
        doc["workloads"][workload] = report.aggregate_runs(results)
    return doc


def trace_set(seed: int, seconds: float, workloads: List[str],
              out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    doc = {"kind": "trace", "stamp": report.stamp(seed, seconds),
           "workloads": {}}
    for workload in workloads:
        doc["workloads"][workload] = _bench(workload, seed, seconds, 1, out)
    return doc


def _correct(doc: dict) -> bool:
    return all(w["correct"] for w in doc["workloads"].values())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.mvbench",
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace", "selfcheck"):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=float,
                       default=float(report.manifest()["run_seconds"]))
        p.add_argument("--workload", action="append", choices=sorted(SPECS),
                       help="repeatable; default: all four")
        p.add_argument("--out", type=Path, default=DEFAULT_OUT)
        if name != "trace":
            p.add_argument("--repeats", type=int, default=3)
    p = sub.add_parser("compare")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)

    if args.command == "compare":
        a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
        if a["kind"] != b["kind"]:
            raise SystemExit("mvbench: cannot compare a run with a trace")
        compare = (report.compare_runs if a["kind"] == "run"
                   else report.compare_traces)
        rows, ok = compare(a, b)
        report.print_comparison(rows)
        print("compare: " + ("ok" if ok else "FAILED"))
        return 0 if ok else 1

    workloads = args.workload or list(SPECS)
    if args.command == "run":
        doc = run_set(args.seed, args.seconds, args.repeats, workloads,
                      args.out)
        report.print_run(doc)
        print(f"\nresults: {_write(doc, args.out, 'run')}")
        return 0 if _correct(doc) else 1
    if args.command == "trace":
        doc = trace_set(args.seed, args.seconds, workloads, args.out)
        report.print_trace(doc)
        print(f"\nresults: {_write(doc, args.out, 'trace')}")
        return 0 if _correct(doc) else 1

    # selfcheck: the A/A test.
    ok = True
    runs = [run_set(args.seed, args.seconds, args.repeats, workloads,
                    args.out) for _ in "AB"]
    traces = [trace_set(args.seed, args.seconds, workloads, args.out)
              for _ in "AB"]
    for label, doc in zip("AB", runs):
        print(f"\n=== set {label} ===")
        report.print_run(doc)
        print(f"results: {_write(doc, args.out, 'run')}")
        ok &= _correct(doc)
    print("\n=== A/A: end-to-end metrics, frozen bounds ===")
    rows, same = report.compare_runs(*runs)
    report.print_comparison(rows)
    ok &= same
    inexact = [r for r in rows if r["metric"].startswith("sim_")
               and r.get("a") != r.get("b")]
    print(f"sim_* metrics differing between the two sets: {len(inexact)}")
    ok &= not inexact
    print("\n=== A/A: deterministic per-layer values ===")
    rows, same = report.compare_traces(*traces)
    report.print_comparison(rows)
    print(f"per-layer values differing between two traced runs: {len(rows)}")
    ok &= same and all(_correct(t) for t in traces)
    print("\nselfcheck: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
