#!/usr/bin/env python3
"""One benchmark run of one workload; the command in ``BENCHMARK.json``.

    python3 benchmarks/mvbench/bench.py --workload mv_write --seed 3 \\
        --seconds 10 --trace 0

prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` every end-to-end metric ``BENCHMARK.json`` declares, with
``--trace 1`` every per-layer metric (from a separate traced run at a
quarter of the op count).  The line holds plain numbers only: a
per-layer metric that cannot be measured — a wrap target that no longer
exists, a percentile of no samples — reads 0 there and ``null`` in the
``--json-out`` file, with a warning on standard error.

``--seconds S`` sizes the run: each workload issues ``S`` times its
frozen per-second op count, so the timed window lasts about ``S``
seconds at the nominal host speed and every simulated metric is an exact
function of ``(--seed, --seconds)``.

The process re-executes itself once with ``PYTHONHASHSEED=0`` so that
simulated results cannot depend on string-hash order.  It starts no
other process and writes only under ``--out`` (default ``.benchmarks/``
in the current directory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _bootstrap() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("mvbench: no src/repro beside the benchmark; "
                 "there is nothing to measure here")
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    # Import the benchmark as a package (its modules use relative
    # imports, and a bare ``trace`` on sys.path would shadow the
    # standard library's), and the checkout's own ``repro``.
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p != here]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def declared(section: str) -> dict:
    """name -> unit for one section of ``BENCHMARK.json``."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in manifest[section]}


def main(argv=None) -> int:
    _bootstrap()
    from benchmarks.mvbench import runner
    from benchmarks.mvbench.workloads import SPECS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=Path(".benchmarks"),
                        help="directory for span files (traced runs)")
    parser.add_argument("--json-out", type=Path,
                        help="also write the full result document here")
    args = parser.parse_args(argv)

    if args.trace:
        result = runner.traced_run(args.workload, args.seed, args.seconds,
                                   args.out)
        values = result["layers"]
        units = declared("per_layer")
    else:
        result = runner.run_workload(args.workload, args.seed, args.seconds)
        values = {name: m["value"] for name, m in result["metrics"].items()}
        units = declared("end_to_end")

    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            print(f"mvbench: {name} could not be measured on "
                  f"{args.workload}; reported as 0", file=sys.stderr)
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    if args.json_out:
        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        args.json_out.write_text(json.dumps(result, indent=1, sort_keys=True))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
