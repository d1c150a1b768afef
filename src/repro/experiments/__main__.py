"""Command-line entry point: regenerate the paper's evaluation tables.

Usage::

    python -m repro.experiments                 # every figure + ablations
    python -m repro.experiments fig3 fig8       # a subset
    python -m repro.experiments --quick fig7    # small/fast variant
    python -m repro.experiments --write EXPERIMENTS.md [names]

Each experiment prints the table corresponding to one figure of the
paper (see EXPERIMENTS.md for the paper-vs-measured comparison).
``--write`` also replaces each run figure's measured block in the file
and leaves everything outside the blocks as it was.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments import (
    ExperimentParams,
    ablations,
    crossover,
    ext_adversary,
    ext_outburst,
    ext_repair,
    ext_skew,
    ext_staleness,
    fig3_read_latency,
    fig4_read_throughput,
    fig5_write_latency,
    fig6_write_throughput,
    fig7_session_guarantees,
    fig8_update_skew,
)
from repro.experiments.results import replace_measured_block

EXPERIMENTS = {
    "fig3": lambda p: fig3_read_latency.run(p),
    "fig4": lambda p: fig4_read_throughput.run(p),
    "fig5": lambda p: fig5_write_latency.run(p),
    "fig6": lambda p: fig6_write_throughput.run(p),
    "fig7": lambda p: fig7_session_guarantees.run(p),
    "fig8": lambda p: fig8_update_skew.run(p),
    "abl1": lambda p: ablations.combined_get_then_put(p),
    "abl2": lambda p: ablations.concurrency_mechanisms(p),
    "abl3": lambda p: ablations.materialized_column_count(p),
    "abl4": lambda p: ablations.quorum_settings(p),
    "abl5": lambda p: ablations.stale_row_gc(p),
    "abl6": lambda p: ablations.master_vs_decentralized(p),
    "ext1": lambda p: crossover.run(p),
    "ext_repair": lambda p: ext_repair.run(p),
    "ext_outburst": lambda p: ext_outburst.run(p),
    "ext_adversary": lambda p: ext_adversary.run(p),
    "ext_skew": lambda p: ext_skew.run(p),
    "ext_staleness": lambda p: ext_staleness.run(p),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's evaluation figures.")
    parser.add_argument("experiments", nargs="*",
                        choices=[*EXPERIMENTS, []],
                        help="which experiments to run (default: all)")
    parser.add_argument("--quick", action="store_true",
                        help="use small/fast workload sizes")
    parser.add_argument("--seed", type=int, default=0,
                        help="root RNG seed (default 0)")
    parser.add_argument("--write", type=Path, metavar="FILE",
                        help="replace each figure's measured block in FILE "
                             "(default sizes, seed 0 only)")
    args = parser.parse_args(argv)
    if args.write and (args.quick or args.seed):
        parser.error("--write records default sizes at seed 0")

    params = ExperimentParams(seed=args.seed)
    if args.quick:
        params = params.quick()
    selected = args.experiments or list(EXPERIMENTS)
    for name in selected:
        started = time.time()
        result = EXPERIMENTS[name](params)
        elapsed = time.time() - started
        print(result.format_table())
        print(f"[{name} regenerated in {elapsed:.1f}s]")
        if args.write:
            args.write.write_text(
                replace_measured_block(args.write.read_text(), result))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
