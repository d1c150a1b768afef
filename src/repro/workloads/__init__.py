"""Workload generation and measurement harness."""

from repro.workloads.generators import (
    KeyChooser,
    RangeKeys,
    UniformKeys,
    ZipfianKeys,
    value_string,
)
from repro.workloads.runner import (
    index_read_op,
    measure_latency,
    mixed_op,
    read_op,
    run_closed_loop,
    view_read_op,
    write_op,
)
from repro.workloads.stats import LatencyRecorder, RunResult

__all__ = [
    "KeyChooser",
    "UniformKeys",
    "RangeKeys",
    "ZipfianKeys",
    "value_string",
    "run_closed_loop",
    "measure_latency",
    "read_op",
    "write_op",
    "index_read_op",
    "view_read_op",
    "mixed_op",
    "LatencyRecorder",
    "RunResult",
]
