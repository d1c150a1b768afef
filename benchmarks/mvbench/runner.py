"""One workload run in this process: set-up, timed window, check, metrics.

Two clocks, named in every number.  ``sim_*`` values are read off the
simulation clock; with one seed (and ``PYTHONHASHSEED=0``) they repeat
exactly.  ``host_*`` / ``setup_s`` are host time, speed-normalised by
:mod:`calibrate`: the run is cut into segments of equal simulated length
with a reference loop between them.
"""

from __future__ import annotations

import gc
import resource
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

from . import trace as tracing
from .calibrate import REF_LOOP_S_NOMINAL, Segment, Stopwatch, speed_summary
from .layers import client_layer, layer_metrics, read_counters
from .workloads import (
    CLIENTS,
    READ_KINDS,
    SPECS,
    WRITE_KINDS,
    RunState,
    Spec,
    build,
    merged_latencies,
    op_budget,
    percentile,
    start_check,
    start_clients,
    start_load,
    total_rows,
)

PILOT_SIM_MS = 100.0
RUN_SEGMENTS = 30
SETUP_SEGMENTS = 4
SETUP_REPEATS = 2
TRACE_SCALE = 0.25
MIN_TAIL_SAMPLES = 1000   # p99 needs ten samples beyond it

# name -> (unit, better); the order every report uses.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "host_ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "sim_throughput_ops_s": ("1/s", "higher"),
    "sim_op_p50_ms": ("ms", "lower"),
    "sim_op_p95_ms": ("ms", "lower"),
    "sim_read_p50_ms": ("ms", "lower"),
    "sim_read_p99_ms": ("ms", "lower"),
    "sim_write_p50_ms": ("ms", "lower"),
    "sim_write_p99_ms": ("ms", "lower"),
    "sim_fresh_read_p50_ms": ("ms", "lower"),
    "sim_fresh_read_p99_ms": ("ms", "lower"),
    "sim_visibility_lag_p50_ms": ("ms", "lower"),
    "sim_visibility_lag_p95_ms": ("ms", "lower"),
    "failed_ops_frac": ("fraction", "lower"),
}


def _run_segments(state: RunState, watch: Stopwatch, total_ops: int,
                  target: int) -> List[Segment]:
    """Advance the simulation until the current clients finish, in
    segments of equal simulated length.

    Pilot segments of a fixed simulated length run until a twentieth of
    the ops are done; the rate of the last one sizes the rest so the
    phase takes about ``target`` segments.  The sizing reads only the
    simulation clock, so it is the same on every host.
    """
    env = state.env
    delta = PILOT_SIM_MS
    piloting = True
    segments: List[Segment] = []
    while state.active_clients > 0:
        done_before, sim_before = state.completed, env.now
        segment = watch.time(lambda: env.run(until=env.now + delta))
        segment.sim_start, segment.sim_end = sim_before, env.now
        segment.ops = state.completed - done_before
        segments.append(segment)
        if piloting and state.completed * 20 >= total_ops:
            piloting = False
            remaining = total_ops - state.completed
            if segment.ops:
                delta = max(PILOT_SIM_MS / 10,
                            remaining / segment.ops * PILOT_SIM_MS / target)
    return segments


def set_up(spec: Spec, seed: int, watch: Stopwatch,
           tracer: Optional[tracing.Tracer] = None) -> RunState:
    """Build the cluster and load every row at W=N; all of it timed."""
    state: Optional[RunState] = None

    def construct():
        nonlocal state
        state = RunState(spec, build(spec, seed), seed, tracer=tracer)
        if tracer is not None:
            tracer.env = state.env
            state.env.set_event_watcher(tracer.watch_event)
        start_load(state)

    watch.time(construct)
    _run_segments(state, watch, total_rows(spec), SETUP_SEGMENTS)
    watch.time(state.cluster.run_until_idle)
    state.completed = 0
    return state


def _timing(samples, q: float, unit: str = "ms") -> Dict[str, Any]:
    """A percentile with its sample count; None where the sample is too
    small for it (p99 of fewer than 1000 samples) or empty."""
    n = len(samples)
    enough = n > 0 and (q < 99 or n >= MIN_TAIL_SAMPLES)
    return {"value": percentile(samples, q) if enough else None,
            "unit": unit, "n": n}


def _samples(state: RunState) -> Dict[str, List[float]]:
    """Post-warm-up simulated latencies by role."""
    lags = list(state.probe_lags)
    return {
        "read": merged_latencies(state, READ_KINDS),
        "write": merged_latencies(state, WRITE_KINDS),
        "fresh": list(state.latencies.get("get_view_fresh", ())),
        # Drop the probe's own first tenth, as for every other client.
        "lag": lags[len(lags) // 10:],
    }


def client_metrics(state: RunState) -> Dict[str, Dict[str, Any]]:
    """Every ``sim_*`` end-to-end metric of a finished run."""
    t0, t1, in_window = (state.window_start, state.window_end,
                         state.window_ops)
    samples = _samples(state)
    reads, writes = samples["read"], samples["write"]
    fresh, lags = samples["fresh"], samples["lag"]
    every = reads + writes + fresh
    return {
        "sim_throughput_ops_s": {
            "value": in_window / (t1 - t0) * 1000.0 if t1 > t0 else None,
            "unit": "1/s", "n": in_window},
        "sim_op_p50_ms": _timing(every, 50),
        "sim_op_p95_ms": _timing(every, 95),
        "sim_read_p50_ms": _timing(reads, 50),
        "sim_read_p99_ms": _timing(reads, 99),
        "sim_write_p50_ms": _timing(writes, 50),
        "sim_write_p99_ms": _timing(writes, 99),
        "sim_fresh_read_p50_ms": _timing(fresh, 50),
        "sim_fresh_read_p99_ms": _timing(fresh, 99),
        "sim_visibility_lag_p50_ms": _timing(lags, 50),
        "sim_visibility_lag_p95_ms": _timing(lags, 95),
    }


def host_metrics(state: RunState, segments: List[Segment]) -> Dict[str, Any]:
    """Normalised throughput plus the raw numbers that say how far to
    trust it."""
    steady = [s for s in segments
              if s.sim_start >= state.window_start
              and s.sim_end <= state.window_end]
    if len(steady) >= 3:
        rate = median(s.ops / s.norm_s for s in steady)
    else:  # too short a run to have steady segments: use all of it
        rate = (sum(s.ops for s in segments)
                / sum(s.norm_s for s in segments))
    raw_wall = sum(s.wall_s for s in segments)
    ops = sum(s.ops for s in segments)
    return {
        "host_ops_per_s": {"value": rate, "unit": "1/s",
                           "n": len(steady) or len(segments)},
        "raw_wall_s": raw_wall,
        "raw_ops_per_s": ops / raw_wall,
        "norm_s_per_op": sum(s.norm_s for s in segments) / ops,
        **speed_summary(segments),
    }


def run_clients(state: RunState, budget: int, watch: Stopwatch
                ) -> List[Segment]:
    """The timed window: start the clients, run them out, drain."""
    gc.collect()
    start_clients(state, budget)
    segments = _run_segments(state, watch, budget, RUN_SEGMENTS)
    # The drain is host time the traced window covers, so it is timed,
    # but it completes no client op and is no throughput segment.
    watch.time(state.cluster.run_until_idle)
    return segments


def check(state: RunState, corrupt: bool = False) -> Dict[str, int]:
    """Run the client-API correctness check; returns rows/mismatches.

    ``corrupt`` flips one expected payload first — the smoke test uses
    it to prove the check can fail."""
    expected = state.expected
    if corrupt:
        key = min(expected)
        row = dict(expected[key])
        row["payload"] = (row["payload"][0], "corrupted-on-purpose")
        expected = {**expected, key: row}
    result: Dict[str, int] = {}
    if state.tracer is not None:
        state.tracer.enabled = False
        state.tracer = None
    start_check(state, result, expected)
    state.cluster.run_until_idle()
    return result


def run_workload(name: str, seed: int, seconds: float, *, scale: float = 1.0,
                 setup_repeats: int = SETUP_REPEATS,
                 tracer: Optional[tracing.Tracer] = None,
                 corrupt_check: bool = False) -> Dict[str, Any]:
    """Set up, run and check one workload; returns the full result."""
    spec = SPECS[name]
    budget = op_budget(spec, seconds, scale)
    setups: List[float] = []
    setup_segments: List[Segment] = []
    state = None
    started = time.perf_counter()
    for _ in range(setup_repeats):
        state = None  # drop the previous cluster before building the next
        gc.collect()
        watch = Stopwatch()
        state = set_up(spec, seed, watch, tracer)
        setups.append(sum(s.norm_s for s in watch.segments))
        setup_segments.extend(watch.segments)

    set_up_at = time.perf_counter()
    if tracer is not None:
        tracer.enabled = True
        before = tracer.snapshot()
        counters_before = read_counters(state.cluster)
    sim_before = state.env.now
    watch = Stopwatch()
    segments = run_clients(state, budget, watch)
    layers = None
    if tracer is not None:
        layers = layer_metrics(
            tracer.window(before), state, counters_before,
            read_counters(state.cluster),
            traced_wall_s=sum(s.wall_s for s in watch.segments),
            sim_elapsed_ms=state.env.now - sim_before)

    ran_at = time.perf_counter()
    checked = check(state, corrupt=corrupt_check)
    checked_at = time.perf_counter()
    metrics = client_metrics(state)
    host = host_metrics(state, segments)
    metrics["host_ops_per_s"] = host.pop("host_ops_per_s")
    metrics["setup_s"] = {"value": median(setups), "unit": "s",
                          "n": len(setups), "repeats": setups}
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MiB", "n": 1}
    metrics["failed_ops_frac"] = {
        "value": state.failed / state.attempted, "unit": "fraction",
        "n": state.attempted}
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "op_budget": budget,
        "clients": CLIENTS,
        "completed_ops": state.completed,
        "attempted": state.attempted,
        "failed": state.failed,
        "check": checked,
        "correct": state.failed == 0 and checked["mismatches"] == 0,
        "metrics": {key: metrics[key] for key in END_TO_END},
        "host": {**host, "ref_loop_s_nominal": REF_LOOP_S_NOMINAL,
                 "setup_speed": speed_summary(setup_segments)},
        "bench": {"probe_late_ms_max": state.probe_late_ms_max,
                  "probe_samples": len(state.probe_lags),
                  "probe_polls": state.probe_polls,
                  "run_segments": len(segments),
                  "phase_wall_s": {"setup": set_up_at - started,
                                   "run": ran_at - set_up_at,
                                   "check": checked_at - ran_at}},
        "client_layer": client_layer(_samples(state)),
    }
    if layers is not None:
        result["layers"] = layers
    return result


def traced_run(name: str, seed: int, seconds: float, out: Path
               ) -> Dict[str, Any]:
    """The per-layer run: the workload at a quarter of its op count,
    once untraced and once under the tracer, in one process.

    The untraced pass gives the raw host numbers, the ``client.*`` rows
    and the base of ``bench.trace_overhead_ratio``.  The two passes must
    agree on every simulated metric — the tracer schedules no event, so
    it may not move the simulation — or the run is not ``correct``.
    """
    plain = run_workload(name, seed, seconds, scale=TRACE_SCALE,
                         setup_repeats=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_workload(name, seed, seconds, scale=TRACE_SCALE,
                              setup_repeats=1, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(out, f"{name}-seed{seed}")
    undisturbed = all(
        plain["metrics"][key]["value"] == traced["metrics"][key]["value"]
        for key in END_TO_END if key.startswith("sim_"))
    host = plain["host"]
    layers = dict(traced["layers"])
    layers.update(plain["client_layer"])
    layers.update({
        "host.raw_wall_s": host["raw_wall_s"],
        "host.raw_ops_per_s": host["raw_ops_per_s"],
        "host.ref_loop_s_median": host["ref_loop_s_median"],
        "host.speed_factor_min": host["speed_factor_min"],
        "host.speed_factor_max": host["speed_factor_max"],
        "bench.probe_late_ms_max": plain["bench"]["probe_late_ms_max"],
        "bench.trace_overhead_ratio":
            traced["host"]["norm_s_per_op"] / host["norm_s_per_op"],
    })
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": TRACE_SCALE,
        "op_budget": plain["op_budget"],
        "completed_ops": plain["completed_ops"],
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "correct": plain["correct"] and traced["correct"] and undisturbed,
        "trace_left_simulation_unchanged": undisturbed,
        "missing_targets": tracer.missing,
        "layers": layers,
        "untraced": plain,
    }
