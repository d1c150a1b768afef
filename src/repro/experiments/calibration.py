"""Calibration: mapping the paper's testbed onto the simulator.

The paper's cluster: 4 nodes, 2.4 GHz dual-core Opterons, 8 GB RAM,
1 Gb private LAN, replication factor 3, a 1 M-row / ~1 GB table fully in
memory.  The simulated cluster mirrors the topology (4 nodes, 2 cores,
N = 3) and LAN-class latencies; data sizes and run durations are scaled
down (the table below) so every figure regenerates in seconds while
keeping all the contention effects that produce the paper's shapes.

| quantity            | paper      | here (defaults)     |
|---------------------|------------|---------------------|
| table rows          | 1,000,000  | 2,000               |
| latency requests    | 100,000    | 400                 |
| throughput run      | 5 min      | 1.5 simulated s     |
| session-pair count  | 100,000    | 200 per gap         |
| skew run            | 5 min      | 1.5 simulated s     |

The experiments use R = W = 1 (Cassandra's default consistency level,
and the natural reading of the paper's setup); view-maintenance
internals always use majority quorums per Algorithm 2.

Figure 7's shape depends on the prototype's asynchronous propagation
times, which stretched to ~640 ms on the paper's testbed (their Figure 7
levels off there).  The per-experiment config for Figure 7 therefore
uses a heavy-tailed (log-normal) propagation scheduling delay with a
tail reaching ~600 ms; all other figures keep the default sub-ms delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.cluster import ClusterConfig
from repro.sim.latency import LogNormal

__all__ = ["ExperimentParams", "experiment_config", "fig7_config"]


@dataclass(frozen=True)
class ExperimentParams:
    """Scaled-down workload sizes for the experiment suite."""

    rows: int = 2_000
    payload_length: int = 16
    latency_requests: int = 400
    throughput_duration: float = 1_500.0
    warmup: float = 250.0
    client_counts: Tuple[int, ...] = (1, 2, 4, 6, 8, 10)
    read_quorum: int = 1
    write_quorum: int = 1
    seed: int = 0

    # Figure 7.
    session_pairs: int = 200
    session_gaps: Tuple[float, ...] = (10, 20, 40, 80, 160, 320, 640, 1000)

    # Figure 8.
    skew_clients: int = 10
    skew_duration: float = 1_500.0
    skew_ranges: Tuple[int, ...] = (1, 10, 100, 1_000, 10_000, 100_000)

    # Extension E2 (ext_repair): rows in the scrubbed table, workload
    # updates, propagations deterministically lost to coordinator
    # crashes, post-workload observation window, and sampling cadence.
    repair_rows: int = 120
    repair_updates: int = 80
    repair_crashes: int = 6
    repair_duration: float = 800.0
    repair_sample_every: float = 40.0

    # Extension E3 (ext_outburst): queue-based load leveling.  Steady
    # update phase (one Put per ``outburst_steady_gap`` ms), then a
    # burst ``outburst_burst_factor`` times faster on a hot key subset,
    # then drain; the per-node outbox is bounded at
    # ``outburst_capacity`` records.
    outburst_keys: int = 96
    outburst_steady_ops: int = 60
    outburst_burst_ops: int = 240
    outburst_steady_gap: float = 6.0
    outburst_burst_factor: float = 10.0
    outburst_sample_every: float = 5.0
    outburst_capacity: int = 32

    # Extension E4 (ext_adversary): workload ops per adversary stack.
    adversary_ops: int = 120

    # Extension E5 (ext_skew): Zipfian view-key updates, eager versus
    # adaptive heavy/light maintenance.  ``zipf_thetas`` spans mild to
    # severe skew; the >= 2x acceptance point sits at theta >= 1.2.
    zipf_population: int = 512
    zipf_thetas: Tuple[float, ...] = (0.2, 0.6, 0.9, 1.2, 1.4)
    zipf_clients: int = 10
    zipf_duration: float = 1_200.0

    # Extension E6 (ext_staleness): bounded-staleness view reads.  Rows
    # in the grouped table, workload updates, propagations
    # deterministically lost to coordinator crashes, bounded reads per
    # cell, and the swept staleness bounds (``None`` = unbounded cell,
    # then loosest to tightest in sim-ms).
    staleness_rows: int = 96
    staleness_updates: int = 90
    staleness_crashes: int = 8
    staleness_reads: int = 120
    staleness_bounds: Tuple[Optional[float], ...] = (
        None, 200.0, 80.0, 30.0, 10.0, 3.0)

    def quick(self) -> "ExperimentParams":
        """A much smaller variant for tests of the experiment harness."""
        return ExperimentParams(
            rows=300,
            latency_requests=60,
            throughput_duration=300.0,
            warmup=50.0,
            client_counts=(1, 4),
            session_pairs=30,
            session_gaps=(10, 160, 640),
            skew_clients=4,
            skew_duration=300.0,
            skew_ranges=(1, 100, 10_000),
            repair_rows=40,
            repair_updates=30,
            repair_crashes=3,
            repair_duration=400.0,
            repair_sample_every=40.0,
            outburst_keys=32,
            outburst_steady_ops=20,
            outburst_burst_ops=100,
            outburst_sample_every=5.0,
            adversary_ops=40,
            zipf_population=128,
            zipf_thetas=(0.6, 1.2),
            zipf_clients=4,
            zipf_duration=300.0,
            staleness_rows=32,
            staleness_updates=30,
            staleness_crashes=4,
            staleness_reads=40,
            staleness_bounds=(None, 80.0, 10.0),
            seed=self.seed,
        )


def experiment_config(seed: int = 0, **overrides) -> ClusterConfig:
    """The paper-testbed-shaped cluster config (4 nodes, N=3, 2 cores)."""
    defaults = dict(
        nodes=4,
        replication_factor=3,
        cores_per_node=2,
        seed=seed,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def fig7_config(seed: int = 0, **overrides) -> ClusterConfig:
    """Figure 7's config: heavy-tailed propagation scheduling delay.

    LogNormal(median 1 ms, sigma 2.0): most propagations finish within a
    few ms (so the extra blocking at small gaps stays a few ms, as in the
    paper's ~3.5 ms at a 10 ms gap) but the tail stretches to hundreds of
    ms, so the curve keeps falling until the ~640 ms gap where nearly all
    propagations beat the client — matching where the paper's Figure 7
    levels off.
    """
    defaults = dict(
        propagation_delay=LogNormal(median=1.0, sigma=2.0),
        # Propagations are slow here; give the coordinator headroom so
        # Puts are not throttled by back-pressure.
        max_pending_propagations=512,
    )
    defaults.update(overrides)
    return experiment_config(seed=seed, **defaults)
