"""Tests for generators, stats, and the closed-loop runner."""

import random

import pytest

from repro.cluster import Cluster
from repro.workloads import (
    LatencyRecorder,
    RangeKeys,
    UniformKeys,
    ZipfianKeys,
    measure_latency,
    read_op,
    run_closed_loop,
    value_string,
    write_op,
)

from tests.cluster.conftest import make_config


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@pytest.fixture
def rng():
    return random.Random(7)


def test_uniform_keys_in_range(rng):
    chooser = UniformKeys(100)
    samples = [chooser.choose(rng) for _ in range(1000)]
    assert all(0 <= s < 100 for s in samples)
    assert len(set(samples)) > 50
    assert chooser.population == 100


def test_uniform_rejects_zero():
    with pytest.raises(ValueError):
        UniformKeys(0)


def test_range_keys_window(rng):
    chooser = RangeKeys(width=10, start=50)
    samples = [chooser.choose(rng) for _ in range(500)]
    assert all(50 <= s < 60 for s in samples)
    assert chooser.population == 10


def test_range_width_one_is_single_key(rng):
    chooser = RangeKeys(width=1, start=3)
    assert {chooser.choose(rng) for _ in range(20)} == {3}


def test_zipfian_is_skewed(rng):
    chooser = ZipfianKeys(1000, theta=0.99)
    samples = [chooser.choose(rng) for _ in range(5000)]
    hot = sum(1 for s in samples if s < 10)
    assert hot > len(samples) * 0.2  # top-1% keys get >20% of accesses
    assert all(0 <= s < 1000 for s in samples)


def test_zipfian_parameter_validation():
    with pytest.raises(ValueError):
        ZipfianKeys(0)
    with pytest.raises(ValueError):
        ZipfianKeys(10, theta=0.0)


@pytest.mark.parametrize("theta", [0.6, 0.99, 1.4])
def test_zipfian_head_mass_matches_theory(theta):
    """Empirical head-key frequency tracks its theoretical Zipf mass.

    The rank-0 key's probability is 1/H(n, theta) where H is the
    generalized harmonic number the generator normalizes by.  Across
    independent seeds the empirical frequency must land within 25%
    relative error of theory — loose enough for 4000-sample noise,
    tight enough to catch an off-by-one in the rank exponent (rank 1
    mass differs from rank 0 by 2**theta).
    """
    count, draws = 200, 4_000
    harmonic = sum(1.0 / (rank + 1) ** theta for rank in range(count))
    expected = 1.0 / harmonic
    for seed in (1, 7, 23):
        seeded = random.Random(seed)
        chooser = ZipfianKeys(count, theta=theta)
        hits = sum(chooser.choose(seeded) == 0 for _ in range(draws))
        empirical = hits / draws
        assert empirical == pytest.approx(expected, rel=0.25), (
            theta, seed, empirical, expected)


def test_zipfian_rank_frequencies_are_monotone():
    """Lower ranks must not be systematically colder than higher ones."""
    chooser = ZipfianKeys(50, theta=1.2)
    seeded = random.Random(11)
    counts = [0] * 50
    for _ in range(6_000):
        counts[chooser.choose(seeded)] += 1
    # Compare well-separated ranks so sampling noise cannot reorder them.
    assert counts[0] > counts[4] > counts[20]


def test_value_string(rng):
    value = value_string(rng, length=24)
    assert len(value) == 24
    assert value != value_string(rng, length=24)


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


def test_latency_recorder_summary():
    recorder = LatencyRecorder()
    for v in (1.0, 2.0, 3.0, 4.0, 5.0):
        recorder.record(v)
    assert recorder.count == 5
    assert recorder.mean == 3.0
    assert recorder.percentile(0) == 1.0
    assert recorder.percentile(50) == 3.0
    assert recorder.percentile(100) == 5.0


def test_latency_recorder_empty():
    recorder = LatencyRecorder()
    assert recorder.mean == 0.0
    assert recorder.percentile(99) == 0.0


def test_percentile_bounds():
    with pytest.raises(ValueError):
        LatencyRecorder().percentile(101)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def build_cluster():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    client = cluster.sync_client()
    for i in range(50):
        client.put("T", i, {"payload": f"v{i}"}, w=3)
    client.settle()
    return cluster


def test_measure_latency_counts_requests():
    cluster = build_cluster()
    result = measure_latency(
        cluster, read_op("T", UniformKeys(50), ["payload"]), requests=100)
    assert result.operations == 100
    assert result.errors == 0
    assert result.mean_latency > 0
    # Fixed links: client hop 0.1*2 + replica hop 0.1*2 + service.
    assert 0.4 < result.mean_latency < 1.5


def test_closed_loop_throughput_scales_with_clients():
    cluster_one = build_cluster()
    one = run_closed_loop(cluster_one,
                          read_op("T", UniformKeys(50), ["payload"]),
                          clients=1, duration=200.0, warmup=20.0)
    cluster_four = build_cluster()
    four = run_closed_loop(cluster_four,
                           read_op("T", UniformKeys(50), ["payload"]),
                           clients=4, duration=200.0, warmup=20.0)
    assert one.operations > 50
    assert four.throughput > 2 * one.throughput


def test_closed_loop_rejects_bad_window():
    cluster = build_cluster()
    with pytest.raises(ValueError):
        run_closed_loop(cluster, read_op("T", UniformKeys(50), ["p"]),
                        clients=1, duration=10.0, warmup=10.0)


def test_write_op_applies_updates():
    cluster = build_cluster()
    result = run_closed_loop(cluster, write_op("T", UniformKeys(50), "sec"),
                             clients=2, duration=100.0)
    assert result.operations > 20
    reader = cluster.sync_client()
    changed = sum(
        1 for i in range(50)
        if reader.get("T", i, ["sec"], r=3)["sec"][0] is not None)
    assert changed > 0


def test_think_time_lowers_throughput():
    cluster_a = build_cluster()
    fast = run_closed_loop(cluster_a,
                           read_op("T", UniformKeys(50), ["payload"]),
                           clients=1, duration=200.0)
    cluster_b = build_cluster()
    slow = run_closed_loop(cluster_b,
                           read_op("T", UniformKeys(50), ["payload"]),
                           clients=1, duration=200.0, think_time=5.0)
    assert slow.throughput < fast.throughput / 2


def test_runs_are_reproducible():
    a = run_closed_loop(build_cluster(),
                        read_op("T", UniformKeys(50), ["payload"]),
                        clients=3, duration=150.0, warmup=10.0)
    b = run_closed_loop(build_cluster(),
                        read_op("T", UniformKeys(50), ["payload"]),
                        clients=3, duration=150.0, warmup=10.0)
    assert a.operations == b.operations
    assert a.mean_latency == b.mean_latency
