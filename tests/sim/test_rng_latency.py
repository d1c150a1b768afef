"""Tests for RNG streams and latency distributions."""

import random

import pytest

from repro.sim import (
    Fixed,
    LogNormal,
    RandomStreams,
    ShiftedExponential,
    Uniform,
    derive_seed,
)


# ---------------------------------------------------------------------------
# RandomStreams
# ---------------------------------------------------------------------------


def test_streams_are_deterministic_per_seed():
    a = RandomStreams(42).stream("net")
    b = RandomStreams(42).stream("net")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_streams_differ_by_name():
    streams = RandomStreams(42)
    a = streams.stream("net")
    b = streams.stream("client-0")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_streams_differ_by_seed():
    a = RandomStreams(1).stream("net")
    b = RandomStreams(2).stream("net")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_stream_memoized():
    streams = RandomStreams(7)
    assert streams.stream("x") is streams.stream("x")


def test_fork_is_independent():
    """Named streams of one factory differ, and drawing from one leaves
    another's sequence as it was."""
    first = RandomStreams(42).stream("net")
    alone = [first.random() for _ in range(5)]
    streams = RandomStreams(42)
    sub = [streams.stream("sub").random() for _ in range(5)]
    net = [streams.stream("net").random() for _ in range(5)]
    assert net == alone
    assert sub != net


def test_derive_seed_stable():
    assert derive_seed(42, "x") == derive_seed(42, "x")
    assert derive_seed(42, "x") != derive_seed(42, "y")


# ---------------------------------------------------------------------------
# Latency distributions
# ---------------------------------------------------------------------------


@pytest.fixture
def rng():
    return random.Random(123)


def test_fixed_latency(rng):
    model = Fixed(0.5)
    assert model.sample(rng) == 0.5
    assert model.mean == 0.5


def test_fixed_rejects_negative():
    with pytest.raises(ValueError):
        Fixed(-1.0)


def test_uniform_in_range(rng):
    model = Uniform(1.0, 2.0)
    samples = [model.sample(rng) for _ in range(1000)]
    assert all(1.0 <= s <= 2.0 for s in samples)
    assert abs(sum(samples) / len(samples) - model.mean) < 0.05


def test_uniform_rejects_bad_range():
    with pytest.raises(ValueError):
        Uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        Uniform(-1.0, 1.0)


def test_shifted_exponential(rng):
    model = ShiftedExponential(base=1.0, jitter_mean=0.5)
    samples = [model.sample(rng) for _ in range(20000)]
    assert all(s >= 1.0 for s in samples)
    assert abs(sum(samples) / len(samples) - 1.5) < 0.05
    assert model.mean == 1.5


def test_shifted_exponential_zero_jitter(rng):
    model = ShiftedExponential(base=2.0, jitter_mean=0.0)
    assert model.sample(rng) == 2.0


def test_lognormal_median(rng):
    model = LogNormal(median=4.0, sigma=0.5)
    samples = sorted(model.sample(rng) for _ in range(20001))
    observed_median = samples[len(samples) // 2]
    assert abs(observed_median - 4.0) < 0.3
    assert all(s > 0 for s in samples)


def test_lognormal_rejects_bad_params():
    with pytest.raises(ValueError):
        LogNormal(median=0.0, sigma=0.5)
    with pytest.raises(ValueError):
        LogNormal(median=1.0, sigma=-0.1)


# ---------------------------------------------------------------------------
# Bound draws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", [
    Fixed(0.5),
    Uniform(1.0, 2.0),
    ShiftedExponential(base=0.1, jitter_mean=0.05),
    ShiftedExponential(base=2.0, jitter_mean=0.0),
    LogNormal(median=4.0, sigma=0.5),
], ids=repr)
def test_a_bound_draw_is_sample_bit_for_bit(model):
    """``bind(rng)`` is ``sample(rng)`` without the argument: the same
    floats, to the last bit, taking the same draws off the stream."""
    sampled, bound = random.Random(2013), random.Random(2013)
    draw = model.bind(bound)
    expected = [model.sample(sampled) for _ in range(10_000)]
    got = [draw() for _ in range(10_000)]
    assert [float(x).hex() for x in got] == [float(x).hex() for x in expected]
    assert bound.getstate() == sampled.getstate()
