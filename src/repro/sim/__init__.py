"""Discrete-event simulation substrate (kernel, resources, RNG, latencies)."""

from repro.sim.kernel import Environment, Event, Process, Timeout
from repro.sim.latency import (
    Fixed,
    LatencyModel,
    LogNormal,
    ShiftedExponential,
    Uniform,
)
from repro.sim.resources import Resource, Semaphore
from repro.sim.rng import RandomStreams, derive_seed

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Resource",
    "Semaphore",
    "RandomStreams",
    "derive_seed",
    "LatencyModel",
    "Fixed",
    "Uniform",
    "ShiftedExponential",
    "LogNormal",
]
