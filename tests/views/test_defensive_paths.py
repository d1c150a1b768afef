"""Defensive error paths: corrupted states must fail loudly, not hang."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.common import Cell
from repro.errors import ViewError
from repro.views import ViewDefinition, ViewKeyGuess, drive
from repro.views.maintenance import ViewMaintainer
from repro.views.versioned import PHASE_STALE, view_timestamp

from tests.views.conftest import make_config

VIEW = ViewDefinition("V", "T", "vk", ("m",))


def build():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    cluster.create_view(VIEW)
    return cluster


def plant(cluster, view_key, cells):
    for replica in cluster.replicas_for("V", view_key):
        replica.engine.apply("V", view_key, cells)


def test_pointer_cycle_detected_not_infinite():
    """A (corrupt) pointer cycle must raise, not walk forever.  Its two
    pointers share a base timestamp, so every hop lands: a rising pair
    (a -> b @ 10, b -> a @ 11) is a legal cut move, not a cycle."""
    cluster = build()
    # a -> b -> a, neither live.
    plant(cluster, "a", {("k", "Next"): Cell("b", view_timestamp(10, PHASE_STALE))})
    plant(cluster, "b", {("k", "Next"): Cell("a", view_timestamp(10, PHASE_STALE))})
    maintainer = ViewMaintainer(
        cluster.env, cluster.config.replication_factor, cluster.tracer)
    coordinator = cluster.coordinator(0)

    def proc():
        with pytest.raises(ViewError):
            yield from maintainer.get_live_key(
                coordinator, VIEW, "k", ViewKeyGuess("a", 10))

    process = cluster.env.process(proc())
    cluster.env.run(until=process)


def test_propagation_gives_up_loudly_after_max_rounds(monkeypatch):
    """A guess set that can never succeed must abort with a clear error
    after drive.MAX_ROUNDS, not hang."""
    from repro.errors import ProcessError

    monkeypatch.setattr(drive, "RETRY_BACKOFF", 0.1)
    monkeypatch.setattr(drive, "MAX_ROUNDS", 3)
    cluster = Cluster(make_config())
    cluster.create_table("T")
    cluster.create_view(VIEW)
    manager = cluster.view_manager
    coordinator = cluster.coordinator(0)
    # The chain's first job succeeds whatever its guess (it walks
    # nowhere), so one propagation comes first.
    cluster.env.run(until=cluster.env.process(drive.propagate_with_retries(
        manager, coordinator, VIEW, "T", "k",
        [ViewKeyGuess.from_cell(VIEW, None)], {"m": "x"}, 5)))
    # A guess referencing a view key that will never exist, with no
    # refresh able to help (the base row has nothing either).
    hopeless = [ViewKeyGuess("never-there", 10)]
    process = cluster.env.process(drive.propagate_with_retries(
        manager, coordinator, VIEW, "T", "k", hopeless, {"m": "x"}, 10))
    with pytest.raises(Exception):
        cluster.env.run(until=process)


# ---------------------------------------------------------------------------
# Dirty-bucket properties
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    rows=st.dictionaries(st.integers(0, 60),
                         st.integers(0, 5), min_size=1, max_size=30),
    mutations=st.sets(st.integers(0, 60), max_size=5),
)
def test_merkle_diff_detects_exactly_the_divergent_buckets(rows, mutations):
    """A bucket is flagged iff it holds a mutated row."""
    from unittest import mock

    from repro.repair import detector
    from repro.repair.scanner import bucket_of

    depth = 5
    expected = {key: {"c": Cell.make(value, 1)}
                for key, value in rows.items()}
    actual = {key: ({"c": Cell.make(rows[key] + 1000, 2)}
                    if key in mutations else dict(cells))
              for key, cells in expected.items()}
    with mock.patch.object(detector, "live_entries", return_value={}), \
            mock.patch.object(detector, "expected_canonical_rows",
                              return_value=expected), \
            mock.patch.object(detector, "actual_canonical_rows",
                              return_value=actual):
        found, _live = detector.dirty_buckets(None, None, depth)
    assert found == sorted({bucket_of(key, depth)
                            for key in mutations if key in rows})
