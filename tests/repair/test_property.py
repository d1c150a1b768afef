"""Property test: the scrubber converges crashed runs back to the oracle.

Random single-column workloads run through the full stack while a
deterministic crash hook loses a random subset of propagations (the base
writes are acknowledged; the view silently diverges).  The scrubber must
then, within a bounded number of rounds, restore exact agreement between
the view's live rows and the :mod:`repro.views.model` reference oracle —
and the repaired view must satisfy every structural invariant of
:func:`~repro.views.invariants.check_view`.

The oracle is fed every applied update: its *live* state depends only on
the latest base value per column, which is exactly the state the
scrubber re-drives into the view.  (Stale-row sets are not compared —
which intermediate versions got view rows depends on the crash
interleaving and is irrelevant to repair correctness.)
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import NodeDownError, QuorumError
from repro.repair import divergent_base_keys
from repro.scenarios import Adversary
from repro.views import (
    NULL_VIEW_KEY,
    BaseUpdate,
    ReferenceViewModel,
    check_view,
    live_entries,
)

from tests.repair.conftest import VIEW, build, run_for

BASE_KEYS = ["k1", "k2", "k3"]
VIEW_KEYS = ["a", "b", None]
MAT_VALUES = ["x", "y", None]


def update_strategy():
    return st.one_of(
        st.tuples(st.sampled_from(BASE_KEYS), st.just("vk"),
                  st.sampled_from(VIEW_KEYS)),
        st.tuples(st.sampled_from(BASE_KEYS), st.just("m"),
                  st.sampled_from(MAT_VALUES)),
    )


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    updates=st.lists(update_strategy(), min_size=2, max_size=10),
    crash_indices=st.sets(st.integers(min_value=0, max_value=9), max_size=3),
)
def test_scrub_after_crashes_restores_oracle_agreement(updates,
                                                       crash_indices):
    cluster = build()
    env = cluster.env
    manager = cluster.view_manager

    loss = Adversary()
    seen = [0]
    lost = []

    def crash_these(_view, key, base_ts) -> bool:
        index = seen[0]
        seen[0] += 1
        if index in crash_indices:
            lost.append((key, base_ts))
            return True
        return False

    if crash_indices:
        loss.lose(cluster, len(crash_indices), 10.0, match=crash_these)

    applied = []

    def workload():
        clients = {}
        for i, (key, column, value) in enumerate(updates):
            ts = (i + 1) * 10
            for attempt in range(12):
                coordinator_id = (i + attempt) % 4
                client = clients.get(coordinator_id)
                if client is None:
                    client = cluster.client(coordinator_id=coordinator_id)
                    clients[coordinator_id] = client
                try:
                    yield from client.put("T", key, {column: value}, 2, ts)
                except (NodeDownError, QuorumError):
                    yield env.timeout(5.0)
                    continue
                applied.append(BaseUpdate(key, column, value, ts))
                break
            else:
                raise AssertionError(f"update {i} never succeeded")
            yield env.timeout(4.0)

    process = env.process(workload())
    env.run(until=process)
    loss.stop()
    cluster.run_until_idle()  # drain in-flight propagation and revivals

    scrubber = cluster.start_scrubber(interval=20.0, rate_limit=0.05)
    rounds_cap = 40
    for _round in range(rounds_cap):
        if not divergent_base_keys(cluster, VIEW):
            break
        run_for(cluster, 50.0)
    else:
        raise AssertionError(
            f"scrubber did not converge within {rounds_cap} windows: "
            f"{divergent_base_keys(cluster, VIEW)}")
    scrubber.stop()
    cluster.run_until_idle()

    assert manager.lost_propagations == len(lost)
    assert divergent_base_keys(cluster, VIEW) == []
    # Structure: one live row per key, chains intact, no stuck Init.
    assert check_view(cluster, VIEW) == []

    # Live rows agree exactly with the reference oracle.
    reference = ReferenceViewModel(VIEW)
    for update in applied:
        reference.propagate(update)
    live = live_entries(cluster, VIEW)
    for key in BASE_KEYS:
        expected_live = reference.live_key_for(key)
        entries = live.get(key, {})
        if expected_live is None:
            assert entries == {}, (key, entries)
            continue
        assert list(entries) == [expected_live], (key, entries)
        if expected_live == NULL_VIEW_KEY:
            continue
        (entry,) = entries.values()
        expected_values = reference.live_values_for(key)
        assert expected_values is not None
        for column, expected_value in expected_values.items():
            cell = entry.cells.get(column)
            actual = (None if cell is None or cell.is_null else cell.value)
            assert actual == expected_value, (key, column)
