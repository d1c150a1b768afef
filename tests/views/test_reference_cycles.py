"""Fault-free client traffic makes no reference cycle.

``Environment.run`` keeps the cyclic collector off while it drains the
heap and relies on reference counting to free what a run drops (see the
kernel's Performance notes).  That is only free if the traffic makes no
cycle: this drives each client op kind the benchmark's workloads use on
a default cluster and asserts the collector finds nothing afterwards.
Fault paths do make cycles (an exception and its traceback); those are
left to the collection ``run`` makes on its way out.
"""

import gc

import pytest

from repro import Cluster, ClusterConfig, ViewDefinition


@pytest.fixture
def no_automatic_collection():
    """Only the test's own ``gc.collect()`` calls may collect."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def test_client_traffic_makes_no_reference_cycle(no_automatic_collection):
    cluster = Cluster(ClusterConfig(seed=0))
    cluster.create_table("B")
    cluster.create_table("T")
    cluster.create_view(ViewDefinition("V", "T", "sec", ("payload",)))
    writer, reader = cluster.client(), cluster.client()
    reader.begin_session()
    results = {}

    def load():
        for key in range(4):
            yield from writer.put("T", key, {"sec": f"s{key}",
                                             "payload": f"p{key}"}, w=3)
            yield from writer.put("B", key, {"payload": f"p{key}"}, w=3)

    def traffic():
        yield from writer.put("B", 0, {"payload": "b"}, w=1)
        results["get"] = yield from writer.get("B", 0, ("payload",), r=1)
        yield from reader.put("T", 1, {"sec": "s0"}, w=1)    # moves the key
        yield from reader.put("T", 2, {"sec": None}, w=1)    # a tombstone
        results["get_view"] = yield from reader.get_view(
            "V", "s0", ("payload",), r=1)
        results["get_view_fresh"] = yield from writer.get_view_fresh(
            "V", "s3", ("payload",), r=1, max_staleness_ms=50.0)

    cluster.env.process(load())
    cluster.run_until_idle()
    gc.collect()
    cluster.env.process(traffic())
    cluster.run_until_idle()
    assert gc.collect() == 0

    assert results["get"]["payload"][0] == "b"
    assert sorted(row.base_key for row in results["get_view"]) == [0, 1]
    assert [row.base_key for row in results["get_view_fresh"]] == [3]
    assert cluster.view_manager is not None   # still referenced here
