"""Tests for the view read path (Algorithm 4) details."""

import pytest

from repro.cluster import Cluster
from repro.errors import ViewError
from repro.views import NULL_VIEW_KEY, ViewDefinition
from repro.views.read import ViewResult

from tests.views.conftest import make_config

VIEW = ViewDefinition("V", "T", "vk", ("m", "n"))


def build():
    cluster = Cluster(make_config())
    cluster.create_table("T")
    cluster.create_view(VIEW)
    return cluster, cluster.sync_client()


def test_view_result_accessors():
    result = ViewResult("k", {"m": ("x", 10), "n": (None, -1)})
    assert result["m"] == "x"
    assert result["n"] is None
    assert result.values["m"] == ("x", 10)
    assert result.base_key == "k"


def test_empty_result_for_unknown_view_key():
    _cluster, client = build()
    assert client.get_view("V", "nothing-here", ["m"]) == []


def test_results_sorted_by_base_key():
    _cluster, client = build()
    for key in ("zz", "aa", "mm"):
        client.put("T", key, {"vk": "shared"})
    client.settle()
    rows = client.get_view("V", "shared", ["B"])
    assert [row.base_key for row in rows] == ["aa", "mm", "zz"]


def test_unset_columns_read_as_null():
    _cluster, client = build()
    client.put("T", "k", {"vk": "a", "m": "set"})
    client.settle()
    (row,) = client.get_view("V", "a", ["m", "n"])
    assert row["m"] == "set"
    assert row.values["n"] == (None, -1)


def test_tombstoned_materialized_column_reads_null_with_timestamp():
    _cluster, client = build()
    client.put("T", "k", {"vk": "a", "m": "x"})
    ts = client.put("T", "k", {"m": None})
    client.settle()
    (row,) = client.get_view("V", "a", ["m"])
    assert row.values["m"] == (None, ts)


def test_b_column_returns_base_key_and_key_timestamp():
    _cluster, client = build()
    ts = client.put("T", "k77", {"vk": "a"})
    client.settle()
    (row,) = client.get_view("V", "a", ["B"])
    assert row.values["B"] == ("k77", ts)


def test_timestamps_are_in_base_units():
    """Clients must never see the internal scaled timestamps."""
    _cluster, client = build()
    ts = client.put("T", "k", {"vk": "a", "m": "x"})
    client.settle()
    (row,) = client.get_view("V", "a", ["m", "B"])
    assert row.values["m"][1] == ts
    assert row.values["B"][1] == ts


def test_null_view_key_is_unreadable():
    cluster, client = build()
    with pytest.raises(ViewError):
        client.get_view("V", NULL_VIEW_KEY, ["m"])


def test_stale_rows_invisible():
    _cluster, client = build()
    client.put("T", "k", {"vk": "a", "m": "x"})
    client.settle()
    client.put("T", "k", {"vk": "b"})
    client.settle()
    assert client.get_view("V", "a", ["m"]) == []
    (row,) = client.get_view("V", "b", ["m"])
    assert row["m"] == "x"


def test_view_get_with_full_quorum():
    _cluster, client = build()
    client.put("T", "k", {"vk": "a", "m": "x"}, w=3)
    client.settle()
    (row,) = client.get_view("V", "a", ["m"], r=3)
    assert row["m"] == "x"


READS = {
    "get": ("T", "k", lambda client: client.get("T", "k", ["m"])),
    "get_view": ("V", "a", lambda client: client.get_view("V", "a", ["m"])),
    "get_view_fresh": ("V", "a", lambda client: client.get_view_fresh(
        "V", "a", ["m"], max_staleness_ms=None)),
}


@pytest.mark.parametrize("holds_replica", [True, False])
@pytest.mark.parametrize("read", sorted(READS))
def test_a_view_get_is_charged_like_a_base_get(read, holds_replica):
    """One client request, one coordinator charge: on an idle cluster an
    R = 1 read adds ``service.coordinator`` to its coordinator's CPU,
    plus the replica read's cost when it reads its own copy — a base
    Get (columns asked) and a view Get (row width) alike."""
    cluster, writer = build()
    writer.put("T", "k", {"vk": "a", "m": "x"}, w=3)
    writer.settle()
    table, key, send = READS[read]
    holders = {node.node_id for node in cluster.replicas_for(table, key)}
    (node_id,) = ([min(holders)] if holds_replica
                  else set(range(len(cluster.nodes))) - holders)
    node = cluster.node(node_id)
    service = cluster.config.service
    expected = service.coordinator
    if holds_replica:
        expected += service.read_cost(
            1 if table == "T" else node.engine.row_width(table, key))
    before = node.busy_time
    assert send(cluster.sync_client(node_id))
    assert node.busy_time - before == pytest.approx(expected)


def test_many_base_rows_under_one_view_key():
    _cluster, client = build()
    for i in range(25):
        client.put("T", i, {"vk": "busy", "m": i * 2})
    client.settle()
    rows = client.get_view("V", "busy", ["m"])
    assert len(rows) == 25
    assert sorted(row["m"] for row in rows) == [i * 2 for i in range(25)]
