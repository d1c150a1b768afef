"""Tests for equi-join views (the PNUTS-style Section III extension)."""

import pytest

from repro.cluster import Cluster
from repro.errors import (
    NoSuchViewError,
    ViewDefinitionError,
    ViewExistsError,
)
from repro.views import JoinSide, JoinViewDefinition, check_view

from tests.views.conftest import make_config

JOIN = JoinViewDefinition(
    "ORDERS_WITH_CUSTOMERS",
    left=JoinSide("CUSTOMER", "region", ("name",)),
    right=JoinSide("ORDER", "region", ("total",)),
)


def build():
    cluster = Cluster(make_config())
    cluster.create_table("CUSTOMER")
    cluster.create_table("ORDER")
    cluster.create_join_view(JOIN)
    return cluster, cluster.sync_client()


# ---------------------------------------------------------------------------
# Definition validation
# ---------------------------------------------------------------------------


def test_join_definition_requires_name():
    with pytest.raises(ViewDefinitionError):
        JoinViewDefinition("", JoinSide("A", "k"), JoinSide("B", "k"))


def test_self_join_rejected():
    with pytest.raises(ViewDefinitionError):
        JoinViewDefinition("J", JoinSide("A", "k"), JoinSide("A", "k"))


def test_child_view_names():
    assert JOIN.left_view_name == "ORDERS_WITH_CUSTOMERS__left"
    assert JOIN.right_view_name == "ORDERS_WITH_CUSTOMERS__right"
    left, right = JOIN.child_definitions()
    assert left.base_table == "CUSTOMER"
    assert right.base_table == "ORDER"
    assert left.view_key_column == right.view_key_column == "region"


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------


def test_register_creates_child_views():
    cluster, _client = build()
    manager = cluster.view_manager
    assert manager.is_view(JOIN.left_view_name)
    assert manager.is_view(JOIN.right_view_name)
    assert manager.joins.view("ORDERS_WITH_CUSTOMERS") is JOIN


def test_duplicate_join_rejected():
    cluster, _client = build()
    with pytest.raises(ViewExistsError):
        cluster.create_join_view(JOIN)


def test_unknown_join_lookup():
    cluster, client = build()
    with pytest.raises(NoSuchViewError):
        client.get_join("NOPE", "x", ["name"], ["total"])


# ---------------------------------------------------------------------------
# Join reads
# ---------------------------------------------------------------------------


def load_sample(client):
    client.put("CUSTOMER", "c1", {"region": "east", "name": "Ada"})
    client.put("CUSTOMER", "c2", {"region": "west", "name": "Alan"})
    client.put("ORDER", "o1", {"region": "east", "total": 10})
    client.put("ORDER", "o2", {"region": "east", "total": 20})
    client.put("ORDER", "o3", {"region": "west", "total": 30})
    client.settle()


def test_join_pairs_matching_rows():
    _cluster, client = build()
    load_sample(client)
    results = client.get_join("ORDERS_WITH_CUSTOMERS", "east",
                              ["name"], ["total"])
    pairs = sorted((r.left_key, r.right_key, r.left("name"),
                    r.right("total")) for r in results)
    assert pairs == [("c1", "o1", "Ada", 10), ("c1", "o2", "Ada", 20)]


def test_join_one_to_one():
    _cluster, client = build()
    load_sample(client)
    results = client.get_join("ORDERS_WITH_CUSTOMERS", "west",
                              ["name"], ["total"])
    assert len(results) == 1
    (pair,) = results
    assert pair.join_key == "west"
    assert pair.left("name") == "Alan"
    assert pair.right("total") == 30


def test_join_empty_when_one_side_missing():
    _cluster, client = build()
    client.put("CUSTOMER", "c9", {"region": "north", "name": "Solo"})
    client.settle()
    assert client.get_join("ORDERS_WITH_CUSTOMERS", "north",
                           ["name"], ["total"]) == []


def test_join_many_to_many():
    _cluster, client = build()
    for i in range(3):
        client.put("CUSTOMER", f"c{i}", {"region": "hub", "name": f"n{i}"})
    for j in range(4):
        client.put("ORDER", f"o{j}", {"region": "hub", "total": j})
    client.settle()
    results = client.get_join("ORDERS_WITH_CUSTOMERS", "hub",
                              ["name"], ["total"])
    assert len(results) == 12


def test_join_tracks_updates_on_both_sides():
    _cluster, client = build()
    load_sample(client)
    # Move order o3 to the east region.
    client.put("ORDER", "o3", {"region": "east"})
    client.settle()
    east = client.get_join("ORDERS_WITH_CUSTOMERS", "east",
                           ["name"], ["total"])
    assert sorted(r.right_key for r in east) == ["o1", "o2", "o3"]
    assert client.get_join("ORDERS_WITH_CUSTOMERS", "west",
                           ["name"], ["total"]) == []
    # Delete customer c1's region: east pairs disappear entirely.
    client.put("CUSTOMER", "c1", {"region": None})
    client.settle()
    assert client.get_join("ORDERS_WITH_CUSTOMERS", "east",
                           ["name"], ["total"]) == []


def test_join_children_maintain_invariants():
    cluster, client = build()
    load_sample(client)
    client.put("ORDER", "o1", {"region": "west"})
    client.put("CUSTOMER", "c2", {"region": "east"})
    client.settle()
    left, right = JOIN.child_definitions()
    assert check_view(cluster, left) == []
    assert check_view(cluster, right) == []


def test_join_with_session_guarantee():
    cluster = Cluster(make_config())
    cluster.create_table("CUSTOMER")
    cluster.create_table("ORDER")
    cluster.create_join_view(JOIN)
    client = cluster.client()
    env = cluster.env
    outcome = {}

    def scenario():
        client.begin_session()
        yield from client.put("CUSTOMER", "c1",
                              {"region": "e", "name": "Ada"}, 2)
        yield from client.put("ORDER", "o1", {"region": "e", "total": 5}, 2)
        results = yield from client.get_join(
            "ORDERS_WITH_CUSTOMERS", "e", ["name"], ["total"], 2)
        outcome["results"] = results
        client.end_session()

    env.run(until=env.process(scenario()))
    cluster.run_until_idle()
    (pair,) = outcome["results"]
    assert pair.left("name") == "Ada" and pair.right("total") == 5
