"""Shared fixtures and helpers for view tests."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.common import Cell
from repro.sim.latency import Fixed
from repro.views import ViewDefinition, ViewKeyGuess
from repro.views.maintenance import ViewMaintainer


def make_config(**overrides) -> ClusterConfig:
    defaults = dict(
        nodes=4,
        replication_factor=3,
        client_link=Fixed(0.1),
        replica_link=Fixed(0.1),
        propagation_delay=Fixed(0.05),
        seed=99,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def make_cluster(**overrides) -> Cluster:
    cluster = Cluster(make_config(**overrides))
    cluster.create_table("B")
    return cluster


TICKET_VIEW = ViewDefinition(
    "ASSIGNEDTO", "TICKET", "AssignedTo", ("Status",))


@pytest.fixture
def ticket_cluster():
    """The paper's Figure 1 database, fully propagated."""
    cluster = Cluster(make_config())
    cluster.create_table("TICKET")
    cluster.create_view(TICKET_VIEW)
    client = cluster.sync_client()
    rows = [
        (1, "open", "rliu"),
        (2, "open", "kmsalem"),
        (3, "open", "kmsalem"),
        (4, "resolved", "rliu"),
        (5, "open", "cjin"),
        (6, "new", None),
        (7, "resolved", "cjin"),
    ]
    for ticket_id, status, assignee in rows:
        values = {"Status": status, "Description": "..."}
        if assignee is not None:
            values["AssignedTo"] = assignee
        client.put("TICKET", ticket_id, values, w=3)
    client.settle()
    return cluster


class DirectDriver:
    """Drives maintenance primitives sequentially for unit-level tests.

    Bypasses Algorithm 1 (the manager): tests choose exactly which update
    propagates when and with which guess, mirroring the sequential
    propagation assumption of Algorithm 2.
    """

    def __init__(self, cluster, view):
        self.cluster = cluster
        self.view = view
        self.maintainer = ViewMaintainer(
            cluster.env, cluster.config.replication_factor, cluster.tracer)
        self.coordinator = cluster.coordinator(0)

    def run(self, generator):
        process = self.cluster.env.process(generator)
        return self.cluster.env.run(until=process)

    def base_put(self, key, values, timestamp):
        """Write to the base table WITHOUT propagation (w = N)."""
        cells = {column: Cell.make(value, timestamp)
                 for column, value in values.items()}
        return self.run(self.coordinator.put(
            self.view.base_table, key, cells,
            self.cluster.config.replication_factor))

    def guess(self, value, timestamp, virtual=False):
        if value is None and virtual:
            return ViewKeyGuess.from_cell(self.view, None)
        return ViewKeyGuess.from_cell(self.view, Cell.make(value, timestamp))

    def propagate(self, key, guess, values, timestamp):
        """Run one PropagateUpdate to completion."""
        return self.run(self.maintainer.propagate_update(
            self.coordinator, self.view, key, guess, values, timestamp))

    def view_row(self, view_key):
        """Merged per-base-key entries of one view row (test introspection)."""
        from repro.views import collect_entries

        per_base = collect_entries(self.cluster, self.view)
        return {
            base_key: entries[view_key]
            for base_key, entries in per_base.items()
            if view_key in entries
        }

    def get_view(self, view_key, columns, r=2):
        from repro.views.read import view_get

        return self.run(view_get(self.coordinator, self.view, view_key,
                                 tuple(columns), r))
