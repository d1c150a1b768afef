"""A view entry is two kinds of cell: its ``Next`` pointer and its
materialized cells.

There is no ``B`` cell (readers take the base key from the cell names)
and no ``Init`` cell or mark: a move stales the old row before it writes
the new one already live (Section IV-F, :mod:`repro.views.maintenance`).
"""

from collections import Counter

import pytest

from repro.cluster import Cluster
from repro.views import ViewDefinition

from tests.views.conftest import make_config


def test_view_rows_hold_a_pointer_and_the_materialized_cells_only():
    """Width guard: move M base rows through one view key K times; every
    replica's copy of that row holds ``1 + |materialized|`` cells per
    live entry, at most that many per stale entry, no ``B`` or ``Init``
    cell, and a row read is charged for exactly its width."""
    m_rows, k_times = 6, 4
    cluster = Cluster(make_config())
    cluster.create_table("T")
    view = ViewDefinition("V", "T", "vk", ("m",))
    cluster.create_view(view)
    client = cluster.sync_client()
    for round_ in range(k_times):
        for i in range(m_rows):
            for vk in ("hub", f"x{round_}.{i}"):
                client.put("T", i, {"vk": vk, "m": f"m{round_}.{i}"})
    for i in range(m_rows // 2):
        client.put("T", i, {"vk": "hub"})
    client.settle()

    per_entry = 1 + len(view.materialized_columns)
    replicas = cluster.replicas_for("V", "hub")
    for replica in replicas:
        row = replica.engine.read_row("V", "hub")
        assert {column for _base, column in row} <= {"Next", "m"}
        widths = Counter(base_key for base_key, _column in row)
        live = {base_key for (base_key, column), cell in row.items()
                if column == "Next" and cell.value == "hub"}
        assert live == set(range(m_rows // 2))
        assert set(widths) == set(range(m_rows))
        for base_key, width in widths.items():
            if base_key in live:
                assert width == per_entry
            else:
                assert width <= per_entry
        assert replica.engine.row_width("V", "hub") == len(row)

    (outsider,) = [node for node in cluster.nodes if node not in replicas]
    before = {replica.node_id: replica.busy_time for replica in replicas}
    process = cluster.env.process(
        cluster.coordinator(outsider.node_id).get_row("V", "hub", 1))
    cluster.env.run(until=process)
    charged = [replica.busy_time - before[replica.node_id]
               for replica in replicas
               if replica.busy_time != before[replica.node_id]]
    width = replicas[0].engine.row_width("V", "hub")
    assert charged == [pytest.approx(
        cluster.config.service.read_cost(width))]
