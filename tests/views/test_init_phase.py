"""The Init mark is the self-pointer's timestamp phase (Section IV-F).

A move writes the new row's self-pointer at ``PHASE_ROW`` (marked), the
old row's stale pointer at ``PHASE_STALE``, and the unmark rewrites the
self-pointer at ``PHASE_LIVE``; an entry stores nothing else beside its
materialized cells.  Replicas apply those writes in any order and
retries re-send them, so the mark must hold and clear under plain LWW
exactly where a separate Init cell did.  The first three tests replay
the Puts a real propagation issues on one replica's storage, in the
order under test, and read the row as Algorithm 4 decodes it.
"""

from collections import Counter

import pytest

from repro.cluster import Cluster
from repro.cluster.storage import LocalStorageEngine
from repro.views import ViewDefinition
from repro.views.read import live_results

from tests.views.conftest import DirectDriver, make_config

VIEW = ViewDefinition("V", "B", "vk", ("m",))


def fresh_driver():
    cluster = Cluster(make_config())
    cluster.create_table("B")
    cluster.create_table("V")
    return DirectDriver(cluster, VIEW)


def recorded_puts(driver, guess, vk, ts, key="k"):
    """Propagate ``vk`` for ``key`` at ``ts``; return its view Puts as
    ``[(view key, cells), ...]`` in the order they were issued."""
    puts = []
    real = driver.maintainer._view_put

    def spy(coordinator, view_name, view_key, cells):
        puts.append((view_key, dict(cells)))
        yield from real(coordinator, view_name, view_key, cells)

    driver.maintainer._view_put = spy
    try:
        driver.propagate(key, guess, {"vk": vk}, ts)
    finally:
        driver.maintainer._view_put = real
    return puts


def first_insert(driver, view_key, ts):
    return recorded_puts(driver, driver.guess(None, -1, virtual=True),
                         view_key, ts)


def move_puts(t0=20):
    """The three Puts of moving ``k`` from ``a`` (@10) to ``b`` (@t0):
    the marked new row, the stale pointer, the unmark."""
    driver = fresh_driver()
    first_insert(driver, "a", 10)
    line_4, line_8, unmark = recorded_puts(driver, driver.guess("a", 10),
                                           "b", t0)
    assert [line_4[0], line_8[0], unmark[0]] == ["b", "a", "b"]
    return line_4, line_8, unmark


def visible(*puts, view_key="b"):
    """Apply ``puts`` in order on one replica; the base keys a reader of
    ``view_key`` sees there, or None while a live row is marked."""
    engine = LocalStorageEngine()
    engine.create_table("V")
    for key, cells in puts:
        engine.apply("V", key, cells)
    rows = live_results(view_key, engine.read_row("V", view_key), ("m",))
    return None if rows is None else [row.base_key for row in rows]


def test_a_retried_line_4_after_the_unmark_leaves_the_row_accessible():
    """LWW case 1: the line-4 Put re-sent after the unmark (a retry, or
    a replica that saw the unmark first) cannot re-mark the row."""
    line_4, line_8, unmark = move_puts()
    assert visible(line_4) is None               # marked until unmarked
    assert visible(line_4, line_8) is None
    assert visible(line_4, line_8, unmark) == ["k"]
    assert visible(line_4, line_8, unmark, line_4) == ["k"]
    assert visible(unmark, line_4) == ["k"]


@pytest.mark.parametrize("t, accessible", [(15, False), (20, True),
                                           (30, True)])
def test_a_same_key_refresh_unmarks_a_row_iff_not_older(t, accessible):
    """LWW case 2: a same-key refresh at ``t`` meeting a row marked at
    ``t0`` = 20 makes it accessible iff ``t >= t0``."""
    line_4, _line_8, _unmark = move_puts(t0=20)
    driver = fresh_driver()
    first_insert(driver, "b", 5)
    (refresh,) = recorded_puts(driver, driver.guess("b", 5), "b", t)
    assert refresh[0] == "b"
    for order in ((line_4, refresh), (refresh, line_4)):
        assert visible(*order) == (["k"] if accessible else None)


@pytest.mark.parametrize("t, cleared", [(15, False), (30, True)])
def test_a_not_newer_insert_on_a_reused_key_clears_its_mark_iff_newer(
        t, cleared):
    """LWW case 3: a not-newer insert at ``t`` onto key ``b``, which holds
    a row marked at ``t0`` = 20, retires the marked self-pointer (and
    the mark with it) iff ``t > t0``; otherwise the row stays marked."""
    line_4, _line_8, _unmark = move_puts(t0=20)
    driver = fresh_driver()
    first_insert(driver, "c", 50)
    (stale,) = recorded_puts(driver, driver.guess("c", 50), "b", t)
    assert stale[0] == "b"
    for order in ((line_4, stale), (stale, line_4)):
        assert visible(*order) == ([] if cleared else None)


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
