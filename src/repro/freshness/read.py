"""Bounded-staleness view reads: serve, or escalate and compensate.

The fresh read path (``ViewManager.view_get_fresh``) runs the normal
read prologue (the session barrier), snapshots the view's
staleness sources, and derives a :class:`StalenessCertificate`.  Within
``max_staleness_ms`` the view result is served as-is with the
certificate attached (a *bound hit*).  Over the bound the read
**escalates**: the tracker names exactly which base keys have a source
older than the bound (the outbox backlog plus open wounds give a
bounded key set — never a table scan), and a per-key quorum read of the
base table *compensates*: fresh base state is merged over the view
result, rows the base no longer maps to this view key are dropped, and
rows the view is missing are inserted.  The served certificate then
reports the residual staleness (<= bound) and is marked compensated.

Soundness requires quorum intersection in two places: bounded reads
raise the view read quorum to the maintainer's majority (completed
propagations write at majority), and the base compensation read is a
majority read — so it observes every base write acknowledged at
``w >= majority``.  With ``w`` below majority an acknowledged base
update can be invisible to *any* majority read (base or view); no
bounded-staleness guarantee is possible at such write quorums, matching
the paper's R/W trade-off.

This is the "Stale View Cleaning" approach (Krishnan et al.): the view
answers when it is provably fresh enough, the base table pays only for
the provably lagging keys.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.common.records import NULL_TIMESTAMP, ColumnName
from repro.freshness.certificate import StalenessCertificate
from repro.views.definition import BASE_KEY_COLUMN, ViewDefinition
from repro.views import read as view_read
from repro.views.read import ViewResult, read_barrier

__all__ = ["FreshViewRead", "fresh_view_get"]


@dataclass(frozen=True)
class FreshViewRead:
    """A view read's rows plus the staleness certificate they carry."""

    results: Tuple[ViewResult, ...]
    certificate: StalenessCertificate
    escalated: bool = False
    compensated_keys: Tuple[Hashable, ...] = ()

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


def fresh_view_get(manager, coordinator, view_name: str, view_key: Any,
                   columns: Tuple[ColumnName, ...], r: int,
                   max_staleness_ms: Optional[float], session):
    """The fresh read path; a simulation process.

    Order matters: the certificate is taken *before* the view read (its
    Get is the one coordinator charge), so a source resolving mid-read
    can only make the result fresher than certified, never staler.
    """
    view = manager.view(view_name)
    bounded = max_staleness_ms is not None
    if bounded:
        if max_staleness_ms < 0:
            raise ValueError("max_staleness_ms must be non-negative")
        # Completed propagations committed at the maintainer's majority;
        # only a majority view read is guaranteed to observe them.
        r = max(r, manager.maintainer.quorum)
    if session is not None:
        yield from read_barrier(manager, coordinator, view, session)
    tracker = manager.freshness
    sources = tracker.sources(view_name)
    certificate = tracker.certificate(view_name, max_staleness_ms,
                                      sources=sources)
    results = yield from view_read.view_get(
        coordinator, view, view_key, columns, r)
    slo = manager.freshness_slo
    if not bounded:
        slo.observe(view_name, certificate.staleness_ms, bounded=False)
        fresh = FreshViewRead(tuple(results), certificate)
    elif certificate.within(max_staleness_ms):
        certificate = replace(certificate, bound_met=True)
        slo.observe(view_name, certificate.staleness_ms, bounded=True)
        fresh = FreshViewRead(tuple(results), certificate)
    else:
        fresh = yield from _escalate(manager, coordinator, view, view_key,
                                     columns, certificate, sources,
                                     max_staleness_ms, results)
        slo.observe(view_name, fresh.certificate.staleness_ms, bounded=True,
                    escalated=True,
                    compensated_keys=len(fresh.compensated_keys))
    return fresh


def _escalate(manager, coordinator, view: ViewDefinition, view_key: Any,
              columns: Tuple[ColumnName, ...],
              certificate: StalenessCertificate, sources,
              bound_ms: float, results):
    """Compensate the lagging keys from the base table; a process."""
    tracker = manager.freshness
    horizon = certificate.as_of - bound_ms
    lagging = tracker.lagging_keys(sources, horizon)
    quorum = manager.maintainer.quorum
    by_key: Dict[Hashable, ViewResult] = {res.base_key: res
                                          for res in results}
    data_columns = tuple(c for c in columns
                         if c not in (BASE_KEY_COLUMN, view.view_key_column))
    read_columns = (view.view_key_column, *data_columns)
    compensated = []
    for base_key, _origin, _provenance in lagging:
        merged = yield from coordinator.get(view.base_table, base_key,
                                            read_columns, quorum)
        compensated.append(base_key)
        key_cell = merged.get(view.view_key_column)
        live_here = (key_cell is not None and key_cell.timestamp >= 0
                     and not key_cell.is_null
                     and view.accepts_key(key_cell.value)
                     and key_cell.value == view_key)
        if not live_here:
            # The base maps this key elsewhere (or nowhere): any view
            # row we read for it under this view key is stale.
            by_key.pop(base_key, None)
            continue
        values: Dict[ColumnName, Tuple[Any, int]] = {}
        for column in columns:
            if column == BASE_KEY_COLUMN:
                values[column] = (base_key, key_cell.timestamp)
            elif column == view.view_key_column:
                # Views never materialize their own key column; match
                # the view-read convention (row location implies it).
                values[column] = (None, NULL_TIMESTAMP)
            else:
                cell = merged.get(column)
                if cell is None or cell.timestamp == NULL_TIMESTAMP:
                    values[column] = (None, NULL_TIMESTAMP)
                elif cell.is_null:
                    values[column] = (None, cell.timestamp)
                else:
                    values[column] = (cell.value, cell.timestamp)
        existing = by_key.get(base_key)
        if existing is not None:
            # Per-column LWW against the view row: with low base write
            # quorums the view can hold a write the base majority read
            # missed — never roll a column back.
            for column, pair in existing.values.items():
                current = values.get(column)
                if current is not None and pair[1] > current[1]:
                    values[column] = pair
        by_key[base_key] = ViewResult(base_key, values)
    manager.tracer.emit("freshness", "escalated read compensated",
                        view=view.name, view_key=view_key,
                        keys=len(compensated),
                        staleness=round(certificate.staleness_ms, 3),
                        bound=bound_ms)
    served = tracker.residual_certificate(certificate, sources, bound_ms)
    ordered = tuple(by_key[key] for key in sorted(by_key, key=repr))
    return FreshViewRead(ordered, served, escalated=True,
                         compensated_keys=tuple(compensated))
