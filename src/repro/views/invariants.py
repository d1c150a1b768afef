"""Structural and semantic invariant checkers for versioned views.

Used by tests (including hypothesis property tests) to validate actual
cluster state against Definition 3 / Theorem 1:

- exactly one live row (self-pointing Next) per base key, across all the
  view-row keys its entries appear under;
- every stale row's pointer chain reaches the live row, with no cycles,
  no dangling pointers and no cut move left unfinished (every hop lands,
  :func:`~repro.views.versioned.hop_lands`);
- against a :class:`~repro.views.model.ReferenceViewModel` fed with the
  same updates in propagation order: the live key, its timestamp, the
  materialized values, and the stale-key set all match the oracle.

Checkers inspect node storage engines directly (test-time introspection,
not part of the simulated protocol) and merge replicas by LWW, i.e. they
evaluate the *converged* state.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Hashable, List, Optional

from repro.common.records import Cell, ColumnName
from repro.views.definition import ViewDefinition
from repro.views.model import ReferenceViewModel
from repro.views.versioned import (
    NULL_VIEW_KEY,
    VersionedEntry,
    hop_lands,
    split_wide_row,
)

__all__ = [
    "merged_view_state",
    "merged_view_rows",
    "entries_for_base_key",
    "collect_entries",
    "live_entries",
    "check_view",
    "state_digest",
    "live_state_digest",
]


def merged_view_state(cluster, view: ViewDefinition
                      ) -> Dict[Any, Dict[ColumnName, Cell]]:
    """LWW-merge the view table across every node's local storage."""
    return cluster.converged_rows(view.name)


def merged_view_rows(cluster, view: ViewDefinition, view_keys
                     ) -> Dict[Any, Dict[ColumnName, Cell]]:
    """LWW-merge only the given view-row keys across every node.

    A targeted variant of :func:`merged_view_state` for callers (like the
    stale-row collector) that already know which rows they care about.
    """
    return cluster.converged_rows(view.name, view_keys)


def state_digest(cluster, table: str) -> str:
    """Canonical SHA-256 of a table's LWW-merged converged state.

    Rows, columns and cell (value, timestamp, tombstone) triples are
    serialized by ``repr`` in sorted order, so two clusters hold
    byte-identical converged state for ``table`` iff their digests are
    equal — regardless of which replica stores what.  Works for base
    tables and for view backing tables alike; the differential tests
    and the scenario fuzzer's determinism checks both rest on this.
    """
    rows = cluster.converged_rows(table)
    digest = hashlib.sha256()
    for key in sorted(rows, key=repr):
        digest.update(repr(key).encode("utf-8"))
        cells = rows[key]
        for column in sorted(cells, key=repr):
            cell = cells[column]
            digest.update(repr(
                (column, cell.value, cell.timestamp, cell.tombstone)
            ).encode("utf-8"))
    return digest.hexdigest()


def live_state_digest(cluster, view: ViewDefinition) -> str:
    """Canonical SHA-256 of a view's *live* converged rows only.

    The semantic content of a view — everything Algorithm 4 can ever
    return — ignoring stale chain residue and tombstones.  Two runs
    that coalesce or fold differently produce different backing-table
    bytes for the same history, because coalescing skips intermediate
    versions and their stale rows; their live digests must still be
    equal.
    """
    digest = hashlib.sha256()
    per_base = live_entries(cluster, view)
    for base_key in sorted(per_base, key=repr):
        for view_key in sorted(per_base[base_key], key=repr):
            entry = per_base[base_key][view_key]
            digest.update(repr((base_key, view_key,
                                entry.base_ts)).encode("utf-8"))
            for column in sorted(entry.cells, key=repr):
                cell = entry.cells[column]
                if cell.is_null:
                    continue
                digest.update(repr(
                    (column, cell.value, cell.timestamp)).encode("utf-8"))
    return digest.hexdigest()


def entries_for_base_key(cluster, view: ViewDefinition, view_keys,
                         base_key: Hashable) -> Dict[Any, VersionedEntry]:
    """One base row's versioned entries across the given view-row keys."""
    entries: Dict[Any, VersionedEntry] = {}
    for view_key, cells in merged_view_rows(cluster, view, view_keys).items():
        for entry in split_wide_row(view_key, cells):
            if entry.base_key != base_key or entry.next_cell.is_null:
                continue
            entries[view_key] = entry
    return entries


def collect_entries(cluster, view: ViewDefinition
                    ) -> Dict[Hashable, Dict[Any, VersionedEntry]]:
    """Group merged view state into ``{base_key: {view_key: entry}}``.

    Entries without a Next pointer are omitted: they are not rows, just
    parked cells (e.g. materialized values stored under the NULL anchor
    for a deleted base row).
    """
    per_base: Dict[Hashable, Dict[Any, VersionedEntry]] = {}
    for view_key, cells in merged_view_state(cluster, view).items():
        for entry in split_wide_row(view_key, cells):
            if entry.next_cell.is_null:
                continue
            per_base.setdefault(entry.base_key, {})[view_key] = entry
    return per_base


def live_entries(cluster, view: ViewDefinition
                 ) -> Dict[Hashable, Dict[Any, VersionedEntry]]:
    """Only the *live* rows of :func:`collect_entries`.

    A correct quiesced view has exactly one live entry per present base
    key; the repair subsystem's detector compares this map against the
    canonical rows the base table implies.
    """
    per_base: Dict[Hashable, Dict[Any, VersionedEntry]] = {}
    for base_key, entries in collect_entries(cluster, view).items():
        live = {view_key: entry for view_key, entry in entries.items()
                if entry.is_live}
        if live:
            per_base[base_key] = live
    return per_base


def check_view(cluster, view: ViewDefinition,
               reference: Optional[ReferenceViewModel] = None) -> List[str]:
    """Validate a view's versioned structure; returns violation strings.

    With ``reference``, also checks semantic agreement with the
    Definition 2/3 oracle.  An empty list means the view is correct.
    """
    violations: List[str] = []
    per_base = collect_entries(cluster, view)

    for base_key, entries in sorted(per_base.items(),
                                    key=lambda item: repr(item[0])):
        live_keys = [vk for vk, entry in entries.items() if entry.is_live]
        if len(live_keys) != 1:
            violations.append(
                f"base key {base_key!r}: expected exactly one live row, "
                f"found {sorted(map(repr, live_keys))}")
            continue
        live_key = live_keys[0]

        for view_key, entry in entries.items():
            if entry.is_live:
                continue
            violations.extend(
                _check_chain(base_key, view_key, entries, live_key))

        if reference is not None:
            violations.extend(
                _check_against_reference(view, base_key, entries, live_key,
                                         reference))

    if reference is not None:
        for base_key in reference.tracked_base_keys():
            expected_live = reference.live_key_for(base_key)
            if expected_live is None:
                continue
            if base_key not in per_base:
                violations.append(
                    f"base key {base_key!r}: oracle expects rows (live key "
                    f"{expected_live!r}) but the view has none")
    return violations


def _check_chain(base_key: Hashable, start_key: Any,
                 entries: Dict[Any, VersionedEntry],
                 live_key: Any) -> List[str]:
    """Walk one stale row's chain; it must terminate at the live row,
    every hop landing as ``get_live_key`` requires."""
    seen = {start_key}
    current = entries[start_key]
    while True:
        next_key = current.next_key
        next_entry = entries.get(next_key)
        if next_entry is None:
            return [f"base key {base_key!r}: stale row {start_key!r} "
                    f"points to missing row {next_key!r} (a cut move "
                    "left unfinished)"]
        if not hop_lands(current.next_cell, next_entry.next_cell):
            return [f"base key {base_key!r}: cut move "
                    f"{current.view_key!r} → {next_key!r} left unfinished"]
        if next_key in seen:
            return [f"base key {base_key!r}: pointer cycle through "
                    f"{sorted(map(repr, seen))}"]
        seen.add(next_key)
        if next_entry.is_live:
            if next_key != live_key:
                return [f"base key {base_key!r}: chain from {start_key!r} "
                        f"ends at {next_key!r}, not the live row "
                        f"{live_key!r}"]
            return []
        current = next_entry


def _check_against_reference(view: ViewDefinition, base_key: Hashable,
                             entries: Dict[Any, VersionedEntry],
                             live_key: Any,
                             reference: ReferenceViewModel) -> List[str]:
    violations: List[str] = []
    expected_live = reference.live_key_for(base_key)
    if expected_live is None:
        violations.append(
            f"base key {base_key!r}: view has rows but the oracle never "
            "saw a propagated update for it")
        return violations
    if live_key != expected_live:
        violations.append(
            f"base key {base_key!r}: live key is {live_key!r}, oracle "
            f"expects {expected_live!r}")
        return violations

    versions = reference.version_timestamps_for(base_key)
    live_entry = entries[live_key]
    expected_ts = versions.get(expected_live)
    if expected_ts is not None and live_entry.base_ts != expected_ts:
        violations.append(
            f"base key {base_key!r}: live row timestamp {live_entry.base_ts} "
            f"!= oracle {expected_ts}")

    expected_stale = reference.stale_keys_for(base_key)
    actual_keys = set(entries) - {live_key}
    missing = expected_stale - actual_keys
    if missing:
        violations.append(
            f"base key {base_key!r}: oracle requires stale rows "
            f"{sorted(map(repr, missing))} that are absent")
    allowed = set(versions) | {NULL_VIEW_KEY}
    extra = actual_keys - allowed
    if extra:
        violations.append(
            f"base key {base_key!r}: unexpected rows "
            f"{sorted(map(repr, extra))}")

    if expected_live != NULL_VIEW_KEY:
        expected_values = reference.live_values_for(base_key)
        if expected_values is None:
            violations.append(
                f"base key {base_key!r}: oracle says the row is absent but "
                f"live key is {live_key!r}")
        else:
            for column, expected_value in expected_values.items():
                cell = live_entry.cells.get(column)
                actual_value = (None if cell is None or cell.is_null
                                else cell.value)
                if actual_value != expected_value:
                    violations.append(
                        f"base key {base_key!r}: live {column!r} = "
                        f"{actual_value!r}, oracle expects "
                        f"{expected_value!r}")
    return violations
