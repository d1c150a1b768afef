"""Auditing bounded-staleness reads against the update oracle.

A bounded read that claims ``max_staleness_ms = X`` at time ``as_of``
promises: every update *acknowledged to a client* at or before
``as_of - X`` is reflected in the result.  The audit replays the
workload's acknowledged updates (each stamped with its ack time) and
checks three things per observation:

- **must-include** — a base key whose horizon-winning view-key update
  maps it to the read's view key must appear as a row, unless a
  *later-timestamped* acknowledged update exists anywhere in the history
  (LWW may have moved the row on; the audit cannot know whether that
  newer update was visible to this read, so it excuses);
- **must-exclude** — a returned row whose horizon-winning update maps
  the key elsewhere (or that has no acknowledged view-key update at
  all) is a staleness leak, under the same newer-update excuse;
- **cell freshness** — every returned cell's timestamp must be at least
  the max timestamp of that cell's updates acknowledged by the horizon
  (a ``(None, -1)`` placeholder fails this automatically when a real
  value was due).

There is deliberately *no* failure excuse: lost, abandoned, or dropped
propagations must be covered by wounds and compensation — that is the
guarantee under test.  Unacknowledged (ambiguous) writes carry an
infinite ack time, so they are never *required*, but once resolved as
applied they serve as newer-update excuses like any other update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Tuple

from repro.views.definition import BASE_KEY_COLUMN, ViewDefinition

__all__ = ["BoundedReadObservation", "check_bounded_reads"]


@dataclass(frozen=True)
class BoundedReadObservation:
    """One bounded read as the client saw it."""

    view_key: Any
    bound_ms: float
    as_of: float                 # certificate as_of (sim time)
    rows: Tuple[Tuple[Hashable, Dict[Any, Tuple[Any, int]]], ...]
    escalated: bool = False
    issued_at: float = field(default=0.0, compare=False)


def _is_live(view: ViewDefinition, value: Any) -> bool:
    return value is not None and view.accepts_key(value)


def check_bounded_reads(view: ViewDefinition, observations, applied
                        ) -> List[str]:
    """Audit ``observations`` against ``applied`` updates; failures as
    human-readable strings (empty list = every bound honored)."""
    key_column = view.view_key_column
    vk_updates: Dict[Hashable, List[Tuple[int, float, Any]]] = {}
    col_updates: Dict[Tuple[Hashable, Any], List[Tuple[int, float]]] = {}
    for update in applied:
        acked_at = getattr(update, "acked_at", 0.0)
        if update.column == key_column:
            vk_updates.setdefault(update.key, []).append(
                (update.timestamp, acked_at, update.value))
        col_updates.setdefault((update.key, update.column), []).append(
            (update.timestamp, acked_at))

    failures: List[str] = []
    for index, obs in enumerate(observations):
        horizon = obs.as_of - obs.bound_ms
        row_keys = {key for key, _values in obs.rows}
        for base_key, updates in vk_updates.items():
            relevant = [u for u in updates if u[1] <= horizon]
            if not relevant:
                continue
            winner_ts = max(u[0] for u in relevant)
            winner_values = {u[2] for u in relevant if u[0] == winner_ts}
            if len(winner_values) > 1:
                continue  # concurrent same-timestamp writers: undefined
            (winner_value,) = winner_values
            newest_anywhere = max(u[0] for u in updates)
            excused = newest_anywhere > winner_ts
            expected_here = (_is_live(view, winner_value)
                             and winner_value == obs.view_key)
            if expected_here and base_key not in row_keys and not excused:
                failures.append(
                    f"read #{index} (bound {obs.bound_ms} ms, as_of "
                    f"{obs.as_of:.3f}): base key {base_key!r} was mapped "
                    f"to {obs.view_key!r} by ts {winner_ts} (acked by "
                    f"{horizon:.3f}) but is missing from the result")
            if not expected_here and base_key in row_keys and not excused:
                failures.append(
                    f"read #{index} (bound {obs.bound_ms} ms, as_of "
                    f"{obs.as_of:.3f}): base key {base_key!r} returned "
                    f"under {obs.view_key!r} but ts {winner_ts} maps it "
                    f"to {winner_value!r}")
        for base_key, values in obs.rows:
            if base_key not in vk_updates:
                failures.append(
                    f"read #{index}: phantom row {base_key!r} under "
                    f"{obs.view_key!r} (no acknowledged view-key update)")
                continue
            for column, (value, ts_returned) in values.items():
                if column in (BASE_KEY_COLUMN, key_column):
                    # The row's presence under the view key *is* the
                    # view-key assertion (audited above); the view does
                    # not materialize the key column as a readable cell.
                    continue
                updates = col_updates.get((base_key, column), ())
                required = max((u[0] for u in updates if u[1] <= horizon),
                               default=None)
                if required is not None and ts_returned < required:
                    failures.append(
                        f"read #{index} (bound {obs.bound_ms} ms): cell "
                        f"({base_key!r}, {column!r}) returned ts "
                        f"{ts_returned} / value {value!r}, but ts "
                        f"{required} was acknowledged by {horizon:.3f}")
    return failures
