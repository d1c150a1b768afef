"""Staleness certificates: how far behind the base table a view is.

The view pipeline already knows, at every instant, exactly which
acknowledged base updates have not yet taken effect in a view:

- **outbox lag** — appended-but-unresolved :class:`OutboxRecord`\\ s
  (including riders of coalesced winners, so every update folded into
  a heavy chain's survivor), each stamped with its append time;
- **wounds** — chains a propagation demonstrably left wrong: its
  coordinator crashed with the record in volatile state
  (``crash-lost``), its retries ran out (``retries-abandoned``), a scrub
  ``verify_row`` confirmed a divergence (``scrub-*``).  A wound has no
  resolve event; it stays open until the row is re-propagated or a
  quorum-level ``verify_row`` confirms the row clean.  A view-key move
  cut short between its two Puts is not a wound: its record retries,
  and the next move's walk finishes it from any entry point.

Records merely being in flight together is *not* a wound.  Every chain
writer runs under ``ViewManager.serialized`` (the paper's Section IV-F
locks or dedicated propagators), and Theorem 1 makes serialized
propagations converge whatever order they run in: two coordinators'
records overlapping in time, or an older-timestamped one executing after
a newer one, each stay covered by their own outbox-lag source until they
resolve, and leave the view right when they do.

The :class:`FreshnessTracker` folds both into a per-view
:class:`StalenessCertificate`: the age of the *oldest* outstanding
source, plus the provenance of that binding source.  The certificate is
conservative — every update invisible to a quorum view read is covered
by some open source, so a read observing staleness ``s`` at time ``t``
reflects at least every update acknowledged before ``t - s``.

The tracker is introspective metadata (one per :class:`ViewManager`,
global across nodes), in the same spirit as the repair detector's
introspective oracle: a production system would assemble the same facts
from per-node watermark gossip and the scrubber's divergence log.  See
``DESIGN.md`` for the idealization argument.

Wound clearing is deliberately *not* tied to the scrubber's digest
rounds: the digests compare an all-replica merge, while reads see only
a majority quorum, so a partially-written row can look digest-clean yet
be quorum-invisible.  Wounds therefore clear only through quorum-level
evidence — a successful re-propagation, or a per-key ``verify_row``
that started after the wound was last touched — and on that evidence
alone.  Another record still in flight on the chain does not hold the
wound open: it is covered by its own ``outbox-lag`` source until it
resolves, opens a wound of its own if it fails (``crash-lost``,
``retries-abandoned``), and otherwise lands what
Theorem 1 says any order of serialized propagations converges to.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, Optional, Tuple

__all__ = ["FreshnessTracker", "StaleSource", "StalenessCertificate",
           "Wound"]


@dataclass(frozen=True)
class StaleSource:
    """One outstanding reason a view lags: a key, since when, and why."""

    key: Hashable
    origin: float       # simulated time the lag began (update append/ack)
    provenance: str     # "outbox-lag" | a wound provenance


@dataclass(frozen=True)
class StalenessCertificate:
    """A view's staleness bound at one instant, with provenance.

    ``staleness_ms`` is the age of the oldest outstanding source at
    ``as_of``; 0.0 with provenance ``"fresh"`` when nothing is pending.
    For bounded reads ``bound_ms`` records the requested bound and
    ``bound_met`` is True (the read honored it, after compensation if
    any); both are None on an unbounded read.  ``compensated`` marks
    certificates rewritten by an escalated read.
    """

    view_name: str
    as_of: float
    staleness_ms: float
    provenance: str
    open_sources: int
    bound_ms: Optional[float] = None
    bound_met: Optional[bool] = None
    compensated: bool = False

    def within(self, bound_ms: float) -> bool:
        """Does this certificate already satisfy ``bound_ms``?"""
        return self.staleness_ms <= bound_ms


class Wound:
    """An open chain whose propagation failed; cleared only by repair
    or a post-wound quorum verification."""

    __slots__ = ("origin", "created", "provenance")

    def __init__(self, origin: float, created: float, provenance: str):
        self.origin = origin        # when the lost update entered the pipeline
        self.created = created      # when the failure was observed
        self.provenance = provenance

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Wound {self.provenance} origin={self.origin:.3f} "
                f"created={self.created:.3f}>")


ChainKey = Tuple[str, Hashable]


class FreshnessTracker:
    """Per-view staleness bookkeeping for one :class:`ViewManager`, over
    its node ``outboxes`` (node id -> :class:`NodeOutbox`)."""

    def __init__(self, env, outboxes):
        self.env = env
        self.outboxes = outboxes
        self._wounds: Dict[ChainKey, Wound] = {}
        # Observability.
        self.wounds_opened = 0
        self.wounds_healed = 0

    # -- wounds ------------------------------------------------------------

    def note_wound(self, view_name: str, key: Hashable, origin: float,
                   provenance: str) -> None:
        """Open (or widen) a wound: updates from ``origin`` on may be
        missing from the view's quorum-read state for ``key``."""
        chain = (view_name, key)
        existing = self._wounds.get(chain)
        if existing is None:
            self._wounds[chain] = Wound(origin, self.env.now, provenance)
            self.wounds_opened += 1
            return
        if origin < existing.origin:
            existing.origin = origin
            existing.provenance = provenance
        # New failure evidence: only verifications starting after *this*
        # observation may clear the wound.
        existing.created = self.env.now

    def note_divergence(self, divergence, detected_at: float) -> None:
        """A scrub ``verify_row`` confirmed a divergence: wound the chain
        (origin = detection time; the true origin is unknown, and the
        scrubber repairs the row in the same round)."""
        self.note_wound(divergence.view_name, divergence.base_key,
                        detected_at, f"scrub-{divergence.kind}")

    def note_repaired(self, view_name: str, key: Hashable) -> None:
        """A re-propagation of the row's *current* base state committed
        at quorum: the chain's wound (if any) is healed, even with a
        record still in flight on the chain — that record is covered by
        its own ``outbox-lag`` source until it resolves, and opens a
        wound of its own if it fails."""
        if self._wounds.pop((view_name, key), None) is not None:
            self.wounds_healed += 1

    def note_verified_clean(self, view_name: str, key: Hashable,
                            verified_since: float) -> None:
        """A quorum-level ``verify_row`` started at ``verified_since``
        found the row clean: wounds observed before the verification
        began are healed."""
        chain = (view_name, key)
        wound = self._wounds.get(chain)
        if wound is not None and wound.created < verified_since:
            del self._wounds[chain]
            self.wounds_healed += 1

    def wounded_keys(self, view_name: str) -> List[Hashable]:
        """Keys with open wounds for ``view_name`` (scrub work list)."""
        return sorted((key for (name, key) in self._wounds
                       if name == view_name), key=repr)

    @property
    def open_wounds(self) -> int:
        return len(self._wounds)

    # -- certificates ------------------------------------------------------

    def sources(self, view_name: str) -> List[StaleSource]:
        """Every outstanding staleness source for ``view_name`` now."""
        out: List[StaleSource] = []
        for outbox in self.outboxes.values():
            for key, appended_at in outbox.unresolved_for(view_name):
                out.append(StaleSource(key, appended_at, "outbox-lag"))
        for (name, key), wound in self._wounds.items():
            if name == view_name:
                out.append(StaleSource(key, wound.origin, wound.provenance))
        return out

    def certificate(self, view_name: str,
                    bound_ms: Optional[float] = None,
                    sources: Optional[List[StaleSource]] = None
                    ) -> StalenessCertificate:
        """The view's staleness certificate as of now.

        ``sources`` lets the fresh read path snapshot the source set
        once and reuse it for escalation math, keeping the certificate,
        the compensation work list, and the residual all consistent
        with one instant.
        """
        now = self.env.now
        srcs = self.sources(view_name) if sources is None else sources
        if not srcs:
            return StalenessCertificate(view_name, now, 0.0, "fresh", 0,
                                        bound_ms)
        binding = min(srcs, key=lambda s: (s.origin, repr(s.key)))
        return StalenessCertificate(
            view_name, now, max(0.0, now - binding.origin),
            binding.provenance, len(srcs), bound_ms)

    @staticmethod
    def lagging_keys(sources: List[StaleSource], horizon: float
                     ) -> List[Tuple[Hashable, float, str]]:
        """Keys with a source older than ``horizon``, oldest origin per
        key, sorted by key repr (the compensation work list)."""
        by_key: Dict[Hashable, Tuple[float, str]] = {}
        for source in sources:
            if source.origin >= horizon:
                continue
            current = by_key.get(source.key)
            if current is None or source.origin < current[0]:
                by_key[source.key] = (source.origin, source.provenance)
        return sorted(((key, origin, provenance)
                       for key, (origin, provenance) in by_key.items()),
                      key=lambda entry: repr(entry[0]))

    @staticmethod
    def residual_certificate(certificate: StalenessCertificate,
                             sources: List[StaleSource], bound_ms: float
                             ) -> StalenessCertificate:
        """The certificate an escalated read serves after compensation.

        ``sources`` is the snapshot the certificate was derived from.
        Sources older than the bound were covered by base-table reads;
        the residual staleness is the oldest *remaining* source's age
        (<= bound)."""
        horizon = certificate.as_of - bound_ms
        residual = 0.0
        for source in sources:
            if source.origin < horizon:
                continue  # covered by the compensation read
            residual = max(residual, certificate.as_of - source.origin)
        return replace(certificate, staleness_ms=min(residual, bound_ms),
                       bound_ms=bound_ms, bound_met=True, compensated=True,
                       provenance=f"compensated({certificate.provenance})")

    # -- observability -----------------------------------------------------

    def stats(self) -> dict:
        """Tracker counters (wound lifecycle + current exposure)."""
        return {
            "open_wounds": self.open_wounds,
            "wounds_opened": self.wounds_opened,
            "wounds_healed": self.wounds_healed,
        }
