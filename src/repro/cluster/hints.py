"""Hinted handoff: parked writes for down replicas.

When a coordinator cannot reach a replica during a Put, it parks the write
as a *hint*.  A background replay loop (started on demand, so an idle
cluster has an empty event queue) retries hints whose target has come back
up.  Together with read repair and anti-entropy this provides the paper's
"mechanisms ... that ensure that all updates to a cell eventually reach
every replica ... despite failures" (Section II).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.cluster.coordinator import ResponseCollector
from repro.cluster.messages import WriteRequest

__all__ = ["Hint", "HintService"]


@dataclass
class Hint:
    """A write that should eventually reach ``target_id``."""

    holder_id: int
    target_id: int
    request: WriteRequest
    delivered: bool = field(default=False)


class HintService:
    """Stores hints and replays them, over the ``network`` and on the
    cluster's quorum ``deadlines``, when targets among ``nodes``
    recover."""

    def __init__(self, env, nodes, network, deadlines,
                 replay_interval: float = 20.0):
        self.env = env
        self.nodes = nodes
        self.network = network
        self.deadlines = deadlines
        self.replay_interval = replay_interval
        self._hints: List[Hint] = []
        self._replay_running = False
        self._recovery_wakeup = None
        self.hints_replayed = 0

    def __len__(self) -> int:
        return len(self._hints)

    def add(self, holder_id: int, target_id: int,
            request: WriteRequest) -> None:
        """Park ``request`` for later delivery to ``target_id``."""
        self._hints.append(Hint(holder_id, target_id, request))
        if not self._replay_running:
            self._replay_running = True
            self.env.process(self._replay_loop(), name="hint-replay")

    def notify_recovery(self) -> None:
        """Wake the replay loop after a node comes back up."""
        wakeup = self._recovery_wakeup
        if wakeup is not None and not wakeup.triggered:
            wakeup.succeed()

    def _deliverable(self) -> List[Hint]:
        return [
            hint for hint in self._hints
            if not self.nodes[hint.target_id].is_down
            and not self.nodes[hint.holder_id].is_down
        ]

    def _replay_loop(self):
        env = self.env
        while self._hints:
            if not self._deliverable():
                # Nothing can be delivered right now: park until some
                # node recovers (keeps an otherwise-idle cluster idle).
                self._recovery_wakeup = env.event()
                yield self._recovery_wakeup
                self._recovery_wakeup = None
                continue
            yield env.timeout(self.replay_interval)
            yield from self._replay_once()
        self._replay_running = False

    def _replay_once(self):
        """Attempt delivery of every hint whose endpoints are both up,
        one hint at a time (each waits for its ack or the cluster's
        timeout before the next is sent)."""
        for hint in self._deliverable():
            ack = ResponseCollector(self.env, 1)
            self.network.rpc(hint.holder_id, self.nodes[hint.target_id],
                             ack, hint.request)
            self.deadlines.watch(ack)
            acked = yield ack.settled
            if acked:
                hint.delivered = True
                self.hints_replayed += 1
        self._hints = [hint for hint in self._hints if not hint.delivered]
