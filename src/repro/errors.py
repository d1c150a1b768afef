"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  Sub-hierarchies mirror the
package layout: simulation-kernel errors, cluster/storage errors, and
view-maintenance errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for discrete-event simulation kernel errors."""


class StopSimulation(SimulationError):
    """Raised internally to halt :meth:`Environment.run` early."""


class ProcessError(SimulationError):
    """An exception escaped a simulation process.

    Wraps the original exception so the failing process can be identified;
    the original is available as ``__cause__``.
    """


# ---------------------------------------------------------------------------
# Cluster / storage
# ---------------------------------------------------------------------------


class ClusterError(ReproError):
    """Base class for record-store cluster errors."""


class NoSuchTableError(ClusterError):
    """A Get/Put referenced a table that has not been created."""


class TableExistsError(ClusterError):
    """An attempt was made to create a table that already exists."""


class QuorumError(ClusterError):
    """Not enough replica responses arrived to satisfy a quorum."""

    def __init__(self, message: str, required: int = 0, received: int = 0):
        super().__init__(message)
        self.required = required
        self.received = received


class UnavailableError(QuorumError):
    """Too few replicas were alive to even attempt a quorum operation."""


class NodeDownError(ClusterError):
    """An operation was directed at a node that is currently down."""


class CoordinatorCrashError(ClusterError):
    """An injected coordinator crash lost an in-flight view propagation.

    Raised inside the asynchronous propagation driver when a crash hook
    (``Adversary.lose`` / ``lose_propagations`` in
    :mod:`repro.scenarios.adversaries`) fires; the driver counts
    the propagation as lost instead of escalating, modelling the paper's
    Section VIII staleness caveat that the repair subsystem
    (:mod:`repro.repair`) exists to heal.
    """


class InvalidQuorumError(ClusterError):
    """The requested R/W quorum is outside ``1..N``."""


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------


class ViewError(ReproError):
    """Base class for materialized-view errors."""


class ViewDefinitionError(ViewError):
    """A view definition is malformed (e.g. view key missing)."""


class ViewExistsError(ViewError):
    """A view with the same name is already registered."""

class NoSuchViewError(ViewError):
    """A view operation referenced an unregistered view."""


class ViewNotUpdatableError(ViewError):
    """Applications may not Put directly into a view (paper, Section III)."""


class PropagationError(ViewError):
    """An update propagation attempt failed.

    Per Algorithm 3, this happens when the view-key guess does not yet
    exist in the versioned view (the update that wrote it has not yet
    propagated).  Coordinators retry with a different guess.
    """


class SessionError(ViewError):
    """Session-guarantee bookkeeping error (e.g. unknown session id)."""
