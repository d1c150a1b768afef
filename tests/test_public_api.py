"""Tests for the public API surface: exports, errors, config."""

import pytest

import repro
from repro import ClusterConfig, ServiceTimes
from repro.errors import (
    ClusterError,
    InvalidQuorumError,
    NodeDownError,
    PropagationError,
    QuorumError,
    ReproError,
    SessionError,
    SimulationError,
    UnavailableError,
    ViewDefinitionError,
    ViewError,
    ViewExistsError,
    ViewNotUpdatableError,
)


# ---------------------------------------------------------------------------
# Top-level exports
# ---------------------------------------------------------------------------


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_version_is_set():
    assert repro.__version__


def test_quickstart_docstring_flow():
    """The package docstring's example must actually work."""
    from repro import Cluster, ClusterConfig, ViewDefinition

    cluster = Cluster(ClusterConfig())
    cluster.create_table("TICKET")
    cluster.create_view(ViewDefinition(
        "ASSIGNEDTO", "TICKET", "AssignedTo", ("Status",)))
    client = cluster.sync_client()
    client.put("TICKET", 1, {"AssignedTo": "rliu", "Status": "open"})
    client.settle()
    rows = client.get_view("ASSIGNEDTO", "rliu", ["B", "Status"])
    assert [(r["B"], r["Status"]) for r in rows] == [(1, "open")]


# ---------------------------------------------------------------------------
# Error hierarchy
# ---------------------------------------------------------------------------


def test_all_errors_derive_from_repro_error():
    for exc_type in (SimulationError, ClusterError, QuorumError,
                     UnavailableError, NodeDownError, InvalidQuorumError,
                     ViewError, ViewDefinitionError, ViewExistsError,
                     ViewNotUpdatableError, PropagationError, SessionError):
        assert issubclass(exc_type, ReproError), exc_type


def test_unavailable_is_a_quorum_error():
    """Callers treating transient shortfalls uniformly can catch one type."""
    assert issubclass(UnavailableError, QuorumError)


def test_quorum_error_carries_counts():
    error = QuorumError("nope", required=2, received=1)
    assert error.required == 2
    assert error.received == 1


def test_view_errors_are_view_errors():
    for exc_type in (ViewDefinitionError, ViewExistsError,
                     ViewNotUpdatableError, PropagationError, SessionError):
        assert issubclass(exc_type, ViewError), exc_type


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_config_defaults_mirror_paper_testbed():
    config = ClusterConfig()
    assert config.nodes == 4
    assert config.replication_factor == 3
    assert config.cores_per_node == 2


def test_config_with_overrides():
    config = ClusterConfig()
    derived = config.with_overrides(nodes=8, replication_factor=5, seed=9)
    assert derived.nodes == 8
    assert derived.replication_factor == 5
    assert derived.seed == 9
    assert config.nodes == 4  # original untouched


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(nodes=0)
    with pytest.raises(ValueError):
        ClusterConfig(max_pending_propagations=0)
    with pytest.raises(ValueError):
        ClusterConfig(propagation_concurrency="bogus")
    with pytest.raises(ValueError):
        ClusterConfig(cores_per_node=0)


@pytest.mark.parametrize("field", [
    "outbox_consumers", "outbox_batch_size", "propagation_deadline_ms",
    "scrub_interval", "scrub_row_budget", "scrub_range_depth",
    "scrub_rate_limit", "scrub_degraded_backoff", "hint_replay_interval",
    "lock_service_latency", "skew_flush_max_attempts",
    "propagation_retry_backoff", "propagation_retry_backoff_cap",
    "rpc_timeout", "skew_promote_threshold", "skew_demote_threshold",
    "skew_decay_half_life", "skew_fold_interval",
    "freshness_compensation_limit", "propagation_max_rounds",
    "view_cache_capacity", "read_repair", "hinted_handoff", "message_loss",
    "virtual_nodes",
])
def test_single_valued_knobs_are_not_config_fields(field):
    """No caller ever set these to anything but the default; they are
    constants or constructor defaults where they are used.
    ``view_cache_capacity`` is gone with the feature it sized: view
    reads have no result cache.  Read repair and hinted handoff are
    always on, message loss is a runtime fault on ``cluster.network``
    and the vnode count is ``TokenRing``'s."""
    with pytest.raises(TypeError):
        ClusterConfig(**{field: 64})


def test_one_propagation_pipeline_two_concurrency_mechanisms():
    """There is no pipeline to choose, and the concurrency mechanisms
    are the two of the paper's Section IV-F."""
    with pytest.raises(TypeError):
        ClusterConfig(propagation_pipeline="outbox")
    with pytest.raises(ValueError):
        ClusterConfig(propagation_concurrency="none")
    for mode in ("locks", "propagators"):
        assert ClusterConfig(propagation_concurrency=mode)


def test_service_times_validation():
    with pytest.raises(ValueError):
        ServiceTimes(read=-0.1)
    with pytest.raises(ValueError):
        ServiceTimes(write_background=-0.1)


def test_service_cost_helpers():
    service = ServiceTimes(read=0.1, write=0.05, per_cell=0.01)
    assert service.read_cost(3) == pytest.approx(0.13)
    assert service.write_cost(2) == pytest.approx(0.07)
