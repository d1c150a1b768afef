"""Guards on the shape of ``src/repro`` that review alone would miss."""

import dataclasses
from pathlib import Path

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import ClusterSnapshot

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_view_manager_stays_split():
    """``ViewManager`` is the registry and the ingest half of Algorithm
    1; drive code belongs in ``views/drive.py`` and read glue in
    ``views/read.py``."""
    lines = (SRC / "views" / "manager.py").read_text().count("\n")
    assert lines <= 450, f"views/manager.py has grown to {lines} lines"


def _files_mentioning(word):
    return [str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if word in path.read_text()]


def test_there_is_one_propagation_pipeline():
    assert _files_mentioning("propagation_pipeline") == []


@pytest.mark.parametrize("word", [
    "outbox_consumers", "outbox_batch_size", "propagation_deadline_ms",
    "next_batch",
])
def test_there_is_one_limit_on_running_propagations(word):
    """Records start as their chain frees and take one of the node's
    workers; there is no consumer pool, no batch claim and no second
    abandonment policy to configure."""
    assert _files_mentioning(word) == []


def test_config_and_snapshot_stay_small():
    assert len(dataclasses.fields(ClusterConfig)) <= 24
    assert len(dataclasses.fields(ClusterSnapshot)) <= 18


def test_speed_is_measured_in_one_place():
    """mvbench (``BENCHMARK.json``) is the only harness: no second one
    under ``src``, no committed wall-clock result files, and nothing
    that still documents them."""
    root = SRC.parents[1]
    assert not (SRC / "bench").exists()
    assert list(root.glob("BENCH_*.json")) == []
    assert not (root / "benchmarks" / "baselines").exists()
    assert _files_mentioning("repro.bench") == []
    prose = [root / "README.md", root / "DESIGN.md",
             *(root / "docs").rglob("*.md"),
             *(root / ".github").rglob("*.yml")]
    assert [str(path.relative_to(root)) for path in prose
            if "repro.bench" in path.read_text()] == []


def test_copy_data_has_no_round_of_its_own():
    """A view-key move reads the view table once per chain hop and
    nowhere else: CopyData's Get is the walk's last hop and its Put is
    Algorithm 2 line 4."""
    source = (SRC / "views" / "maintenance.py").read_text()
    assert source.count("self._view_get(") == 1
    assert _files_mentioning("_copy_data") == []


def test_replica_merge_has_one_seam():
    """LWW row merging, the replica diff and the background wait for
    replica replies each live in one place: ``merge_rows`` /
    ``stale_cells`` in ``common/records.py`` and the quorum collector
    with the cluster's one deadline queue.  (``views/model.py`` is the
    oracle the tests compare against and stays independent;
    ``views/maintenance.py`` compares one update against one live row,
    which is Algorithm 2, not a replica merge.)"""
    assert sorted(_files_mentioning("cell_wins")) == [
        "common/__init__.py", "common/records.py",
        "views/maintenance.py", "views/model.py"]
    outside_sim = [name for word in ("RepairRead", "any_of(")
                   for name in _files_mentioning(word)
                   if not name.startswith("sim/")]
    assert outside_sim == []
    # The only reader of ``config.rpc_timeout`` is the ``QuorumDeadlines``
    # built in ``Cluster.__init__``: no background path keeps a timer of
    # its own.
    for name in ("antientropy.py", "merkle.py", "hints.py"):
        assert "rpc_timeout" not in (SRC / "cluster" / name).read_text()
