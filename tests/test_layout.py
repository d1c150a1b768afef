"""Guards on the shape of ``src/repro`` that review alone would miss."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import ClusterSnapshot

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


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


@pytest.mark.parametrize("word", [
    "flush_for_read", "PendingDelta", "FLUSH_MAX_ATTEMPTS",
])
def test_lazy_maintenance_rides_the_outbox(word):
    """A heavy chain's fold is the outbox's coalescing rule and its
    flush is the surviving record's own run: no second queue, retry
    policy or read barrier beside the outbox's."""
    assert _files_mentioning(word) == []


def test_skew_service_is_a_classifier():
    """``views/skew.py`` decides what is heavy; it drives nothing and
    starts no process."""
    source = (SRC / "views" / "skew.py").read_text()
    assert "repropagate_row" not in source
    assert "env.process" not in source
    assert source.count("\n") <= 180


@pytest.mark.parametrize("word", [
    "HotViewCache", "view_cache_capacity", "on_view_write",
    "cached_view_get",
])
def test_view_reads_have_one_path(word):
    """A view Get is the session barrier and Algorithm 4, read from R
    replicas: no result cache in front of it, no write hook to keep one
    coherent and no knob to size it."""
    assert _files_mentioning(word) == []


@pytest.mark.parametrize("word", [
    "ChaosMonkey", "MerkleTree", "cluster.chaos", "cluster.merkle",
])
def test_there_is_one_fault_injector(word):
    """Faults are dealt and healed through the books of
    ``scenarios.adversaries.Adversary``, and the scrubber compares rows,
    not in-process hash trees: no second injector, no tree, and no
    document pointing at either."""
    paths = [path for top in ("src", "docs", "examples", "benchmarks")
             for path in (ROOT / top).rglob("*")
             if path.suffix in (".py", ".md")]
    paths += [ROOT / "README.md", ROOT / "DESIGN.md"]
    assert [str(path.relative_to(ROOT)) for path in paths
            if word in path.read_text()] == []


def test_a_client_request_pays_the_coordinator_overhead_once():
    """The coordinator's request overhead is charged by the quorum
    operations of ``Coordinator`` and, for an MV Put's two rounds, once
    by ``base_put``.  A view Get pays its wide-row Get's charge alone:
    a second charge around it would price it as two requests."""
    assert sorted(_files_mentioning("service.coordinator")) == [
        "cluster/coordinator.py", "views/manager.py"]
    source = (SRC / "views" / "manager.py").read_text()
    (base_put,) = [node for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "base_put"]
    assert source.count("service.coordinator") == 1
    assert "service.coordinator" in ast.get_source_segment(source, base_put)


def test_config_and_snapshot_stay_small():
    assert len(dataclasses.fields(ClusterConfig)) <= 12
    assert len(dataclasses.fields(ClusterSnapshot)) <= 4


# ``ClusterConfig`` fields no caller outside ``tests/`` sets, each with
# the reason it stays.  One at most.
SET_ONLY_BY_TESTS = {
    "service",  # the per-operation CPU costs a calibration searches over; the figures use the calibrated defaults
}


def _keywords_set_outside_tests():
    """Names passed by keyword to any call under ``src/``,
    ``benchmarks/`` or ``examples/``, outside ``cluster/config.py``.
    ``field=config.field`` or ``field=field`` hands a value on under its
    own name; it sets nothing."""
    paths = [path for top in ("src", "benchmarks", "examples")
             for path in (ROOT / top).rglob("*.py")
             if path != SRC / "cluster" / "config.py"]
    return {keyword.arg
            for path in paths
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            for keyword in node.keywords
            if keyword.arg != _handed_on(keyword.value)}


def _handed_on(value):
    """The name ``value`` reads if it is a bare name or attribute."""
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


def test_every_config_field_is_set_outside_tests():
    """What no caller sets to a second value is a constant where it is
    used, not a field (``docs/usage.md``): each ``ClusterConfig`` field
    is passed by keyword somewhere outside ``tests/``."""
    assert len(SET_ONLY_BY_TESTS) <= 1
    fields = {field.name for field in dataclasses.fields(ClusterConfig)}
    set_outside = _keywords_set_outside_tests()
    assert SET_ONLY_BY_TESTS <= fields - set_outside, "stale exception"
    assert sorted(fields - set_outside - SET_ONLY_BY_TESTS) == []


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


def test_serialized_is_the_only_turn_mint():
    """A held live row is believed on the strength of the chain's turn
    numbers, so they are counted in one place — ``ViewManager.serialized``,
    the seam every chain writer passes — and the Get they let a
    propagation skip has one call site to skip."""
    assert _files_mentioning("_turns") == ["views/manager.py"]
    source = (SRC / "views" / "manager.py").read_text()
    (serialized,) = [node for node in ast.walk(ast.parse(source))
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "serialized"]
    mint = "turns[key] = turns.get(key, 0) + 1"
    assert source.count("turns[key]") == 1
    assert mint in ast.get_source_segment(source, serialized)
    assert sum(path.read_text().count(".get_live_key(")
               for path in SRC.rglob("*.py")) == 1


def _process_call(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "process")


def _yields_of_started_processes(tree):
    """Line numbers of each ``yield`` of a process the same function
    starts: ``yield env.process(...)``, or a name bound to one."""
    lines = []
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for function in functions:
        started = {target.id
                   for node in ast.walk(function)
                   if isinstance(node, ast.Assign) and _process_call(node.value)
                   for target in node.targets
                   if isinstance(target, ast.Name)}
        lines += [node.lineno for node in ast.walk(function)
                  if isinstance(node, ast.Yield)
                  and (_process_call(node.value)
                       or (isinstance(node.value, ast.Name)
                           and node.value.id in started))]
    return sorted(set(lines))


def test_no_view_or_repair_work_waits_on_a_helper_process():
    """A chain job, a GC pass and a scrub round run in the process that
    waits for them (``yield from``): no module in ``views`` or
    ``repair`` starts a process only to yield it."""
    found = [f"{path.relative_to(SRC)}:{line}"
             for package in ("views", "repair")
             for path in sorted((SRC / package).rglob("*.py"))
             for line in _yields_of_started_processes(
                 ast.parse(path.read_text()))]
    assert found == []


def _functions(tree, prefix=""):
    """``(qualified name, node)`` of every function in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, prefix)


def _own_nodes(function):
    """The nodes of ``function``'s body, not of the functions and
    classes it defines."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    stack = [node for node in function.body
             if not isinstance(node, scopes)]
    while stack:
        node = stack.pop()
        yield node
        stack += [child for child in ast.iter_child_nodes(node)
                  if not isinstance(child, scopes)]


def _names_in(node):
    return {child.id if isinstance(child, ast.Name) else child.attr
            for child in ast.walk(node)
            if isinstance(child, (ast.Name, ast.Attribute))}


def _harness_loops():
    """Per function of ``scenarios`` and ``experiments``: each handler
    of a retriable error inside a loop (``retry_on`` is ``retrying``'s
    set, RETRIABLE by default), and each adversary pacing loop (a
    ``while`` on ``_stopped``, or a sampled ``pause``)."""
    retriable = {"RETRIABLE", "NodeDownError", "QuorumError", "retry_on"}
    found = []
    for package in ("scenarios", "experiments"):
        for path in sorted((SRC / package).rglob("*.py")):
            tree = ast.parse(path.read_text())
            for name, function in _functions(tree):
                where = f"{path.relative_to(SRC)}:{name}"
                for node in _own_nodes(function):
                    if isinstance(node, (ast.For, ast.While)):
                        found += [
                            ("retry", where, handler.lineno)
                            for handler in ast.walk(node)
                            if isinstance(handler, ast.ExceptHandler)
                            and handler.type is not None
                            and _names_in(handler.type) & retriable]
                    if (isinstance(node, ast.While)
                            and "_stopped" in _names_in(node.test)) or (
                            isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "sample"
                            and "pause" in _names_in(node.func.value)):
                        found.append(("pace", where, node.lineno))
    return found


def test_the_harness_retries_and_paces_in_one_place_each():
    """Every client op of the fault harness and the experiments retries
    through ``scenarios.workload.retrying``, and every paced adversary
    through ``Adversary._loop``: no second retry loop, no second pacing
    loop."""
    found = _harness_loops()
    assert sorted({where for kind, where, _ in found if kind == "retry"}) \
        == ["scenarios/workload.py:retrying"]
    assert sorted({where for kind, where, _ in found if kind == "pace"}) \
        == ["scenarios/adversaries.py:Adversary._loop"]


@pytest.mark.parametrize("word", [
    "outbox_backlog", "backing_off", "deferred_backlog", "_verify_wounded",
    "_chain_appends",
])
def test_the_scrubber_defers_nothing_view_wide(word):
    """A scrub round judges row by row under one per-chain rule: no
    view-wide backlog deferral, no per-view sleeper counts, no append
    snapshot and no second verify loop beside the row loop."""
    assert _files_mentioning(word) == []


def test_a_chains_in_flight_answer_is_one_manager_method():
    """Whether work is in flight on a chain is answered by
    ``ViewManager.chain_epoch`` alone: the scrubber reads no outbox or
    turn state of its own, the freshness tracker keeps no in-flight list
    to veto heals with, and nothing else asks an outbox whether a chain
    is working.  How much work is pending is
    ``ViewManager.pending_propagations`` alone: no per-view count."""
    for word in ("eager_begin", "eager_end", "_eager_inflight",
                 "outbox_pending", "pending_for", "view_depths"):
        assert _files_mentioning(word) == [], word
    repair = "".join(path.read_text()
                     for path in (SRC / "repair").rglob("*.py"))
    for word in ("_outboxes", "_turns", "_puts_in_flight", "chain_appends",
                 "sleeping", ".working("):
        assert word not in repair, word
    freshness = "".join(path.read_text()
                        for path in (SRC / "freshness").rglob("*.py"))
    for word in ("_puts_in_flight", "sleeping", ".working("):
        assert word not in freshness, word
    assert _files_mentioning(".working(") == ["views/manager.py"]
    assert _files_mentioning("_puts_in_flight") == ["views/manager.py"]
    source = (SRC / "views" / "manager.py").read_text()
    (method,) = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.FunctionDef)
                 and ".working(" in ast.get_source_segment(source, node)]
    assert method.name == "chain_epoch"


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
    assert _files_mentioning("RepairRead") == []
    # One timeout for every round, and one reader of it: the
    # ``QuorumDeadlines`` default.  No background path (anti-entropy,
    # hint replay) names the constant or keeps a timer of its own.
    assert _files_mentioning("RPC_TIMEOUT") == ["cluster/coordinator.py"]


def test_replica_rpcs_have_one_seam():
    """Every request a coordinator sends a replica — a round's first
    fan-out, a read's hedge, an index scan — leaves through
    ``Coordinator._collect``, where ``_scatter`` has decided who is
    asked; the two background paths that talk replica to replica
    (anti-entropy, hint replay) are the only other senders.  A quorum
    Get has no fan-out of its own, and the hedge delay is one constant
    with one queue."""
    assert sorted(_files_mentioning("network.rpc")) == [
        "cluster/antientropy.py", "cluster/coordinator.py",
        "cluster/hints.py"]
    source = (SRC / "cluster" / "coordinator.py").read_text()
    assert [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef)
            and "network.rpc" in ast.get_source_segment(source, node)
            ] == ["_collect"]
    assert sorted(_files_mentioning("READ_HEDGE")) == [
        "cluster/cluster.py", "cluster/coordinator.py"]


def test_a_cpu_is_its_cores_free_times():
    """A node's CPU books work onto the core that falls free first: no
    slot is taken and handed back by hand, and there is no occupancy or
    queue to read, only the instants the cores fall free."""
    from repro.sim.resources import Resource
    for name in ("release", "in_use", "queue_length"):
        assert not hasattr(Resource, name), name
    # ``free_at`` is the one read-out: the free times stay private.
    touching = [str(path.relative_to(ROOT))
                for top in ("src", "tests", "benchmarks", "examples")
                for path in (ROOT / top).rglob("*.py")
                if re.search(r"[.]_free\b", path.read_text())]
    assert touching == ["src/repro/sim/resources.py"]


def test_a_replica_is_ranked_by_what_its_replies_said():
    """A partial read ranks replicas by what a real coordinator knows:
    its own CPU, and the free-at each peer stamped on its last reply to
    it.  The stamp is written in one place, when a reply arrives, and
    read for ranking in one, ``Coordinator._scatter``; the coordinator
    reads no CPU but its own node's.  (No knob rides with it: see
    ``test_config_and_snapshot_stay_small``.)"""
    assert sorted(_files_mentioning("reply_stamps")) == [
        "cluster/coordinator.py", "cluster/network.py"]
    network = (SRC / "cluster" / "network.py").read_text()
    assert network.count("reply_stamps[") == 1
    (arrive,) = [node for node in ast.walk(ast.parse(network))
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "arrive"]
    assert "reply_stamps[" in ast.get_source_segment(network, arrive)
    source = (SRC / "cluster" / "coordinator.py").read_text()
    assert [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef)
            and "reply_stamps" in ast.get_source_segment(source, node)
            ] == ["_scatter"]
    assert set(re.findall(r"(\w+)\.cpu\b", source)) == {"node"}
    assert "node = self.node" in source


def test_a_view_read_decodes_only_live_entries():
    """Algorithm 4 reads a row's live entries off its self-pointing
    ``Next`` cells; splitting a row into every entry, stale ones
    included, is for the invariant checkers and the scrubber."""
    source = (SRC / "views" / "read.py").read_text()
    assert "VersionedEntry" not in source
    assert "split_wide_row(" not in source


def test_a_view_entry_stores_only_its_pointer_and_its_cells():
    """``B`` is read off the entry's cell names and the Init mark is the
    self-pointer's timestamp phase, so no module keeps an Init column or
    writes a ``B`` cell into a view row."""
    assert _files_mentioning("INIT_COLUMN") == []
    writes_b = re.compile(r"view_column\([^()]*,\s*BASE_KEY_COLUMN\s*\)")
    assert [str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if writes_b.search(path.read_text())] == []


def test_a_writes_deferred_cpu_work_schedules_no_event():
    """Nobody waits on a replica write's background CPU work, so it is
    booked on the node's CPU and costs no kernel event."""
    source = (SRC / "cluster" / "node.py").read_text()
    (apply_write,) = [node for node in ast.walk(ast.parse(source))
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "_apply_write"]
    body = ast.get_source_segment(source, apply_write)
    assert "cpu.defer(" in body
    for scheduling in ("charge(", "hold(", "request(", "timeout",
                       "process(", "succeed("):
        assert scheduling not in body, scheduling


def test_a_loopback_is_decided_in_one_place():
    """Whether a request crosses a link is ``Network.rpc``'s call: a node
    that sends to itself is served in process there.  No sender — the
    coordinator above all — grows a "local" path of its own beside it."""
    locality = re.compile(
        r"\bsrc_id\s*==\s*[\w.]*node_id\b|\bnode_id\s*==\s*src_id\b")
    assert [str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
            if locality.search(path.read_text())] == ["cluster/network.py"]


# Public names that nothing outside ``tests/`` reaches, each with the
# reason it stays.  Five at most: a sixth means the rule below has
# stopped being applied.
UNREACHED_ON_PURPOSE = {
    "__version__",         # package metadata: read by people and packaging, called by nothing
    "live_state_digest",   # the reference the eager/adaptive and golden differential tests compare
    "expected_view_rows",  # Definition 1 spelled out: the oracle (views/model.py) tests check the cluster against
    "current_view",        # Definition 2 spelled out: the oracle's non-versioned view state Vn
    "load_schedule",       # reads back the reproducers ``fuzz`` saves; a person replays them (docs/testing.md)
}


def _names_used(nodes):
    return {node.id if isinstance(node, ast.Name) else node.attr
            for top in nodes for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _definitions(tree):
    """``(name, names its body uses)`` for every function, class, method
    and module-level assignment of a module; code that runs on import
    comes back under the name ``None``.  Imports use nothing: a
    re-export in an ``__init__.py`` is not a caller."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, functions):
            yield node.name, _names_used([node])
        elif isinstance(node, ast.ClassDef):
            # A method is reached by its own name, not by its class's;
            # dunder methods run when the class is used.
            methods = [item for item in node.body
                       if isinstance(item, functions)
                       and not item.name.startswith("__")]
            rest = [item for item in node.body if item not in methods]
            yield node.name, _names_used(
                node.bases + node.decorator_list + rest)
            for method in methods:
                yield method.name, _names_used([method])
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, _names_used([node.value])
        else:
            yield None, _names_used([node])


def _names_reached_outside_tests(roots=()):
    """Every identifier reachable from the roots: ``benchmarks/``,
    ``examples/``, CI's entry points, the client API ``docs/usage.md``
    documents, whatever ``src/repro`` runs on import (which includes
    ``python -m repro.experiments``) and the names in ``roots``.  By
    name only — two methods called ``stop`` keep each other alive — so
    it errs towards keeping."""
    root = SRC.parents[1]
    reached = set(roots)
    for base in (root / "benchmarks", root / "examples"):
        for path in base.rglob("*.py"):
            tree = ast.parse(path.read_text())
            reached |= _names_used([tree])
            reached.update(alias.name.rpartition(".")[2]
                           for node in ast.walk(tree)
                           if isinstance(node, (ast.Import, ast.ImportFrom))
                           for alias in node.names)
    for prose in (root / ".github" / "workflows" / "ci.yml",
                  root / "docs" / "usage.md"):
        reached.update(re.findall(r"[A-Za-z_]\w*", prose.read_text()))
    uses = {}
    for path in SRC.rglob("*.py"):
        for name, used in _definitions(ast.parse(path.read_text())):
            if name is None:
                reached |= used
            else:
                uses.setdefault(name, set()).update(used)
    frontier = set(reached)
    while frontier:
        frontier = set().union(
            *(uses.get(name, ()) for name in frontier)) - reached
        reached |= frontier
    return reached


def _public_definitions(tree):
    """Names of a module's public functions and classes, and of its
    classes' public methods and properties."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, functions))


def test_every_export_is_reached_outside_tests():
    """A name stays in ``src/repro`` if something outside ``tests/``
    reaches it — an ``__all__`` export, and every public function,
    class, method and property besides; what only its own tests reach
    is deleted with them (not dropped from ``__all__`` while the code
    stays).  What an allow-listed name uses is reached through it."""
    assert len(UNREACHED_ON_PURPOSE) <= 5
    reached = _names_reached_outside_tests()
    assert UNREACHED_ON_PURPOSE.isdisjoint(reached), "stale allow-list entry"
    reached = _names_reached_outside_tests(UNREACHED_ON_PURPOSE)
    unreached = [f"{path.relative_to(SRC.parent)}: {name}"
                 for path in sorted(SRC.rglob("*.py"))
                 for name in _public_definitions(ast.parse(path.read_text()))
                 if not name.startswith("_") and name not in reached]
    for init in sorted(SRC.rglob("__init__.py")):
        for node in ast.parse(init.read_text()).body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == "__all__"):
                unreached += [
                    f"{init.parent.relative_to(SRC.parent)}: {name}"
                    for name in ast.literal_eval(node.value)
                    if name not in reached]
    assert unreached == []
