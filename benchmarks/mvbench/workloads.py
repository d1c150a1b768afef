"""The four workloads: specs, input generators, client processes, checker.

Everything here drives the system through the client API only
(``Cluster``, ``create_table``, ``create_view``, ``cluster.client()``,
``put/get/get_view/get_view_fresh/begin_session``, ``env.process/run/
now/timeout``, ``run_until_idle``), and every input derives from
``--seed`` through this module's own generators — ``repro.workloads`` is
deliberately not imported, so a change there cannot change the inputs.

All workloads are closed-loop (the paper's methodology): each of the
``CLIENTS`` clients issues its next operation when the previous one
returns.  The clients draw from one shared op budget, so all of them
stay busy until the run ends: with a budget per client, the two clients
whose coordinator is the ring's most loaded node run several times
slower than the rest and would finish the run alone, in a two-client
regime nobody asked about.  The op-type mix is a fixed repeating pattern
rotated by client index, not a coin flip, so the share of each op type
is exact to within one pattern period per client.
"""

from __future__ import annotations

import bisect
import itertools
import random
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import Cluster, ClusterConfig, ReproError, ViewDefinition

TABLE = "DATA"
VIEW = "V"
CLIENTS = 8
WARMUP_FRACTION = 0.10
PROBE_ROWS = 512
PROBE_PERIOD_MS = 25.0
PROBE_MAX_POLLS = 20
FRESH_BOUND_MS = 20.0
ZIPF_THETA = 0.99


@dataclass(frozen=True)
class Spec:
    """One workload.  ``ops_per_client_s`` is per nominal host second:
    a run of ``--seconds S`` issues ``CLIENTS * S * ops_per_client_s``
    operations in all, sized so the timed window lasts about ``S``
    seconds at the nominal host speed."""

    name: str
    why: str
    rows: int
    view: bool
    pattern: Tuple[str, ...]
    ops_per_client_s: int
    zipf: bool = False
    sessions: bool = False
    probe: bool = False
    sec_space: int = 0  # distinct view-key values written; 0 = none written
    # Row k is written only by client k mod CLIENTS, which walks its
    # rows in a shuffled cycle, so one chain never has two propagations
    # outstanding.  With independent uniform keys a few propagations in
    # ten thousand are abandoned under default config and leave the view
    # wrong — two coordinators racing on one chain (the known
    # guess-retry livelock), or one node's outbox running a chain's
    # third queued record before its second — and the workload would
    # fail its own correctness check.
    own_rows: bool = False


SPECS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec("bt_mixed",
         "substrate only: no view defined, so sim/network/coordinator/"
         "node/storage/records do all the work and views/freshness none",
         rows=20_000, view=False, pattern=("get", "put"),
         ops_per_client_s=900),
    Spec("mv_read",
         "the paper's Fig. 3/4 MV arm: view reads with no propagation "
         "running, so read-path work shows here and nowhere else",
         rows=4_000, view=True, pattern=("get_view",),
         ops_per_client_s=1000),
    Spec("mv_write",
         "the paper's Fig. 5/6 MV arm: every op moves a view key, so the "
         "propagation path (outbox, locks, chain walk) dominates",
         rows=4_000, view=True, pattern=("put_sec",),
         ops_per_client_s=110, probe=True, sec_space=16_000, own_rows=True),
    Spec("mv_skew_session",
         "Zipf 0.99 keys and view keys under sessions: reads beside "
         "writes on hot chains, wide view rows, barriers, freshness path",
         rows=4_000, view=True,
         pattern=("put_sec", "get_view", "put_sec", "get_view", "put_sec",
                  "get_view_fresh", "put_sec", "get_view", "put_sec",
                  "get_view"),
         ops_per_client_s=150, zipf=True, sessions=True, probe=True,
         sec_space=4_000),
)}

READ_KINDS = ("get", "get_view")
WRITE_KINDS = ("put", "put_sec")


def op_budget(spec: Spec, seconds: float, scale: float = 1.0) -> int:
    """Total client ops of a run; a multiple of the mix pattern."""
    raw = CLIENTS * spec.ops_per_client_s * seconds * scale
    period = CLIENTS * len(spec.pattern)
    return max(period, int(raw) // period * period)


# -- input generators ---------------------------------------------------------


def client_rng(seed: int, workload: str, role: str) -> random.Random:
    """An independent, process-stable stream per (seed, workload, role)."""
    return random.Random(f"mvbench/{seed}/{workload}/{role}")


def payload(rng: random.Random) -> str:
    """A 16-character value string."""
    return "%016x" % rng.getrandbits(64)


class Zipf:
    """Ranks 0..n-1 with P(rank) proportional to 1/(rank+1)**theta."""

    def __init__(self, n: int, theta: float):
        total = 0.0
        self._cdf: List[float] = []
        for rank in range(n):
            total += 1.0 / (rank + 1) ** theta
            self._cdf.append(total)
        self._total = total

    def draw(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random() * self._total)


# -- run state ----------------------------------------------------------------


@dataclass
class RunState:
    """Mutable bookkeeping shared by the client processes of one run."""

    spec: Spec
    cluster: Cluster
    seed: int
    # What the store must hold when the run is over: per base key and
    # column, the (timestamp, value) of the last-writer-wins winner.
    expected: Dict[int, Dict[str, Tuple[int, Any]]] = field(
        default_factory=dict)
    attempted: int = 0
    failed: int = 0
    completed: int = 0        # non-probe workload ops, warm-up included
    issued: int = 0
    active_clients: int = 0
    latencies: Dict[str, array] = field(default_factory=dict)
    # The measured window on the simulation clock: from the completion
    # of the last warm-up op to the completion of the last op.
    window_start: float = 0.0
    window_end: float = 0.0
    window_ops: int = 0
    probe_lags: array = field(default_factory=lambda: array("d"))
    probe_late_ms_max: float = 0.0
    probe_polls: int = 0
    # Traced runs set this to wrap client ops and generator loops.
    tracer: Any = None

    @property
    def env(self):
        return self.cluster.env

    def note_write(self, key: int, values: Dict[str, Any], ts: int) -> None:
        row = self.expected.setdefault(key, {})
        for column, value in values.items():
            current = row.get(column)
            if current is None or ts > current[0]:
                row[column] = (ts, value)


def build(spec: Spec, seed: int) -> Cluster:
    """A default-config cluster with the workload's schema."""
    cluster = Cluster(ClusterConfig(seed=seed))
    cluster.create_table(TABLE)
    if spec.view:
        cluster.create_view(ViewDefinition(VIEW, TABLE, "sec", ("payload",)))
    return cluster


def total_rows(spec: Spec) -> int:
    return spec.rows + (PROBE_ROWS if spec.probe else 0)


def spawn(state: RunState, generator, label: str):
    tracer = state.tracer
    if tracer is not None:
        generator = tracer.generator_loop(generator, label)
    return state.env.process(generator)


# -- loading ------------------------------------------------------------------


def start_load(state: RunState) -> None:
    """Spawn the loader clients: every row Put at W=N, ``sec = s<k>``."""
    spec = state.spec
    n = state.cluster.config.replication_factor
    rows = total_rows(spec)
    state.active_clients = CLIENTS

    def loader(handle, rng, keys):
        for key in keys:
            values = {"sec": f"s{key}", "payload": payload(rng)}
            state.attempted += 1
            try:
                ts = yield from handle.put(TABLE, key, values, w=n)
            except ReproError:
                state.failed += 1
            else:
                state.note_write(key, values, ts)
                state.completed += 1
        state.active_clients -= 1

    for index in range(CLIENTS):
        rng = client_rng(state.seed, spec.name, f"load{index}")
        spawn(state, loader(state.cluster.client(), rng,
                            range(index, rows, CLIENTS)), "loader")


# -- the measured clients ---------------------------------------------------


def _key_source(spec: Spec, rng: random.Random, index: int,
                zipf: Optional[Zipf]):
    """The function a client calls for its next key."""
    if zipf is not None:
        return lambda: zipf.draw(rng)
    if spec.own_rows:
        mine = list(range(index, spec.rows, CLIENTS))
        rng.shuffle(mine)
        return itertools.cycle(mine).__next__
    return lambda: rng.randrange(spec.rows)


def _operation(state: RunState, handle, rng: random.Random, kind: str,
               next_key):
    """One client operation of ``kind``; a generator."""
    spec = state.spec
    key = next_key()
    if kind == "get":
        yield from handle.get(TABLE, key, ("payload",), r=1)
    elif kind == "get_view":
        yield from handle.get_view(VIEW, f"s{key}", ("payload",), r=1)
    elif kind == "get_view_fresh":
        yield from handle.get_view_fresh(VIEW, f"s{key}", ("payload",), r=1,
                                         max_staleness_ms=FRESH_BOUND_MS)
    elif kind in WRITE_KINDS:
        if kind == "put":
            values = {"payload": payload(rng)}
        else:
            target = (next_key() if spec.zipf
                      else rng.randrange(spec.sec_space))
            values = {"sec": f"s{target}"}
        ts = yield from handle.put(TABLE, key, values, w=1)
        state.note_write(key, values, ts)
    else:
        raise ValueError(f"unknown op kind {kind!r}")


def start_clients(state: RunState, budget: int) -> None:
    """Spawn the closed-loop clients (and the probe, if the spec has
    one).  The first tenth of the budget, by completion, is warm-up."""
    spec = state.spec
    env = state.env
    warm = int(budget * WARMUP_FRACTION)
    for kind in dict.fromkeys(spec.pattern):
        state.latencies[kind] = array("d")
    state.active_clients = CLIENTS
    period = len(spec.pattern)
    zipf = Zipf(spec.rows, ZIPF_THETA) if spec.zipf else None

    def client(handle, rng, index):
        if spec.sessions:
            handle.begin_session()
        tracer = state.tracer
        next_key = _key_source(spec, rng, index, zipf)
        i = index
        while state.issued < budget:
            state.issued += 1
            kind = spec.pattern[i % period]
            i += 1
            op = _operation(state, handle, rng, kind, next_key)
            if tracer is not None:
                op = tracer.client_op(op, kind)
            state.attempted += 1
            started = env.now
            try:
                yield from op
            except ReproError:
                state.failed += 1
                continue
            state.completed += 1
            if state.completed > warm:
                state.latencies[kind].append(env.now - started)
                state.window_ops += 1
                state.window_end = env.now
            elif state.completed == warm:
                state.window_start = env.now
        state.active_clients -= 1

    for index in range(CLIENTS):
        rng = client_rng(state.seed, spec.name, f"client{index}")
        spawn(state, client(state.cluster.client(), rng, index), "client")
    if spec.probe:
        spawn(state, _probe(state), "probe")


def _probe(state: RunState):
    """The visibility-lag probe: an open-loop ninth client.

    Every ``PROBE_PERIOD_MS`` it starts one probe cycle on the next of
    its own ``PROBE_ROWS`` rows, each row with its own session-holding
    handle (coordinators round-robin): Put a fresh view key, then read
    it back through the session.  The time from the Put's return to the
    read that shows it is one visibility-lag sample.

    Cycles overlap and every started cycle yields a sample, so a slow
    system gets neither fewer samples nor kinder ones: under saturating
    writes a cycle through the ring's most loaded node takes seconds,
    and with one outstanding cycle at a time the probe would sample
    mostly the moments when the system is quick.  A row is reused only
    after ``PROBE_ROWS`` periods; a cycle is late only if its row's
    previous cycle is still running then — how late is reported, and the
    schedule re-anchored.
    """
    env = state.env
    spec = state.spec
    handles = [state.cluster.client() for _ in range(PROBE_ROWS)]
    for handle in handles:
        handle.begin_session()
    running: List[Any] = [None] * PROBE_ROWS

    def cycle(handle, key, values):
        ts = yield from handle.put(TABLE, key, values, w=1)
        state.note_write(key, values, ts)
        acked = env.now
        for _ in range(PROBE_MAX_POLLS):
            state.probe_polls += 1
            rows = yield from handle.get_view(
                VIEW, values["sec"], ("payload",), r=1)
            if any(row.base_key == key for row in rows):
                return env.now - acked
        return None

    def timed_cycle(slot, values):
        op = cycle(handles[slot], spec.rows + slot, values)
        if state.tracer is not None:
            op = state.tracer.client_op(op, "probe")
        state.attempted += 1
        try:
            lag = yield from op
        except ReproError:
            lag = None
        if lag is None:
            state.failed += 1
        else:
            state.probe_lags.append(lag)

    due = env.now
    count = 0
    while state.active_clients > 0:
        due += PROBE_PERIOD_MS
        if due > env.now:
            yield env.timeout(due - env.now)
        slot = count % PROBE_ROWS
        previous = running[slot]
        if previous is not None and previous.is_alive:
            yield previous
        if env.now > due:
            state.probe_late_ms_max = max(state.probe_late_ms_max,
                                          env.now - due)
            due = env.now
        values = {"sec": f"probe{slot}-{count}"}
        running[slot] = spawn(state, timed_cycle(slot, values), "probe")
        count += 1


# -- the correctness check ----------------------------------------------------


def start_check(state: RunState, result: Dict[str, int],
                expected: Optional[Dict] = None) -> None:
    """Spawn the checker clients.

    For every base key: ``get(DATA, k, [sec, payload], r=N)`` must return
    the last-writer-wins winner of what this benchmark wrote, and (when
    the workload has a view) ``get_view(V, sec, [payload], r=N)`` must
    return a row with ``base_key == k`` and the same payload.
    ``result["mismatches"]`` counts rows failing either test.
    """
    spec = state.spec
    n = state.cluster.config.replication_factor
    expected = state.expected if expected is None else expected
    keys = sorted(expected)
    result["rows"] = len(keys)
    result["mismatches"] = 0

    def row_ok(handle, key):
        want = expected[key]
        got = yield from handle.get(TABLE, key, ("sec", "payload"), r=n)
        for column in ("sec", "payload"):
            if got[column] != (want[column][1], want[column][0]):
                return False
        if not spec.view:
            return True
        rows = yield from handle.get_view(VIEW, want["sec"][1],
                                          ("payload",), r=n)
        return any(row.base_key == key
                   and row["payload"] == want["payload"][1] for row in rows)

    def checker(handle, mine):
        for key in mine:
            state.attempted += 1
            try:
                ok = yield from row_ok(handle, key)
            except ReproError:
                ok = False
            if not ok:
                result["mismatches"] += 1
                state.failed += 1

    for index in range(CLIENTS):
        spawn(state, checker(state.cluster.client(), keys[index::CLIENTS]),
              "checker")


# -- derived client-side statistics ----------------------------------------


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def merged_latencies(state: RunState, kinds) -> List[float]:
    merged: List[float] = []
    for kind in kinds:
        merged.extend(state.latencies.get(kind, ()))
    return merged

