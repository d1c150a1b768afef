"""Per-layer attribution from outside: wrap each layer's public functions.

Nothing inside ``repro`` knows about this file.  :func:`install` looks up
every dotted name in :data:`TARGETS`, replaces it with a wrapper (on the
class for methods; in every loaded ``repro`` module that holds a
reference for module-level functions, so ``from x import f`` bindings are
covered too), and :func:`uninstall` puts the originals back.  A target
that no longer exists is reported in ``Tracer.missing`` with a warning —
its metrics come out ``None`` — and never crashes the run.

Generator-returning functions are wrapped in :class:`GenSpan`, a proxy
that times every resumption and stamps simulated start/end.  Host time
is attributed by the *dynamic* nesting of resumptions: a layer's self
time is the host time of its spans minus the host time of the spans
resumed inside them.  Whatever no wrapped span covers (the kernel's
event loop, private glue) is the ``sim.kernel`` remainder, so the
per-layer shares sum to one by construction.

Each span records name, simulated start/end, host busy time, parent
span and the client-op id it serves (-1 for background work whose op
cannot be recovered).  Spans live in flat ``array`` columns in memory
and are written out once, at the end (:meth:`Tracer.write_spans`).
"""

from __future__ import annotations

import importlib
import json
import sys
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

BACKGROUND_OP = -1
OPEN = -1.0  # sim_end of a span that has not finished


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``kind``: ``"gen"`` (returns a generator: proxy span), ``"fn"``
    (plain call: timed span), ``"count"`` (counted, not timed — too
    small or too hot to time), or ``"rpc"`` (returns an event: span ends
    when the event fires).  ``pre``/``post`` name a :class:`Tracer`
    method called with the call's arguments / with arguments and result.
    """

    dotted: str
    layer: str
    kind: str
    pre: Optional[str] = None
    post: Optional[str] = None


TARGETS: Tuple[Target, ...] = (
    Target("repro.sim.kernel.Environment.process", "sim.kernel", "count"),
    Target("repro.sim.resources.Resource.request", "sim.resources", "count"),
    Target("repro.sim.resources.Semaphore.acquire", "views.outbox", "count",
           post="_post_semaphore_acquire"),
    Target("repro.cluster.client.ClientHandle.put", "cluster.client", "gen"),
    Target("repro.cluster.client.ClientHandle.get", "cluster.client", "gen"),
    Target("repro.cluster.client.ClientHandle.get_view", "cluster.client",
           "gen"),
    Target("repro.cluster.client.ClientHandle.get_view_fresh",
           "cluster.client", "gen"),
    Target("repro.cluster.network.Network.rpc", "cluster.network", "rpc"),
    Target("repro.cluster.coordinator.Coordinator.put",
           "cluster.coordinator", "gen"),
    Target("repro.cluster.coordinator.Coordinator.get",
           "cluster.coordinator", "gen"),
    Target("repro.cluster.coordinator.Coordinator.get_row",
           "cluster.coordinator", "gen"),
    Target("repro.cluster.coordinator.Coordinator.scatter_write",
           "cluster.coordinator", "fn"),
    Target("repro.cluster.coordinator.Coordinator.scatter_read",
           "cluster.coordinator", "fn"),
    Target("repro.cluster.coordinator.Coordinator.scatter_read_row",
           "cluster.coordinator", "fn"),
    Target("repro.cluster.coordinator.Coordinator.scatter_get_then_put",
           "cluster.coordinator", "fn"),
    Target("repro.cluster.coordinator.ResponseCollector.wait",
           "cluster.coordinator", "count"),
    Target("repro.cluster.node.StorageNode.dispatch", "cluster.node", "gen",
           pre="_pre_dispatch"),
    Target("repro.cluster.storage.LocalStorageEngine.apply",
           "cluster.storage", "fn"),
    Target("repro.cluster.storage.LocalStorageEngine.read",
           "cluster.storage", "fn"),
    Target("repro.cluster.storage.LocalStorageEngine.read_row",
           "cluster.storage", "fn"),
    Target("repro.common.records.merge_cells", "common.records", "count"),
    Target("repro.common.records.Row.apply", "common.records", "count"),
    Target("repro.views.manager.ViewManager.base_put", "views.manager",
           "gen"),
    Target("repro.views.manager.ViewManager.view_get", "views.manager",
           "gen"),
    Target("repro.views.manager.ViewManager.view_get_fresh", "views.manager",
           "gen"),
    Target("repro.views.outbox.NodeOutbox.append", "views.outbox", "fn",
           post="_post_outbox_append"),
    Target("repro.views.outbox.NodeOutbox.next_batch", "views.outbox", "gen",
           post="_post_next_batch"),
    Target("repro.views.outbox.NodeOutbox.done", "views.outbox", "fn"),
    Target("repro.views.outbox.OutboxRecord.resolve", "views.outbox", "fn",
           pre="_pre_record_resolve"),
    Target("repro.views.maintenance.ViewMaintainer.propagate_update",
           "views.maintenance", "gen", pre="_pre_propagate_update"),
    Target("repro.views.maintenance.ViewMaintainer.get_live_key",
           "views.maintenance", "gen"),
    Target("repro.views.locks.LockService.acquire", "views.locks", "gen"),
    Target("repro.views.locks.LockService.release", "views.locks", "fn"),
    Target("repro.views.read.view_get", "views.read", "gen",
           post="_post_view_read"),
    Target("repro.views.versioned.split_wide_row", "views.read", "count",
           post="_post_split_wide_row"),
    Target("repro.views.session.SessionManager.barrier", "views.session",
           "gen"),
    Target("repro.freshness.certificate.FreshnessTracker.sources",
           "freshness", "fn", post="_post_sources"),
    Target("repro.freshness.certificate.FreshnessTracker.certificate",
           "freshness", "fn"),
    Target("repro.freshness.read.fresh_view_get", "freshness", "gen"),
)

BENCH_LAYER = "bench"
KERNEL_LAYER = "sim.kernel"


class GenSpan:
    """Generator proxy: one span, timed per resumption."""

    __slots__ = ("gen", "idx", "layer", "tracer", "post", "args")

    def __init__(self, gen, idx: int, layer: int, tracer: "Tracer",
                 post=None, args=None):
        self.gen = gen
        self.idx = idx
        self.layer = layer
        self.tracer = tracer
        self.post = post
        self.args = args

    @property
    def __name__(self) -> str:
        return getattr(self.gen, "__name__", "generator")

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self.gen.send, (None,))

    def send(self, value):
        return self._resume(self.gen.send, (value,))

    def throw(self, *exc_info):
        return self._resume(self.gen.throw, exc_info)

    def close(self):
        self.tracer.end[self.idx] = self.tracer.env.now
        return self.gen.close()

    def _resume(self, step, args):
        tracer = self.tracer
        spans, layers = tracer.stack, tracer.layer_stack
        spans.append(self.idx)
        layers.append(self.layer)
        started = perf_counter()
        try:
            return step(*args)
        except StopIteration as stop:
            tracer.end[self.idx] = tracer.env.now
            if self.post is not None:
                self.post(self.args, stop.value)
            raise
        except BaseException:
            tracer.end[self.idx] = tracer.env.now
            raise
        finally:
            spent = perf_counter() - started
            spans.pop()
            layers.pop()
            tracer.host[self.idx] += spent
            tracer.layer_host[self.layer] += spent
            if layers:
                tracer.layer_child[layers[-1]] += spent


class Tracer:
    """Span store, counters and the wrappers' shared state."""

    def __init__(self):
        self.env = None            # bound to the cluster under test
        self.enabled = False
        self.missing: List[str] = []
        self.layers: List[str] = [BENCH_LAYER]
        self._layer_ids: Dict[str, int] = {BENCH_LAYER: 0}
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_layer: List[int] = []
        # Span columns.
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.host = array("d")
        self.parent = array("l")
        self.op = array("l")
        # Dynamic nesting of the spans being resumed right now.
        self.stack: List[int] = []
        self.layer_stack: List[int] = []
        self.layer_host: List[float] = [0.0]
        self.layer_child: List[float] = [0.0]
        self.counts: Dict[str, int] = {}
        self.event_counts: Dict[str, int] = {}
        self.record_lags = array("d")
        self.next_op = 0
        # Hand-offs that cross the kernel's event loop, where the call
        # stack cannot carry the op id.
        self._request_span: Dict[int, int] = {}
        self._update_op: Dict[Tuple[Any, int], int] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- ids -------------------------------------------------------------

    def layer_id(self, layer: str) -> int:
        ident = self._layer_ids.get(layer)
        if ident is None:
            ident = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.layer_host.append(0.0)
            self.layer_child.append(0.0)
        return ident

    def name_id(self, name: str, layer: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(self.layer_id(layer))
        return ident

    # -- spans -----------------------------------------------------------

    def open_span(self, name_id: int, op: Optional[int] = None) -> int:
        """Append a span starting now; returns its index."""
        parent = self.stack[-1] if self.stack else -1
        if op is None:
            op = self.op[parent] if parent >= 0 else BACKGROUND_OP
        now = self.env.now
        idx = len(self.name)
        self.name.append(name_id)
        self.start.append(now)
        self.end.append(OPEN)
        self.host.append(0.0)
        self.parent.append(parent)
        self.op.append(op)
        return idx

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def watch_event(self, event) -> None:
        """``Environment.set_event_watcher`` hook: events by type."""
        kind = type(event).__name__
        counts = self.event_counts
        counts[kind] = counts.get(kind, 0) + 1

    # -- benchmark-side wrappers (called from workloads.py) ---------------

    def client_op(self, generator, kind: str) -> GenSpan:
        """Wrap one client operation; it gets a fresh op id."""
        op = self.next_op
        self.next_op += 1
        name_id = self.name_id(f"client_op.{kind}", BENCH_LAYER)
        return GenSpan(generator, self.open_span(name_id, op), 0, self)

    def generator_loop(self, generator, label: str) -> GenSpan:
        """Wrap a benchmark client loop, to time the generator itself."""
        name_id = self.name_id(f"bench.{label}", BENCH_LAYER)
        return GenSpan(generator, self.open_span(name_id), 0, self)

    # -- hooks named in TARGETS -------------------------------------------

    # Hooks take the wrapped call's positional arguments as a tuple and
    # check its shape, so a changed signature degrades the attribution
    # (background op, missing sample) instead of raising.

    def _pre_dispatch(self, args):
        # (node, request).  Network.rpc registered the request; its span
        # is this one's causal parent though the kernel sits between.
        return self._request_span.get(id(args[-1]))

    def _pre_propagate_update(self, args):
        # (maintainer, coordinator, view, base_key, guess, values, base_ts)
        if len(args) < 7:
            return None
        op = self._update_op.get((args[3], args[6]))
        return None if op is None else ("op", op)

    def _pre_record_resolve(self, args):
        record = args[0]
        completion = getattr(record, "completion", None)
        appended_at = getattr(record, "appended_at", None)
        if (completion is not None and appended_at is not None
                and not completion.triggered):
            self.record_lags.append(self.env.now - appended_at)
        return None

    def _post_semaphore_acquire(self, _args, event):
        if not event.triggered:
            self.count("semaphore_waits")

    def _post_outbox_append(self, args, _record):
        # (outbox, view, table, key, update_values, base_ts, ...)
        if self.stack and len(args) >= 6:
            self._update_op[(args[3], args[5])] = self.op[self.stack[-1]]

    def _post_next_batch(self, _args, batch):
        self.count("outbox_batches")
        self.count("outbox_batch_records", len(batch))

    def _post_view_read(self, _args, results):
        self.count("view_read_results", len(results))

    def _post_split_wide_row(self, _args, entries):
        self.count("rows_examined", len(entries))

    def _post_sources(self, _args, sources):
        self.count("sources_listed", len(sources))

    # -- wrapper factories ------------------------------------------------

    def _wrap(self, target: Target, original: Callable) -> Callable:
        tracer = self
        short = target.dotted.removeprefix("repro.")
        layer = self.layer_id(target.layer)
        name_id = self.name_id(short, target.layer)
        pre = getattr(self, target.pre) if target.pre else None
        post = getattr(self, target.post) if target.post else None
        counts = self.counts
        counts.setdefault(short, 0)

        def open_span(args):
            """Open this call's span, honouring a ``pre`` hook's hint:
            a span index (causal parent) or ``("op", id)``."""
            hint = pre(args) if pre is not None else None
            if hint is None:
                return tracer.open_span(name_id)
            if isinstance(hint, tuple):
                return tracer.open_span(name_id, hint[1])
            idx = tracer.open_span(name_id, tracer.op[hint])
            tracer.parent[idx] = hint
            return idx

        def timed_call(idx, args, kwargs):
            spans, layers = tracer.stack, tracer.layer_stack
            spans.append(idx)
            layers.append(layer)
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent = perf_counter() - started
                spans.pop()
                layers.pop()
                tracer.host[idx] += spent
                tracer.layer_host[layer] += spent
                if layers:
                    tracer.layer_child[layers[-1]] += spent

        if target.kind == "count":
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                counts[short] += 1
                result = original(*args, **kwargs)
                if post is not None:
                    post(args, result)
                return result
        elif target.kind == "fn":
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                counts[short] += 1
                idx = open_span(args)
                result = timed_call(idx, args, kwargs)
                tracer.end[idx] = tracer.start[idx]
                if post is not None:
                    post(args, result)
                return result
        elif target.kind == "gen":
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                counts[short] += 1
                idx = open_span(args)
                generator = timed_call(idx, args, kwargs)
                if not hasattr(generator, "send"):
                    return generator
                return GenSpan(generator, idx, layer, tracer, post,
                               args if post is not None else None)
        elif target.kind == "rpc":
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                counts[short] += 1
                idx = open_span(args)
                tracer._request_span[id(args[-1])] = idx
                event = timed_call(idx, args, kwargs)

                def fired(_event):
                    tracer.end[idx] = tracer.env.now

                if hasattr(event, "add_callback"):
                    event.add_callback(fired)
                return event
        else:
            raise ValueError(f"unknown target kind {target.kind!r}")
        wrapper.__name__ = getattr(original, "__name__", short)
        wrapper.__wrapped__ = original
        return wrapper

    # -- install / uninstall -----------------------------------------------

    def install(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        """Patch every resolvable target; note the rest in ``missing``."""
        import repro  # noqa: F401  (load the package before scanning it)
        for target in targets:
            owner, attr, original = _resolve(target.dotted)
            if original is None:
                self.missing.append(target.dotted)
                warnings.warn(f"mvbench trace: wrap target {target.dotted} "
                              "does not exist; its metrics will be null")
                continue
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- windows -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Accumulator values now; subtract two snapshots for a window."""
        return {
            "spans": len(self.name),
            "lags": len(self.record_lags),
            "layer_host": list(self.layer_host),
            "layer_child": list(self.layer_child),
            "counts": dict(self.counts),
            "events": dict(self.event_counts),
        }

    def window(self, before: dict) -> "Window":
        after = self.snapshot()
        width = len(after["layer_host"])
        pad = [0.0] * (width - len(before["layer_host"]))
        host0 = before["layer_host"] + pad
        child0 = before["layer_child"] + pad
        self_s = {
            self.layers[i]: (after["layer_host"][i] - host0[i])
                            - (after["layer_child"][i] - child0[i])
            for i in range(width)
        }
        counts = {key: value - before["counts"].get(key, 0)
                  for key, value in after["counts"].items()}
        events = {key: value - before["events"].get(key, 0)
                  for key, value in after["events"].items()}
        return Window(self, before["spans"], after["spans"], self_s, counts,
                      events, list(self.record_lags[before["lags"]:]))

    # -- output --------------------------------------------------------------

    def write_spans(self, directory: Path, stem: str) -> Path:
        """Dump the span columns (binary) plus a JSON description."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = [("name", self.name), ("sim_start", self.start),
                   ("sim_end", self.end), ("host_s", self.host),
                   ("parent", self.parent), ("op", self.op)]
        data_path = directory / f"{stem}.spans.bin"
        with open(data_path, "wb") as out:
            for _name, column in columns:
                column.tofile(out)
        meta = {
            "spans": len(self.name),
            "columns": [{"name": name, "typecode": column.typecode,
                         "itemsize": column.itemsize}
                        for name, column in columns],
            "layout": "columns back to back, each `spans` items long",
            "names": self.names,
            "name_layer": [self.layers[i] for i in self.name_layer],
            "background_op": BACKGROUND_OP,
            "open_sim_end": OPEN,
            "missing_targets": self.missing,
        }
        (directory / f"{stem}.spans.json").write_text(
            json.dumps(meta, indent=1))
        return data_path


@dataclass
class Window:
    """What the tracer saw between two snapshots."""

    tracer: Tracer
    first_span: int
    last_span: int
    layer_self_s: Dict[str, float]
    counts: Dict[str, int]
    events: Dict[str, int]
    record_lags: List[float]
    _durations: Optional[Dict[int, List[float]]] = None  # built on first use

    def calls(self, dotted: str) -> Optional[int]:
        """Calls of a wrap target in the window; None if it is missing."""
        if dotted in self.tracer.missing:
            return None
        return self.counts.get(dotted.removeprefix("repro."), 0)

    def sim_durations(self, dotted: str) -> List[float]:
        """Simulated duration of each span of a target opened in the
        window (spans still open at the end are left out)."""
        if self._durations is None:
            tracer = self.tracer
            name, start, end = tracer.name, tracer.start, tracer.end
            by_name: Dict[int, List[float]] = {}
            for i in range(self.first_span, self.last_span):
                if end[i] != OPEN:
                    by_name.setdefault(name[i], []).append(end[i] - start[i])
            self._durations = by_name
        ident = self.tracer._name_ids.get(dotted.removeprefix("repro."))
        return self._durations.get(ident, [])


def _resolve(dotted: str):
    """``(owner, attribute, object)`` for a dotted name, or Nones."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for part in parts[split:-1]:
                owner = getattr(owner, part)
            return owner, parts[-1], vars(owner)[parts[-1]]
        except (AttributeError, KeyError):
            return None, None, None
    return None, None, None
