"""Tracing for the traced run: timing wrappers installed from outside.

``Tracer.install()`` replaces the public callables at each layer
boundary with wrappers that record a span — name, start, end, the span
that caused it, one id per session, thread — in memory.  A layer's
*self time* is its span's duration minus the part its child spans
cover, so the self times of one thread add up to its wall clock.
Calls too frequent for a span each (``BackingStore.absorb`` runs once
per eviction) go through a call-count accumulator that still charges
its time to the enclosing span's children.

Nothing here is imported by an untraced run, and ``src/`` is not
edited: spans inside the program are a later issue.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
import weakref
from collections import defaultdict
from pathlib import Path

from workloads import proc_stat

_ns = time.perf_counter_ns

#: (module, dotted attribute, span name).  A metric is named after its
#: span: ``<span>_s`` / ``<span>_ms`` / ``<span>_self_s`` (see
#: ``layer_metrics``).  Functions that other modules import by name
#: are replaced in every ``repro`` module (and ``workloads``) that holds
#: them.
SPANS = [
    ("repro.traffic.caida", "generate_caida_like", "traffic.generate"),
    ("repro.telemetry.runtime", "QueryEngine.__init__", "core.compile"),
    ("repro.telemetry.runtime", "QueryEngine.diagnostics", "core.analyze"),
    ("repro.telemetry.runtime", "QueryEngine.open", "session.open"),
    ("repro.telemetry.runtime", "QueryEngine.resume", "session.resume"),
    ("repro.telemetry.session", "TelemetrySession.ingest", "session.ingest"),
    ("repro.telemetry.session", "TelemetrySession.results", "session.results"),
    ("repro.telemetry.session", "TelemetrySession.close", "session.close"),
    ("repro.telemetry.session", "TelemetrySession.checkpoint",
     "session.checkpoint"),
    ("repro.switch.pipeline", "SwitchPipeline.run", "pipeline.run"),
    ("repro.switch.pipeline", "SwitchPipeline.results", "pipeline.results"),
    ("repro.switch.pipeline", "SwitchPipeline.snapshot_results",
     "pipeline.results"),
    ("repro.switch.kvstore.vector_store", "VectorSplitStore.finalize",
     "vector_store.finalize"),
    ("repro.switch.kvstore.vector_store", "VectorSplitStore.result_table",
     "vector_store.result_table"),
    ("repro.switch.kvstore.windowed_store", "WindowedVectorStore.add_batch",
     "windowed_store.add_batch"),
    ("repro.switch.kvstore.windowed_store", "WindowedVectorStore.snapshot",
     "windowed_store.snapshot"),
    ("repro.switch.kvstore.windowed_store", "WindowedVectorStore.finalize",
     "windowed_store.finalize"),
    ("repro.switch.kvstore.windowed_store", "WindowedVectorStore.result_table",
     "windowed_store.result_table"),
    ("repro.switch.kvstore.windowed_store",
     "WindowedVectorStore.checkpoint_state", "windowed_store.checkpoint_state"),
    ("repro.switch.kvstore.windowed_store",
     "WindowedVectorStore.restore_state", "windowed_store.restore_state"),
    ("repro.switch.kvstore.vector_cache", "VectorCacheSim.__init__",
     "vector_cache.schedule"),
    ("repro.switch.kvstore.vector_cache", "VectorCacheSim.miss_schedule",
     "vector_cache.schedule"),
    ("repro.switch.kvstore.vector_cache", "VectorCacheSim.stats_and_schedule",
     "vector_cache.schedule"),
    # the windowed FIFO/random scheduler enters the cache layer here
    ("repro.switch.kvstore.vector_cache", "_replay_segments",
     "vector_cache.schedule"),
    ("repro.switch.kvstore.vector_cache", "mix_key_array",
     "vector_cache.mix_key"),
    ("repro.switch.kvstore.sharded", "ShardedStoreProxy.add_batch",
     "sharded.add_batch"),
    ("repro.switch.kvstore.sharded", "ShardedStoreProxy.snapshot",
     "sharded.snapshot"),
    ("repro.switch.kvstore.sharded", "ShardedStoreProxy.finalize",
     "sharded.combine"),
    ("repro.switch.kvstore.sharded", "ShardedStoreProxy.result_table",
     "sharded.combine"),
    ("repro.telemetry.shard_exec", "ShardWorkerPool.__init__",
     "shard_exec.pool_start"),
    ("repro.telemetry.shard_exec", "ShardWorkerPool.post", "shard_exec.post"),
    ("repro.telemetry.shard_exec", "ShardWorkerPool.result", "shard_exec.call"),
    ("repro.telemetry.shard_exec", "ShardWorkerPool.checkpoint_workers",
     "shard_exec.call"),
    ("repro.telemetry.shard_exec", "ShardWorkerPool.restore_workers",
     "shard_exec.call"),
    ("repro.telemetry.checkpoint", "pack_checkpoint", "checkpoint.pack"),
    ("repro.telemetry.checkpoint", "unpack_checkpoint", "checkpoint.unpack"),
    ("repro.telemetry.wire", "pack_frame", "wire.pack"),
    ("repro.telemetry.wire", "decode_payload", "wire.decode"),
    ("repro.telemetry.serve", "IngestServer.start", "serve.start"),
    ("repro.telemetry.client", "IngestClient.connect", "client.connect"),
    ("repro.telemetry.client", "IngestClient.send", "client.send"),
    ("repro.telemetry.client", "IngestClient.flush", "client.flush"),
]

#: Call-count accumulators: no span per call.
ACCUMULATORS = [
    ("repro.switch.kvstore.backing", "BackingStore.absorb", "backing.absorb"),
    ("repro.network.records", "ObservationTable.from_arrays",
     "records.from_arrays"),
]


def _post_bytes(args, kwargs, result) -> int:
    arrays = args[4] if len(args) > 4 else kwargs.get("arrays")
    return sum(a.nbytes for a in (arrays or {}).values())


def _result_len(args, kwargs, result) -> int:
    return len(result)


#: Spans that also count bytes: span name -> f(args, kwargs, result).
BYTES = {"shard_exec.post": _post_bytes, "wire.pack": _result_len,
         "checkpoint.pack": _result_len}


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        #: (id, name, start_ns, end_ns, parent id, session id, thread id)
        self.spans: list[tuple] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.bytes: dict[str, int] = defaultdict(int)
        self.worker_cpu_s = 0.0
        self.worker_peak_rss_mb = 0.0
        self._ids = itertools.count(1)
        self._session_ids = itertools.count(1)
        self._sessions: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _session_of(self, obj) -> int:
        """One id per ``TelemetrySession`` object (0: not in a session)."""
        if type(obj).__name__ != "TelemetrySession":
            return 0
        with self._lock:
            if obj not in self._sessions:
                self._sessions[obj] = next(self._session_ids)
            return self._sessions[obj]

    def _span(self, name: str, func):
        count_bytes = BYTES.get(name)

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else None
            session = (parent[2] if parent else 0) or (
                self._session_of(args[0]) if args else 0)
            frame = [next(self._ids), 0, session]
            stack.append(frame)
            result, done = None, False
            start = _ns()
            try:
                result = func(*args, **kwargs)
                done = True
                return result
            finally:
                end = _ns()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                self.spans.append(
                    (frame[0], name, start, end, parent[0] if parent else 0,
                     frame[2] or self._session_of(result),
                     threading.get_ident()))
                with self._lock:
                    self.self_ns[name] += end - start - frame[1]
                    self.calls[name] += 1
                    if count_bytes is not None and done:
                        self.bytes[name] += count_bytes(args, kwargs, result)

        wrapper.__wrapped__ = func
        return wrapper

    def _accumulator(self, name: str, func):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            start = _ns()
            try:
                return func(*args, **kwargs)
            finally:
                spent = _ns() - start
                stack = self._stack()
                if stack:
                    stack[-1][1] += spent
                with self._lock:
                    self.self_ns[name] += spent
                    self.calls[name] += 1

        wrapper.__wrapped__ = func
        return wrapper

    def _sample_workers(self, close):
        """Before a shard pool closes, read its workers' CPU time and
        peak RSS from /proc (they are gone afterwards)."""
        def wrapper(pool, *args, **kwargs):
            if self.enabled and not pool.closed:
                for worker in pool._workers:
                    if worker.proc.is_alive():
                        cpu, rss = proc_stat(worker.proc.pid)
                        self.worker_cpu_s += cpu
                        self.worker_peak_rss_mb = max(
                            self.worker_peak_rss_mb, rss)
            return close(pool, *args, **kwargs)

        wrapper.__wrapped__ = close
        return wrapper

    # -- installation --------------------------------------------------------------

    def _replace(self, module_name: str, dotted: str, wrap) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, attr = dotted.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(wrap(raw.__func__))
            else:
                new = wrap(raw)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
            return
        original = getattr(module, attr)
        new = wrap(original)
        for holder in list(sys.modules.values()):
            if (getattr(holder, "__name__", "").startswith(("repro", "workloads"))
                    and getattr(holder, attr, None) is original):
                setattr(holder, attr, new)
                self._undo.append((holder, attr, original))

    def install(self) -> None:
        for module, dotted, name in SPANS:
            self._replace(module, dotted,
                          lambda f, name=name: self._span(name, f))
        for module, dotted, name in ACCUMULATORS:
            self._replace(module, dotted,
                          lambda f, name=name: self._accumulator(name, f))
        self._replace("repro.telemetry.shard_exec", "ShardWorkerPool.close",
                      self._sample_workers)

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- output --------------------------------------------------------------------

    def seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({
            **header,
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent",
                            "session", "thread"],
            "spans": self.spans,
            "self_s": {n: self.seconds(n) for n in sorted(self.self_ns)},
            "calls": dict(sorted(self.calls.items())),
            "bytes": dict(sorted(self.bytes.items())),
        }) + "\n")

    def table(self) -> str:
        """Self time and call counts per layer, largest first."""
        total = sum(self.self_ns.values()) or 1
        lines = [f"  {'layer span':<34} {'calls':>8} {'self s':>10} {'share':>7}"]
        for name in sorted(self.self_ns, key=self.self_ns.get, reverse=True):
            lines.append(
                f"  {name:<34} {self.calls[name]:>8} "
                f"{self.seconds(name):>10.4f} "
                f"{100 * self.self_ns[name] / total:>6.1f}%")
        return "\n".join(lines)


#: Per-layer metrics that are not ``<span>_<unit>`` of a span's self time.
COUNTS = {
    "backing.absorb_calls": "backing.absorb",
    "records.from_arrays_calls": "records.from_arrays",
    "shard_exec.posts": "shard_exec.post",
    "wire.frames": "wire.pack",
}
BYTE_TOTALS = {
    "shard_exec.post_bytes": "shard_exec.post",
    "wire.bytes": "wire.pack",
    "checkpoint.bytes": "checkpoint.pack",
}


def layer_metrics(tracer: Tracer, names: list[str],
                  extra: dict[str, float]) -> dict[str, float]:
    """A value for every declared per-layer metric: ``extra`` (counters
    and probes the caller measured) first, then the tracer's self
    times by naming convention.  A layer that did not run reads 0,
    which is what the interaction table predicts for it."""
    spans = {name for _, _, name in SPANS + ACCUMULATORS}
    out: dict[str, float] = {}
    for metric in names:
        if metric in extra:
            out[metric] = extra[metric]
        elif metric in COUNTS:
            out[metric] = tracer.calls.get(COUNTS[metric], 0)
        elif metric in BYTE_TOTALS:
            out[metric] = tracer.bytes.get(BYTE_TOTALS[metric], 0)
        else:
            stem, _, unit = metric.rpartition("_")
            span = stem.removesuffix("_self")
            if span not in spans or unit not in ("s", "ms"):
                raise KeyError(f"no source for per-layer metric {metric!r}")
            out[metric] = tracer.seconds(span) * (1e3 if unit == "ms" else 1)
    return out
