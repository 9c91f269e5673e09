"""Span recording around each layer's public functions (traced runs only).

``Tracer.installed()`` swaps wrappers onto the classes and module
functions listed in ``TRACE_POINTS`` and restores the originals on exit,
so untraced rounds run the program exactly as shipped. A span is
``(name, start, end, parent, op)``: ``parent`` indexes the enclosing span
recorded by the same thread, ``op`` names the operation the span served
(``j<n>`` a job submitted by the client, ``w<id>`` the worker executing
queue job ``id``, ``a<n>`` an app request).
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from arith import self_times

import repro.core.engine as core_engine
import repro.storage.fsio as fsio
import repro.vault.encrypted as encrypted
from repro.core.apply import SpecRunner
from repro.service.executor import WorkerPool
from repro.service.locks import LockManager
from repro.service.queue import JobQueue
from repro.shard.engine import ShardedDatabase
from repro.storage.database import Database
from repro.storage.query import Query
from repro.storage.table import Table
from repro.storage.wal import WriteAheadLog
from repro.vault.base import VaultStore

_READS = ("select", "get", "count")
_WRITES = (
    "insert", "insert_many", "update", "update_by_pk", "update_many",
    "update_where", "delete", "delete_by_pk", "delete_many", "delete_where",
)

#: (owner, attribute, span name). Owners are classes or modules.
TRACE_POINTS: list[tuple[Any, str, str]] = [
    (WorkerPool, "_execute", "service.job"),
    (JobQueue, "submit", "service.queue"),
    (JobQueue, "complete", "service.queue"),
    (JobQueue, "fail", "service.queue"),
    (LockManager, "acquire", "service.lock"),
    (core_engine.Disguiser, "apply", "core.apply"),
    (core_engine.Disguiser, "reveal", "core.reveal"),
    (SpecRunner, "run", "core.spec_run"),
    (core_engine, "recorrelate_for_user", "core.recorrelate"),
    (core_engine, "reapply_recorrelated", "core.recorrelate"),
    *[(Database, name, "storage.read") for name in _READS],
    *[(Database, name, "storage.write") for name in _WRITES],
    (Database, "commit", "storage.commit"),
    *[(ShardedDatabase, name, "shard.read") for name in _READS],
    *[(ShardedDatabase, name, "shard.write") for name in _WRITES],
    (ShardedDatabase, "commit", "shard.commit"),
    (Query, "run", "query.run"),
    (WriteAheadLog, "on_commit", "wal.append"),
    (WriteAheadLog, "commit_barrier", "wal.barrier"),
    (VaultStore, "put", "vault.write"),
    (VaultStore, "put_many", "vault.write"),
    (VaultStore, "replace", "vault.write"),
    (VaultStore, "delete", "vault.write"),
    (VaultStore, "entries_for", "vault.read"),
    (encrypted, "encrypt", "crypto.encrypt"),
    (encrypted, "encrypt_many", "crypto.encrypt"),
    (encrypted, "decrypt", "crypto.decrypt"),
]


def _fsync_span(handle: Any) -> str:
    name = str(getattr(handle, "name", ""))
    if name.endswith(".wal"):
        return "wal.fsync"
    if name.endswith(".jobs"):
        return "service.fsync"
    return "vault.fsync"


class Tracer:
    """Keeps spans in memory, per thread, until the run writes them out."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._threads: list[list[tuple]] = []
        self._mu = threading.Lock()
        self.job_kinds: dict[str, str] = {}
        self.submitted_at: dict[int, float] = {}
        self.queue_waits: list[float] = []
        self.vault_entries_read = 0
        self.rows_iterated_by_app = 0

    # -- per-thread state --------------------------------------------------------

    def _state(self):
        state = getattr(self._tls, "state", None)
        if state is None:
            spans: list[tuple] = []
            with self._mu:
                self._threads.append(spans)
            state = self._tls.state = {"spans": spans, "stack": [], "op": "-"}
        return state

    def set_op(self, op: str) -> None:
        self._state()["op"] = op

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        state = self._state()
        spans, stack = state["spans"], state["stack"]
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, state["op"])

    # -- installing wrappers -----------------------------------------------------

    def _wrapper(self, name: str, original: Callable) -> Callable:
        tracer = self

        if name == "service.job":
            def wrapped(pool, engine, job):
                tracer.set_op(f"w{job.job_id}")
                tracer.job_kinds[f"w{job.job_id}"] = job.kind
                submitted = tracer.submitted_at.get(job.job_id)
                if submitted is not None:
                    tracer.queue_waits.append(time.perf_counter() - submitted)
                return tracer.span(name, original, pool, engine, job)
        elif original is JobQueue.submit:
            def wrapped(*args, **kwargs):
                job = tracer.span(name, original, *args, **kwargs)
                tracer.submitted_at[job.job_id] = time.perf_counter()
                return job
        elif name == "vault.read":
            def wrapped(*args, **kwargs):
                # Wrapping stores (encryption, shards) read through an
                # inner store: count entries at the outermost call only.
                state = tracer._state()
                state["vault_depth"] = state.get("vault_depth", 0) + 1
                try:
                    entries = tracer.span(name, original, *args, **kwargs)
                finally:
                    state["vault_depth"] -= 1
                if state["vault_depth"] == 0:
                    tracer.vault_entries_read += len(entries)
                return entries
        else:
            def wrapped(*args, **kwargs):
                return tracer.span(name, original, *args, **kwargs)
        return wrapped

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in TRACE_POINTS:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(name, original))
            original_fsync = fsio.fsync_handle
            saved.append((fsio, "fsync_handle", original_fsync))
            fsio.fsync_handle = lambda handle: self.span(
                _fsync_span(handle), original_fsync, handle
            )
            original_rows = Table.__dict__["rows"]
            saved.append((Table, "rows", original_rows))

            def rows(table):
                out = list(original_rows(table))
                if self._state()["op"].startswith("a"):
                    self.rows_iterated_by_app += len(out)
                return iter(out)

            Table.rows = rows
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def spans(self) -> list[tuple]:
        """Every finished span as ``(name, start, end, parent, op, thread)``."""
        out = []
        for thread, spans in enumerate(self._threads):
            offset = len(out)
            for name, start, end, parent, op in spans:
                out.append((name, start, end, parent + offset if parent >= 0 else -1, op, thread))
        return out

    def write(self, path: Path) -> int:
        spans = self.spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, start, end, parent, op, thread in spans:
                handle.write(json.dumps([name, round(start, 7), round(end, 7), parent, op, thread]))
                handle.write("\n")
        return len(spans)


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: count, inclusive seconds and self seconds, split by
    whether the span served a job or an app request."""
    selfs = self_times([(start, end, parent) for _n, start, end, parent, _o, _t in spans])
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (name, start, end, _parent, op, _thread), own in zip(spans, selfs):
        scope = "app" if op.startswith("a") else "job"
        row = table[name]
        row[f"{scope}.count"] += 1
        row[f"{scope}.total_s"] += end - start
        row[f"{scope}.self_s"] += own
    return table
