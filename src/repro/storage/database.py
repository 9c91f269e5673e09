"""The embedded relational database: tables, constraints, transactions.

This is the substrate the disguising engine runs against, standing in for
the MySQL backend of the paper's Rust prototype. It provides:

* statement-level API: ``select`` / ``insert`` / ``update`` / ``delete``,
  each counted in :class:`QueryStats` (the §6 linearity experiment counts
  these statements);
* foreign-key enforcement with RESTRICT / CASCADE / SET NULL delete actions;
* transactions via an undo log, with nested savepoints — the engine applies
  each disguise "in one large SQL transaction" (§6);
* a referential-integrity checker used by tests and by the engine's
  post-disguise verification.
"""

from __future__ import annotations

import functools
import threading
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.obs.registry import MetricsView, Registry
from repro.obs.report import PlanReport
from repro.obs.trace import TRACER as _TRACER
from repro.errors import (
    ForeignKeyError,
    IntegrityViolation,
    NoSuchRowError,
    SchemaError,
    TransactionError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.storage.compile import PlanCache, compile_assignments
from repro.storage.predicate import Predicate, SetClause
from repro.storage.schema import FKAction, Schema, TableSchema
from repro.storage.sql import parse_set, parse_where
from repro.storage.table import Table
from repro.storage.types import coerce

__all__ = ["Database", "QueryStats"]


@dataclass
class QueryStats:
    """Counts of storage operations executed.

    ``selects`` counts read operations (scans and point lookups);
    ``inserts`` / ``updates`` / ``deletes`` count per-row write operations —
    a batched statement over N rows adds N to its kind counter, so the §6
    claim "the number of queries ... grows linearly with the number of
    objects" is still checked against ``total``. ``statements`` counts
    statement-level API invocations regardless of how many rows each one
    touched: a disguise that batches its work issues O(1) statements per
    transformation step, and benchmarks assert that against this counter.
    """

    selects: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    statements: int = 0

    @property
    def total(self) -> int:
        return self.selects + self.inserts + self.updates + self.deletes

    @property
    def writes(self) -> int:
        return self.inserts + self.updates + self.deletes

    def snapshot(self) -> "QueryStats":
        return QueryStats(
            self.selects, self.inserts, self.updates, self.deletes, self.statements
        )

    def delta(self, since: "QueryStats") -> "QueryStats":
        """Counts accumulated since an earlier snapshot."""
        return QueryStats(
            self.selects - since.selects,
            self.inserts - since.inserts,
            self.updates - since.updates,
            self.deletes - since.deletes,
            self.statements - since.statements,
        )

    def reset(self) -> None:
        self.selects = self.inserts = self.updates = self.deletes = 0
        self.statements = 0

    def merge(self, other: "QueryStats") -> None:
        """Fold another accumulator into this one (concurrency support)."""
        self.selects += other.selects
        self.inserts += other.inserts
        self.updates += other.updates
        self.deletes += other.deletes
        self.statements += other.statements

    # -- deprecated dict-shaped access (see repro.obs) ---------------------------

    _FIELDS = ("selects", "inserts", "updates", "deletes", "statements",
               "total", "writes")

    def __getitem__(self, key: str) -> int:
        """Deprecated: read ``db.metrics()["storage.<name>"]`` instead.

        The old ad-hoc surface treated stats as a dict in places; keyed
        access still resolves (through the same counters the registry's
        ``storage.*`` gauges read) but warns.
        """
        if key not in self._FIELDS:
            raise KeyError(key)
        warnings.warn(
            f"QueryStats[{key!r}] is deprecated; use the attribute or read "
            f"'storage.{key}' from Database.metrics()",
            DeprecationWarning,
            stacklevel=2,
        )
        return getattr(self, key)

    def keys(self) -> tuple[str, ...]:
        return self._FIELDS

    def as_dict(self) -> dict[str, int]:
        """Counters as a plain dict (bare names, no ``storage.`` prefix)."""
        return {name: getattr(self, name) for name in self._FIELDS}


# One undo-log record: a closure that reverses a single physical change.
_UndoOp = Callable[[], None]

# Redo-hook protocol (duck-typed; implemented by repro.storage.wal).
# A hook receives ``on_begin`` / ``on_commit`` / ``on_rollback`` mirroring
# the undo stack, ``on_statement(record)`` for each physical change a
# statement makes (a redo mirror of the undo log), and ``on_ddl(record)``
# for schema changes, which — like the undo log — are never rolled back.

# Lock-hook protocol (duck-typed; implemented by repro.service.locks).
# ``on_statement_start(table, mode)`` / ``on_statement_end()`` bracket
# every outermost statement, ``on_access(table, mode)`` declares the
# other tables a statement touches (FK parents, cascade children), and
# ``on_begin()`` / ``on_txn_end()`` mark outermost transaction bounds so
# the hook can hold two-phase locks until commit or rollback.

_READ, _WRITE, _DELETE = "r", "w", "d"


def _statement(kind: str):
    """Bracket a statement-level API method for the lock hook.

    With no hook attached this adds a single attribute check per call.
    With one attached, the method's table accesses are declared before
    the body runs (acquiring 2PL locks or system-table latches) and the
    hook is told when the outermost statement finishes, so latches drop
    and per-thread stats merge into the shared counters.
    """

    def decorate(fn):
        span_name = "storage." + fn.__name__

        @functools.wraps(fn)
        def wrapper(self, table, *args, **kwargs):
            hook = self._lock_hook
            if _TRACER.enabled:
                return self._traced_statement(
                    fn, span_name, hook, table, kind, args, kwargs
                )
            if hook is None:
                return fn(self, table, *args, **kwargs)
            self._declare_statement(hook, table, kind)
            try:
                return fn(self, table, *args, **kwargs)
            finally:
                self._end_statement(hook)

        return wrapper

    return decorate


class Database:
    """An in-memory relational database with FK enforcement and transactions."""

    def __init__(self, schema: Schema | None = None) -> None:
        self.schema = schema or Schema()
        self.schema.validate()
        # One plan cache shared by every table: DDL anywhere bumps its
        # schema generation, invalidating all cached (plan, compiled
        # predicate) entries at once (see repro.storage.compile.PlanCache).
        self.plans = PlanCache()
        self._tables: dict[str, Table] = {
            ts.name: Table(ts, plans=self.plans) for ts in self.schema
        }
        self.stats = QueryStats()
        # Undo logs and statement counters are per thread ("connection"):
        # each worker of the concurrent service runs its own transaction
        # against the shared tables, serialized by the lock hook.
        self._tls = threading.local()
        self._stats_lock = threading.Lock()
        self._id_lock = threading.Lock()
        # Optional durability mirror (see the redo-hook protocol above).
        self._redo_hook: Any = None
        # Optional concurrency-control hook (see the lock-hook protocol).
        self._lock_hook: Any = None
        # Per-table integer-id high-water marks: next_id never reuses the id
        # of a deleted row, even after rollback (ids may be skipped, never
        # recycled) — otherwise revealing a removal could collide with a
        # placeholder allocated in between.
        self._id_watermark: dict[str, int] = {}
        # Delta write path: batched UPDATE statements log changed-column
        # deltas (undo + WAL) and patch indexes in one pass per statement.
        # False selects the legacy full-row path — kept for differential
        # testing and the old-vs-new write benchmark.
        self.delta_writes = True
        # Observability: this database's metrics registry (repro.obs).
        # Storage/plan-cache gauges register now; subsystems attached later
        # (WAL redo hook, vault, service) register into the same registry.
        self.obs = Registry()
        self._register_obs()
        self._stmt_hist = self.obs.histogram("storage.statement_s")

    def _register_obs(self) -> None:
        """Register the storage layer's gauges under their dotted names.

        Gauges read the live ad-hoc counters (``stats``, table
        diagnostics, the plan cache) at snapshot time — the statement hot
        path keeps its plain attribute bumps and pays nothing extra.
        """
        reg = self.obs
        for name in ("selects", "inserts", "updates", "deletes",
                     "statements", "total", "writes"):
            reg.gauge(f"storage.{name}",
                      (lambda n=name: getattr(self.stats, n)))
        reg.gauge(
            "storage.rows_examined",
            lambda: sum(t.rows_examined for t in self._tables.values()),
        )
        reg.gauge("storage.tables", lambda: len(self._tables))
        reg.gauge("storage.rows", lambda: self.total_rows())
        reg.gauge("plancache.hits", lambda: self.plans.hits)
        reg.gauge("plancache.misses", lambda: self.plans.misses)
        reg.gauge("plancache.entries", lambda: len(self.plans))
        reg.gauge("plancache.generation", lambda: self.plans.generation)
        reg.register_aliases(self._METRIC_ALIASES)

    # Legacy key -> registry name, for the deprecation shim in metrics().
    _METRIC_ALIASES = {
        "selects": "storage.selects",
        "inserts": "storage.inserts",
        "updates": "storage.updates",
        "deletes": "storage.deletes",
        "statements": "storage.statements",
        "total": "storage.total",
        "writes": "storage.writes",
        "rows_examined": "storage.rows_examined",
        "plan_hits": "plancache.hits",
        "plan_misses": "plancache.misses",
    }

    def metrics(self) -> MetricsView:
        """A registry-view snapshot of every metric this database knows.

        Keys are the stable dotted names (``storage.*``, ``plancache.*``,
        plus ``wal.*`` / ``vault.*`` / ``service.*`` once those subsystems
        attach). Old ``QueryStats``-shaped keys (``selects``, ...) still
        resolve, with a :class:`DeprecationWarning`.
        """
        return self.obs.view(aliases=self._METRIC_ALIASES)

    def _traced_statement(self, fn, span_name, hook, table, kind, args, kwargs):
        """Statement body bracketed by a trace span (tracing enabled only).

        Mirrors the untraced wrapper exactly — lock-hook declaration
        first, span inside the locks so lock waits are not charged to the
        statement — and feeds the statement-duration histogram.
        """
        if hook is not None:
            self._declare_statement(hook, table, kind)
        try:
            handle = _TRACER.span(span_name, table=table)
            with handle as sp:
                result = fn(self, table, *args, **kwargs)
            self._stmt_hist.observe(sp.duration_s)
            return result
        finally:
            if hook is not None:
                self._end_statement(hook)

    @property
    def _undo_stack(self) -> list[list[_UndoOp]]:
        """This thread's undo-log stack (one list per open savepoint)."""
        try:
            return self._tls.undo
        except AttributeError:
            undo = self._tls.undo = []
            return undo

    @property
    def _stats(self) -> QueryStats:
        """Where statement counters accumulate.

        Single-threaded (no lock hook): the shared ``stats`` object, as
        ever. Under a lock hook, a per-thread accumulator that merges into
        ``stats`` at each outermost statement end — plain ``int +=`` on a
        shared counter loses increments across threads.
        """
        if self._lock_hook is None:
            return self.stats
        try:
            return self._tls.pending_stats
        except AttributeError:
            pending = self._tls.pending_stats = QueryStats()
            return pending

    # -- schema management ------------------------------------------------------

    def create_table(self, table_schema: TableSchema) -> None:
        """Add a table to a live database (used for vault tables)."""
        self.schema.add(table_schema)
        self.schema.validate()
        self._tables[table_schema.name] = Table(table_schema, plans=self.plans)
        self.plans.bump()
        if self._redo_hook is not None:
            self._redo_hook.on_ddl({"op": "create_table", "schema": table_schema})

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def drop_table(self, name: str) -> None:
        """Remove a table outright (no FK checks; used by tests and vault GC)."""
        if name not in self._tables:
            raise UnknownTableError(f"no such table {name!r}")
        del self._tables[name]
        # Rebuild the schema without the dropped table.
        self.schema = Schema(ts for ts in self.schema if ts.name != name)
        self.plans.bump()
        if self._redo_hook is not None:
            self._redo_hook.on_ddl({"op": "drop_table", "name": name})

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"no such table {name!r}") from None

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    # -- transactions ------------------------------------------------------------

    def begin(self) -> None:
        """Open a transaction (or a nested savepoint)."""
        stack = self._undo_stack
        outermost = not stack
        stack.append([])
        if self._redo_hook is not None:
            self._redo_hook.on_begin()
        if outermost and self._lock_hook is not None:
            self._lock_hook.on_begin()

    def commit(self) -> None:
        """Commit the innermost transaction level.

        Inner commits merge their undo log into the parent so an outer
        rollback still reverses everything.
        """
        stack = self._undo_stack
        if not stack:
            raise TransactionError("commit without begin")
        finished = stack.pop()
        if stack:
            stack[-1].extend(finished)
        if self._redo_hook is not None:
            # Appends the WAL commit unit first: two-phase locks release
            # only once the redo records are in the log (early lock
            # release — the group fsync may still be pending).
            self._redo_hook.on_commit()
        if not stack and self._lock_hook is not None:
            self._lock_hook.on_txn_end()

    def rollback(self) -> None:
        """Undo every change made since the innermost ``begin``."""
        stack = self._undo_stack
        if not stack:
            raise TransactionError("rollback without begin")
        for undo in reversed(stack.pop()):
            undo()
        if self._redo_hook is not None:
            self._redo_hook.on_rollback()
        if not stack and self._lock_hook is not None:
            self._lock_hook.on_txn_end()

    def transaction(self) -> "_TransactionContext":
        """``with db.transaction():`` — commit on success, rollback on error."""
        return _TransactionContext(self)

    @property
    def in_transaction(self) -> bool:
        return bool(self._undo_stack)

    def _log_undo(self, op: _UndoOp) -> None:
        if self._undo_stack:
            self._undo_stack[-1].append(op)

    def set_redo_hook(self, hook: Any) -> None:
        """Attach (or detach, with None) a durability mirror.

        The hook sees every committed physical change as a redo record
        (see :mod:`repro.storage.wal`). Attaching mid-transaction would
        desynchronize the hook's buffer stack from the undo stack, so it
        is rejected.
        """
        if self.in_transaction:
            raise TransactionError("cannot change the redo hook inside a transaction")
        self._redo_hook = hook
        if hook is not None and hasattr(hook, "register_metrics"):
            hook.register_metrics(self.obs)

    def _log_redo(self, record: dict[str, Any]) -> None:
        if self._redo_hook is not None:
            self._redo_hook.on_statement(record)

    def redo_barrier(self) -> None:
        """Block until this thread's committed redo units are durable.

        Delegates to the redo hook's ``commit_barrier`` (the WAL's group
        fsync); an in-memory database has nothing to wait for. Side
        effects that must strictly follow a commit — e.g. the vault
        journal's deferred entry deletes — call this first, so a crash
        cannot order them before the commit they depend on.
        """
        barrier = getattr(self._redo_hook, "commit_barrier", None)
        if barrier is not None:
            barrier()

    def set_lock_hook(self, hook: Any) -> None:
        """Attach (or detach, with None) a concurrency-control hook.

        The hook sees statement/transaction boundaries and table accesses
        (see the lock-hook protocol above and :mod:`repro.service.locks`).
        Switching hooks mid-transaction would strand held locks, so it is
        rejected.
        """
        if self.in_transaction:
            raise TransactionError("cannot change the lock hook inside a transaction")
        self._lock_hook = hook

    def _declare_statement(self, hook: Any, table: str, kind: str) -> None:
        """Declare a statement's table footprint before its body runs.

        Write statements read their FK parents; delete statements reach
        referencing tables transitively (RESTRICT checks read, CASCADE /
        SET NULL mutate), so the whole footprint is declared up front —
        acquiring locks in one burst per statement keeps hold times short
        and gives the deadlock detector whole-statement edges.
        """
        tls = self._tls
        tls.stmt_depth = getattr(tls, "stmt_depth", 0) + 1
        try:
            hook.on_statement_start(table, "S" if kind == _READ else "X")
            if kind != _READ and table in self._tables:
                for fk in self._tables[table].schema.foreign_keys:
                    if fk.parent_table != table:
                        hook.on_access(fk.parent_table, "S")
                if kind == _DELETE:
                    for child, mode in self._delete_footprint(table):
                        hook.on_access(child, mode)
        except BaseException:
            self._end_statement(hook)
            raise

    def _end_statement(self, hook: Any) -> None:
        tls = self._tls
        tls.stmt_depth -= 1
        hook.on_statement_end()
        if tls.stmt_depth == 0:
            pending = getattr(tls, "pending_stats", None)
            if pending is not None:
                with self._stats_lock:
                    self.stats.merge(pending)
                pending.reset()

    def _declare_access(self, table: str, kind: str) -> None:
        """Declare an extra table access discovered mid-statement (rare
        paths only, e.g. primary-key renumbering reference checks)."""
        hook = self._lock_hook
        if hook is not None:
            hook.on_access(table, "S" if kind == _READ else "X")

    def _delete_footprint(self, table: str) -> list[tuple[str, str]]:
        """Tables a delete on *table* may touch, with lock modes.

        RESTRICT children are only read; CASCADE and SET NULL children are
        written, and cascades recurse into their own referencing tables.
        """
        out: dict[str, str] = {}
        frontier = [table]
        cascaded = {table}
        while frontier:
            current = frontier.pop()
            for child_schema, fk in self.schema.referencing(current):
                name = child_schema.name
                if fk.on_delete is FKAction.RESTRICT:
                    out.setdefault(name, "S")
                else:
                    out[name] = "X"
                    if fk.on_delete is FKAction.CASCADE and name not in cascaded:
                        cascaded.add(name)
                        frontier.append(name)
        return list(out.items())

    # -- statements ----------------------------------------------------------------

    @_statement(_READ)
    def select(
        self,
        table: str,
        where: str | Predicate | None = None,
        params: Mapping[str, Any] | None = None,
        *,
        keys: tuple[str, Iterable[Any]] | None = None,
    ) -> list[dict[str, Any]]:
        """Rows of *table* matching *where* (a WHERE string or Predicate).

        ``keys=(column, values)`` further restricts the rows to those
        whose *column* is one of *values*, with the semantics of
        ``column IN (values...)`` but read straight from the column's
        index (see :meth:`~repro.storage.table.Table.scan_keys`): batch
        reads keyed by a per-call list of ids cost no plan-cache entry per
        list. Returns read-only :class:`~repro.storage.table.RowView`
        objects in rid order; call ``dict(row)`` on one before mutating it.
        """
        self._stats.selects += 1
        self._stats.statements += 1
        pred = parse_where(where) if where is not None else None
        if keys is not None:
            column, values = keys
            return self.table(table).scan_keys(column, values, pred, params)
        return self.table(table).scan(pred, params)

    @_statement(_READ)
    def get(self, table: str, pk_value: Any) -> dict[str, Any] | None:
        """Point lookup by primary key."""
        self._stats.selects += 1
        self._stats.statements += 1
        return self.table(table).get(pk_value)

    @_statement(_READ)
    def count(
        self,
        table: str,
        where: str | Predicate | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> int:
        self._stats.selects += 1
        self._stats.statements += 1
        pred = parse_where(where) if where is not None else None
        return self.table(table).count(pred, params)

    def explain(
        self,
        table: str,
        where: str | Predicate | None = None,
        params: Mapping[str, Any] | None = None,
        analyze: bool = False,
    ) -> PlanReport:
        """EXPLAIN a select; with ``analyze=True``, execute it too.

        Returns a typed :class:`~repro.obs.report.PlanReport` (mapping
        access keeps old ``report["plan"]`` callers working). Plain
        EXPLAIN never executes and is not counted as a query; ANALYZE
        runs the plan — table ``rows_examined`` diagnostics advance like
        any scan's, but ``stats`` stays untouched so EXPLAIN output never
        perturbs the statement counts experiments assert on.
        """
        pred = parse_where(where) if where is not None else None
        return self.table(table).explain(pred, params, analyze=analyze)

    @_statement(_WRITE)
    def insert(
        self, table: str, values: dict[str, Any], enforce_fk: bool = True
    ) -> dict[str, Any]:
        """Insert one row, enforcing all foreign keys.

        ``enforce_fk=False`` defers the check — the disguising engine uses
        it when reveal reinserts rows whose parents may only reappear (or
        whose rows may be re-removed) later in the same transaction; such
        callers re-validate with :meth:`check_row_fks` before committing.
        """
        self._stats.inserts += 1
        self._stats.statements += 1
        target = self.table(table)
        row = target.schema.normalize_row(values)
        if enforce_fk:
            self._check_fks_outgoing(target.schema, row)
        stored = target.insert(row)
        pk = stored[target.schema.primary_key]
        if isinstance(pk, int) and pk > self._id_watermark.get(table, 0):
            self._id_watermark[table] = pk
        self._log_undo(lambda: target.delete_by_pk(pk))
        self._log_redo({"op": "insert", "table": table, "rows": [stored]})
        return stored

    @_statement(_WRITE)
    def update(
        self,
        table: str,
        where: str | Predicate,
        changes: Mapping[str, Any],
        params: Mapping[str, Any] | None = None,
    ) -> int:
        """Update all matching rows one at a time; returns the number updated.

        Prefer :meth:`update_where` on hot paths — it resolves candidates
        once and logs a single batched undo record.
        """
        self._stats.statements += 1
        target = self.table(table)
        rows = self.select(table, where, params)
        pk_col = target.schema.primary_key
        for row in rows:
            self._update_one(target, row[pk_col], changes)
        return len(rows)

    @_statement(_WRITE)
    def update_by_pk(
        self,
        table: str,
        pk_value: Any,
        changes: Mapping[str, Any],
        enforce_fk: bool = True,
    ) -> dict[str, Any]:
        """Update the single row with the given primary key; returns new row.

        ``enforce_fk=False`` defers the outgoing-FK check (see
        :meth:`insert` for when the disguising engine needs this).
        """
        self._stats.statements += 1
        return self._update_one(self.table(table), pk_value, changes, enforce_fk)

    def _update_one(
        self,
        target: Table,
        pk_value: Any,
        changes: Mapping[str, Any],
        enforce_fk: bool = True,
    ) -> dict[str, Any]:
        self._stats.updates += 1
        view = target.view(pk_value)
        if view is None:
            raise NoSuchRowError(f"{target.name}: no row with pk {pk_value!r}")
        if enforce_fk:
            # Validate outgoing FKs on the post-image before mutating. Only
            # the FK columns matter, so diff against the stored row through
            # the view instead of materializing a full preview copy.
            schema = target.schema
            for fk in schema.foreign_keys:
                if fk.column in changes:
                    value = changes[fk.column]
                    if value is not None:
                        value = coerce(value, schema.column(fk.column).ctype)
                else:
                    value = view[fk.column]
                if value is None:
                    continue
                if self.table(fk.parent_table).rid_of(value) is None:
                    raise ForeignKeyError(
                        f"{schema.name}.{fk.column}={value!r} references "
                        f"missing {fk.parent_table}.{fk.parent_column}"
                    )
        old, new = target.update_by_pk(pk_value, changes)
        old_pk = old[target.schema.primary_key]
        new_pk = new[target.schema.primary_key]
        if old_pk != new_pk:
            self._check_pk_change_references(target, old_pk)
        self._log_undo(lambda: target.update_by_pk(new_pk, old))
        self._log_redo(
            {"op": "update", "table": target.name, "updates": [(old_pk, new)]}
        )
        return new

    @_statement(_DELETE)
    def delete(
        self,
        table: str,
        where: str | Predicate,
        params: Mapping[str, Any] | None = None,
    ) -> int:
        """Delete all matching rows one at a time, honouring FK actions.

        Prefer :meth:`delete_where` on hot paths — it resolves candidates
        and incoming references in bulk and logs one batched undo record.
        """
        self._stats.statements += 1
        target = self.table(table)
        rows = self.select(table, where, params)
        pk_col = target.schema.primary_key
        for row in rows:
            self.delete_by_pk(table, row[pk_col])
        return len(rows)

    @_statement(_DELETE)
    def delete_by_pk(
        self, table: str, pk_value: Any, enforce_fk: bool = True
    ) -> dict[str, Any]:
        """Delete one row, applying RESTRICT/CASCADE/SET NULL to referencers.

        ``enforce_fk=False`` skips incoming-reference resolution entirely
        (no RESTRICT error, no cascades): reveal uses it when re-executing
        a removal whose referencing rows are mid-chain and will be fixed
        later in the same transaction, then re-validates before commit.
        """
        target = self.table(table)
        # Existence check only — no need to copy the row just to discard it.
        if target.rid_of(pk_value) is None:
            raise NoSuchRowError(f"{table}: no row with pk {pk_value!r}")
        if enforce_fk:
            self._resolve_incoming_references(table, pk_value)
        self._stats.deletes += 1
        self._stats.statements += 1
        old = target.delete_by_pk(pk_value)
        self._log_undo(lambda: target.insert(old))
        self._log_redo({"op": "delete", "table": table, "pks": [pk_value]})
        return dict(old)

    # -- batched statements ---------------------------------------------------------

    @_statement(_WRITE)
    def insert_many(
        self,
        table: str,
        values_list: Iterable[dict[str, Any]],
        enforce_fk: bool = True,
    ) -> list[dict[str, Any]]:
        """Insert many rows as ONE batched statement.

        Outgoing foreign keys are checked once per distinct value (rows in
        the batch may reference each other for self-referential tables),
        index maintenance happens per row but validation is done up front,
        and a single undo record covers the whole batch.
        """
        self._stats.statements += 1
        target = self.table(table)
        rows = [target.schema.normalize_row(v) for v in values_list]
        if not rows:
            return []
        pk_col = target.schema.primary_key
        if enforce_fk:
            batch_pks = {row[pk_col] for row in rows}
            for fk in target.schema.foreign_keys:
                distinct = {row[fk.column] for row in rows}
                distinct.discard(None)
                if fk.parent_table == table:
                    distinct -= batch_pks
                parent = self.table(fk.parent_table)
                for value in distinct:
                    if parent.rid_of(value) is None:
                        raise ForeignKeyError(
                            f"{table}.{fk.column}={value!r} references missing "
                            f"{fk.parent_table}.{fk.parent_column}"
                        )
        stored = target.insert_rows(rows)
        self._stats.inserts += len(stored)
        pks = [row[pk_col] for row in stored]
        top = max((pk for pk in pks if isinstance(pk, int)), default=0)
        if top > self._id_watermark.get(table, 0):
            self._id_watermark[table] = top
        self._log_undo(lambda: target.delete_pks(pks))
        self._log_redo({"op": "insert", "table": table, "rows": stored})
        return stored

    @_statement(_WRITE)
    def update_many(
        self,
        table: str,
        updates: Iterable[tuple[Any, Mapping[str, Any]]],
        enforce_fk: bool = True,
    ) -> list[dict[str, Any]]:
        """Apply many ``(pk, changes)`` updates as ONE batched statement.

        Candidate rids are resolved once, only the indexes of changed
        columns are maintained, and a single undo record restores all old
        rows on rollback. Updates that change a primary key fall back to
        the per-row path (reveal renumbering needs full reference checks).
        Returns the new rows.
        """
        self._stats.statements += 1
        return self._update_batch(self.table(table), list(updates), enforce_fk)

    @_statement(_WRITE)
    def update_where(
        self,
        table: str,
        where: str | Predicate,
        changes: Mapping[str, Any] | str | SetClause,
        params: Mapping[str, Any] | None = None,
    ) -> int:
        """Batched ``UPDATE ... WHERE``: plan the predicate once, update all
        matching rows with grouped index maintenance and one undo record.
        Returns the number of rows updated.

        *changes* is a mapping of constant values, or an UPDATE SET clause
        (text like ``"score = score + 1, bio = NULL"`` or a parsed
        :class:`SetClause`) whose expressions are compiled to closures and
        evaluated per row (see :func:`repro.storage.compile.compile_assignments`).
        """
        self._stats.statements += 1
        self._stats.selects += 1
        target = self.table(table)
        pred = parse_where(where)
        if isinstance(changes, (str, SetClause)):
            return self._update_where_set(target, pred, parse_set(changes), params or {})
        pk_col = target.schema.primary_key
        if not self.delta_writes or pk_col in changes:
            views = target.scan(pred, params)
            updates = [(row[pk_col], changes) for row in views]
            self._update_batch(target, updates, enforce_fk=True)
            return len(updates)
        # Delta fast path: match (rid, stored row) pairs without RowView
        # materialization, coerce the shared change set once, apply as one
        # batch, and log changed-column deltas only.
        matches = target.match_rows(pred, params)
        if not matches:
            return 0
        delta = target.coerce_changes(changes)
        self._check_delta_fks(target, delta)
        changed = target.apply_updates((rid, delta) for rid, _row in matches)
        self._stats.updates += len(matches)
        self._log_update_deltas(
            target, [row[pk_col] for _rid, row in matches], changed, shared=delta
        )
        return len(matches)

    def _update_where_set(
        self,
        target: Table,
        pred: Predicate,
        clause: SetClause,
        params: Mapping[str, Any],
    ) -> int:
        """Compiled SET-expression UPDATE: evaluate per row, apply as deltas."""
        pk_col = target.schema.primary_key
        columns = clause.columns()
        for name in columns:
            if not target.schema.has_column(name):
                raise UnknownColumnError(
                    f"table {target.name!r} has no column {name!r}"
                )
        if pk_col in columns or not self.delta_writes:
            # Primary-key assignments (placeholder renumbering) need the
            # per-row reference checks; legacy mode keeps the full-row
            # shape. Still ONE batched statement (one undo/redo unit).
            rows = target.scan(pred, params)
            evaluate = self._set_evaluator(target, clause, params)
            updates = [
                (row[pk_col], dict(zip(columns, evaluate(row)))) for row in rows
            ]
            self._update_batch(target, updates, enforce_fk=True)
            return len(rows)
        matches = target.match_rows(pred, params)
        if not matches:
            return 0
        evaluate = self._set_evaluator(target, clause, params)
        schema_cols = [target.schema.column(name) for name in columns]
        fk_by_col = {
            fk.column: fk
            for fk in target.schema.foreign_keys
            if fk.column in columns
        }
        fk_seen: dict[str, set[Any]] = {name: set() for name in fk_by_col}
        deltas: list[tuple[int, dict[str, Any]]] = []
        for rid, row in matches:
            values = evaluate(row)
            delta: dict[str, Any] = {}
            for col, value in zip(schema_cols, values):
                coerced = coerce(value, col.ctype) if value is not None else None
                if coerced is None and not col.nullable:
                    raise SchemaError(
                        f"column {target.name}.{col.name} is NOT NULL but got NULL"
                    )
                delta[col.name] = coerced
                if coerced is not None and col.name in fk_seen:
                    fk_seen[col.name].add(coerced)
            deltas.append((rid, delta))
        for name, values in fk_seen.items():
            fk = fk_by_col[name]
            parent = self.table(fk.parent_table)
            for value in values:
                if parent.rid_of(value) is None:
                    raise ForeignKeyError(
                        f"{target.name}.{name}={value!r} references "
                        f"missing {fk.parent_table}.{fk.parent_column}"
                    )
        changed = target.apply_updates(deltas)
        self._stats.updates += len(matches)
        self._log_update_deltas(
            target, [row[pk_col] for _rid, row in matches], changed
        )
        return len(matches)

    def _set_evaluator(
        self, target: Table, clause: SetClause, params: Mapping[str, Any]
    ) -> Callable[[Mapping[str, Any]], Any]:
        """A bound ``row -> values`` function for *clause*.

        Compiled assignment closures share the plan cache with predicate
        plans (stamped with the schema generation, invalidated by any DDL);
        clauses with no compiled form fall back to the AST interpreter.
        """
        entry = self.plans.lookup(target.name, clause)
        if entry is None:
            entry = self.plans.store(
                target.name, clause, None, compile_assignments(clause)
            )
        compiled = entry.compiled
        if compiled is None:
            return lambda row: clause.eval_row(row, params)
        return compiled.bind(params)

    def _check_delta_fks(self, target: Table, delta: Mapping[str, Any]) -> None:
        """Outgoing-FK check for an already-coerced shared change set."""
        for fk in target.schema.foreign_keys:
            value = delta.get(fk.column)
            if value is None:
                continue
            if self.table(fk.parent_table).rid_of(value) is None:
                raise ForeignKeyError(
                    f"{target.name}.{fk.column}={value!r} references "
                    f"missing {fk.parent_table}.{fk.parent_column}"
                )

    def _log_update_deltas(
        self,
        target: Table,
        pks: list[Any],
        changed: list[tuple[int, dict[str, Any], dict[str, Any]]],
        shared: Mapping[str, Any] | None = None,
    ) -> None:
        """Delta undo/redo for an applied update batch.

        The undo closure re-applies the inverse deltas in reverse order (a
        row updated twice in one statement restores correctly) — keyed by
        primary key and resolved to rids at rollback time, because a later
        delete + its undo in the same transaction can reinsert the row
        under a fresh rid. The redo record carries one pk-keyed delta map
        for the whole statement: rids are process-local and not stable
        across recovery, so the WAL frame keys by primary key (deltas never
        change pks).

        *shared* is the statement's constant change set, when it had one
        (``update_where`` with a value mapping). Rows whose effective delta
        is the whole shared set are logged as one ``set`` map plus a pk
        list — the change values appear once in the frame instead of once
        per row — while rows where some columns were already at the target
        value fall back to per-row ``deltas``.
        """
        inverse = [
            (pk, inv) for pk, (_rid, inv, _eff) in zip(pks, changed) if inv
        ]
        if inverse:
            inverse.reverse()

            def _undo(pairs: list = inverse, table: Table = target) -> None:
                table.apply_updates(
                    (table.rid_of(pk), delta) for pk, delta in pairs
                )

            self._log_undo(_undo)
        record: dict[str, Any] = {"op": "update", "table": target.name}
        if shared is not None:
            # Effective deltas are always subsets of the shared change set
            # (same coerced values), so a length match means "all of it".
            n_shared = len(shared)
            set_pks = [
                pk
                for pk, (_rid, _inv, eff) in zip(pks, changed)
                if len(eff) == n_shared
            ]
            partial = [
                [pk, eff]
                for pk, (_rid, _inv, eff) in zip(pks, changed)
                if eff and len(eff) != n_shared
            ]
            if set_pks:
                record["set"] = dict(shared)
                record["set_pks"] = set_pks
            if partial:
                record["deltas"] = partial
            if set_pks or partial:
                self._log_redo(record)
            return
        effective = [
            [pk, eff] for pk, (_rid, _inv, eff) in zip(pks, changed) if eff
        ]
        if effective:
            record["deltas"] = effective
            self._log_redo(record)

    def _update_batch(
        self,
        target: Table,
        updates: list[tuple[Any, Mapping[str, Any]]],
        enforce_fk: bool = True,
    ) -> list[dict[str, Any]]:
        if not updates:
            return []
        pk_col = target.schema.primary_key
        if any(pk_col in ch and ch[pk_col] != pk for pk, ch in updates):
            return [
                self._update_one(target, pk, ch, enforce_fk) for pk, ch in updates
            ]
        if enforce_fk:
            for fk in target.schema.foreign_keys:
                ctype = target.schema.column(fk.column).ctype
                distinct = set()
                for _pk, ch in updates:
                    if fk.column in ch and ch[fk.column] is not None:
                        distinct.add(coerce(ch[fk.column], ctype))
                parent = self.table(fk.parent_table)
                for value in distinct:
                    if parent.rid_of(value) is None:
                        raise ForeignKeyError(
                            f"{target.name}.{fk.column}={value!r} references "
                            f"missing {fk.parent_table}.{fk.parent_column}"
                        )
        if not self.delta_writes:
            # Legacy full-row path: undo restores complete old rows and the
            # WAL frame carries every new row in full.
            pairs = target.update_pks(updates)
            self._stats.updates += len(pairs)
            restore = [(old[pk_col], old) for old, _new in pairs]
            restore.reverse()
            self._log_undo(lambda: target.update_pks(restore))
            self._log_redo(
                {
                    "op": "update",
                    "table": target.name,
                    "updates": [(old[pk_col], new) for old, new in pairs],
                }
            )
            return [new for _old, new in pairs]
        # Delta path: resolve rids once, coerce each distinct change set
        # once (batched statements usually share one mapping across every
        # row — SET NULL cascades, update_where), apply as one batch with
        # grouped index maintenance, and log changed-column deltas only.
        coerced: dict[int, dict[str, Any]] = {}
        deltas: list[tuple[int, dict[str, Any]]] = []
        pks: list[Any] = []
        for pk, ch in updates:
            rid = target.rid_of(pk)
            if rid is None:
                raise NoSuchRowError(f"{target.name}: no row with {pk_col}={pk!r}")
            delta = coerced.get(id(ch))
            if delta is None:
                delta = coerced[id(ch)] = target.coerce_changes(ch)
            deltas.append((rid, delta))
            pks.append(pk)
        changed = target.apply_updates(deltas)
        self._stats.updates += len(changed)
        self._log_update_deltas(target, pks, changed)
        return [target.row_by_rid(rid) for rid, _delta in deltas]

    @_statement(_DELETE)
    def delete_many(
        self, table: str, pk_values: Iterable[Any], enforce_fk: bool = True
    ) -> int:
        """Delete many rows by primary key as ONE batched statement.

        Incoming references are resolved in bulk per referencing table
        (RESTRICT raises, CASCADE recurses batched, SET NULL updates
        batched) and one undo record reinserts the whole batch on
        rollback. Returns the number of rows deleted.
        """
        self._stats.statements += 1
        return self._delete_batch(self.table(table), pk_values, enforce_fk)

    @_statement(_DELETE)
    def delete_where(
        self,
        table: str,
        where: str | Predicate,
        params: Mapping[str, Any] | None = None,
    ) -> int:
        """Batched ``DELETE ... WHERE``: plan the predicate once, then
        delete all matching rows via :meth:`delete_many` semantics.
        """
        self._stats.statements += 1
        self._stats.selects += 1
        target = self.table(table)
        matches = target.match_rows(parse_where(where), params)
        pk_col = target.schema.primary_key
        return self._delete_batch(target, [row[pk_col] for _rid, row in matches], True)

    def _delete_batch(
        self, target: Table, pk_values: Iterable[Any], enforce_fk: bool
    ) -> int:
        pks = list(dict.fromkeys(pk_values))
        if not pks:
            return 0
        table = target.name
        for pk in pks:
            if target.rid_of(pk) is None:
                raise NoSuchRowError(f"{table}: no row with pk {pk!r}")
        if enforce_fk:
            doomed = set(pks)
            for child_schema, fk in self.schema.referencing(table):
                child = self.table(child_schema.name)
                self._stats.selects += len(pks)
                child_pk = child_schema.primary_key
                hits: list[Any] = []
                seen: set[Any] = set()
                for pk in pks:
                    for row in child.referencing_rows(fk.column, pk, sort=False):
                        cpk = row[child_pk]
                        if child_schema.name == table and cpk in doomed:
                            continue
                        if cpk not in seen:
                            seen.add(cpk)
                            hits.append(cpk)
                if not hits:
                    continue
                if fk.on_delete is FKAction.RESTRICT:
                    raise ForeignKeyError(
                        f"cannot delete from {table}: {len(hits)} row(s) of "
                        f"{child_schema.name}.{fk.column} still reference the "
                        f"batch (ON DELETE RESTRICT)"
                    )
                if fk.on_delete is FKAction.CASCADE:
                    self._delete_batch(child, hits, True)
                elif fk.on_delete is FKAction.SET_NULL:
                    self._update_batch(
                        child,
                        [(cpk, {fk.column: None}) for cpk in hits],
                        enforce_fk=False,
                    )
        olds = target.delete_pks(pks)
        self._stats.deletes += len(olds)
        self._log_undo(lambda: target.insert_rows(olds))
        self._log_redo({"op": "delete", "table": table, "pks": pks})
        return len(olds)

    # -- foreign-key machinery ----------------------------------------------------

    def _check_fks_outgoing(self, table_schema: TableSchema, row: Mapping[str, Any]) -> None:
        """Every non-NULL FK value in *row* must exist in its parent table."""
        for fk in table_schema.foreign_keys:
            value = row[fk.column]
            if value is None:
                continue
            parent = self.table(fk.parent_table)
            if parent.rid_of(value) is None:
                raise ForeignKeyError(
                    f"{table_schema.name}.{fk.column}={value!r} references "
                    f"missing {fk.parent_table}.{fk.parent_column}"
                )

    def _check_pk_change_references(self, target: Table, old_pk: Any) -> None:
        """Disallow changing a primary key that other rows still reference."""
        for child_schema, fk in self.schema.referencing(target.name):
            self._declare_access(child_schema.name, _READ)
            child = self.table(child_schema.name)
            if child.referencing_rows(fk.column, old_pk, sort=False):
                raise ForeignKeyError(
                    f"cannot change primary key {target.name}.{old_pk!r}: "
                    f"still referenced by {child_schema.name}.{fk.column}"
                )

    def _resolve_incoming_references(self, table: str, pk_value: Any) -> None:
        """Apply each referencing FK's ON DELETE action before a delete."""
        for child_schema, fk in self.schema.referencing(table):
            child = self.table(child_schema.name)
            self._stats.selects += 1
            referencing = child.referencing_rows(fk.column, pk_value)
            if not referencing:
                continue
            if fk.on_delete is FKAction.RESTRICT:
                raise ForeignKeyError(
                    f"cannot delete {table}.{pk_value!r}: referenced by "
                    f"{len(referencing)} row(s) of {child_schema.name}.{fk.column} "
                    f"(ON DELETE RESTRICT)"
                )
            pk_col = child_schema.primary_key
            if fk.on_delete is FKAction.CASCADE:
                for row in referencing:
                    self.delete_by_pk(child_schema.name, row[pk_col])
            elif fk.on_delete is FKAction.SET_NULL:
                for row in referencing:
                    self._update_one(child, row[pk_col], {fk.column: None})

    # -- integrity checking ----------------------------------------------------------

    def check_row_fks(self, table: str, pk_value: Any) -> list[str]:
        """Outgoing-FK violations of one row (empty if clean or row gone)."""
        target = self.table(table)
        row = target.get(pk_value)
        if row is None:
            return []
        problems = []
        for fk in target.schema.foreign_keys:
            value = row[fk.column]
            if value is None:
                continue
            if self.table(fk.parent_table).rid_of(value) is None:
                problems.append(
                    f"{table}.{fk.column}={value!r} references missing "
                    f"{fk.parent_table}.{fk.parent_column}"
                )
        return problems

    def check_integrity(self) -> list[str]:
        """Return a list of referential-integrity violations (empty = clean)."""
        problems = []
        for table_schema in self.schema:
            table = self._tables[table_schema.name]
            for row in table.rows():
                for fk in table_schema.foreign_keys:
                    value = row[fk.column]
                    if value is None:
                        continue
                    parent = self._tables[fk.parent_table]
                    if parent.rid_of(value) is None:
                        problems.append(
                            f"{table_schema.name}.{fk.column}={value!r} dangles "
                            f"(row {table_schema.primary_key}="
                            f"{row[table_schema.primary_key]!r})"
                        )
        return problems

    def assert_integrity(self) -> None:
        """Raise :class:`IntegrityViolation` if any foreign key dangles."""
        problems = self.check_integrity()
        if problems:
            raise IntegrityViolation(
                f"{len(problems)} dangling foreign key(s): " + "; ".join(problems[:5])
            )

    # -- misc -------------------------------------------------------------------------

    def next_id(self, table: str) -> int:
        """Allocate the next integer primary key for *table*.

        Monotonic: returns one more than the largest id ever seen in the
        table (live or since deleted), so ids are never recycled.
        """
        current = self.table(table).max_pk()
        if current is None:
            current = 0
        if not isinstance(current, int):
            raise TransactionError(
                f"next_id requires integer primary keys, {table} has {current!r}"
            )
        # The watermark mutex (not a table lock) makes concurrent
        # allocations on one table hand out distinct ids: once the
        # watermark passes max_pk it alone decides the next id.
        with self._id_lock:
            allocated = max(current, self._id_watermark.get(table, 0)) + 1
            self._id_watermark[table] = allocated
        return allocated

    def row_counts(self) -> dict[str, int]:
        """Row count per table (handy in tests and reports)."""
        return {name: len(table) for name, table in self._tables.items()}

    def total_rows(self) -> int:
        return sum(len(table) for table in self._tables.values())


class _TransactionContext:
    """Context manager backing :meth:`Database.transaction`."""

    def __init__(self, db: Database) -> None:
        self._db = db

    def __enter__(self) -> Database:
        self._db.begin()
        return self._db

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self._db.commit()
        else:
            self._db.rollback()
        return False
