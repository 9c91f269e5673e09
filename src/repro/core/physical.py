"""Physical disguise operations and their reversal.

Everything that actually touches rows lives here, shared by apply
(:mod:`repro.core.apply`), composition (:mod:`repro.core.compose`), and
reveal (:mod:`repro.core.reveal`):

* executing a Remove / Modify / Decorrelate against one row, producing the
  vault entry that reverses it;
* reversing a vault entry (the materialized "reveal function");
* re-executing a vault entry's operation after a temporary reversal
  (composition and chain reveal need this).

A :class:`VaultJournal` wraps the vault store during a disguise so vault
writes can be compensated if the database transaction rolls back — the
vault may live outside the database, so it does not participate in the
storage engine's undo log.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.errors import DisguiseError, SpecError
from repro.spec.disguise import DisguiseSpec, TableDisguise
from repro.spec.generate import GenContext
from repro.storage.database import Database
from repro.storage.schema import FKAction, Schema
from repro.vault.base import VaultStore
from repro.vault.entry import OP_DECORRELATE, OP_MODIFY, OP_REMOVE, VaultEntry

__all__ = ["PlaceholderFactory", "PlaceholderRegistry", "VaultJournal", "OpExecutor"]

REGISTRY_TABLE = "_placeholders"


class PlaceholderRegistry:
    """Engine metadata: which rows are placeholders it created.

    Two consumers: owner routing (a vault entry whose "owner" would be a
    placeholder goes to the global vault instead — placeholders are not
    people and have no vault; crucially, the engine must *not* resolve the
    placeholder back to the real user, which would defeat decorrelation)
    and garbage collection. Lives in a database table so it is
    transactional with disguise application.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        if not db.has_table(REGISTRY_TABLE):
            from repro.storage.schema import Column, TableSchema
            from repro.storage.types import ColumnType

            db.create_table(
                TableSchema(
                    REGISTRY_TABLE,
                    [
                        Column("key", ColumnType.TEXT, nullable=False),
                        Column("created_by", ColumnType.INTEGER, nullable=False),
                    ],
                    primary_key="key",
                )
            )

    @staticmethod
    def _key(table: str, pk: Any) -> str:
        return f"{table}:{pk!r}"

    def add(self, table: str, pk: Any, disguise_id: int) -> None:
        self.db.insert(
            REGISTRY_TABLE, {"key": self._key(table, pk), "created_by": disguise_id}
        )

    def add_many(self, table: str, pks: list[Any], disguise_id: int) -> None:
        if not pks:
            return
        self.db.insert_many(
            REGISTRY_TABLE,
            [
                {"key": self._key(table, pk), "created_by": disguise_id}
                for pk in pks
            ],
        )

    def remove(self, table: str, pk: Any) -> None:
        key = self._key(table, pk)
        if self.db.get(REGISTRY_TABLE, key) is not None:
            self.db.delete_by_pk(REGISTRY_TABLE, key)

    def is_placeholder(self, table: str, pk: Any) -> bool:
        return self.db.get(REGISTRY_TABLE, self._key(table, pk)) is not None


class PlaceholderFactory:
    """Creates placeholder rows for decorrelation (Figure 2's anonymous users).

    One factory per disguise application: its counter feeds ``Sequence``
    generators and its RNG is the engine's seeded RNG, so placeholder
    content is reproducible under a fixed seed.
    """

    def __init__(
        self,
        db: Database,
        rng: random.Random,
        registry: "PlaceholderRegistry | None" = None,
        disguise_id: int = 0,
    ) -> None:
        self.db = db
        self.rng = rng
        self.registry = registry
        self.disguise_id = disguise_id
        self.counter = 0
        self.created = 0

    def build(self, parent_table: str, table_disguise: TableDisguise) -> dict[str, Any]:
        """Insert and return a fresh placeholder row in *parent_table*.

        Columns listed in the spec's ``generate_placeholder`` use their
        generators; the primary key is allocated; everything else takes the
        schema default.
        """
        schema = self.db.table(parent_table).schema
        if not table_disguise.generate_placeholder:
            raise SpecError(
                f"no generate_placeholder for table {parent_table!r}; "
                f"cannot create placeholders"
            )
        self.counter += 1
        row: dict[str, Any] = {schema.primary_key: self.db.next_id(parent_table)}
        for column_name, generator in table_disguise.generate_placeholder.items():
            column = schema.column(column_name)
            ctx = GenContext(rng=self.rng, column=column, counter=self.counter)
            row[column_name] = generator.generate(ctx)
        # normalize_row in insert fills remaining defaults.
        stored = self.db.insert(parent_table, row)
        if self.registry is not None:
            self.registry.add(
                parent_table, stored[schema.primary_key], self.disguise_id
            )
        self.created += 1
        return stored

    def build_many(
        self, parent_table: str, table_disguise: TableDisguise, n: int
    ) -> list[dict[str, Any]]:
        """Insert *n* fresh placeholders with one batched statement.

        Generator, counter, and id-allocation order match *n* sequential
        :meth:`build` calls exactly, so placeholder content is identical
        under a fixed seed — only the number of statements changes.
        """
        if n == 0:
            return []
        schema = self.db.table(parent_table).schema
        if not table_disguise.generate_placeholder:
            raise SpecError(
                f"no generate_placeholder for table {parent_table!r}; "
                f"cannot create placeholders"
            )
        rows: list[dict[str, Any]] = []
        for _ in range(n):
            self.counter += 1
            row: dict[str, Any] = {
                schema.primary_key: self.db.next_id(parent_table)
            }
            for column_name, generator in table_disguise.generate_placeholder.items():
                column = schema.column(column_name)
                ctx = GenContext(rng=self.rng, column=column, counter=self.counter)
                row[column_name] = generator.generate(ctx)
            rows.append(row)
        stored = self.db.insert_many(parent_table, rows)
        if self.registry is not None:
            self.registry.add_many(
                parent_table,
                [row[schema.primary_key] for row in stored],
                self.disguise_id,
            )
        self.created += n
        return stored


class VaultJournal:
    """Vault writes with compensation, for atomicity with the db transaction.

    When given a history log, the journal also maintains each disguise's
    live entry count (``adjust_entries``); those counter updates are plain
    database writes inside the open transaction, so they roll back with it.
    """

    def __init__(self, vault: VaultStore, history=None) -> None:
        self.vault = vault
        self.history = history
        self._undo: list[tuple[str, Any]] = []
        self._doomed: list[VaultEntry] = []
        self._doomed_ids: set[tuple[Any, int]] = set()
        self.writes = 0

    def _adjust(self, disguise_id: int, delta: int) -> None:
        if self.history is not None:
            self.history.adjust_entries(disguise_id, delta)

    def put(self, entry: VaultEntry) -> None:
        self.vault.put(entry)
        self.writes += 1
        self._undo.append(("put", entry))
        self._adjust(entry.disguise_id, +1)

    def put_many(self, entries: list[VaultEntry]) -> None:
        # Compensation is registered BEFORE the batch write: a store may
        # fail partway through the batch, and every _delete implementation
        # ignores ids that were never written, so over-compensating is safe
        # while under-compensating would leak orphan entries.
        if not entries:
            return
        for entry in entries:
            self._undo.append(("put", entry))
        self.vault.put_many(entries)
        self.writes += len(entries)
        # One grouped counter update per disguise, not one per entry; the
        # deltas are all positive so grouping cannot interact with the
        # max(0, ...) clamp in adjust_entries.
        deltas: dict[int, int] = {}
        for entry in entries:
            deltas[entry.disguise_id] = deltas.get(entry.disguise_id, 0) + 1
        for disguise_id, delta in deltas.items():
            self._adjust(disguise_id, delta)

    def replace(self, old: VaultEntry, new: VaultEntry) -> None:
        if old.entry_id != new.entry_id:
            raise DisguiseError("replace must keep the entry id")
        self.vault.replace(new)
        self.writes += 1
        self._undo.append(("replace", old))

    def delete(self, entry: VaultEntry) -> None:
        """Consume *entry*: decrement its disguise's live count now, but
        defer the physical vault delete to :meth:`commit`.

        A vault delete is a durable append (the tombstone); issuing it
        inside the open transaction puts it on disk *before* the commit
        it belongs to. A crash in that window leaves the disguise's
        history row alive while its entries are gone — the disguise
        becomes permanently irreversible (reveal aborts on the missing
        rows forever). Found by the deterministic simulation harness.
        """
        self._doomed.append(entry)
        self._doomed_ids.add((entry.owner, entry.entry_id))
        self._adjust(entry.disguise_id, -1)

    def pending_delete(self, entry: VaultEntry) -> bool:
        """Whether *entry* was consumed earlier in this transaction.

        Deferred deletes stay visible in the vault until commit; readers
        that enumerate vault entries mid-transaction must skip them to
        keep the eager-delete semantics."""
        return (entry.owner, entry.entry_id) in self._doomed_ids

    def compensate(self) -> None:
        """Undo every journaled vault write, newest first.

        Deferred deletes need no compensation — nothing was written —
        they are simply dropped."""
        for action, entry in reversed(self._undo):
            if action == "put":
                self.vault.delete(entry.owner, [entry.entry_id])
            else:  # replaced — restore the old entry
                self.vault.replace(entry)
        self._undo.clear()
        self._doomed.clear()
        self._doomed_ids.clear()

    def commit(self, barrier=None) -> None:
        """Finish the transaction's vault writes after the db commit.

        *barrier* (e.g. ``Database.redo_barrier``) is called first when
        there are deferred deletes, making the commit durable before the
        tombstones land; the crash ordering is then always safe:
        entries-present/record-active (re-run cleanly) or
        entries-present/record-inactive (swept at engine construction) —
        never entries-gone/record-active.
        """
        if self._doomed:
            if barrier is not None:
                barrier()
            by_owner: dict[Any, list[int]] = {}
            for entry in self._doomed:
                by_owner.setdefault(entry.owner, []).append(entry.entry_id)
            for owner, ids in by_owner.items():
                self.vault.delete(owner, ids)
            self._doomed.clear()
            self._doomed_ids.clear()
        self._undo.clear()

    def discard(self) -> None:
        self._undo.clear()
        self._doomed.clear()
        self._doomed_ids.clear()


@dataclass
class ReverseOutcome:
    """What reversing one entry did."""

    status: str  # "restored" | "missing" | "stale"
    placeholder_deleted: bool = False


class OpExecutor:
    """Executes and reverses physical operations for one engine."""

    def __init__(
        self,
        db: Database,
        schema: Schema | None = None,
        registry: "PlaceholderRegistry | None" = None,
    ) -> None:
        self.db = db
        self.registry = registry
        # While True, row updates skip immediate FK checks. Reveal sets it:
        # unwinding chains passes through transient states (a restored FK
        # whose parent reappears later in the same transaction); a final
        # soundness gate re-validates every touched row before commit.
        self.defer_fk = False

    @property
    def schema(self) -> Schema:
        """The live schema — read through the database so schema evolution
        (which replaces ``db.schema``) is immediately visible here."""
        return self.db.schema

    def is_placeholder(self, table: str, pk: Any) -> bool:
        return self.registry is not None and self.registry.is_placeholder(table, pk)

    # -- forward operations ------------------------------------------------------

    def do_modify(
        self,
        table: str,
        row: dict[str, Any],
        column: str,
        new_value: Any,
    ) -> tuple[Any, Any]:
        """Rewrite one column; returns (old, new) as stored."""
        schema = self.db.table(table).schema
        pk = row[schema.primary_key]
        old_value = row[column]
        updated = self.db.update_by_pk(
            table, pk, {column: new_value}, enforce_fk=not self.defer_fk
        )
        return old_value, updated[column]

    def do_modify_many(
        self,
        table: str,
        rows: list[Any],
        column: str,
        new_values: list[Any],
    ) -> list[tuple[Any, Any]]:
        """Rewrite one column on many rows with ONE batched statement.

        Returns ``(old, new)`` per row, as stored.
        """
        schema = self.db.table(table).schema
        pk_col = schema.primary_key
        updates = [
            (row[pk_col], {column: value}) for row, value in zip(rows, new_values)
        ]
        new_rows = self.db.update_many(
            table, updates, enforce_fk=not self.defer_fk
        )
        return [
            (row[column], new[column]) for row, new in zip(rows, new_rows)
        ]

    def do_decorrelate(
        self,
        table: str,
        row: dict[str, Any],
        fk_column: str,
        factory: PlaceholderFactory,
        parent_disguise: TableDisguise,
    ) -> tuple[Any, Any, str, Any]:
        """Repoint *fk_column* at a fresh placeholder.

        Returns (old_fk, new_fk, placeholder_table, placeholder_pk).
        """
        table_schema = self.db.table(table).schema
        fk = table_schema.foreign_key_for(fk_column)
        if fk is None:
            raise SpecError(f"{table}.{fk_column} is not a foreign key")
        placeholder = factory.build(fk.parent_table, parent_disguise)
        parent_pk_col = self.db.table(fk.parent_table).schema.primary_key
        new_fk = placeholder[parent_pk_col]
        old_fk = row[fk_column]
        pk = row[table_schema.primary_key]
        self.db.update_by_pk(
            table, pk, {fk_column: new_fk}, enforce_fk=not self.defer_fk
        )
        return old_fk, new_fk, fk.parent_table, new_fk

    def do_decorrelate_many(
        self,
        table: str,
        rows: list[Any],
        fk_column: str,
        factory: PlaceholderFactory,
        parent_disguise: TableDisguise,
    ) -> list[tuple[Any, Any, str, Any]]:
        """Repoint *fk_column* of many rows at fresh placeholders, batched.

        One batched insert creates all placeholders and one batched update
        repoints all foreign keys; each row still gets its own placeholder
        (sharing one would re-correlate the rows with each other).
        """
        table_schema = self.db.table(table).schema
        fk = table_schema.foreign_key_for(fk_column)
        if fk is None:
            raise SpecError(f"{table}.{fk_column} is not a foreign key")
        placeholders = factory.build_many(fk.parent_table, parent_disguise, len(rows))
        parent_pk_col = self.db.table(fk.parent_table).schema.primary_key
        pk_col = table_schema.primary_key
        updates = [
            (row[pk_col], {fk_column: placeholder[parent_pk_col]})
            for row, placeholder in zip(rows, placeholders)
        ]
        self.db.update_many(table, updates, enforce_fk=not self.defer_fk)
        return [
            (
                row[fk_column],
                placeholder[parent_pk_col],
                fk.parent_table,
                placeholder[parent_pk_col],
            )
            for row, placeholder in zip(rows, placeholders)
        ]

    def collect_removal_set(self, table: str, pk: Any) -> list[tuple[str, dict[str, Any], str]]:
        """The rows deleting (table, pk) will affect, children first.

        Each item is ``(table, row, action)`` where action is ``"remove"``
        for the row itself and for CASCADE children, or ``"setnull:<col>"``
        for SET NULL children. The engine vaults each affected row so the
        removal is fully reversible — a plain SQL cascade would lose them.
        RESTRICT children are *not* collected; the delete will fail and
        surface the spec gap, as intended.
        """
        out: list[tuple[str, dict[str, Any], str]] = []
        self._collect_removal(table, pk, out, seen=set())
        return out

    def _collect_removal(
        self,
        table: str,
        pk: Any,
        out: list[tuple[str, dict[str, Any], str]],
        seen: set[tuple[str, Any]],
    ) -> None:
        if (table, pk) in seen:
            return
        seen.add((table, pk))
        row = self.db.get(table, pk)
        if row is None:
            return
        for child_schema, fk in self.schema.referencing(table):
            child_rows = self.db.select(
                child_schema.name, f"{fk.column} = $V", {"V": pk}
            )
            for child_row in child_rows:
                if fk.on_delete is FKAction.CASCADE:
                    self._collect_removal(
                        child_schema.name, child_row[child_schema.primary_key], out, seen
                    )
                elif fk.on_delete is FKAction.SET_NULL:
                    out.append((child_schema.name, child_row, f"setnull:{fk.column}"))
                # RESTRICT: leave it; the delete will raise if the spec
                # failed to address the child table.
        out.append((table, row, "remove"))

    def collect_removal_set_many(
        self, table: str, pks: list[Any]
    ) -> list[tuple[str, Any, str]]:
        """Removal sets for many roots at once, children first.

        Same contract as :meth:`collect_removal_set`, but the FK graph is
        walked level-by-level with one key-batch select per referencing
        table per level (``select(..., keys=...)``: rids straight from the
        pk or FK index, no per-user predicate to plan or compile), so
        collecting N roots issues O(depth × tables) statements instead of
        O(N) and adds nothing to the plan cache. Rows affected
        by several roots appear once; all removes of one table are
        contiguous, which lets the caller batch the deletes.
        """
        out: list[tuple[str, Any, str]] = []
        self._collect_removal_batch(table, pks, out, seen=set())
        return out

    def _collect_removal_batch(
        self,
        table: str,
        pks: list[Any],
        out: list[tuple[str, Any, str]],
        seen: set[tuple[str, Any]],
    ) -> None:
        fresh = [pk for pk in pks if (table, pk) not in seen]
        if not fresh:
            return
        seen.update((table, pk) for pk in fresh)
        pk_col = self.db.table(table).schema.primary_key
        rows = self.db.select(table, keys=(pk_col, fresh))
        if not rows:
            return
        live = [row[pk_col] for row in rows]
        for child_schema, fk in self.schema.referencing(table):
            child_rows = self.db.select(child_schema.name, keys=(fk.column, live))
            if not child_rows:
                continue
            if fk.on_delete is FKAction.CASCADE:
                self._collect_removal_batch(
                    child_schema.name,
                    [row[child_schema.primary_key] for row in child_rows],
                    out,
                    seen,
                )
            elif fk.on_delete is FKAction.SET_NULL:
                out.extend(
                    (child_schema.name, row, f"setnull:{fk.column}")
                    for row in child_rows
                )
        out.extend((table, row, "remove") for row in rows)

    def delete_placeholder_if_unreferenced(self, table: str, pk: Any) -> bool:
        """Garbage-collect a placeholder row once nothing points at it."""
        for child_schema, fk in self.schema.referencing(table):
            self.db.stats.selects += 1
            if self.db.table(child_schema.name).referencing_rows(
                fk.column, pk, sort=False
            ):
                return False
        if self.db.get(table, pk) is None:
            return False
        self.db.delete_by_pk(table, pk)
        if self.registry is not None:
            self.registry.remove(table, pk)
        return True

    # -- reversal ("reveal functions") ------------------------------------------------

    def reverse_entry(self, entry: VaultEntry) -> ReverseOutcome:
        """Apply the reveal function stored in *entry*.

        * remove       -> reinsert the original row
        * decorrelate  -> restore the original foreign key, GC the placeholder
        * modify       -> restore the original column value

        Rows that no longer exist (removed by a later disguise) yield
        ``missing``; decorrelations whose current FK is not the entry's
        recorded placeholder yield ``stale`` (an intervening change the
        caller must have reversed first — chains are reversed newest-first,
        so a stale result signals entry corruption, not normal flow).
        """
        if entry.op == OP_REMOVE:
            # Deferred FK check: the row may reference a parent that a
            # still-active disguise removed. Reveal re-applies that disguise
            # to the reinserted row afterwards (which removes it again) and
            # validates all surviving reinsertions before committing.
            self.db.insert(entry.table, entry.removed_row, enforce_fk=False)
            return ReverseOutcome("restored")
        row = self.db.get(entry.table, entry.pk)
        if row is None:
            return ReverseOutcome("missing")
        if entry.op == OP_DECORRELATE:
            if row[entry.column] != entry.new_value:
                return ReverseOutcome("stale")
            self.db.update_by_pk(
                entry.table,
                entry.pk,
                {entry.column: entry.old_value},
                enforce_fk=not self.defer_fk,
            )
            deleted = self.delete_placeholder_if_unreferenced(
                entry.placeholder_table, entry.placeholder_pk
            )
            return ReverseOutcome("restored", placeholder_deleted=deleted)
        if entry.op == OP_MODIFY:
            self.db.update_by_pk(
                entry.table,
                entry.pk,
                {entry.column: entry.old_value},
                enforce_fk=not self.defer_fk,
            )
            return ReverseOutcome("restored")
        raise DisguiseError(f"cannot reverse op {entry.op!r}")

    # -- re-execution after temporary reversal ------------------------------------------

    def reexecute_entry(
        self,
        entry: VaultEntry,
        spec: DisguiseSpec,
        factory: PlaceholderFactory,
        seq: int,
    ) -> VaultEntry | None:
        """Redo *entry*'s operation against current state.

        Used when composition or reveal temporarily reversed the entry and
        the owning disguise must re-assert itself. Returns the updated
        entry (new payload, new seq) to store via ``replace``, or None if
        the row no longer exists (the entry should then be deleted — the
        disguise's effect on that row is moot).
        """
        row = self.db.get(entry.table, entry.pk)
        if row is None:
            return None
        table_disguise = spec.table_disguise(entry.table)
        if entry.op == OP_DECORRELATE:
            fk = self.db.table(entry.table).schema.foreign_key_for(entry.column)
            if fk is None or table_disguise is None:
                raise DisguiseError(
                    f"cannot re-execute decorrelation for {entry.table}.{entry.column}"
                )
            parent_disguise = spec.table_disguise(fk.parent_table)
            if parent_disguise is None:
                raise DisguiseError(
                    f"spec {spec.name!r} has no placeholder recipe for {fk.parent_table!r}"
                )
            old_fk, new_fk, placeholder_table, placeholder_pk = self.do_decorrelate(
                entry.table, row, entry.column, factory, parent_disguise
            )
            return entry.with_payload(
                seq,
                old=old_fk,
                new=new_fk,
                placeholder_table=placeholder_table,
                placeholder_pk=placeholder_pk,
            )
        if entry.op == OP_MODIFY:
            fn = _modifier_for(spec, entry.table, entry.column)
            old_value, new_value = self.do_modify(
                entry.table, row, entry.column, fn(row[entry.column])
            )
            return entry.with_payload(seq, old=old_value, new=new_value)
        if entry.op == OP_REMOVE:
            # Only this row: when the removal originally cascaded, each
            # affected child has its own entry in the chain and is
            # re-executed separately (children carry smaller seqs, so
            # ascending re-application deletes them first). Referencing
            # rows mid-chain are fixed by later reveal phases, so FK
            # resolution is deferred under reveal.
            self.db.delete_by_pk(entry.table, entry.pk, enforce_fk=not self.defer_fk)
            return entry.with_payload(seq, row=row)
        raise DisguiseError(f"cannot re-execute op {entry.op!r}")


def _modifier_for(spec: DisguiseSpec, table: str, column: str):
    """Find the Modify closure a spec declares for (table, column)."""
    from repro.spec.transform import Modify

    table_disguise = spec.table_disguise(table)
    if table_disguise is not None:
        for transformation in table_disguise.transformations:
            if isinstance(transformation, Modify) and transformation.column == column:
                return transformation.fn
    raise DisguiseError(
        f"spec {spec.name!r} declares no Modify for {table}.{column}; "
        f"cannot re-execute"
    )
