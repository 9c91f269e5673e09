"""Owner-hash placement: deterministic shard routing from the FK graph.

The paper's disguise specs walk a per-user ownership chain (every table a
GDPR disguise touches hangs off ``users`` through foreign keys), and
PrivLava (arXiv:2304.04545) shows the same FK-rooted hierarchy cleanly
partitions relational data per user. This module turns that observation
into placement machinery:

* :func:`owner_token` / :func:`owner_shard` — canonical, typed owner
  tokens hashed with :mod:`hashlib` (sha256 over an explicit UTF-8
  encoding). The builtin ``hash()`` is **never** used: it is salted per
  process (``PYTHONHASHSEED``), which would silently reshuffle every
  owner between runs and orphan their rows and vault entries.
* :class:`OwnershipAnalyzer` — classifies each table from the schema's
  FK graph: the user root, *direct* tables anchored by a user FK,
  *indirect* tables co-located through a sharded parent, *global*
  tables with no ownership chain (replicated to every shard), and
  ``_``-prefixed *system* tables (homed on shard 0).
* :class:`ShardMap` — the persisted placement state: shard count,
  per-owner overrides written by migrations, the dirty-owner set (owners
  whose rows may sit off their hash home), and the in-flight migration
  intent. Serialized as canonical sorted JSON so a map built in one
  process reloads byte-identically in any other.
* :class:`Router` — per-statement classification: a read whose predicate
  pins the table's anchor column to concrete *clean* owners is
  single-shard; anything else scatters; global tables fan out.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import ShardError
from repro.storage.predicate import And, ColumnRef, Comparison, InList, Literal, Param, Predicate
from repro.storage.schema import Schema, TableSchema

__all__ = [
    "DIRECT",
    "GLOBAL",
    "INDIRECT",
    "ROOT",
    "SYSTEM",
    "OwnershipAnalyzer",
    "Router",
    "ShardMap",
    "TablePlacement",
    "owner_shard",
    "owner_token",
]

# Table placement classes (see OwnershipAnalyzer).
ROOT = "root"          # the user table itself; anchored by its primary key
DIRECT = "direct"      # anchored by a foreign key straight to the user table
INDIRECT = "indirect"  # co-located with a sharded parent (no user FK of its own)
GLOBAL = "global"      # no ownership chain; replicated to every shard
SYSTEM = "system"      # engine-internal ``_`` table; homed on shard 0


def owner_token(value: Any) -> str:
    """Canonical typed token for an owner value.

    The type tag keeps ``1``, ``"1"`` and ``1.0`` distinct — Python's
    ``hash()`` would conflate them *and* salt the result per process.
    """
    if value is None:
        return "n:"
    if isinstance(value, bool):
        return f"t:{int(value)}"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, str):
        return "s:" + value
    if isinstance(value, bytes):
        return "b:" + value.hex()
    if isinstance(value, float):
        return "f:" + repr(value)
    return "o:" + repr(value)


def owner_shard(value: Any, n_shards: int) -> int:
    """Deterministic hash placement: sha256 of the canonical token."""
    digest = hashlib.sha256(owner_token(value).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


@dataclass(frozen=True)
class TablePlacement:
    """How one table's rows map to shards."""

    table: str
    kind: str                       # ROOT / DIRECT / INDIRECT / GLOBAL / SYSTEM
    anchor: str | None = None       # owner column (ROOT: the pk; DIRECT: user FK)
    parent_column: str | None = None  # INDIRECT: local FK column to the parent
    parent_table: str | None = None   # INDIRECT: the sharded parent


class OwnershipAnalyzer:
    """Classify tables by their FK ownership chain to the user root.

    Anchor selection for direct tables: the first **non-nullable** FK to
    the user table in declared order, else the first declared user FK
    (self-FKs on the root are skipped — they are back-references, not
    ownership). Tables with no user FK follow their first declared FK
    to a sharded table (indirect co-location); tables that reach the
    root through no chain at all are global and replicate everywhere.
    """

    def __init__(self, schema: Schema, user_table: str = "users") -> None:
        self.schema = schema
        self.user_table = user_table
        self._cache: dict[str, TablePlacement] = {}

    def invalidate(self) -> None:
        """Forget cached classifications (call after DDL)."""
        self._cache.clear()

    def placement(self, table: str) -> TablePlacement:
        cached = self._cache.get(table)
        if cached is None:
            cached = self._classify(table, frozenset())
            self._cache[table] = cached
        return cached

    def placements(self) -> dict[str, TablePlacement]:
        return {ts.name: self.placement(ts.name) for ts in self.schema}

    def _classify(self, table: str, visiting: frozenset) -> TablePlacement:
        if table.startswith("_"):
            return TablePlacement(table, SYSTEM)
        if table == self.user_table:
            ts = self.schema.table(table)
            return TablePlacement(table, ROOT, anchor=ts.primary_key)
        ts = self.schema.table(table)
        user_fks = [
            fk
            for fk in ts.foreign_keys
            if fk.parent_table == self.user_table
        ]
        if user_fks:
            non_null = [
                fk for fk in user_fks if not ts.column(fk.column).nullable
            ]
            anchor_fk = non_null[0] if non_null else user_fks[0]
            return TablePlacement(table, DIRECT, anchor=anchor_fk.column)
        # No user FK: co-locate through the first FK whose parent is
        # itself sharded (cycle-safe: a table being classified doesn't
        # count as a sharded parent for its own descendants).
        for fk in ts.foreign_keys:
            if fk.parent_table == table or fk.parent_table in visiting:
                continue
            parent = self._classify(fk.parent_table, visiting | {table})
            if parent.kind in (ROOT, DIRECT, INDIRECT):
                return TablePlacement(
                    table,
                    INDIRECT,
                    parent_column=fk.column,
                    parent_table=fk.parent_table,
                )
        return TablePlacement(table, GLOBAL)


@dataclass
class ShardMap:
    """Persisted placement state: shard count, overrides, dirt, intent.

    * ``overrides`` — owner token -> shard index, written by completed
      migrations; consulted before the hash.
    * ``dirty`` — owner tokens whose rows may sit off their home shard
      (a biased placeholder insert, an anchor-value update): reads that
      would single-shard-route on such an owner scatter instead.
      Correctness never depends on placement — dirt only widens reads.
    * ``migration`` — the in-flight migration intent (owner token +
      target shard), persisted *before* any row moves so a torn
      migration is recoverable (see :mod:`repro.shard.rebalance`).
    """

    n_shards: int
    overrides: dict[str, int] = field(default_factory=dict)
    dirty: set[str] = field(default_factory=set)
    migration: dict[str, Any] | None = None
    path: Path | None = None
    migrations_done: int = 0

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ShardError(f"shard count must be >= 1, got {self.n_shards}")

    # -- placement ---------------------------------------------------------------

    def shard_of(self, owner: Any) -> int:
        token = owner_token(owner)
        override = self.overrides.get(token)
        if override is not None:
            return override
        return owner_shard(owner, self.n_shards)

    def is_clean(self, owner: Any) -> bool:
        token = owner_token(owner)
        if token in self.dirty:
            return False
        return not (self.migration and self.migration.get("owner") == token)

    def mark_dirty(self, owner: Any) -> None:
        self.dirty.add(owner_token(owner))

    def clear_dirty(self, owner: Any) -> None:
        self.dirty.discard(owner_token(owner))

    # -- migration intent --------------------------------------------------------

    def begin_migration(self, owner: Any, to_shard: int) -> None:
        if self.migration is not None:
            raise ShardError(
                f"migration already in flight for {self.migration['owner']!r}"
            )
        if not (0 <= to_shard < self.n_shards):
            raise ShardError(f"target shard {to_shard} out of range")
        # Both the canonical token (for is_clean checks) and the raw
        # value (so recovery can re-gather the owner's rows) persist;
        # owners are pk values, so they are JSON-representable.
        self.migration = {
            "owner": owner_token(owner),
            "value": owner,
            "to": to_shard,
        }
        self.save()

    def finish_migration(self, owner: Any, to_shard: int) -> None:
        self.overrides[owner_token(owner)] = to_shard
        self.clear_dirty(owner)
        self.migration = None
        self.migrations_done += 1
        self.save()

    def abort_migration(self) -> None:
        self.migration = None
        self.save()

    # -- persistence -------------------------------------------------------------

    def to_json(self) -> str:
        """Canonical serialization: sorted keys, sorted dirty set."""
        return json.dumps(
            {
                "version": 1,
                "n_shards": self.n_shards,
                "overrides": self.overrides,
                "dirty": sorted(self.dirty),
                "migration": self.migration,
                "migrations_done": self.migrations_done,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def save(self, path: str | Path | None = None) -> None:
        """Atomically persist (tmp + rename); no-op without a path."""
        target = Path(path) if path is not None else self.path
        if target is None:
            return
        self.path = target
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(self.to_json() + "\n", encoding="utf-8")
        tmp.replace(target)

    @classmethod
    def load(cls, path: str | Path, n_shards: int | None = None) -> "ShardMap":
        path = Path(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        if n_shards is not None and data["n_shards"] != n_shards:
            raise ShardError(
                f"shard map at {path} was built for {data['n_shards']} "
                f"shard(s), requested {n_shards}"
            )
        return cls(
            n_shards=data["n_shards"],
            overrides={k: int(v) for k, v in data["overrides"].items()},
            dirty=set(data.get("dirty", ())),
            migration=data.get("migration"),
            path=path,
            migrations_done=int(data.get("migrations_done", 0)),
        )

    @classmethod
    def open(
        cls, path: str | Path | None, n_shards: int
    ) -> "ShardMap":
        """Load the map at *path* if present, else a fresh one bound to it."""
        if path is not None and Path(path).exists():
            return cls.load(path, n_shards)
        return cls(n_shards=n_shards, path=None if path is None else Path(path))


class Router:
    """Statement- and row-level routing over an analyzer + shard map."""

    def __init__(
        self,
        schema: Schema,
        shard_map: ShardMap,
        user_table: str = "users",
    ) -> None:
        self.analyzer = OwnershipAnalyzer(schema, user_table)
        self.map = shard_map
        self.user_table = user_table

    @property
    def n_shards(self) -> int:
        return self.map.n_shards

    def invalidate(self) -> None:
        self.analyzer.invalidate()

    def placement(self, table: str) -> TablePlacement:
        return self.analyzer.placement(table)

    def home_shard(self, owner: Any) -> int:
        return self.map.shard_of(owner)

    # -- statement classification -------------------------------------------------

    def owner_values(
        self,
        table: str,
        pred: Predicate | None,
        params: Mapping[str, Any] | None,
        keys: tuple[str, Iterable[Any]] | None = None,
    ) -> list[Any] | None:
        """Concrete owner values a predicate pins the anchor to, or None.

        A key list on the anchor (``keys=(anchor, values)``, a select's
        key-batch read) pins it first. Otherwise walks the top-level AND
        conjuncts for ``anchor = <literal/param>`` or ``anchor IN
        (<literals/params>)``. Anything else — ORs, ranges, expressions
        over the anchor — returns None (scatter). NULL owner values are
        fine to route anywhere (``= NULL`` never matches), so they are
        dropped from the pinned set.
        """
        placement = self.placement(table)
        if placement.kind not in (ROOT, DIRECT):
            return None
        return _pinned_values(placement.anchor, pred, params, keys)

    def pk_values(
        self,
        table: str,
        pred: Predicate | None,
        params: Mapping[str, Any] | None,
        keys: tuple[str, Iterable[Any]] | None = None,
    ) -> list[Any] | None:
        """Concrete primary-key values a predicate (or key list) pins, or None.

        Separate from :meth:`owner_values` because pk-pinned reads route
        by *probing* (facade-level pk uniqueness makes the probe exact),
        not by hashing — a row's pk says nothing about its shard unless
        the table is the root.
        """
        ts = self.analyzer.schema.table(table)
        return _pinned_values(ts.primary_key, pred, params, keys)

    def read_shards(
        self,
        table: str,
        pred: Predicate | None,
        params: Mapping[str, Any] | None,
        locate: Any = None,
        keys: tuple[str, Iterable[Any]] | None = None,
    ) -> tuple[str, list[int]]:
        """(kind, shard indices) for a read: 'single' | 'scatter' | 'home'.

        ``home`` covers the trivially-placed classes (system/global read
        their home copy); ``single`` means the predicate pinned clean
        owners (or, with a *locate* callback, concrete primary keys whose
        rows were probed to their shards); ``scatter`` fans out to every
        shard.

        Probe routing note: a pk-pinned read locks only the shards whose
        tables hold those pks. Rows cannot move shards outside an
        X-locked migration, so the route is stable for the lock's
        lifetime; the one relaxation versus monolithic table-granular 2PL
        is that a concurrent insert of a pk that existed *nowhere* at
        probe time is not blocked (a phantom the statement's IN-list
        result may or may not include — equivalent to running just before
        the insert).
        """
        placement = self.placement(table)
        if placement.kind in (SYSTEM, GLOBAL):
            return "home", [0]
        owners = self.owner_values(table, pred, params, keys)
        if owners is not None and all(self.map.is_clean(v) for v in owners):
            shards = sorted({self.map.shard_of(v) for v in owners})
            return "single", (shards or [0])
        if locate is not None:
            pks = self.pk_values(table, pred, params, keys)
            if pks is not None:
                shards = sorted(
                    {s for s in (locate(table, pk) for pk in pks) if s is not None}
                )
                return "single", (shards or [0])
        return "scatter", list(range(self.n_shards))


def _pinned_values(
    column: str,
    pred: Predicate | None,
    params: Mapping[str, Any] | None,
    keys: tuple[str, Iterable[Any]] | None,
) -> list[Any] | None:
    """Non-NULL values *column* is pinned to by a key list or by one of
    the predicate's top-level conjuncts, or None if nothing pins it."""
    if keys is not None and keys[0] == column:
        return [v for v in keys[1] if v is not None]
    if pred is None:
        return None
    for node in _conjuncts(pred):
        values = _anchor_eq_values(node, column, params)
        if values is not None:
            return [v for v in values if v is not None]
    return None


def _conjuncts(pred: Predicate) -> Iterable[Predicate]:
    stack = [pred]
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            stack.append(node.left)
            stack.append(node.right)
        else:
            yield node


def _resolve(value: Any, params: Mapping[str, Any] | None) -> tuple[bool, Any]:
    """(resolved, value) for a Literal or bound Param operand."""
    if isinstance(value, Literal):
        return True, value.value
    if isinstance(value, Param):
        if params is not None and value.name in params:
            return True, params[value.name]
    return False, None


def _anchor_eq_values(
    node: Predicate, anchor: str, params: Mapping[str, Any] | None
) -> list[Any] | None:
    """Values pinned by ``anchor = v`` / ``anchor IN (...)``, else None."""
    if isinstance(node, Comparison) and node.op == "=":
        operand = None
        if isinstance(node.left, ColumnRef) and node.left.name == anchor:
            operand = node.right
        elif isinstance(node.right, ColumnRef) and node.right.name == anchor:
            operand = node.left
        if operand is not None:
            ok, value = _resolve(operand, params)
            if ok:
                return [value]
        return None
    if (
        isinstance(node, InList)
        and not node.negated
        and isinstance(node.expr, ColumnRef)
        and node.expr.name == anchor
    ):
        values = []
        for item in node.items:
            ok, value = _resolve(item, params)
            if not ok:
                return None
            values.append(value)
        return values
    return None
