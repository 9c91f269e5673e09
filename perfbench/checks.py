"""Correctness oracles that share no code with what they check.

Keys come from this module's own reading of the application's DDL text,
rows from a plain walk over each table, and shard homes from this
module's own implementation of the documented placement rule (sha256 of
the typed owner token). Nothing here calls the engine's integrity,
routing, or comparison code. Every check returns a list of problems;
an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Any, Iterable

_TABLE_RE = re.compile(r"CREATE TABLE (\w+) \((.*?)\n\);", re.S)
_REF_RE = re.compile(r"REFERENCES (\w+)\((\w+)\)")


@dataclass(frozen=True)
class ForeignKey:
    table: str
    column: str
    parent: str
    parent_column: str
    not_null: bool


@dataclass(frozen=True)
class Keys:
    """Primary and foreign keys declared in a schema's DDL text."""

    primary: dict[str, str]
    foreign: list[ForeignKey]

    def into(self, parent: str) -> list[ForeignKey]:
        return [fk for fk in self.foreign if fk.parent == parent]


def parse_keys(ddl: str) -> Keys:
    primary: dict[str, str] = {}
    foreign: list[ForeignKey] = []
    for table, body in _TABLE_RE.findall(ddl):
        for line in body.splitlines():
            words = line.strip().rstrip(",").split()
            if not words:
                continue
            column = words[0]
            if "PRIMARY KEY" in line:
                primary[table] = column
            ref = _REF_RE.search(line)
            if ref:
                foreign.append(
                    ForeignKey(table, column, ref.group(1), ref.group(2), "NOT NULL" in line)
                )
    return Keys(primary, foreign)


def snapshot_rows(dbs: Iterable[Any], keys: Keys) -> dict[str, dict[Any, dict]]:
    """``{table: {pk: row}}`` over the application tables of ``dbs``.

    For a sharded database pass every shard; rows of replicated (global)
    tables appear once per shard and must agree.
    """
    out: dict[str, dict[Any, dict]] = {table: {} for table in keys.primary}
    for db in dbs:
        for table, pk in keys.primary.items():
            rows = out[table]
            for view in db.table(table).rows():
                row = dict(view.items())
                prior = rows.setdefault(row[pk], row)
                if prior != row:
                    raise AssertionError(f"{table}.{row[pk]} differs between shards")
    return out


def fk_problems(rows: dict[str, dict[Any, dict]], keys: Keys) -> list[str]:
    problems = []
    for fk in keys.foreign:
        parents = rows[fk.parent]
        for pk, row in rows[fk.table].items():
            value = row[fk.column]
            if value is None:
                if fk.not_null:
                    problems.append(f"{fk.table}.{pk}: {fk.column} is NULL")
            elif value not in parents:
                problems.append(f"{fk.table}.{pk}: {fk.column}={value!r} dangles")
    return problems


def _user_refs(row: dict, fks: list[ForeignKey]) -> set:
    return {row[fk.column] for fk in fks if row[fk.column] is not None}


def scrub_problems(
    final: dict, keys: Keys, user_table: str, scrubbed: Iterable[Any]
) -> list[str]:
    """No row names a scrubbed user, and their account row is gone."""
    scrubbed = set(scrubbed)
    problems = [f"{user_table}.{uid} still present" for uid in scrubbed if uid in final[user_table]]
    by_table: dict[str, list[ForeignKey]] = {}
    for fk in keys.into(user_table):
        by_table.setdefault(fk.table, []).append(fk)
    for table, fks in by_table.items():
        for pk, row in final[table].items():
            named = _user_refs(row, fks) & scrubbed
            if named:
                problems.append(f"{table}.{pk} still names scrubbed user(s) {sorted(named)}")
    return problems


def reveal_problems(
    final: dict,
    original: dict,
    keys: Keys,
    user_table: str,
    revealed: Iterable[Any],
    still_gone: set,
) -> list[str]:
    """Every original row that named a revealed user names them again.

    A row may be missing only because it also names a user who is still
    disguised (that user's disguise removed it).
    """
    problems = []
    pk_col = keys.primary[user_table]
    for uid in revealed:
        if final[user_table].get(uid) is None:
            problems.append(f"{user_table}.{uid} was not restored")
    revealed = set(revealed)
    user_fks = keys.into(user_table)
    for fk in user_fks:
        for pk, row in original[fk.table].items():
            uid = row[fk.column]
            if uid not in revealed or (fk.table == user_table and pk == uid):
                continue
            now = final[fk.table].get(pk)
            if now is None:
                others = _user_refs(row, [f for f in user_fks if f.table == fk.table])
                if fk.table == user_table:
                    others.add(row[pk_col])
                if not others & still_gone:
                    problems.append(f"{fk.table}.{pk} naming {user_table}.{uid} is gone")
            elif now[fk.column] != uid:
                problems.append(
                    f"{fk.table}.{pk}.{fk.column} is {now[fk.column]!r}, was {uid!r}"
                )
    return problems


def table_differences(a: dict, b: dict, tables: Iterable[str]) -> list[str]:
    problems = []
    for table in tables:
        left, right = a.get(table, {}), b.get(table, {})
        if left == right:
            continue
        missing = len(left.keys() - right.keys())
        extra = len(right.keys() - left.keys())
        changed = sum(1 for pk in left.keys() & right.keys() if left[pk] != right[pk])
        problems.append(f"{table}: {missing} missing, {extra} extra, {changed} changed rows")
    return problems


def all_rows(db: Any) -> dict[str, list]:
    """Every table of one database (system tables too), rows in a canonical order."""
    out = {}
    for table in db.table_names:
        rows = [dict(view.items()) for view in db.table(table).rows()]
        out[table] = sorted(rows, key=lambda r: repr(sorted(r.items(), key=lambda kv: kv[0])))
    return out


def recovery_problems(recovered: list[Any], live: list[Any]) -> list[str]:
    """Recovered snapshot+WAL state equals the live in-memory state."""
    problems = []
    for index, (again, now) in enumerate(zip(recovered, live)):
        a, b = all_rows(again), all_rows(now)
        for table in sorted(a.keys() | b.keys()):
            if a.get(table) != b.get(table):
                problems.append(f"shard {index} table {table}: recovered state differs")
    return problems


def home_shard(owner: int, n_shards: int) -> int:
    """The documented placement rule, written out independently."""
    digest = hashlib.sha256(f"i:{owner}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


def placement_problems(
    shards: list[Any], keys: Keys, user_table: str, originals: set
) -> list[str]:
    """Owner-anchored rows sit with their owner.

    Rows of an original user (one that existed in the input) live on the
    shard that user's id hashes to. Rows of a placeholder live on the
    shard that holds the placeholder's own account row. The anchor of a
    table is its first NOT NULL foreign key into the user table, else its
    first one.
    """
    problems = []
    n = len(shards)
    user_pk = keys.primary[user_table]
    user_home: dict[Any, int] = {}
    for index, shard in enumerate(shards):
        for view in shard.table(user_table).rows():
            user_home[view[user_pk]] = index
    anchors: dict[str, str] = {}
    for fk in keys.into(user_table):
        if fk.table == user_table:
            continue
        current = anchors.get(fk.table)
        if current is None or (fk.not_null and not _is_not_null(keys, fk.table, current)):
            anchors[fk.table] = fk.column
    for uid, index in user_home.items():
        if uid in originals and index != home_shard(uid, n):
            problems.append(f"{user_table}.{uid} on shard {index}, hashes to {home_shard(uid, n)}")
    for table, column in anchors.items():
        for index, shard in enumerate(shards):
            for view in shard.table(table).rows():
                owner = view[column]
                if owner is None:
                    continue
                want = home_shard(owner, n) if owner in originals else user_home.get(owner)
                if want != index:
                    problems.append(
                        f"{table}.{view[keys.primary[table]]} (owner {owner}) on shard "
                        f"{index}, expected {want}"
                    )
    return problems


def _is_not_null(keys: Keys, table: str, column: str) -> bool:
    return any(fk.not_null for fk in keys.foreign if fk.table == table and fk.column == column)
