"""Key-batch reads: ``select(..., keys=(column, values))`` versus ``IN``.

``Database.select`` with a key list must return exactly what the
equivalent ``column IN (values...) [AND where]`` predicate returns —
same rows, same (rid) order, same statement counters — whether the
column is the primary key, a hash-indexed column or an unindexed one,
with NULLs in the column and in the key list, duplicate, missing, empty
and mixed-type key lists, and with or without a parameterised ``where``.
It must also leave the plan cache alone: one entry per ``where``
predicate, none per key list.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import UnknownColumnError
from repro.storage.database import Database
from repro.storage.predicate import And, ColumnRef, InList, Literal
from repro.storage.schema import Schema
from repro.storage.sql import parse_schema, parse_where

DDL = """
CREATE TABLE owners (id INT PRIMARY KEY, name TEXT);
CREATE TABLE items (
    id INT PRIMARY KEY,
    owner_id INT REFERENCES owners(id),
    grp INT,
    tag TEXT,
    flag BOOL
);
"""

#: (column, how it is read): the pk index, the FK hash index, an
#: explicitly created hash index, and two unindexed columns.
COLUMNS = ("id", "owner_id", "grp", "tag", "flag")

WHERES = (
    (None, None),
    ("grp > $G", {"G": 3}),
    ("tag LIKE 'a%' OR flag = TRUE", None),
    ("owner_id IS NULL", None),
    ("grp IN ($G, 7) AND id < $HI", {"G": 2, "HI": 120}),
)


def random_db(seed: int) -> Database:
    """A table whose rid order differs from pk order, with NULLs."""
    rng = random.Random(seed)
    db = Database(Schema(parse_schema(DDL)))
    db.table("items").create_index("grp")
    db.insert_many("owners", [{"id": o, "name": f"o{o}"} for o in range(1, 13)])
    ids = list(range(1, 161))
    rng.shuffle(ids)
    for pk in ids:
        db.insert("items", random_item(rng, pk))
    # Churn: deletes leave rid gaps, re-inserts land at the end.
    for pk in rng.sample(ids, 40):
        db.delete_by_pk("items", pk)
        if rng.random() < 0.5:
            db.insert("items", random_item(rng, pk))
    for pk in rng.sample(ids, 20):
        if db.get("items", pk) is not None:
            db.update_by_pk("items", pk, {"grp": rng.choice((None, 1, 2, 3))})
    return db


def random_item(rng: random.Random, pk: int) -> dict:
    return {
        "id": pk,
        "owner_id": rng.choice((None, *range(1, 13))),
        "grp": rng.choice((None, *range(0, 9))),
        "tag": rng.choice((None, "a", "ab", "b", "bc", "c")),
        "flag": rng.choice((None, True, False)),
    }


def random_keys(rng: random.Random, column: str) -> list:
    domain = {
        "id": list(range(-3, 170)),
        "owner_id": list(range(0, 15)),
        "grp": list(range(-1, 11)),
        "tag": ["a", "ab", "b", "bc", "c", "zz", ""],
        "flag": [True, False],
    }[column]
    shape = rng.randrange(6)
    if shape == 0:
        return []
    keys = [rng.choice(domain) for _ in range(rng.randrange(1, 25))]
    if shape == 1:
        keys += [None] * rng.randrange(1, 3)
    elif shape == 2:
        keys += keys[: rng.randrange(1, len(keys) + 1)]  # duplicates
    elif shape == 3:
        # Equal under Python but not comparable under SQL: TRUE is not 1.
        keys += [rng.choice((True, False, 1, 0, 1.0, "1"))]
    elif shape == 4:
        keys = list(domain)  # most of the table: the planner scans it
    rng.shuffle(keys)
    return keys


def in_predicate(column: str, keys: list, where: str | None):
    pred = InList(ColumnRef(column), tuple(Literal(k) for k in keys))
    return pred if where is None else And(pred, parse_where(where))


@pytest.mark.parametrize("seed", range(8))
def test_key_batch_matches_in_list(seed):
    db = random_db(seed)
    rng = random.Random(1000 + seed)
    for _ in range(60):
        column = rng.choice(COLUMNS)
        keys = random_keys(rng, column)
        where, params = rng.choice(WHERES)
        before = (db.stats.statements, db.stats.selects)
        got = db.select("items", where, params, keys=(column, keys))
        middle = (db.stats.statements, db.stats.selects)
        want = db.select("items", in_predicate(column, keys, where), params)
        after = (db.stats.statements, db.stats.selects)
        assert got == want, (column, keys, where)
        assert (middle[0] - before[0], middle[1] - before[1]) == (
            after[0] - middle[0], after[1] - middle[1]
        ) == (1, 1)


def test_rows_come_back_in_rid_order():
    db = random_db(3)
    table = db.table("items")
    rid_of = table.rid_of
    for column in COLUMNS:
        rows = db.select("items", keys=(column, [r[column] for r in table.rows()]))
        rids = [rid_of(r["id"]) for r in rows]
        assert rids == sorted(rids)
        assert len(rows) == sum(1 for r in table.rows() if r[column] is not None)


def test_candidates_come_from_the_index():
    db = random_db(4)
    table = db.table("items")
    start = table.rows_examined
    db.select("items", keys=("id", [5, 6, 7, 999]))
    assert table.last_plan == "keys(id, 4)"
    assert table.rows_examined - start == sum(
        1 for pk in (5, 6, 7) if db.get("items", pk) is not None
    )
    db.select("items", keys=("owner_id", [1, 2]))
    assert table.last_plan == "keys(owner_id, 2)"
    db.select("items", keys=("tag", ["a"]))  # unindexed: scanned
    assert table.last_plan == "full"


def test_plan_cache_holds_one_entry_per_where_not_per_key_list():
    db = random_db(5)
    db.select("items", "grp > $G", {"G": 0}, keys=("id", [1]))
    entries = len(db.plans)
    misses = db.plans.misses
    for n in range(2, 60):
        db.select("items", keys=("id", list(range(1, n))))
        db.select("items", "grp > $G", {"G": n % 5}, keys=("owner_id", [n % 13, n]))
    assert len(db.plans) == entries
    assert db.plans.misses == misses


def test_unknown_column_raises():
    db = random_db(6)
    with pytest.raises(UnknownColumnError):
        db.select("items", keys=("nope", [1]))


def test_keys_accepts_any_iterable():
    db = random_db(7)
    want = db.select("items", keys=("grp", [1, 2]))
    assert db.select("items", keys=("grp", iter((1, 2)))) == want
    assert db.select("items", keys=("grp", {1, 2})) == want


class _RecordingHook:
    """Lock-hook stub: records the statement bracket calls."""

    def __init__(self) -> None:
        self.calls: list = []

    def on_statement_start(self, table, mode):
        self.calls.append(("start", table, mode))

    def on_access(self, table, mode):
        self.calls.append(("access", table, mode))

    def on_statement_end(self):
        self.calls.append(("end",))

    def on_begin(self):
        pass

    def on_txn_end(self):
        pass


def test_key_batch_read_is_one_bracketed_statement():
    db = random_db(8)
    hook = _RecordingHook()
    db.set_lock_hook(hook)
    try:
        db.select("items", keys=("owner_id", [1, 2, 3]))
    finally:
        db.set_lock_hook(None)
    assert hook.calls[0][:2] == ("start", "items")
    assert hook.calls[-1] == ("end",)
    assert sum(1 for call in hook.calls if call[0] == "start") == 1
