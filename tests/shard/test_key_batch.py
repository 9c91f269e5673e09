"""Key-batch reads on the sharded facade: ``keys=`` versus ``IN``.

The sharded twin of ``tests/storage/test_key_batch.py``. On a
partitioned Lobsters database (root, owner-anchored, indirect and global
tables), ``ShardedDatabase.select(..., keys=(column, values))`` must
return the rows of ``column IN (values...) [AND where]`` in the same
order, count one statement and one select, and — with no ``where`` —
route the same way (single-shard probe or scatter), so shards are
visited in the same order and downstream vault/WAL output stays
byte-identical.
"""

from __future__ import annotations

import random

import pytest

from repro import Disguiser
from repro.apps.lobsters.disguises import lobsters_gdpr
from repro.apps.lobsters.generate import LobstersPopulation, generate_lobsters
from repro.shard import shard_database
from repro.storage.predicate import And, ColumnRef, InList, Literal
from repro.storage.sql import parse_where
from repro.vault import MemoryVault

POP = LobstersPopulation(users=30, stories=60, comments=120)

#: table -> (key columns, (where, params) choices). Columns cover the
#: pk, the owner anchor, other FK (hash-indexed, some nullable) columns
#: and unindexed ones.
TABLES = {
    "users": (("id", "karma", "is_admin"), ((None, None), ("karma > $N", {"N": 5}))),
    "stories": (
        ("id", "user_id", "domain_id", "upvotes"),
        ((None, None), ("upvotes > $N", {"N": 2}), ("user_id = $U", {"U": 3})),
    ),
    "comments": (
        ("id", "user_id", "story_id", "parent_comment_id"),
        ((None, None), ("upvotes >= $N OR parent_comment_id IS NULL", {"N": 3})),
    ),
    "votes": (("id", "user_id", "story_id", "comment_id"), ((None, None),)),
    "tags": (("id", "tag"), ((None, None), ("id < $N", {"N": 4}))),
}


def sharded_world(seed: int):
    db = shard_database(generate_lobsters(population=POP, seed=seed), 4)
    engine = Disguiser(db, vault=MemoryVault(), seed=seed)
    engine.register(lobsters_gdpr())
    # Placeholders and removed users: dirty owners, NULL anchors.
    for uid in random.Random(seed).sample(range(1, POP.users + 1), 3):
        engine.apply(lobsters_gdpr().name, uid=uid)
    return db


def random_keys(rng: random.Random, db, table: str, column: str) -> list:
    present = [row[column] for row in db.select(table)]
    shape = rng.randrange(5)
    if shape == 0 or not present:
        return []
    keys = [rng.choice(present) for _ in range(rng.randrange(1, 12))]
    if shape == 1:
        keys.append(None)
    elif shape == 2:
        keys += keys[:2]  # duplicates
    elif shape == 3:
        keys += [10_000_000, -1]  # missing everywhere
    rng.shuffle(keys)
    return keys


@pytest.mark.parametrize("seed", range(4))
def test_sharded_key_batch_matches_in_list(seed):
    db = sharded_world(seed)
    rng = random.Random(500 + seed)
    for _ in range(80):
        table = rng.choice(sorted(TABLES))
        columns, wheres = TABLES[table]
        column = rng.choice(columns)
        keys = random_keys(rng, db, table, column)
        where, params = rng.choice(wheres)
        pred = InList(ColumnRef(column), tuple(Literal(k) for k in keys))
        if where is not None:
            pred = And(pred, parse_where(where))

        def snapshot():
            return (db.stats.statements, db.stats.selects,
                    db.routed_reads, db.scatter_reads)

        s0 = snapshot()
        got = db.select(table, where, params, keys=(column, keys))
        s1 = snapshot()
        want = db.select(table, pred, params)
        s2 = snapshot()
        assert got == want, (table, column, keys, where)
        d_keys = [b - a for a, b in zip(s0, s1)]
        d_in = [b - a for a, b in zip(s1, s2)]
        assert d_keys[:2] == d_in[:2] == [1, 1]
        if where is None:
            assert d_keys == d_in, (table, column, keys)


def test_pk_key_list_probes_only_the_shards_holding_the_rows():
    db = sharded_world(9)
    pks = [row["id"] for row in db.select("stories")][:3]
    before = db.routed_reads
    rows = db.select("stories", keys=("id", pks))
    assert sorted(row["id"] for row in rows) == sorted(pks)
    assert db.routed_reads == before + 1
