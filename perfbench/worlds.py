"""Building, closing and recovering the benchmark's worlds.

A world is one application database behind the full durability path:
snapshot on disk, write-ahead log(s) with ``fsync="always"``, a
``FileVault`` journal with ``sync_appends=True`` (inside an
``EncryptedVault`` for ConfAnon), a durable job queue with fsync on, and a
one-worker ``DisguiseService``. No ``sync_delay`` is modelled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.apps.hotcrp import generate_hotcrp, hotcrp_confanon, hotcrp_gdpr_plus
from repro.apps.lobsters import LobstersPopulation, generate_lobsters, lobsters_gdpr
from repro.core.engine import Disguiser
from repro.service import DisguiseService
from repro.shard import (
    ShardedDisguiseService,
    ShardedVault,
    ShardGroupWal,
    replay_shard_logs,
    shard_database,
)
from repro.storage.persist import load_database, read_snapshot_generation, save_database
from repro.storage.wal import WalDatabase, WriteAheadLog, recover_database
from repro.vault.encrypted import EncryptedVault
from repro.vault.file_vault import FileVault

WORKERS = 1
N_SHARDS = 4

#: Lobsters at this size gives every shard ~9k rows, so routing and
#: scatter-gather have real work.
LOBSTERS_USERS = 800
#: Inviter and invitee added to every Lobsters dataset with fixed ids
#: and fixed rows, so the inviter-fault probe does not depend on the seed.
PROBE_INVITER = LOBSTERS_USERS + 1
PROBE_INVITEE = LOBSTERS_USERS + 2


@dataclass
class World:
    """One running engine, service and the files behind them."""

    workdir: Path
    snapshot: Path
    db: Any
    engine: Disguiser
    service: DisguiseService
    wals: list[WriteAheadLog]
    vault_stores: list[FileVault]
    sharded: bool = False
    closed: bool = field(default=False)

    @property
    def wal_paths(self) -> list[Path]:
        return [wal.path for wal in self.wals]

    def close(self) -> None:
        """Stop the worker, flush and close every log; the db stays readable."""
        if self.closed:
            return
        self.closed = True
        self.service.shutdown()
        for wal in self.wals:
            wal.close()
        if self.sharded:
            # Reads made without a lock hook start the facade's scatter
            # threads lazily; stop them so the run ends with its own threads.
            pool = self.db._scatter_pool
            if pool is not None:
                pool.shutdown(wait=True)
                self.db._scatter_pool = None


def lobsters_dataset(seed: int):
    """Seeded Lobsters data plus the two fixed probe users and their stories."""
    users = LOBSTERS_USERS
    db = generate_lobsters(
        population=LobstersPopulation(users=users, stories=3 * users, comments=10 * users),
        seed=seed,
    )
    for uid, inviter in ((PROBE_INVITER, None), (PROBE_INVITEE, PROBE_INVITER)):
        db.insert(
            "users",
            {
                "id": uid,
                "username": f"probe{uid}",
                "email": f"probe{uid}@example.net",
                "password_digest": f"digest-probe-{uid}",
                "about": "probe account",
                "karma": 1,
                "is_admin": False,
                "is_moderator": False,
                "deleted_at": None,
                "last_login": 1000.0,
                "invited_by_user_id": inviter,
            },
        )
        for n in range(2):
            sid = db.next_id("stories")
            db.insert(
                "stories",
                {
                    "id": sid,
                    "user_id": uid,
                    "domain_id": 1,
                    "title": f"Probe story {n} by {uid}",
                    "url": f"https://example.com/probe/{uid}/{n}",
                    "description": None,
                    "upvotes": 1,
                    "downvotes": 0,
                    "created_at": 1000.0,
                },
            )
    db.stats.reset()
    return db


def dataset(workload: str, seed: int):
    """The freshly generated input database of a workload."""
    if workload == "lobsters-shards":
        return lobsters_dataset(seed)
    return generate_hotcrp(seed=seed)


def build(workload: str, seed: int, workdir: Path) -> World:
    """Generate the seeded dataset and bring up its world under ``workdir``."""
    workdir.mkdir(parents=True)
    snapshot = workdir / "app.jsonl"
    save_database(dataset(workload, seed), snapshot)
    queue_path = workdir / "app.jsonl.jobs"
    if workload == "lobsters-shards":
        return _build_sharded(seed, workdir, snapshot, queue_path)
    handle = WalDatabase(snapshot, fsync="always")
    store = FileVault(workdir / "vault", sync_appends=True)
    vault: Any = store
    if workload == "hotcrp-confanon":
        vault = EncryptedVault(store)
        for row in handle.db.table("ContactInfo").rows():
            owner = row["contactId"]
            vault.unlock(owner, vault.register_owner(owner))
    engine = Disguiser(handle.db, vault=vault, seed=seed)
    engine.register(hotcrp_gdpr_plus())
    engine.register(hotcrp_confanon())
    service = DisguiseService(
        engine, queue_path, workers=WORKERS, wal=handle.wal, queue_fsync=True
    )
    service.start()
    return World(workdir, snapshot, handle.db, engine, service, [handle.wal], [store])


def _build_sharded(seed: int, workdir: Path, snapshot: Path, queue_path: Path) -> World:
    sdb = shard_database(
        load_database(snapshot), N_SHARDS, map_path=workdir / "app.jsonl.shardmap"
    )
    generation = read_snapshot_generation(snapshot)
    wals = [
        WriteAheadLog(workdir / f"app.jsonl.s{i}.wal", fsync="always", generation=generation)
        for i in range(N_SHARDS)
    ]
    group = ShardGroupWal(wals)
    sdb.set_redo_hook(group)
    stores = [
        FileVault(workdir / f"vault-{i}", sync_appends=True) for i in range(N_SHARDS)
    ]
    engine = Disguiser(sdb, vault=ShardedVault(stores, sdb.shard_map), seed=seed)
    engine.register(lobsters_gdpr())
    service = ShardedDisguiseService(
        engine, queue_path, workers=WORKERS, wal=group, queue_fsync=True
    )
    service.start()
    return World(workdir, snapshot, sdb, engine, service, wals, stores, sharded=True)


def recover(world: World) -> list[Any]:
    """Reopen the closed world from its snapshot plus WAL(s).

    Returns one recovered database per shard (one for the monolith).
    """
    if not world.sharded:
        return [recover_database(world.snapshot, world.wal_paths[0], verify=False)]
    generation = read_snapshot_generation(world.snapshot)
    sdb = shard_database(load_database(world.snapshot, verify=False), N_SHARDS)
    replay_shard_logs(sdb.shards, world.wal_paths, generation, scrub=False)
    return list(sdb.shards)


def seeded(seed: int, salt: str) -> random.Random:
    """An RNG stream of its own per purpose, all derived from ``--seed``."""
    return random.Random(f"{seed}:{salt}")
