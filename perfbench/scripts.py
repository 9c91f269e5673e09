"""The fixed operation scripts of the three workloads.

One client thread issues one operation at a time (a closed loop with one
operation outstanding). A disguise operation is a job submitted to the
service queue; the client then blocks on the queue's condition
(``JobQueue.wait_idle``) until the worker has finished it. App requests
run on the client thread between jobs, so they never overlap a job.

Each script is one round; every round of a run repeats the same
operations on a freshly built world.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Any

from calib import kernel
from worlds import PROBE_INVITEE, PROBE_INVITER, World, seeded

from repro.apps.hotcrp import workload as hotcrp_app

#: HotCRP app requests issued during one scrub round, one before every
#: APP_EVERY-th deletion (215 in all). The weights and the rate are
#: assumptions: neither the paper nor this repository has a trace of
#: HotCRP traffic. front_page is rare because it is the costly full-scan
#: page. The mix sets the app latency figures and part of peak_rss_mb,
#: ops_per_s and ops_per_cpu_s; the app's own WAL writes are kept out of
#: every per-job figure.
APP_MIX = {
    "login": 65,
    "reviewer_dashboard": 50,
    "paper_discussion": 50,
    "submit_review": 48,
    "front_page": 2,
}
APP_EVERY = 2
#: Sample sizes, also assumptions (the paper fixes none of them).
RETURNING_SHARE = 0.10      # hotcrp-scrub users who come back
CONFANON_AUTHORS = 120      # authors scrubbed on top of ConfAnon (plus the PC)
LOBSTERS_DELETIONS = 120
LOBSTERS_RETURNING = 40

#: Operation kinds that are disguise jobs (the denominators of per-job
#: figures). ``probe`` is the fixed fault probe of a workload.
JOB_KINDS = ("apply", "reveal", "bulk_apply", "bulk_reveal", "probe")


class Recorder:
    """Issues operations and records latency and outcome per kind.

    After every operation the client also times the calibration kernel
    (``calib.kernel``), so each operation has the machine's speed of its
    moment beside it; ``ops`` and ``speed`` are parallel lists.
    """

    def __init__(self, world: World, tracer: Any = None) -> None:
        self.world = world
        self.queue = world.service.queue
        self.tracer = tracer
        #: (kind, wall seconds, process CPU seconds, succeeded)
        self.ops: list[tuple[str, float, float, bool]] = []
        self.speed: list[float] = []                    # kernel seconds after each op
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: list[str] = []
        self.problems: list[str] = []
        #: What app requests added to the durability (and, traced, the
        #: storage) counters, so per-job figures can leave it out.
        self.app_counters: Counter = Counter()

    def _done(self, kind: str, seconds: float, cpu: float, ok: bool) -> None:
        self.ops.append((kind, seconds, cpu, ok))
        self.speed.append(kernel())

    def job(self, kind: str, submit, *args: Any, **kwargs: Any) -> Any:
        """Submit one job, wait until the queue is idle; the finished job or None."""
        self.attempted[kind] += 1
        if self.tracer is not None:
            self.tracer.set_op(f"j{len(self.ops) + 1}")
            job, seconds, cpu = self.tracer.span("client.job", self._run_job, submit, args, kwargs)
        else:
            job, seconds, cpu = self._run_job(submit, args, kwargs)
        ok = job.state == "done"
        if not ok:
            self.failed[kind] += 1
            self.errors.append(f"{kind} job {job.job_id}: {job.error}")
        self._done(kind, seconds, cpu, ok)
        return job if ok else None

    def _run_job(self, submit, args, kwargs):
        cpu = time.process_time()
        start = time.perf_counter()
        job = submit(*args, max_attempts=1, **kwargs)
        self.queue.wait_idle()
        return job, time.perf_counter() - start, time.process_time() - cpu

    def app(self, kind: str, fn, *args: Any) -> Any:
        self.attempted["app"] += 1
        before = _app_counters(self.world, self.tracer is not None)
        cpu = time.process_time()
        if self.tracer is None:
            start = time.perf_counter()
            result = fn(*args)
            seconds = time.perf_counter() - start
        else:
            self.tracer.set_op(f"a{len(self.ops) + 1}")
            start = time.perf_counter()
            result = self.tracer.span("client.app", fn, *args)
            seconds = time.perf_counter() - start
            self.tracer.set_op("-")
        cpu = time.process_time() - cpu
        self.app_counters.update(_app_counters(self.world, self.tracer is not None) - before)
        self._done("app", seconds, cpu, True)
        return result


def _app_counters(world: World, storage: bool) -> Counter:
    out = Counter(
        wal_bytes=sum(wal.bytes_written for wal in world.wals),
        wal_fsyncs=sum(wal.syncs for wal in world.wals),
        wal_commits=sum(wal.commits_appended for wal in world.wals),
    )
    if storage:
        db = world.db
        out.update(
            statements=db.stats.statements,
            rows_examined=sum(db.table(t).rows_examined for t in db.table_names),
        )
    return out


# -- hotcrp-scrub ------------------------------------------------------------------


def hotcrp_scrub(world: World, seed: int, rec: Recorder) -> dict:
    db = world.db
    contacts = {row["contactId"]: dict(row.items()) for row in db.table("ContactInfo").rows()}
    papers = sorted(row["paperId"] for row in db.table("Paper").rows())
    pc = sorted(uid for uid, row in contacts.items() if row["roles"] == 1)
    _id_recycling_probe(world, rec, top=max(contacts), pc_member=pc[0])
    order = sorted(contacts)
    seeded(seed, "order").shuffle(order)
    rng = seeded(seed, "app")
    mix = [kind for kind, n in APP_MIX.items() for _ in range(n)]
    rng.shuffle(mix)
    if len(mix) != -(-len(order) // APP_EVERY):
        raise ValueError(f"one app request per {APP_EVERY} deletions is expected")
    submitted = 0
    dids = {}
    for index, uid in enumerate(order):
        active = order[index:]
        kind = mix[index // APP_EVERY] if index % APP_EVERY == 0 else None
        if kind == "login":
            who = contacts[rng.choice(active)]
            row = rec.app(kind, hotcrp_app.login, db, who["email"], who["password"])
            if row is None or row["contactId"] != who["contactId"]:
                rec.problems.append(f"login of active user {who['contactId']} failed")
        elif kind == "reviewer_dashboard":
            rec.app(kind, hotcrp_app.reviewer_dashboard, db, rng.choice(pc))
        elif kind == "paper_discussion":
            rec.app(kind, hotcrp_app.paper_discussion, db, rng.choice(papers))
        elif kind == "submit_review":
            rec.app(
                kind, hotcrp_app.submit_review, db, rng.choice(active),
                rng.choice(papers), rng.randint(1, 5), "Late review.",
            )
            submitted += 1
        elif kind == "front_page":
            page = rec.app(kind, hotcrp_app.front_page, db)
            rec.problems.extend(_front_page_problems(db, page))
        job = rec.job("apply", world.service.submit_apply, "HotCRP-GDPR+", uid=uid)
        if job is not None:
            dids[uid] = job.result["did"]
    # 10% of the PC and 10% of the other users return: PC reveals restore
    # far more rows, so a fixed mix keeps one seed's figures comparable
    # with another's.
    rng = seeded(seed, "returning")
    others = [uid for uid in order if uid not in pc]
    returning = rng.sample(pc, round(RETURNING_SHARE * len(pc)))
    returning += rng.sample(others, round(RETURNING_SHARE * len(others)))
    rng.shuffle(returning)
    for uid in returning:
        rec.job("reveal", world.service.submit_reveal, dids[uid])
    return {
        "scrubbed": set(order) - set(returning),
        "revealed": returning,
        "reviews_submitted": submitted,
        "contacts": contacts,
    }


def _id_recycling_probe(world: World, rec: Recorder, top: int, pc_member: int) -> None:
    """The placeholder id-recycling fault, once per round on fixed users.

    Before any placeholder exists, delete the user with the largest id,
    then a PC member: the first placeholder takes the deleted user's id,
    so revealing that user collides with it (counted as failed). Revealing
    the PC member removes the placeholder and the second reveal of the
    first user succeeds, so both users are active again afterwards.
    """
    errors_before = len(rec.errors)
    dids = {}
    for uid in (top, pc_member):
        job = rec.job("probe", world.service.submit_apply, "HotCRP-GDPR+", uid=uid)
        dids[uid] = job.result["did"] if job is not None else None
    for uid in (top, pc_member, top):
        if dids[uid] is not None:
            rec.job("probe", world.service.submit_reveal, dids[uid])
    errors = rec.errors[errors_before:]
    if len(errors) != 1 or f"duplicate primary key {top}" not in errors[0]:
        rec.problems.append(f"id-recycling probe did not fail exactly once as named: {errors}")


def _front_page_problems(db: Any, page: list[dict]) -> list[str]:
    """front_page's review counts against a raw count of PaperReview rows."""
    raw = Counter(row["paperId"] for row in db.table("PaperReview").rows())
    return [
        f"front_page shows {paper['reviews']} reviews for paper {paper['paperId']}, "
        f"rows hold {raw[paper['paperId']]}"
        for paper in page
        if paper["reviews"] != raw[paper["paperId"]]
    ]


# -- hotcrp-confanon ------------------------------------------------------------------


def hotcrp_confanon(world: World, seed: int, rec: Recorder) -> dict:
    db = world.db
    pc = sorted(row["contactId"] for row in db.table("ContactInfo").rows() if row["roles"] == 1)
    authors = sorted(
        {row["contactId"] for row in db.table("PaperConflict").rows()} - set(pc)
    )
    subjects = pc + seeded(seed, "authors").sample(authors, CONFANON_AUTHORS)
    seeded(seed, "order").shuffle(subjects)
    anon = rec.job("bulk_apply", world.service.submit_apply, "HotCRP-ConfAnon", uid=None)
    dids = []
    for uid in subjects:
        job = rec.job("apply", world.service.submit_apply, "HotCRP-GDPR+", uid=uid)
        if job is not None:
            dids.append(job.result["did"])
    for did in reversed(dids):
        rec.job("reveal", world.service.submit_reveal, did)
    if anon is not None:
        rec.job("bulk_reveal", world.service.submit_reveal, anon.result["did"])
    return {"subjects": subjects}


# -- lobsters-shards ------------------------------------------------------------------


def lobsters_shards(world: World, seed: int, rec: Recorder) -> dict:
    sdb = world.db
    inviter = {}
    for shard in sdb.shards:
        for row in shard.table("users").rows():
            inviter[row["id"]] = row["invited_by_user_id"]
    users = sorted(uid for uid in inviter if uid not in (PROBE_INVITER, PROBE_INVITEE))
    deleted = seeded(seed, "order").sample(users, LOBSTERS_DELETIONS)
    dids = {}
    for uid in deleted:
        job = rec.job("apply", world.service.submit_apply, "Lobsters-GDPR", uid=uid)
        if job is not None:
            dids[uid] = job.result["did"]
    # A user whose inviter was deleted after them and is still deleted
    # cannot be revealed (the inviter fault). Whether a seeded sample
    # contains such users depends on the seed, so the seeded reveals skip
    # them; the fixed probe below hits the fault once in every round.
    position = {uid: i for i, uid in enumerate(deleted)}
    eligible = [
        uid for uid in deleted
        if position.get(inviter[uid], -1) < position[uid]
    ]
    returning = seeded(seed, "returning").sample(eligible, LOBSTERS_RETURNING)
    for uid in returning:
        rec.job("reveal", world.service.submit_reveal, dids[uid])
    probe_errors_before = len(rec.errors)
    probe = {}
    for uid in (PROBE_INVITEE, PROBE_INVITER):
        job = rec.job("probe", world.service.submit_apply, "Lobsters-GDPR", uid=uid)
        probe[uid] = job.result["did"] if job is not None else None
    for uid in (PROBE_INVITEE, PROBE_INVITER, PROBE_INVITEE):
        if probe[uid] is not None:
            rec.job("probe", world.service.submit_reveal, probe[uid])
    probe_errors = rec.errors[probe_errors_before:]
    if len(probe_errors) != 1 or "ForeignKeyError" not in probe_errors[0]:
        rec.problems.append(f"inviter-fault probe did not fail exactly once as named: {probe_errors}")
    return {
        "scrubbed": set(deleted) - set(returning),
        "revealed": returning + [PROBE_INVITER, PROBE_INVITEE],
        "users": set(users) | {PROBE_INVITER, PROBE_INVITEE},
    }


SCRIPTS = {
    "hotcrp-scrub": hotcrp_scrub,
    "hotcrp-confanon": hotcrp_confanon,
    "lobsters-shards": lobsters_shards,
}
