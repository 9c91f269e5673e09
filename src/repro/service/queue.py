"""Durable job queue for the concurrent disguise service.

Disguise, reveal, and checkpoint requests arrive as *jobs*: JSONL records
in an append-only journal, so an accepted request survives a crash of the
service process. The journal reuses the WAL's durability idioms from the
storage layer — CRC-framed appends, a torn tail tolerated as the crash
signature, corruption elsewhere rejected loudly, and an atomic
write-temp/fsync/rename compaction.

Lifecycle::

    submit -> PENDING -> claim -> RUNNING -> complete -> DONE
                 ^                   |
                 |                   +-- fail (attempts left) -> PENDING
                 |                   |     (retry after exponential backoff)
                 |                   +-- fail (attempts exhausted) -> DEAD
                 +--- crash recovery re-queues RUNNING jobs

Every transition appends one event line; replaying the journal folds the
events into each job's final state. A job that was RUNNING when the
process died was claimed but never finished: reopening the journal
re-queues it (or dead-letters it when its attempts were already spent, so
a crash-looping job cannot wedge the service forever).

Durability boundary: ``complete``/``fail`` are appended *after* the
database WAL has made the job's changes durable (the executor orders
them). A crash between the two leaves a finished job marked RUNNING — it
re-runs on recovery, which is why disguise jobs are deduplicated against
the disguise history rather than blindly re-applied.

Line format: ``<crc32 hex, 8 chars> <event json>\\n``; the CRC covers the
JSON bytes.
"""

from __future__ import annotations

import json
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.errors import JobError, QueueCorruptionError
from repro.simtest.clock import resolve_clock
from repro.storage import fsio
from repro.storage.persist import _fsync_dir

__all__ = [
    "Job",
    "JobQueue",
    "PENDING",
    "RUNNING",
    "DONE",
    "FAILED",
    "DEAD",
    "JOB_STATES",
]

PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"  # transient: failed this attempt, will retry
DEAD = "dead"      # dead-lettered: attempts exhausted

JOB_STATES = (PENDING, RUNNING, DONE, FAILED, DEAD)
_STATES = JOB_STATES


@dataclass
class Job:
    """One queued request and its current lifecycle state."""

    job_id: int
    kind: str                       # "apply" | "reveal" | "checkpoint" | ...
    payload: dict[str, Any] = field(default_factory=dict)
    state: str = PENDING
    attempts: int = 0               # claims so far (incremented at claim)
    max_attempts: int = 3
    not_before: float = 0.0         # wall-clock retry gate (backoff)
    enqueued_at: float = 0.0
    finished_at: float | None = None
    error: str | None = None
    result: dict[str, Any] | None = None

    def describe(self) -> dict[str, Any]:
        """JSON-safe summary (CLI ``jobs`` listing, service status API)."""
        out = {
            "id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "attempts": self.attempts,
            "payload": self.payload,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.result is not None:
            out["result"] = self.result
        return out


def _frame(event: dict[str, Any]) -> str:
    body = json.dumps(event, separators=(",", ":"))
    return f"{zlib.crc32(body.encode('utf-8')):08x} {body}\n"


def _parse_line(line: str, lineno: int, path: Path, last: bool) -> dict[str, Any] | None:
    """Decode one journal line; ``None`` means a tolerable torn tail."""
    def torn_or_raise(reason: str) -> None:
        if not last:
            raise QueueCorruptionError(f"{path}:{lineno}: {reason}")

    if len(line) < 10 or line[8] != " ":
        torn_or_raise("malformed frame with valid lines after it")
        return None
    crc_hex, body = line[:8], line[9:]
    try:
        want = int(crc_hex, 16)
    except ValueError:
        torn_or_raise("bad CRC field with valid lines after it")
        return None
    if zlib.crc32(body.encode("utf-8")) != want:
        torn_or_raise("CRC mismatch with valid lines after it")
        return None
    try:
        return json.loads(body)
    except json.JSONDecodeError:
        torn_or_raise("undecodable event with valid lines after it")
        return None


class JobQueue:
    """A durable multi-producer/multi-consumer job queue.

    All state transitions are journaled before they are visible to other
    threads, and ``fsync=True`` (the default) makes each append durable
    before the call returns — a submitted job is never silently lost.

    ``backoff_base`` and ``backoff_cap`` shape the retry schedule: attempt
    *n* re-enters the queue after ``min(cap, base * 2**(n-1))`` seconds.
    """

    def __init__(
        self,
        path: str | Path,
        max_attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 5.0,
        fsync: bool = True,
        clock: Any = None,
    ) -> None:
        self.path = fsio.as_path(path)
        self._clock = resolve_clock(clock)
        self.max_attempts = max(1, max_attempts)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.fsync = fsync
        self._cond = threading.Condition()
        self._jobs: dict[int, Job] = {}
        self._next_id = 1
        self._closed = False
        self.requeued_on_recovery = 0
        self.dead_on_recovery = 0
        self._recover()
        self._handle = self.path.open("a", encoding="utf-8")

    # -- journal ------------------------------------------------------------------

    def _recover(self) -> None:
        """Fold the journal into live jobs; re-queue crashed RUNNING jobs.

        A crash mid-append can leave a torn final line. It is discarded
        logically *and* physically (the file is truncated back to the last
        complete frame) — appending after debris would glue the next event
        onto the torn line and bury it, losing an acked submission.
        """
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            return
        raw = self.path.read_bytes()
        chunks = raw.split(b"\n")
        terminated = bool(chunks) and chunks[-1] == b""
        if terminated:
            chunks.pop()
        events: list[dict[str, Any]] = []
        consumed = 0
        for idx, chunk in enumerate(chunks):
            last = idx == len(chunks) - 1
            try:
                line = chunk.decode("utf-8")
            except UnicodeDecodeError:
                if not last:
                    raise QueueCorruptionError(
                        f"{self.path}:{idx + 1}: undecodable bytes with valid "
                        f"lines after them"
                    ) from None
                break
            event = _parse_line(line, idx + 1, self.path, last=last)
            if event is None:
                break
            events.append(event)
            consumed += len(chunk) + (1 if (not last or terminated) else 0)
        for event in events:
            self._apply_event(event)
        if consumed < len(raw):
            with self.path.open("rb+") as handle:
                handle.truncate(consumed)
                if self.fsync:
                    fsio.fsync_handle(handle)
        elif raw and not terminated:
            # The final frame parsed but lost its newline; terminate it so
            # the next append starts a fresh line.
            with self.path.open("ab") as handle:
                handle.write(b"\n")
                if self.fsync:
                    fsio.fsync_handle(handle)
        now = self._clock.time()
        for job in self._jobs.values():
            if job.state != RUNNING:
                continue
            # Claimed but never finished: the crash signature. The claim
            # already spent an attempt, so a job that crashes the process
            # every time runs out of attempts instead of looping forever.
            if job.attempts >= job.max_attempts:
                job.state = DEAD
                job.error = job.error or "process died while the job was running"
                job.finished_at = now
                self.dead_on_recovery += 1
            else:
                job.state = PENDING
                job.not_before = now  # no backoff: the job did not fail
                self.requeued_on_recovery += 1

    def _apply_event(self, event: dict[str, Any]) -> None:
        kind = event.get("ev")
        if kind == "enqueue":
            job = Job(
                job_id=int(event["id"]),
                kind=str(event["kind"]),
                payload=dict(event.get("payload") or {}),
                max_attempts=int(event.get("max_attempts", self.max_attempts)),
                enqueued_at=float(event.get("at", 0.0)),
            )
            self._jobs[job.job_id] = job
            self._next_id = max(self._next_id, job.job_id + 1)
            return
        job = self._jobs.get(int(event.get("id", -1)))
        if job is None:
            raise QueueCorruptionError(
                f"{self.path}: event {kind!r} for unknown job {event.get('id')!r}"
            )
        if kind == "claim":
            job.state = RUNNING
            job.attempts = int(event.get("attempts", job.attempts + 1))
        elif kind == "done":
            job.state = DONE
            job.result = event.get("result")
            job.finished_at = float(event.get("at", 0.0))
        elif kind == "fail":
            job.state = PENDING
            job.error = event.get("error")
            job.not_before = float(event.get("retry_at", 0.0))
        elif kind == "dead":
            job.state = DEAD
            job.error = event.get("error")
            job.finished_at = float(event.get("at", 0.0))
        else:
            raise QueueCorruptionError(f"{self.path}: unknown event {kind!r}")

    def _append(self, event: dict[str, Any]) -> None:
        if self._closed:
            raise JobError("queue is closed")
        self._handle.write(_frame(event))
        self._handle.flush()
        if self.fsync:
            fsio.fsync_handle(self._handle)

    def compact(self) -> None:
        """Atomically rewrite the journal to one snapshot line per job.

        Dropping DONE/DEAD history is the caller's choice via
        :meth:`forget_finished`; compaction itself is lossless.
        """
        with self._cond:
            if self._closed:
                raise JobError("queue is closed")
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            with tmp.open("w", encoding="utf-8") as handle:
                for job in sorted(self._jobs.values(), key=lambda j: j.job_id):
                    handle.write(_frame({
                        "ev": "enqueue", "id": job.job_id, "kind": job.kind,
                        "payload": job.payload, "max_attempts": job.max_attempts,
                        "at": job.enqueued_at,
                    }))
                    if job.attempts:
                        handle.write(_frame({
                            "ev": "claim", "id": job.job_id, "attempts": job.attempts,
                        }))
                    if job.state == DONE:
                        handle.write(_frame({
                            "ev": "done", "id": job.job_id, "result": job.result,
                            "at": job.finished_at or 0.0,
                        }))
                    elif job.state == DEAD:
                        handle.write(_frame({
                            "ev": "dead", "id": job.job_id, "error": job.error,
                            "at": job.finished_at or 0.0,
                        }))
                    elif job.state == PENDING and job.attempts:
                        handle.write(_frame({
                            "ev": "fail", "id": job.job_id, "error": job.error,
                            "retry_at": job.not_before,
                        }))
                handle.flush()
                fsio.fsync_handle(handle)
            self._handle.close()
            fsio.replace(tmp, self.path)
            _fsync_dir(self.path.parent)
            self._handle = self.path.open("a", encoding="utf-8")

    def forget_finished(self) -> int:
        """Drop DONE/DEAD jobs from memory, then compact; returns dropped."""
        with self._cond:
            doomed = [jid for jid, j in self._jobs.items() if j.state in (DONE, DEAD)]
            for jid in doomed:
                del self._jobs[jid]
        self.compact()
        return len(doomed)

    # -- producer API --------------------------------------------------------------

    def submit(
        self,
        kind: str,
        payload: dict[str, Any] | None = None,
        max_attempts: int | None = None,
    ) -> Job:
        """Durably enqueue a job; it is recoverable once this returns."""
        with self._cond:
            if self._closed:
                raise JobError("queue is closed")
            job = Job(
                job_id=self._next_id,
                kind=kind,
                payload=dict(payload or {}),
                max_attempts=self.max_attempts if max_attempts is None else max_attempts,
                enqueued_at=self._clock.time(),
            )
            self._next_id += 1
            self._append({
                "ev": "enqueue", "id": job.job_id, "kind": job.kind,
                "payload": job.payload, "max_attempts": job.max_attempts,
                "at": job.enqueued_at,
            })
            self._jobs[job.job_id] = job
            self._clock.notify(self._cond)
            return job

    # -- consumer API --------------------------------------------------------------

    def _next_ready(self, now: float) -> Job | None:
        best: Job | None = None
        for job in self._jobs.values():
            if job.state != PENDING or job.not_before > now:
                continue
            if best is None or job.job_id < best.job_id:
                best = job
        return best

    def claim(self, timeout: float | None = None) -> Job | None:
        """Pop the oldest ready job (FIFO by id), blocking until one exists.

        Returns ``None`` on timeout or once the queue is closed and no job
        is ready. Claiming spends an attempt and journals the transition,
        so a claim is visible to crash recovery immediately.
        """
        self._clock.tick("queue.claim")
        deadline = None if timeout is None else self._clock.monotonic() + timeout
        with self._cond:
            while True:
                # A closed queue hands out nothing, even with ready PENDING
                # jobs — claiming would journal to a closed file. Those jobs
                # stay PENDING and run after the next open.
                if self._closed:
                    return None
                now = self._clock.time()
                job = self._next_ready(now)
                if job is not None:
                    # Journal first: if the append fails the job is still
                    # PENDING in memory, not half-claimed.
                    self._append({
                        "ev": "claim", "id": job.job_id, "attempts": job.attempts + 1,
                    })
                    job.state = RUNNING
                    job.attempts += 1
                    return job
                # Wake when notified, when the nearest backoff gate opens,
                # or at the caller's deadline — whichever comes first.
                waits = []
                if deadline is not None:
                    remaining = deadline - self._clock.monotonic()
                    if remaining <= 0:
                        return None
                    waits.append(remaining)
                gates = [
                    j.not_before - now
                    for j in self._jobs.values()
                    if j.state == PENDING and j.not_before > now
                ]
                if gates:
                    waits.append(max(0.0, min(gates)))
                self._clock.wait(self._cond, min(waits) if waits else None)

    def complete(self, job: Job, result: dict[str, Any] | None = None) -> None:
        """Mark a RUNNING job DONE (call after its effects are durable)."""
        self._clock.tick("queue.ack", str(job.job_id))
        with self._cond:
            self._expect(job, RUNNING)
            self._append({
                "ev": "done", "id": job.job_id, "result": result,
                "at": self._clock.time(),
            })
            job.state = DONE
            job.result = result
            job.finished_at = self._clock.time()
            self._clock.notify_all(self._cond)

    def fail(self, job: Job, error: str) -> str:
        """Record a failed attempt: re-queue with backoff, or dead-letter.

        Returns the job's new state (``pending`` or ``dead``).
        """
        self._clock.tick("queue.fail", str(job.job_id))
        with self._cond:
            self._expect(job, RUNNING)
            now = self._clock.time()
            if job.attempts >= job.max_attempts:
                self._append({
                    "ev": "dead", "id": job.job_id, "error": error, "at": now,
                })
                job.state = DEAD
                job.error = error
                job.finished_at = now
            else:
                delay = min(
                    self.backoff_cap,
                    self.backoff_base * (2 ** (job.attempts - 1)),
                )
                retry_at = now + delay
                self._append({
                    "ev": "fail", "id": job.job_id, "error": error,
                    "retry_at": retry_at,
                })
                job.state = PENDING
                job.error = error
                job.not_before = retry_at
            self._clock.notify_all(self._cond)
            return job.state

    def _expect(self, job: Job, state: str) -> None:
        live = self._jobs.get(job.job_id)
        if live is not job:
            raise JobError(f"job {job.job_id} is not tracked by this queue")
        if job.state != state:
            raise JobError(f"job {job.job_id} is {job.state}, expected {state}")

    # -- introspection -------------------------------------------------------------

    def get(self, job_id: int) -> Job:
        with self._cond:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise JobError(f"no such job {job_id}") from None

    def jobs(self, states: Iterable[str] | None = None) -> list[Job]:
        wanted = set(states) if states is not None else None
        with self._cond:
            return [
                job for job in sorted(self._jobs.values(), key=lambda j: j.job_id)
                if wanted is None or job.state in wanted
            ]

    def counts(self) -> dict[str, int]:
        out = dict.fromkeys(_STATES, 0)
        with self._cond:
            for job in self._jobs.values():
                out[job.state] += 1
        return out

    def depth(self) -> int:
        """Jobs still owed work (queue-depth metric)."""
        with self._cond:
            return sum(
                1 for j in self._jobs.values() if j.state in (PENDING, RUNNING)
            )

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no job is PENDING or RUNNING; False on timeout."""
        deadline = None if timeout is None else self._clock.monotonic() + timeout
        with self._cond:
            while any(
                j.state in (PENDING, RUNNING) for j in self._jobs.values()
            ):
                remaining = None
                if deadline is not None:
                    remaining = deadline - self._clock.monotonic()
                    if remaining <= 0:
                        return False
                self._clock.wait(self._cond, remaining)
            return True

    def wait_job(self, job_id: int, timeout: float | None = None) -> bool:
        """Block until job *job_id* is DONE or DEAD; False on timeout.

        Woken by :meth:`complete` and :meth:`fail` through the clock seam,
        so the caller returns when the job finishes, not at the next poll.
        """
        deadline = None if timeout is None else self._clock.monotonic() + timeout
        with self._cond:
            while True:
                try:
                    state = self._jobs[job_id].state
                except KeyError:
                    raise JobError(f"no such job {job_id}") from None
                if state in (DONE, DEAD):
                    return True
                remaining = None
                if deadline is not None:
                    remaining = deadline - self._clock.monotonic()
                    if remaining <= 0:
                        return False
                self._clock.wait(self._cond, remaining)

    def close(self) -> None:
        """Stop accepting jobs and wake every blocked :meth:`claim`."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._handle.close()
            self._clock.notify_all(self._cond)

    @property
    def closed(self) -> bool:
        return self._closed
