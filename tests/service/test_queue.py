"""Durable job queue: lifecycle, retry/backoff, recovery, corruption."""

import random
import threading
import time

import pytest

from repro.errors import JobError, QueueCorruptionError
from repro.service.queue import DEAD, DONE, PENDING, RUNNING, JobQueue
from repro.simtest.clock import SIM_WALL_BASE, VirtualClock
from repro.simtest.sched import StepScheduler


@pytest.fixture
def path(tmp_path):
    return tmp_path / "queue.jobs"


def make_queue(path, **kw):
    kw.setdefault("fsync", False)  # the tests that care opt back in
    return JobQueue(path, **kw)


class TestLifecycle:
    def test_submit_claim_complete(self, path):
        queue = make_queue(path)
        job = queue.submit("apply", {"spec": "Scrub", "uid": 7})
        assert job.state == PENDING and job.job_id == 1
        assert queue.depth() == 1

        claimed = queue.claim(timeout=0)
        assert claimed is job
        assert claimed.state == RUNNING and claimed.attempts == 1

        queue.complete(claimed, {"did": 42})
        assert job.state == DONE and job.result == {"did": 42}
        assert queue.depth() == 0
        assert queue.counts()[DONE] == 1

    def test_claims_are_fifo(self, path):
        queue = make_queue(path)
        ids = [queue.submit("apply", {"n": n}).job_id for n in range(5)]
        claimed = [queue.claim(timeout=0).job_id for _ in range(5)]
        assert claimed == ids

    def test_claim_empty_returns_none(self, path):
        queue = make_queue(path)
        assert queue.claim(timeout=0) is None

    def test_claim_blocks_until_submit(self, path):
        queue = make_queue(path)
        got = []

        def consumer():
            got.append(queue.claim(timeout=5.0))

        thread = threading.Thread(target=consumer, daemon=True)
        thread.start()
        time.sleep(0.02)
        job = queue.submit("apply", {})
        thread.join(5.0)
        assert got == [job]

    def test_submit_after_close_raises(self, path):
        queue = make_queue(path)
        queue.close()
        with pytest.raises(JobError):
            queue.submit("apply", {})

    def test_close_wakes_blocked_claim(self, path):
        queue = make_queue(path)
        got = ["sentinel"]

        def consumer():
            got[0] = queue.claim(timeout=10.0)

        thread = threading.Thread(target=consumer, daemon=True)
        thread.start()
        time.sleep(0.02)
        queue.close()
        thread.join(5.0)
        assert got[0] is None

    def test_wait_idle(self, path):
        queue = make_queue(path)
        assert queue.wait_idle(timeout=0.01)
        job = queue.submit("apply", {})
        assert not queue.wait_idle(timeout=0.01)
        queue.claim(timeout=0)
        queue.complete(job, None)
        assert queue.wait_idle(timeout=1.0)


class TestRetry:
    def test_fail_requeues_with_backoff(self, path):
        queue = make_queue(path, max_attempts=3, backoff_base=0.05)
        job = queue.submit("apply", {})
        queue.claim(timeout=0)
        state = queue.fail(job, "boom")
        assert state == PENDING
        assert job.error == "boom"
        # Inside the backoff window the job is not claimable.
        assert queue.claim(timeout=0) is None
        deadline = time.monotonic() + 5.0
        reclaimed = None
        while reclaimed is None and time.monotonic() < deadline:
            reclaimed = queue.claim(timeout=0.05)
        assert reclaimed is job
        assert job.attempts == 2

    def test_backoff_grows_exponentially(self, path):
        queue = make_queue(path, max_attempts=5, backoff_base=0.1, backoff_cap=10.0)
        job = queue.submit("apply", {})
        gaps = []
        for _ in range(3):
            claimed = None
            while claimed is None:
                claimed = queue.claim(timeout=0.05)
            queue.fail(job, "boom")
            gaps.append(job.not_before - time.time())
        assert gaps[0] < gaps[1] < gaps[2]

    def test_dead_letter_after_max_attempts(self, path):
        queue = make_queue(path, max_attempts=2, backoff_base=0.0)
        job = queue.submit("apply", {})
        queue.claim(timeout=0)
        assert queue.fail(job, "first") == PENDING
        queue.claim(timeout=0)
        assert queue.fail(job, "second") == DEAD
        assert job.state == DEAD and job.error == "second"
        assert queue.claim(timeout=0) is None
        assert queue.depth() == 0  # dead jobs are not owed work

    def test_per_job_max_attempts_override(self, path):
        queue = make_queue(path, max_attempts=5, backoff_base=0.0)
        job = queue.submit("apply", {}, max_attempts=1)
        queue.claim(timeout=0)
        assert queue.fail(job, "boom") == DEAD


class TestRecovery:
    def test_states_survive_reopen(self, path):
        queue = make_queue(path, fsync=True)
        done = queue.submit("apply", {"uid": 1})
        running = queue.submit("apply", {"uid": 2})
        pending = queue.submit("apply", {"uid": 3})
        queue.claim(timeout=0)
        queue.complete(done, {"did": 1})
        queue.claim(timeout=0)  # `running` claimed, never finished: the crash
        queue.close()

        recovered = make_queue(path)
        assert recovered.get(done.job_id).state == DONE
        assert recovered.get(done.job_id).result == {"did": 1}
        # Acked work is never redone; claimed-but-unacked work is re-queued.
        assert recovered.get(running.job_id).state == PENDING
        assert recovered.get(running.job_id).attempts == 1
        assert recovered.get(pending.job_id).state == PENDING
        assert recovered.requeued_on_recovery == 1

    def test_recovered_job_claimable_immediately(self, path):
        queue = make_queue(path)
        job = queue.submit("apply", {})
        queue.claim(timeout=0)
        queue.close()
        recovered = make_queue(path)
        reclaimed = recovered.claim(timeout=0)
        assert reclaimed.job_id == job.job_id
        assert reclaimed.attempts == 2

    def test_crash_looping_job_dead_letters(self, path):
        """A job that kills the process every run must not loop forever."""
        for _ in range(2):
            queue = make_queue(path, max_attempts=2)
            queue.claim(timeout=0) if queue.jobs() else queue.submit("apply", {})
            if not queue.jobs()[0].state == RUNNING:
                queue.claim(timeout=0)
            queue.close()  # crash with the job RUNNING
        recovered = make_queue(path, max_attempts=2)
        assert recovered.jobs()[0].state == DEAD
        assert recovered.dead_on_recovery == 1

    def test_torn_tail_is_tolerated(self, path):
        queue = make_queue(path, fsync=True)
        survivor = queue.submit("apply", {"uid": 1})
        queue.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('deadbeef {"ev":"enqueue","id":2,"ki')  # torn write
        recovered = make_queue(path)
        assert [j.job_id for j in recovered.jobs()] == [survivor.job_id]
        # And the journal keeps working after the torn tail.
        recovered.submit("apply", {"uid": 3})
        recovered.close()
        assert len(make_queue(path).jobs()) == 2

    def test_mid_file_corruption_raises(self, path):
        queue = make_queue(path, fsync=True)
        queue.submit("apply", {"uid": 1})
        queue.submit("apply", {"uid": 2})
        queue.close()
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[0] = "00000000" + lines[0][8:]  # break the first CRC
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(QueueCorruptionError):
            make_queue(path)

    def test_compact_preserves_state_and_shrinks(self, path):
        queue = make_queue(path, max_attempts=3, backoff_base=0.0)
        finished = queue.submit("apply", {"uid": 1})
        retried = queue.submit("apply", {"uid": 2})
        queue.claim(timeout=0)
        queue.complete(finished, {"did": 9})
        queue.claim(timeout=0)
        queue.fail(retried, "boom")
        queue.compact()
        queue.close()
        recovered = make_queue(path)
        assert recovered.get(finished.job_id).state == DONE
        assert recovered.get(finished.job_id).result == {"did": 9}
        assert recovered.get(retried.job_id).state == PENDING
        assert recovered.get(retried.job_id).attempts == 1

    def test_forget_finished_drops_history(self, path):
        queue = make_queue(path)
        done = queue.submit("apply", {})
        keep = queue.submit("apply", {})
        queue.claim(timeout=0)
        queue.complete(done, None)
        assert queue.forget_finished() == 1
        queue.close()
        recovered = make_queue(path)
        assert [j.job_id for j in recovered.jobs()] == [keep.job_id]
        # Ids are not reused after compaction.
        assert recovered.submit("apply", {}).job_id > keep.job_id


class TestConcurrency:
    def test_many_producers_many_consumers_no_loss(self, path):
        queue = make_queue(path)
        total = 200
        claimed = []
        mu = threading.Lock()

        def producer(base):
            for n in range(total // 4):
                queue.submit("apply", {"n": base + n})

        def consumer():
            while True:
                job = queue.claim(timeout=0.5)
                if job is None:
                    return
                queue.complete(job, None)
                with mu:
                    claimed.append(job.job_id)

        producers = [
            threading.Thread(target=producer, args=(i * 1000,), daemon=True)
            for i in range(4)
        ]
        consumers = [threading.Thread(target=consumer, daemon=True) for _ in range(4)]
        for thread in producers + consumers:
            thread.start()
        for thread in producers:
            thread.join(30.0)
        assert queue.wait_idle(timeout=30.0)
        queue.close()
        for thread in consumers:
            thread.join(5.0)
        assert sorted(claimed) == sorted(j.job_id for j in queue.jobs())
        assert len(claimed) == total
        assert queue.counts()[DONE] == total


class TestWaitJob:
    def test_returns_when_another_thread_completes(self, path):
        queue = make_queue(path)
        job = queue.submit("apply", {})

        def worker():
            claimed = queue.claim(timeout=5.0)
            time.sleep(0.02)
            queue.complete(claimed, {"ok": True})

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        assert queue.wait_job(job.job_id, timeout=5.0) is True
        assert job.state == DONE
        thread.join(5.0)

    def test_dead_letter_ends_the_wait_but_a_retry_does_not(self, path):
        queue = make_queue(path, max_attempts=2, backoff_base=0.0)
        job = queue.submit("apply", {})
        queue.fail(queue.claim(timeout=0), "first")
        assert queue.wait_job(job.job_id, timeout=0) is False  # pending again
        queue.fail(queue.claim(timeout=0), "second")
        assert queue.wait_job(job.job_id, timeout=0) is True
        assert job.state == DEAD

    def test_times_out(self, path):
        queue = make_queue(path)
        job = queue.submit("apply", {})
        assert queue.wait_job(job.job_id, timeout=0.01) is False
        assert job.state == PENDING

    def test_unknown_job_raises(self, path):
        with pytest.raises(JobError):
            make_queue(path).wait_job(99, timeout=0)

    @pytest.mark.parametrize("finish_at", [0.0, 0.123, 2.5])
    def test_returns_at_the_virtual_time_the_job_finishes(self, path, finish_at):
        """Under a virtual clock the waiter returns at exactly the time the
        job finishes — a poll loop would return on its next tick after."""
        sched = StepScheduler(random.Random(0))
        clock = VirtualClock(sched)
        queue = make_queue(path, clock=clock)
        job = queue.submit("apply", {})

        def worker():
            claimed = queue.claim()
            clock.sleep(finish_at)
            queue.complete(claimed, {"ok": True})

        handle = clock.spawn(worker, name="worker")
        assert queue.wait_job(job.job_id) is True
        assert job.finished_at == SIM_WALL_BASE + finish_at
        assert clock.monotonic() == finish_at
        handle.join()


class TestClosedQueue:
    """Regression: close() must fence every journaling entry point.

    Before the fix, claim() handed out ready PENDING jobs after close and
    complete()/fail() hit _append() on the closed journal file, raising a
    raw ValueError that killed worker threads and lost done-acks.
    """

    def test_close_stops_claims_even_with_ready_jobs(self, path):
        queue = make_queue(path)
        job = queue.submit("apply", {"n": 1})
        queue.close()
        assert queue.claim(timeout=0) is None
        assert job.state == PENDING  # untouched: runs after the next open
        reopened = make_queue(path)
        assert reopened.claim(timeout=0).job_id == job.job_id

    def test_complete_and_fail_raise_joberror_after_close(self, path):
        queue = make_queue(path)
        queue.submit("apply", {})
        job = queue.claim(timeout=0)
        queue.close()
        with pytest.raises(JobError):
            queue.complete(job, {"ok": True})
        with pytest.raises(JobError):
            queue.fail(job, "boom")
        # Neither call mutated the job before the append was refused; the
        # claim is journaled, so recovery re-queues it.
        assert job.state == RUNNING
        reopened = make_queue(path)
        assert reopened.get(job.job_id).state == PENDING
        assert reopened.requeued_on_recovery == 1

    def test_compact_refused_after_close(self, path):
        queue = make_queue(path)
        queue.submit("apply", {})
        queue.close()
        with pytest.raises(JobError):
            queue.compact()
        with pytest.raises(JobError):
            queue.forget_finished()
