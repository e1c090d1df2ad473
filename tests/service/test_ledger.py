"""Lease state machine + journal replay tests for the fleet ledger."""

from __future__ import annotations

import json
import multiprocessing as mp

import pytest

from repro.service.ledger import (
    LEASE_DEAD_LETTER,
    LEASE_FINISHED,
    LEASE_LEASED,
    LEASE_PENDING,
    LEDGER_FORMAT,
    JobLedger,
)

pytestmark = pytest.mark.service

SPEC = {"format": 1, "scenarios": [], "tier": "ilp", "time_limit": 5.0}


class TestLeaseStateMachine:
    def test_claim_is_fifo_and_leases_with_ttl(self):
        ledger = JobLedger(lease_ttl=10.0)
        ledger.enqueue("job-a", SPEC)
        ledger.enqueue("job-b", SPEC)
        first = ledger.claim("w0", now=100.0)
        assert first.id == "job-a"
        assert first.state == LEASE_LEASED
        assert first.worker == "w0"
        assert first.attempts == 1
        assert first.lease_expires == 110.0
        assert ledger.claim("w1", now=100.0).id == "job-b"
        assert ledger.claim("w2", now=100.0) is None  # drained

    def test_enqueue_is_idempotent(self):
        ledger = JobLedger()
        job = ledger.enqueue("job-a", SPEC)
        assert ledger.enqueue("job-a", SPEC) is job

    def test_heartbeat_renews_only_active_leases(self):
        ledger = JobLedger(lease_ttl=10.0)
        ledger.enqueue("job-a", SPEC)
        ledger.claim("w0", now=100.0)
        assert ledger.heartbeat("job-a", now=105.0)
        assert ledger.get("job-a").lease_expires == 115.0
        ledger.finish("job-a", "done")
        assert not ledger.heartbeat("job-a", now=106.0)  # stale worker
        assert not ledger.heartbeat("nope", now=106.0)

    def test_expired_reports_lapsed_leases_once(self):
        ledger = JobLedger(lease_ttl=10.0)
        ledger.enqueue("job-a", SPEC)
        ledger.claim("w0", now=100.0)
        assert ledger.expired(now=105.0) == []  # still alive
        lapsed = ledger.expired(now=111.0)
        assert [job.id for job in lapsed] == ["job-a"]
        assert ledger.expired(now=112.0) == []  # not double-counted
        assert ledger.counts()["leases_expired"] == 1

    def test_fail_attempt_backs_off_exponentially(self):
        ledger = JobLedger(max_attempts=5, backoff_base=1.0, backoff_cap=30.0)
        ledger.enqueue("job-a", SPEC)
        gates = []
        for _ in range(4):
            ledger.claim("w0", now=1000.0)
            assert ledger.fail_attempt("job-a", "boom", now=1000.0) == LEASE_PENDING
            gates.append(ledger.get("job-a").not_before - 1000.0)
            ledger.get("job-a").not_before = 0.0  # reopen the gate for the test
        assert gates == [1.0, 2.0, 4.0, 8.0]

    def test_backoff_gate_blocks_claims_until_not_before(self):
        ledger = JobLedger(backoff_base=5.0)
        ledger.enqueue("job-a", SPEC)
        ledger.claim("w0", now=100.0)
        ledger.fail_attempt("job-a", "boom", now=100.0)
        assert ledger.claim("w0", now=102.0) is None  # inside backoff
        assert ledger.claim("w0", now=106.0).id == "job-a"

    def test_dead_letter_after_max_attempts(self):
        ledger = JobLedger(max_attempts=2, backoff_base=0.0)
        ledger.enqueue("job-a", SPEC)
        ledger.claim("w0", now=100.0)
        assert ledger.fail_attempt("job-a", "boom 1", now=100.0) == LEASE_PENDING
        ledger.claim("w0", now=200.0)
        assert ledger.fail_attempt("job-a", "boom 2", now=200.0) == LEASE_DEAD_LETTER
        job = ledger.get("job-a")
        assert job.state == LEASE_DEAD_LETTER
        assert job.last_error == "boom 2"
        assert [j.id for j in ledger.dead_letters()] == ["job-a"]
        assert ledger.claim("w0", now=300.0) is None  # never retried again
        assert ledger.fail_attempt("job-a", "late", now=300.0) is None  # terminal
        counts = ledger.counts()
        assert counts["dead_letters"] == 1
        assert counts["by_state"] == {LEASE_DEAD_LETTER: 1}

    def test_requeue_for_restart_refunds_the_attempt(self):
        ledger = JobLedger(max_attempts=1)
        ledger.enqueue("job-a", SPEC)
        ledger.claim("w0", now=100.0)
        assert ledger.requeue_for_restart("job-a", "shutdown")
        job = ledger.get("job-a")
        assert job.state == LEASE_PENDING
        assert job.attempts == 0  # the drain did not burn the only attempt
        # The refunded attempt is immediately claimable and still has its
        # full budget: a real failure now dead-letters (max_attempts=1).
        ledger.claim("w0", now=101.0)
        assert ledger.fail_attempt("job-a", "boom", now=101.0) == LEASE_DEAD_LETTER

    def test_depth_counts_unfinished_only(self):
        ledger = JobLedger()
        ledger.enqueue("job-a", SPEC)
        ledger.enqueue("job-b", SPEC)
        ledger.claim("w0")
        assert ledger.depth() == 2
        ledger.finish("job-a", "done")
        assert ledger.depth() == 1
        assert ledger.get("job-a").state == LEASE_FINISHED
        assert ledger.get("job-a").outcome == "done"


class TestJournalReplay:
    def test_restart_replays_pending_and_finished(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with JobLedger(path) as ledger:
            ledger.enqueue("job-a", SPEC)
            ledger.enqueue("job-b", SPEC)
            ledger.claim("w0", now=100.0)
            ledger.finish("job-a", "done")
        replayed = JobLedger(path)
        assert replayed.get("job-a").state == LEASE_FINISHED
        assert replayed.get("job-a").outcome == "done"
        assert replayed.get("job-b").state == LEASE_PENDING
        assert replayed.get("job-b").spec == SPEC
        assert replayed.replay_skipped == 0
        replayed.close()

    def test_leased_jobs_requeue_on_restart_without_burning_budget(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with JobLedger(path, max_attempts=1) as ledger:
            ledger.enqueue("job-a", SPEC)
            ledger.claim("w0", now=100.0)
        replayed = JobLedger(path, max_attempts=1)
        job = replayed.get("job-a")
        assert job.state == LEASE_PENDING
        assert job.attempts == 0  # refunded: the process died, not the job
        assert replayed.claim("w1") is not None  # immediately claimable
        replayed.close()
        # A third restart replays w1's claim and requeues it in turn —
        # restarts are idempotent, the budget refund never goes negative.
        third = JobLedger(path, max_attempts=1)
        assert third.get("job-a").state == LEASE_PENDING
        assert third.get("job-a").attempts == 0
        third.close()

    def test_dead_letters_survive_restart(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with JobLedger(path, max_attempts=1) as ledger:
            ledger.enqueue("job-a", SPEC)
            ledger.claim("w0", now=100.0)
            ledger.fail_attempt("job-a", "boom", now=100.0)
        replayed = JobLedger(path)
        job = replayed.get("job-a")
        assert job.state == LEASE_DEAD_LETTER
        assert job.last_error == "boom"
        replayed.close()

    def test_backoff_gate_survives_restart(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with JobLedger(path, max_attempts=3, backoff_base=1000.0) as ledger:
            ledger.enqueue("job-a", SPEC)
            ledger.claim("w0")
            ledger.fail_attempt("job-a", "boom")
        replayed = JobLedger(path)
        job = replayed.get("job-a")
        assert job.state == LEASE_PENDING
        assert job.attempts == 1  # a *failed* attempt is not refunded
        assert replayed.claim("w0") is None  # still backing off
        replayed.close()

    def test_torn_and_stale_lines_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with JobLedger(path) as ledger:
            ledger.enqueue("job-a", SPEC)
        with path.open("a") as fh:
            fh.write(json.dumps({"format": 999, "event": "enqueued"}) + "\n")
            fh.write(json.dumps({"format": LEDGER_FORMAT, "job": "ghost",
                                 "event": "leased"}) + "\n")
            fh.write('{"torn')  # no newline: crashed writer
        replayed = JobLedger(path)
        assert replayed.get("job-a").state == LEASE_PENDING
        assert replayed.replay_skipped == 2  # stale format + orphan lease
        replayed.close()

    def test_heartbeats_are_journaled_lazily_but_replayed(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        with JobLedger(path, lease_ttl=10.0) as ledger:
            ledger.enqueue("job-a", SPEC)
            ledger.claim("w0", now=100.0)
            ledger.heartbeat("job-a", now=500.0)
        # Replay sees the renewed expiry before deciding the job was
        # leased (then requeues it, because this process owns no worker).
        replayed = JobLedger(path)
        assert replayed.get("job-a").state == LEASE_PENDING
        replayed.close()


def _ledger_hammer(path: str, worker: int, jobs: int) -> None:
    ledger = JobLedger(path)
    for i in range(jobs):
        job_id = f"job-{worker:02d}-{i:03d}"
        ledger.enqueue(job_id, dict(SPEC, meta_pad="x" * 256))
        claimed = ledger.claim(f"w{worker}")
        if claimed is not None:
            ledger.heartbeat(claimed.id)
            ledger.finish(claimed.id, "done")
    ledger.close()


class TestMultiprocessHammer:
    def test_zero_torn_or_duplicate_lines(self, tmp_path):
        """N processes share one journal: every line whole, no dup enqueues."""
        path = tmp_path / "ledger.jsonl"
        writers, jobs = 4, 20
        ctx = mp.get_context("spawn")
        procs = [
            ctx.Process(target=_ledger_hammer, args=(str(path), w, jobs))
            for w in range(writers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0

        enqueued = []
        for line in path.read_text().splitlines():
            record = json.loads(line)  # every line parses — zero torn
            assert record["format"] == LEDGER_FORMAT
            if record["event"] == "enqueued":
                enqueued.append(record["job"])
        assert len(enqueued) == writers * jobs
        assert len(set(enqueued)) == len(enqueued)  # zero duplicates


class TestLiveIndexScaling:
    """Scheduler scans walk live jobs, not every job the ledger has seen."""

    @staticmethod
    def _claim_and_depth_cost(terminal: int) -> float:
        import time

        ledger = JobLedger()
        for index in range(terminal):
            ledger.enqueue(f"old-{index}", SPEC)
            ledger.finish(f"old-{index}", "done")
        ledger.enqueue("live", SPEC)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(100):
                lease = ledger.claim("w0", now=100.0)
                assert lease.id == "live" and ledger.depth() == 1
                ledger.requeue_for_restart("live")
            best = min(best, time.perf_counter() - start)
        return best

    def test_claim_and_depth_do_not_scale_with_finished_jobs(self):
        small = self._claim_and_depth_cost(200)
        large = self._claim_and_depth_cost(20_000)
        assert large <= 5 * small, (small, large)

    def test_finished_jobs_stay_queryable(self):
        ledger = JobLedger()
        ledger.enqueue("job-a", SPEC)
        ledger.finish("job-a", "done")
        assert ledger.get("job-a").state == LEASE_FINISHED
        assert [job.id for job in ledger.jobs()] == ["job-a"]
        assert ledger.pending_snapshot() == [] and ledger.depth() == 0
