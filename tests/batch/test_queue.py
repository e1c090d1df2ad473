"""Scheduling semantics (lanes, aging, depth), CancelToken, map_all hooks.

The daemon's job queue is the pending side of a
:class:`~repro.service.ledger.JobLedger` — in memory in thread mode,
journaled under ``--fleet`` — so the queue tests drive a ledger.  Claims
take an explicit ``now`` and records' ``enqueued_at`` is set directly,
which keeps the aging tests clock-free.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.batch.engine import BatchMapper
from repro.batch.queue import CancelToken, QueueFull, effective_priority
from repro.dse.scenario import ArchitectureSpec, FormulationSpec, Scenario, WorkloadSpec
from repro.service.daemon import MappingService
from repro.service.ledger import JobLedger
from repro.service.wire import JobSpec

pytestmark = pytest.mark.batch

SPEC = {"format": 1, "scenarios": [], "tier": "ilp"}


def _claim_id(ledger: JobLedger, now: float | None = None) -> str | None:
    lease = ledger.claim("w", now=now)
    return None if lease is None else lease.id


class TestCancelToken:
    def test_starts_live_and_cancels_once(self):
        token = CancelToken()
        assert not token.cancelled
        assert token() is False
        token.cancel()
        assert token.cancelled
        assert token() is True  # callable form == should_cancel hook


class TestJobQueue:
    def test_fifo_order(self):
        ledger = JobLedger()
        ledger.enqueue("a", SPEC)
        ledger.enqueue("b", SPEC)
        assert _claim_id(ledger) == "a"
        assert _claim_id(ledger) == "b"

    def test_wait_returns_after_timeout_without_work(self):
        ledger = JobLedger()
        start = time.monotonic()
        ledger.wait(timeout=0.05)
        assert 0.04 <= time.monotonic() - start < 3.0
        assert _claim_id(ledger) is None

    def test_enqueue_wakes_a_blocked_claimer(self):
        ledger = JobLedger()
        woke: list[float] = []

        def _blocked_wait() -> None:
            ledger.wait(timeout=30)
            woke.append(time.monotonic())

        thread = threading.Thread(target=_blocked_wait)
        thread.start()
        time.sleep(0.05)  # let it block
        enqueued = time.monotonic()
        ledger.enqueue("a", SPEC)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert woke[0] - enqueued < 1.0  # woken by the enqueue, not a timeout
        assert _claim_id(ledger) == "a"

    def test_cancelled_while_queued_is_dropped(self):
        ledger = JobLedger()
        ledger.enqueue("doomed", SPEC)
        ledger.enqueue("fine", SPEC)
        ledger.finish("doomed", "cancelled")
        assert _claim_id(ledger) == "fine"
        assert _claim_id(ledger) is None

    def test_len_ignores_cancelled(self):
        ledger = JobLedger()
        ledger.enqueue("a", SPEC)
        ledger.enqueue("b", SPEC)
        assert ledger.depth() == 2
        ledger.finish("a", "cancelled")
        assert ledger.depth() == 1

    def test_close_refuses_pushes_and_wakes_poppers(self):
        ledger = JobLedger()
        returned: list[bool] = []

        def _blocked_wait() -> None:
            ledger.wait(timeout=30)
            returned.append(ledger.closed)

        thread = threading.Thread(target=_blocked_wait)
        thread.start()
        time.sleep(0.05)
        ledger.close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert returned == [True]
        with pytest.raises(RuntimeError, match="closed"):
            ledger.enqueue("late", SPEC)

    def test_close_drains_remaining_items(self):
        ledger = JobLedger()
        ledger.enqueue("left-over", SPEC)
        ledger.close()
        assert _claim_id(ledger) == "left-over"
        assert _claim_id(ledger) is None


class TestBoundedDepth:
    """``max_depth`` bounds outstanding jobs: pending plus leased."""

    def test_push_beyond_maxsize_raises_queue_full(self):
        ledger = JobLedger()
        ledger.enqueue("a", SPEC, max_depth=2)
        ledger.enqueue("b", SPEC, max_depth=2)
        with pytest.raises(QueueFull, match="bounded depth"):
            ledger.enqueue("c", SPEC, max_depth=2)
        assert ledger.get("c") is None

    def test_cancelled_items_free_their_slot(self):
        ledger = JobLedger()
        ledger.enqueue("a", SPEC, max_depth=1)
        ledger.finish("a", "cancelled")
        ledger.enqueue("b", SPEC, max_depth=1)  # the cancelled job no longer counts

    def test_finish_reopens_capacity(self):
        ledger = JobLedger()
        ledger.enqueue("a", SPEC, max_depth=1)
        assert _claim_id(ledger) == "a"
        with pytest.raises(QueueFull):  # a running job is still outstanding
            ledger.enqueue("b", SPEC, max_depth=1)
        ledger.finish("a", "done")
        ledger.enqueue("b", SPEC, max_depth=1)

    def test_unbounded_by_default(self):
        ledger = JobLedger()
        for index in range(1000):
            ledger.enqueue(f"job-{index}", SPEC)
        assert ledger.depth() == 1000

    def test_concurrent_submits_never_overshoot(self):
        ledger = JobLedger()
        accepted: list[str] = []
        rejected: list[str] = []
        barrier = threading.Barrier(8)

        def _submit(worker: int) -> None:
            barrier.wait()
            for index in range(25):
                job_id = f"w{worker}-{index}"
                try:
                    ledger.enqueue(job_id, SPEC, max_depth=10)
                    accepted.append(job_id)
                except QueueFull:
                    rejected.append(job_id)

        threads = [threading.Thread(target=_submit, args=(w,)) for w in range(8)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # preempt often, so a racy check overshoots
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(accepted) == 10
        assert len(rejected) == 8 * 25 - 10
        assert ledger.depth() == 10

    def test_maxsize_below_one_rejected(self):
        with pytest.raises(ValueError):
            MappingService(max_queue_depth=0)

    def test_queue_full_carries_retry_after(self):
        error = QueueFull("full", retry_after=4.5)
        assert error.retry_after == 4.5
        assert QueueFull().retry_after is None


class TestPriorityLanes:
    def test_effective_priority_scores(self):
        assert effective_priority("high", 0.0) == 0.0
        assert effective_priority("batch", 0.0) == 2.0
        # 2 aging intervals of waiting promote batch to fresh-high level.
        assert effective_priority("batch", 60.0, aging_interval=30.0) == 0.0

    def test_pop_order_is_high_normal_batch(self):
        ledger = JobLedger()
        for job_id, lane in (("b", "batch"), ("n", "normal"), ("h", "high")):
            ledger.enqueue(job_id, SPEC, priority=lane).enqueued_at = 100.0
        assert [_claim_id(ledger, now=100.0) for _ in range(3)] == ["h", "n", "b"]

    def test_fifo_within_a_lane(self):
        ledger = JobLedger()
        ledger.enqueue("first", SPEC, priority="high").enqueued_at = 100.0
        ledger.enqueue("second", SPEC, priority="high").enqueued_at = 100.0
        assert _claim_id(ledger, now=100.0) == "first"

    def test_unknown_priority_rejected(self):
        with pytest.raises(ValueError, match="priority"):
            JobLedger().enqueue("x", SPEC, priority="urgent")

    def test_aged_batch_beats_fresh_high(self):
        ledger = JobLedger(aging_interval=1.0)
        ledger.enqueue("starved", SPEC, priority="batch").enqueued_at = 0.0
        # batch score at t=3: 2 - 3/1 = -1 < fresh high's 0
        ledger.enqueue("fresh", SPEC, priority="high").enqueued_at = 3.0
        assert _claim_id(ledger, now=3.0) == "starved"
        assert _claim_id(ledger, now=3.0) == "fresh"

    def test_no_starvation_under_steady_high_traffic(self):
        """A batch job outlasts any stream of fresh high-priority work."""
        ledger = JobLedger(aging_interval=1.0)
        ledger.enqueue("batch-job", SPEC, priority="batch").enqueued_at = 0.0
        now = 0.0
        claimed = []
        for index in range(10):
            ledger.enqueue(f"high-{index}", SPEC, priority="high").enqueued_at = now
            now += 0.5
            job_id = _claim_id(ledger, now=now)
            ledger.finish(job_id, "done")
            claimed.append(job_id)
        assert "batch-job" in claimed  # aged its way past the flood

    def test_lane_snapshot_depth_and_wait(self):
        ledger = JobLedger()
        ledger.enqueue("a", SPEC, priority="batch").enqueued_at = 100.0
        ledger.enqueue("b", SPEC, priority="batch").enqueued_at = 102.0
        snapshot = ledger.lane_snapshot(now=102.0)
        assert snapshot["batch"]["depth"] == 2
        assert snapshot["batch"]["oldest_wait"] == pytest.approx(2.0)
        assert snapshot["high"] == {"depth": 0, "oldest_wait": None}


class TestLiveDepthCounters:
    def test_cancel_flood_compacts_the_lane(self):
        ledger = JobLedger()
        for index in range(20):
            ledger.enqueue(f"job-{index}", SPEC)
        for index in range(15):
            ledger.finish(f"job-{index}", "cancelled")
        assert ledger.depth() == 5
        # Terminal jobs leave the live index the scans walk, while the
        # record map still answers for every job.
        assert len(ledger._live) == 5
        assert len(ledger.jobs()) == 20

    def test_precancelled_token_never_counts(self):
        """A job cancelled before any worker claimed it frees its slot."""
        spec = JobSpec(
            scenarios=(
                Scenario(
                    architecture=ArchitectureSpec(kind="homogeneous", dimension=12),
                    workload=WorkloadSpec(network="C", scale=0.1, profile="uniform"),
                    formulation=FormulationSpec(stages=("area",)),
                ),
            )
        )
        service = MappingService(max_queue_depth=1)  # never started
        job = service.submit(spec)
        service.cancel(job.id)
        assert job.token.cancelled
        assert service.ledger.depth() == 0
        service.submit(spec)  # not a 429
        service.stop()

    def test_snapshot_entries_lists_only_live(self):
        ledger = JobLedger()
        ledger.enqueue("doomed", SPEC, priority="batch")
        ledger.enqueue("live", SPEC, priority="high")
        ledger.finish("doomed", "cancelled")
        rows = ledger.pending_snapshot()
        assert [row.id for row in rows] == ["live"]
        assert rows[0].priority == "high"


class TestMapAllCancellationHook:
    def test_precancelled_batch_runs_nothing(self, batch_jobs):
        token = CancelToken()
        token.cancel()
        result = BatchMapper().map_all(batch_jobs, should_cancel=token)
        assert len(result.records) == len(batch_jobs)
        assert all(not record.ok for record in result.records)
        assert all("cancelled" in record.error for record in result.records)

    def test_cancel_after_first_job_stops_the_rest(self, batch_jobs):
        assert len(batch_jobs) >= 2
        token = CancelToken()
        calls = {"count": 0}

        def should_cancel() -> bool:
            # The engine polls once up front and once per job boundary;
            # cancelling on the third poll lets exactly job 0 execute.
            calls["count"] += 1
            if calls["count"] > 2:
                token.cancel()
            return token.cancelled

        result = BatchMapper().map_all(batch_jobs, should_cancel=should_cancel)
        records = result.records
        assert records[0].ok
        assert all(not record.ok for record in records[1:])
        assert all("cancelled" in record.error for record in records[1:])

    def test_precancelled_pooled_batch_never_spins_up_workers(self, batch_jobs):
        """The pre-submit check must fire before any pool is created."""
        import time

        token = CancelToken()
        token.cancel()
        start = time.perf_counter()
        result = BatchMapper(jobs=2).map_all(batch_jobs, should_cancel=token)
        elapsed = time.perf_counter() - start
        assert all(not record.ok for record in result.records)
        # No pool startup, no solves: this is instantaneous bookkeeping.
        assert elapsed < 2.0

    def test_cancelled_jobs_are_not_cached(self, batch_jobs):
        from repro.batch.cache import ResultCache

        cache = ResultCache()
        token = CancelToken()
        token.cancel()
        BatchMapper(cache=cache).map_all(batch_jobs, should_cancel=token)
        assert cache.stats.stores == 0
