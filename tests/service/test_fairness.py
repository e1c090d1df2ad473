"""Fairness, deadlines and overload shedding, proved deterministically.

The starvation/fairness story has two halves — ``JobLedger.claim``, the
one scheduler both service modes run on (also covered in
``tests/batch/test_queue.py``) — and the service-level behavior that
ties it to clients: a flooding client must not starve a
quiet one, ``batch`` work must always eventually run, an expired
deadline must terminate a job without a single mapper invocation, and
overload must shed the *least* important queued work first.
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path

import pytest

from repro.dse.scenario import (
    ArchitectureSpec,
    FormulationSpec,
    Scenario,
    WorkloadSpec,
)
from repro.service.daemon import MappingService
from repro.service.jobs import JOB_DEADLINE, JOB_DONE, JOB_SHED
from repro.service.ledger import LEASE_FINISHED, JobLedger
from repro.service.wire import JobSpec, parse_job
from repro.service.worker import (
    MIN_DEADLINE_BUDGET,
    FleetConfig,
    capped_time_limit,
    worker_main,
)

pytestmark = pytest.mark.service

CHAOS = str(Path(__file__).resolve().parent / "chaos.py")


def _scenario(name_seed: int = 12) -> Scenario:
    return Scenario(
        architecture=ArchitectureSpec(kind="homogeneous", dimension=name_seed),
        workload=WorkloadSpec(network="C", scale=0.1, profile="uniform"),
        formulation=FormulationSpec(stages=("area",)),
    )


def _spec(**kwargs) -> JobSpec:
    return JobSpec(scenarios=(_scenario(),), **kwargs)


# ----------------------------------------------------------------------
class _StubStore:
    path = None

    def __len__(self) -> int:
        return 0

    def close(self) -> None:
        pass

    def reload(self) -> None:
        pass


class _StubMapper:
    metrics = None


class _StubResult:
    """Just enough of ScenarioResult for ``result_payload``."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.fingerprint = "stub"
        self.tier = "ilp"
        self.status = "ok"
        self.objectives = None
        self.assignment = None
        self.solves = 1
        self.from_store = False
        self.ok = True
        self.wall_time = 0.0
        self.error = None


class StubExplorer:
    """A solver stack whose 'solves' are sleeps — fast, deterministic."""

    def __init__(self, delay: float = 0.0, time_limit: float = 5.0) -> None:
        self.delay = delay
        self.time_limit = time_limit
        self.mapper = _StubMapper()
        self.cache = None
        self.store = _StubStore()
        self.calls = 0
        self.limits: list[float | None] = []
        self._lock = threading.Lock()

    def evaluate_greedy(self, scenarios, meta=None):
        return [_StubResult(s) for s in scenarios]

    def evaluate_ilp(self, scenarios, time_limit=None, meta=None, should_cancel=None):
        with self._lock:
            self.calls += 1
            self.limits.append(time_limit)
        if self.delay:
            time.sleep(self.delay)
        return [_StubResult(s) for s in scenarios]


def _wait_status(service: MappingService, job_id: str, timeout: float = 30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = service.registry.get(job_id)
        if job is not None and job.finished:
            return job
        time.sleep(0.01)
    pytest.fail(f"job {job_id} still unfinished after {timeout}s")


# ----------------------------------------------------------------------
class TestServiceFairness:
    def test_flooding_client_does_not_starve_the_quiet_one(self):
        """One client floods ``batch`` jobs; the quiet client's ``normal``
        jobs jump the backlog via priority lanes, and every batch job
        still completes (no starvation either way)."""
        explorer = StubExplorer(delay=0.05)
        service = MappingService(explorer, workers=2)
        service.start()
        try:
            flood = [
                service.submit(
                    _spec(priority="batch", client="flooder", time_limit=1.0)
                )
                for _ in range(12)
            ]
            quiet_submitted = time.monotonic()
            quiet = [
                service.submit(_spec(client="quiet", time_limit=1.0))
                for _ in range(3)
            ]
            quiet_waits = []
            for job in quiet:
                _wait_status(service, job.id)
                quiet_waits.append(time.monotonic() - quiet_submitted)
            # 12 batch jobs * 50ms over 2 workers is ~300ms of backlog;
            # lanes let the quiet normal jobs overtake nearly all of it.
            assert max(quiet_waits) < 0.45
            for job in flood:  # aged batch work still completes
                assert _wait_status(service, job.id).status == JOB_DONE
            snapshot = service.metrics.snapshot()
            assert snapshot["latency"]["queue_wait_normal"]["count"] == 3
            assert snapshot["latency"]["queue_wait_batch"]["count"] == 12
            admission = service.admission.snapshot()
            assert admission["clients"]["flooder"]["admitted"] == 12
            assert admission["clients"]["quiet"]["admitted"] == 3
            assert admission["in_flight"] == 0  # all released on finish
        finally:
            service.stop()

    def test_priority_and_client_ride_the_job_summary(self):
        service = MappingService(StubExplorer())
        job = service.submit(_spec(priority="high", client="team-a"))
        summary = job.summary()
        assert summary["priority"] == "high"
        assert summary["client"] == "team-a"
        service.stop()


# ----------------------------------------------------------------------
class TestDeadlinePropagation:
    def test_expired_job_terminates_without_invoking_the_mapper(self):
        """A job whose deadline lapses while queued finishes as
        ``deadline`` with zero evaluate calls charged to it."""
        explorer = StubExplorer(delay=0.4)
        service = MappingService(explorer, workers=1)
        service.start()
        try:
            slow = service.submit(_spec(time_limit=1.0))
            doomed = service.submit(_spec(time_limit=1.0, deadline_ms=100))
            assert _wait_status(service, slow.id).status == JOB_DONE
            finished = _wait_status(service, doomed.id)
            assert finished.status == JOB_DEADLINE
            assert "deadline" in (finished.error or "")
            assert explorer.calls == 1  # the slow job; never the doomed one
            counters = service.metrics.snapshot()["counters"]
            assert counters["jobs_deadline"] == 1
            assert counters["jobs_started"] == 1
        finally:
            service.stop()

    def test_remaining_deadline_caps_the_solver_budget(self):
        explorer = StubExplorer(time_limit=5.0)
        service = MappingService(explorer, workers=1)
        service.start()
        try:
            job = service.submit(_spec(deadline_ms=2000))
            assert _wait_status(service, job.id).status == JOB_DONE
            assert len(explorer.limits) == 1
            # Capped at the ~2s remaining, not the explorer's 5s default.
            assert explorer.limits[0] is not None
            assert MIN_DEADLINE_BUDGET <= explorer.limits[0] <= 2.0
        finally:
            service.stop()

    def test_capped_time_limit_arithmetic(self):
        assert capped_time_limit(None, None, None) is None
        assert capped_time_limit(3.0, 10.0, None) == 3.0
        assert capped_time_limit(None, 10.0, None) == 10.0
        assert capped_time_limit(10.0, None, 105.0, now=100.0) == 5.0
        assert capped_time_limit(2.0, None, 105.0, now=100.0) == 2.0
        assert capped_time_limit(None, None, 103.0, now=100.0) == 3.0
        # A blown deadline still grants the floor, never zero/negative.
        assert capped_time_limit(10.0, None, 90.0, now=100.0) == (
            MIN_DEADLINE_BUDGET
        )

    def test_worker_declines_expired_task_without_mapper(self, tmp_path):
        """In-process ``worker_main``: a claimed-but-expired task emits a
        ``deadline`` message and the chaos counter proves zero
        ``map_all`` invocations."""
        config = FleetConfig(
            mapper_factory=f"{CHAOS}:counting_mapper",
            mapper_kwargs=(
                ("attempts_dir", str(tmp_path)),
                ("key", "deadline-job"),
            ),
        )
        tasks: queue.Queue = queue.Queue()
        results: queue.Queue = queue.Queue()
        tasks.put(
            {
                "job": "job-expired",
                "spec": _spec().payload(),
                "deadline_at": time.time() - 5.0,
            }
        )
        tasks.put(None)
        worker_main(0, config, tasks, results, threading.Event())

        messages = []
        while not results.empty():
            messages.append(results.get_nowait())
        kinds = [message["type"] for message in messages]
        assert "deadline" in kinds
        assert "started" not in kinds  # declined before any work
        assert "result" not in kinds
        # The counting mapper persists every map_all call; no file means
        # it was never constructed into a call at all.
        assert not (tmp_path / "deadline-job.attempts").exists()


# ----------------------------------------------------------------------
class TestLedgerPriorityClaims:
    def test_claim_order_is_effective_priority(self):
        ledger = JobLedger(aging_interval=30.0)
        batch = ledger.enqueue("batch-job", {"spec": 1}, priority="batch")
        high = ledger.enqueue("high-job", {"spec": 2}, priority="high")
        batch.enqueued_at = 100.0
        high.enqueued_at = 100.0
        now = 110.0  # batch: 2 - 10/30 = 1.67 > high: 0 - 10/30 = -0.33
        assert ledger.claim("w", now=now).id == "high-job"

    def test_starved_batch_ages_past_fresh_high(self):
        ledger = JobLedger(aging_interval=30.0)
        batch = ledger.enqueue("starved", {"spec": 1}, priority="batch")
        high = ledger.enqueue("fresh", {"spec": 2}, priority="high")
        batch.enqueued_at = 100.0
        high.enqueued_at = 190.0
        now = 200.0  # batch: 2 - 100/30 = -1.3; high: 0 - 10/30 = -0.3
        assert ledger.claim("w", now=now).id == "starved"
        assert ledger.claim("w", now=now).id == "fresh"

    def test_deadline_expired_pending_is_never_claimed(self):
        ledger = JobLedger()
        ledger.enqueue("expired", {"spec": 1}, deadline_at=150.0)
        ledger.enqueue("alive", {"spec": 2}, deadline_at=10_000.0)
        lease = ledger.claim("w", now=200.0)
        assert lease.id == "alive"
        assert ledger.claim("w", now=200.0) is None  # expired never leased

    def test_deadline_sweep_finishes_without_attempt_charge(self):
        ledger = JobLedger()
        ledger.enqueue("expired", {"spec": 1}, deadline_at=150.0)
        swept = ledger.deadline_expired(now=200.0)
        assert [job.id for job in swept] == ["expired"]
        job = ledger.get("expired")
        assert job.state == LEASE_FINISHED
        assert job.outcome == "deadline"
        assert job.attempts == 0  # zero retry budget charged
        assert ledger.counts()["deadline_expired"] == 1
        assert ledger.deadline_expired(now=300.0) == []  # idempotent

    def test_replay_preserves_priority_and_deadline(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        first = JobLedger(path)
        first.enqueue("lane-job", {"spec": 1}, priority="batch", deadline_at=500.0)
        first.enqueue("plain-job", {"spec": 2})
        first.close()

        replayed = JobLedger(path)
        lane_job = replayed.get("lane-job")
        assert lane_job.priority == "batch"
        assert lane_job.deadline_at == 500.0
        plain = replayed.get("plain-job")
        assert plain.priority == "normal"
        assert plain.deadline_at is None
        # Lane ordering survives the restart: the batch job is passed
        # over while fresh, aged in front once starved.
        lane_job.enqueued_at = 100.0
        plain.enqueued_at = 100.0
        assert replayed.claim("w", now=101.0).id == "plain-job"
        replayed.close()

    def test_lane_snapshot_counts_pending_by_lane(self):
        ledger = JobLedger()
        ledger.enqueue("a", {"s": 1}, priority="batch")
        ledger.enqueue("b", {"s": 2}, priority="batch")
        ledger.enqueue("c", {"s": 3}, priority="high")
        ledger.claim("w")  # leases the high job
        lanes = ledger.lane_snapshot()
        assert lanes["batch"]["depth"] == 2
        assert lanes["high"]["depth"] == 0
        assert lanes["normal"]["depth"] == 0
        assert lanes["batch"]["oldest_wait"] is not None


# ----------------------------------------------------------------------
class TestOverloadShedding:
    def test_sheds_lowest_effective_priority_half(self):
        """Thread mode: once the oldest job waits past ``shed_after``, the
        worst-priority half of the backlog sheds with a resubmittable
        spec; high-priority work survives."""
        service = MappingService(StubExplorer(), shed_after=10.0, aging_interval=30.0)
        high = service.submit(_spec(priority="high", client="a"))
        normal = service.submit(_spec(client="a"))
        doomed = [service.submit(_spec(priority="batch", client="b")) for _ in range(2)]

        now = time.time()
        assert service.shed_overload(now=now) == 0  # nothing old enough yet
        assert service.shed_overload(now=now + 11.0) == 2  # half of 4, batch first

        for job in doomed:
            assert job.status == JOB_SHED
            event = job.events[-1]
            assert event["event"] == "shed"
            respec = parse_job(event["spec"])  # resubmittable as-is
            assert respec.priority == "batch"
        assert high.status != JOB_SHED
        assert normal.status != JOB_SHED
        assert service.metrics.counter("jobs_shed") == 2
        # Shed jobs release their client's in-flight quota.
        assert service.admission.in_flight("b") == 0
        service.stop()

    def test_ledger_mode_sheds_pending_jobs(self):
        service = MappingService(StubExplorer(), fleet=1, shed_after=10.0)
        kept = service.submit(_spec(priority="high", client="a"))
        doomed = service.submit(_spec(priority="batch", client="b"))
        for lease in service.ledger.jobs():
            lease.enqueued_at = 100.0
        assert service.shed_overload(now=105.0) == 0
        assert service.shed_overload(now=120.0) == 1
        assert doomed.status == JOB_SHED
        assert parse_job(doomed.events[-1]["spec"])  # resubmittable
        assert kept.status != JOB_SHED
        assert service.ledger.get(doomed.id).outcome == JOB_SHED
        assert service.ledger.get(kept.id).state != LEASE_FINISHED
        service.stop()

    def test_supervisor_sweep_mirrors_deadline_into_registry(self):
        service = MappingService(StubExplorer(), fleet=1)
        job = service.submit(_spec(deadline_ms=1))
        time.sleep(0.05)  # let the 1ms deadline lapse
        service._sweep_deadlines()  # the supervisor loop runs it every tick
        assert job.status == JOB_DEADLINE
        lease = service.ledger.get(job.id)
        assert lease.outcome == "deadline"
        assert lease.attempts == 0
        service.stop()
