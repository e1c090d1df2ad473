"""Fleet chaos tests: the multi-process fleet under crashes and overload.

The contract being tested, end to end: a submitted job is *owed* a
terminal answer.  Workers may raise, stall, or be SIGKILLed mid-solve;
the daemon may stop and a new one may adopt the same ledger — the job
still finishes (or dead-letters with a diagnosable error), and the
results match what a direct single-process run produces.
"""

from __future__ import annotations

import importlib.util
import os
import queue
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.batch.cache import ResultCache
from repro.batch.queue import QueueFull
from repro.dse.explorer import Explorer
from repro.dse.scenario import (
    ArchitectureSpec,
    FormulationSpec,
    Scenario,
    WorkloadSpec,
)
from repro.dse.store import RunStore
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import MappingService, make_server
from repro.service.jobs import JOB_DONE, JOB_ERROR, JOB_QUEUED
from repro.service.ledger import (
    LEASE_DEAD_LETTER,
    LEASE_FINISHED,
    LEASE_PENDING,
    JobLedger,
)
from repro.service.wire import JobSpec, result_payload
from repro.service.worker import FleetConfig, worker_main

pytestmark = pytest.mark.service

CHAOS = str(Path(__file__).resolve().parent / "chaos.py")
#: The same file loaded here, for reading its on-disk attempt counters.
_chaos_spec = importlib.util.spec_from_file_location("fleet_chaos", CHAOS)
chaos = importlib.util.module_from_spec(_chaos_spec)
_chaos_spec.loader.exec_module(chaos)

#: The deterministic slice of a result payload: solver outputs, not
#: timings.  ``wall_time``/``solves``/``cached`` legitimately differ
#: between a fleet run and a direct run; the *answer* must not.
DETERMINISTIC_FIELDS = (
    "scenario",
    "fingerprint",
    "tier",
    "status",
    "objectives",
    "assignment",
    "error",
)


def _scenario(dimension: int = 12) -> Scenario:
    return Scenario(
        architecture=ArchitectureSpec(kind="homogeneous", dimension=dimension),
        workload=WorkloadSpec(network="C", scale=0.1, profile="uniform"),
        formulation=FormulationSpec(stages=("area",)),
    )


def _spec(*scenarios: Scenario) -> JobSpec:
    return JobSpec(scenarios=tuple(scenarios), tier="ilp", time_limit=5.0)


def _fleet_config(tmp_path: Path, **overrides) -> FleetConfig:
    settings = dict(
        store_path=str(tmp_path / "store"),
        store_shards=4,
        cache_dir=str(tmp_path / "cache"),
        time_limit=5.0,
        lease_ttl=5.0,
        heartbeat_interval=0.2,
        max_attempts=3,
        backoff_base=0.05,
        backoff_cap=0.2,
        drain_timeout=15.0,
    )
    settings.update(overrides)
    return FleetConfig(**settings)


def _service(tmp_path: Path, fleet: int, config: FleetConfig, **kwargs):
    explorer = Explorer(
        store=RunStore(tmp_path / "store", shards=4), cache=ResultCache()
    )
    return MappingService(
        explorer,
        fleet=fleet,
        ledger_path=tmp_path / "ledger.jsonl",
        journal_path=tmp_path / "journal.jsonl",
        fleet_config=config,
        **kwargs,
    )


def _wait_finished(service: MappingService, job_id: str, timeout: float = 90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = service.registry.get(job_id)
        if job is not None and job.finished:
            return job
        time.sleep(0.05)
    pytest.fail(f"job {job_id} still unfinished after {timeout}s")


def _direct_payloads(*scenarios: Scenario) -> list[dict]:
    """The single-process ground truth for the same scenarios."""
    explorer = Explorer(time_limit=5.0)
    return [
        result_payload(result)
        for result in explorer.evaluate_ilp(list(scenarios), time_limit=5.0)
    ]


def _deterministic(payload: dict) -> dict:
    return {field: payload[field] for field in DETERMINISTIC_FIELDS}


# ----------------------------------------------------------------------
class TestWorkerMain:
    """The worker entry point, run in-process for direct inspection."""

    def test_solves_and_reports_results(self, tmp_path):
        config = FleetConfig(store_path=str(tmp_path / "store"), store_shards=2)
        tasks: queue.Queue = queue.Queue()
        results: queue.Queue = queue.Queue()
        tasks.put({"job": "job-1", "spec": _spec(_scenario()).payload()})
        tasks.put(None)
        worker_main(0, config, tasks, results, threading.Event())

        messages = []
        while not results.empty():
            messages.append(results.get_nowait())
        kinds = [message["type"] for message in messages]
        assert kinds[0] == "ready"
        assert messages[0]["pid"] == os.getpid()
        assert "started" in kinds
        result = next(m for m in messages if m["type"] == "result")
        assert result["job"] == "job-1"
        assert result["cancelled"] is False
        assert [r["status"] for r in result["results"]] == ["ok"]

    def test_unrunnable_spec_reports_failure(self, tmp_path):
        config = FleetConfig()
        tasks: queue.Queue = queue.Queue()
        results: queue.Queue = queue.Queue()
        tasks.put({"job": "job-bad", "spec": {"format": 999}})
        tasks.put(None)
        worker_main(1, config, tasks, results, threading.Event())

        messages = []
        while not results.empty():
            messages.append(results.get_nowait())
        failed = next(m for m in messages if m["type"] == "failed")
        assert failed["job"] == "job-bad"
        assert "unrunnable task" in failed["error"]

    def test_cancel_event_marks_results_cancelled(self, tmp_path):
        config = FleetConfig(store_path=str(tmp_path / "store"), store_shards=2)
        tasks: queue.Queue = queue.Queue()
        results: queue.Queue = queue.Queue()
        cancel = threading.Event()
        cancel.set()  # cancelled before the solve ever starts
        tasks.put({"job": "job-c", "spec": _spec(_scenario()).payload()})
        tasks.put(None)
        worker_main(0, config, tasks, results, cancel)

        messages = []
        while not results.empty():
            messages.append(results.get_nowait())
        result = next(m for m in messages if m["type"] == "result")
        assert result["cancelled"] is True


class _AliveProcess:
    """Stands in for a live worker process the supervisor never spawned."""

    def is_alive(self) -> bool:
        return True


class TestWorkerHealth:
    def test_worker_job_shows_only_after_started(self, tmp_path):
        """``/healthz`` lists a worker's job once the worker picked it up,
        not at dispatch, so "busy" means "inside the solve"."""
        service = _service(tmp_path, fleet=1, config=_fleet_config(tmp_path))
        supervisor = service.supervisor
        handle = supervisor._handles[0]
        handle.process = _AliveProcess()
        handle.ready = True
        handle.task_queue = queue.Queue()
        handle.cancel_event = threading.Event()
        try:
            job = service.submit(_spec(_scenario()))
            supervisor._dispatch()
            assert handle.task_queue.get_nowait()["job"] == job.id
            (worker,) = service.stats()["fleet"]["workers"]
            assert worker["job"] is None  # dispatched, not yet started
            supervisor._handle_message(
                {"type": "started", "job": job.id, "worker": handle.name}
            )
            (worker,) = service.stats()["fleet"]["workers"]
            assert worker["job"] == job.id
            assert job.status == "running"
        finally:
            handle.process = None
            service.stop(wait=False)


# ----------------------------------------------------------------------
class TestFleetEndToEnd:
    def test_fleet_results_match_direct_run(self, tmp_path):
        first, second = _scenario(dimension=12), _scenario(dimension=10)
        service = _service(tmp_path, fleet=2, config=_fleet_config(tmp_path))
        try:
            service.start()
            job_a = service.submit(_spec(first))
            job_b = service.submit(_spec(second))
            done_a = _wait_finished(service, job_a.id)
            done_b = _wait_finished(service, job_b.id)
            assert done_a.status == JOB_DONE
            assert done_b.status == JOB_DONE

            fleet_payloads = [done_a.results[0], done_b.results[0]]
            direct = _direct_payloads(first, second)
            assert [_deterministic(p) for p in fleet_payloads] == [
                _deterministic(p) for p in direct
            ]

            stats = service.stats()
            assert stats["fleet"]["size"] == 2
            assert len(stats["fleet"]["workers"]) == 2
            assert all(w["pid"] for w in stats["fleet"]["workers"])
            assert stats["ledger"]["by_state"][LEASE_FINISHED] == 2
            metrics = service.metrics_payload()
            assert metrics["ledger"]["leases_granted"] >= 2
            assert metrics["jobs"]["finished"]["done"] == 2
        finally:
            service.stop(wait=True)

    def test_shared_store_resumes_across_workers(self, tmp_path):
        scenario = _scenario()
        service = _service(tmp_path, fleet=1, config=_fleet_config(tmp_path))
        try:
            service.start()
            first = _wait_finished(service, service.submit(_spec(scenario)).id)
            second = _wait_finished(service, service.submit(_spec(scenario)).id)
            assert first.status == JOB_DONE
            assert second.status == JOB_DONE
            # The repeat is a zero-solve store hit inside the worker.
            assert second.results[0]["cached"] is True
            assert _deterministic(first.results[0]) == _deterministic(
                second.results[0]
            )
        finally:
            service.stop(wait=True)


# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_transient_fault_retries_then_succeeds(self, tmp_path):
        config = _fleet_config(
            tmp_path,
            mapper_factory=f"{CHAOS}:flaky_mapper",
            mapper_kwargs=(
                ("attempts_dir", str(tmp_path / "attempts")),
                ("fail_first", 1),
                ("key", "transient"),
            ),
        )
        service = _service(tmp_path, fleet=1, config=config)
        try:
            service.start()
            job = _wait_finished(service, service.submit(_spec(_scenario())).id)
            assert job.status == JOB_DONE
            assert job.results[0]["status"] == "ok"
            lease = service.ledger.get(job.id)
            assert lease.attempts == 2
            counts = service.ledger.counts()
            assert counts["requeues"] >= 1
            assert service.metrics.snapshot()["counters"]["jobs_requeued"] >= 1
        finally:
            service.stop(wait=True)

    def test_dead_letter_after_exhausted_attempts(self, tmp_path):
        config = _fleet_config(
            tmp_path,
            max_attempts=2,
            mapper_factory=f"{CHAOS}:flaky_mapper",
            mapper_kwargs=(
                ("attempts_dir", str(tmp_path / "attempts")),
                ("fail_first", 99),
                ("key", "doomed"),
            ),
        )
        service = _service(tmp_path, fleet=1, config=config)
        try:
            service.start()
            job = _wait_finished(service, service.submit(_spec(_scenario())).id)
            assert job.status == JOB_ERROR
            assert "dead-letter after 2 attempt(s)" in job.error
            assert service.ledger.get(job.id).state == LEASE_DEAD_LETTER
            assert service.ledger.counts()["dead_letters"] == 1
        finally:
            service.stop(wait=True)

    def test_sigkill_mid_solve_requeues_and_finishes(self, tmp_path):
        attempts_dir = tmp_path / "attempts"
        config = _fleet_config(
            tmp_path,
            mapper_factory=f"{CHAOS}:stalling_mapper",
            mapper_kwargs=(
                ("attempts_dir", str(attempts_dir)),
                ("fail_first", 1),
                ("key", "stall"),
                ("delay", 60.0),
            ),
        )
        scenario = _scenario()
        service = _service(tmp_path, fleet=1, config=config)
        try:
            service.start()
            job_id = service.submit(_spec(scenario)).id

            # Wait until the worker is visibly mid-solve — it holds the
            # job *and* its mapper has entered the stalling attempt — then
            # kill -9.  The retry is attempt 2 and solves at once.
            pid = None
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                workers = service.supervisor.snapshot()["workers"]
                busy = [w for w in workers if w["job"] == job_id and w["pid"]]
                if busy and chaos.read_attempts(attempts_dir, "stall") >= 1:
                    pid = busy[0]["pid"]
                    break
                time.sleep(0.05)
            assert pid is not None, "worker never entered the stalling attempt"
            os.kill(pid, signal.SIGKILL)

            job = _wait_finished(service, job_id)
            assert job.status == JOB_DONE
            assert service.supervisor.snapshot()["worker_restarts"] >= 1
            lease = service.ledger.get(job_id)
            assert lease.attempts == 2  # the killed attempt burned one
            # The answer survived the murder of its first solver.
            assert _deterministic(job.results[0]) == _deterministic(
                _direct_payloads(scenario)[0]
            )
        finally:
            service.stop(wait=True)


# ----------------------------------------------------------------------
class TestRestartAndDrain:
    def test_restart_on_same_ledger_resolves_pre_crash_jobs(self, tmp_path):
        scenario = _scenario()
        before = _service(tmp_path, fleet=1, config=_fleet_config(tmp_path))
        # Never started: the job is journaled and ledgered but unserved —
        # exactly the state a crash leaves behind.
        job_id = before.submit(_spec(scenario)).id
        before.stop(wait=True)

        after = _service(tmp_path, fleet=1, config=_fleet_config(tmp_path))
        try:
            replayed = after.registry.get(job_id)
            assert replayed is not None
            assert replayed.status == JOB_QUEUED
            after.start()
            job = _wait_finished(after, job_id)
            assert job.status == JOB_DONE
            assert job.results[0]["status"] == "ok"
            # Replayed work belongs to the old process: the new daemon's
            # own submission counter stays clean.
            assert after.metrics_payload()["jobs"]["submitted"] == 0
        finally:
            after.stop(wait=True)

    def test_drain_timeout_requeues_inflight_job_without_burning_budget(
        self, tmp_path
    ):
        config = _fleet_config(
            tmp_path,
            drain_timeout=0.3,
            mapper_factory=f"{CHAOS}:stalling_mapper",
            mapper_kwargs=(
                ("attempts_dir", str(tmp_path / "attempts")),
                ("fail_first", 99),
                ("key", "drain"),
                ("delay", 120.0),
            ),
        )
        service = _service(tmp_path, fleet=1, config=config)
        service.start()
        job_id = service.submit(_spec(_scenario())).id
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            workers = service.supervisor.snapshot()["workers"]
            if any(w["job"] == job_id for w in workers):
                break
            time.sleep(0.05)
        else:
            pytest.fail("worker never picked the job up")
        service.stop(wait=True)

        # The in-flight job was handed back, not lost and not charged.
        assert service.registry.get(job_id).status == JOB_QUEUED
        with JobLedger(tmp_path / "ledger.jsonl") as ledger:
            lease = ledger.get(job_id)
            assert lease.state == LEASE_PENDING
            assert lease.attempts == 0


# ----------------------------------------------------------------------
class TestBackpressure:
    def test_submit_beyond_depth_raises_queue_full(self, tmp_path):
        service = _service(
            tmp_path, fleet=1, config=_fleet_config(tmp_path), max_queue_depth=1
        )
        # Deliberately never started: depth can only grow.
        service.submit(_spec(_scenario()))
        with pytest.raises(QueueFull) as excinfo:
            service.submit(_spec(_scenario(dimension=10)))
        assert excinfo.value.retry_after is not None
        assert service.metrics.snapshot()["counters"]["backpressure_rejections"] == 1
        service.stop(wait=True)

    def test_http_front_turns_queue_full_into_429(self, tmp_path):
        service = _service(
            tmp_path, fleet=1, config=_fleet_config(tmp_path), max_queue_depth=1
        )
        server = make_server(service, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=30.0)
        try:
            accepted = client.submit(payload=_spec(_scenario()).payload())
            assert accepted["status"] == "queued"
            with pytest.raises(ServiceError) as excinfo:
                client.submit(payload=_spec(_scenario(dimension=10)).payload())
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1
            health = client.health()
            assert health["max_queue_depth"] == 1
            assert health["queued"] == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            service.stop(wait=True)
