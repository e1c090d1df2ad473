"""End-to-end daemon tests: submit, poll, stream, cancel, share state."""

from __future__ import annotations

import threading

import pytest

from repro.batch.engine import BatchMapper
from repro.dse.scenario import (
    ArchitectureSpec,
    FormulationSpec,
    Scenario,
    ScenarioRegistry,
    WorkloadSpec,
)
from repro.service.client import ServiceError
from repro.service.daemon import MappingService
from repro.service.jobs import JOB_CANCELLED, JOB_DONE
from repro.service.wire import JobSpec

pytestmark = [pytest.mark.service, pytest.mark.dse]


class TestLifecycle:
    def test_submit_poll_result(self, live_service, tiny_scenario):
        _, client = live_service
        job = client.submit(scenarios=[tiny_scenario])
        assert job["status"] in ("queued", "running", "done")
        detail = client.wait(job["id"], timeout=60)
        assert detail["status"] == JOB_DONE
        (result,) = detail["results"]
        assert result["status"] == "ok"
        assert result["scenario"] == tiny_scenario.name
        assert result["solves"] >= 1
        assert set(result["objectives"]) >= {"area", "energy", "latency"}
        assert result["assignment"]  # neuron -> slot, string keys

    def test_stream_replays_and_follows_to_done(self, live_service, tiny_scenario):
        _, client = live_service
        job = client.submit(scenarios=[tiny_scenario])
        events = [event["event"] for event in client.stream(job["id"])]
        assert events[0] == "queued"
        assert "result" in events
        assert events[-1] == JOB_DONE

    def test_greedy_tier_needs_no_solves(self, live_service, tiny_scenario):
        _, client = live_service
        job = client.submit(scenarios=[tiny_scenario], tier="greedy")
        detail = client.wait(job["id"], timeout=60)
        assert detail["status"] == JOB_DONE
        (result,) = detail["results"]
        assert result["solves"] == 0
        assert result["objectives"] is not None

    def test_failing_scenario_fails_the_job(self, live_service):
        _, client = live_service
        bad = Scenario(
            architecture=ArchitectureSpec(kind="homogeneous", dimension=12),
            # Table I has no network "Z": construction fails per-scenario.
            workload=WorkloadSpec(network="Z", scale=0.1, profile="uniform"),
            formulation=FormulationSpec(),
        )
        job = client.submit(scenarios=[bad])
        detail = client.wait(job["id"], timeout=60)
        assert detail["status"] == "error"
        assert detail["results"][0]["status"] == "error"

    def test_http_errors(self, live_service, tiny_scenario):
        _, client = live_service
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-999999-nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload={"scenarios": []})
        assert excinfo.value.status == 400

    def test_health_and_job_listing(self, live_service, tiny_scenario):
        _, client = live_service
        health = client.health()
        assert health["status"] == "ok"
        assert health["cache"] is not None
        job = client.submit(scenarios=[tiny_scenario])
        client.wait(job["id"], timeout=60)
        listed = client.jobs()
        assert any(entry["id"] == job["id"] for entry in listed)
        assert client.health()["store_entries"] >= 1


class TestSharedState:
    def test_repeat_job_is_a_zero_solve_hit(self, live_service, tiny_scenario):
        _, client = live_service
        first = client.wait(
            client.submit(scenarios=[tiny_scenario])["id"], timeout=60
        )
        second = client.wait(
            client.submit(scenarios=[tiny_scenario])["id"], timeout=60
        )
        r1, r2 = first["results"][0], second["results"][0]
        assert r1["solves"] >= 1 and not r1["cached"]
        assert r2["solves"] == 0 and r2["cached"]
        # The answer is the *same* answer, not a re-derivation.
        assert r2["objectives"] == r1["objectives"]
        assert r2["assignment"] == r1["assignment"]
        assert r2["fingerprint"] == r1["fingerprint"]

    def test_parallel_clients_share_the_cache(self, live_service, tiny_scenario):
        """Concurrent identical submissions cost one solve total."""
        _, client = live_service
        details: list[dict] = []
        errors: list[Exception] = []

        def _one_client() -> None:
            try:
                job = client.submit(scenarios=[tiny_scenario])
                details.append(client.wait(job["id"], timeout=120))
            except Exception as exc:  # surfaces in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=_one_client) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(details) == 3
        assert all(d["status"] == JOB_DONE for d in details)
        results = [d["results"][0] for d in details]
        # One submission did the solve; every other one shared its answer.
        assert sum(r["solves"] for r in results) == 1
        assert sum(1 for r in results if r["cached"]) == 2
        assert len({str(r["assignment"]) for r in results}) == 1

    def test_service_result_is_bit_identical_to_direct_batchmapper(
        self, live_service, tiny_scenario
    ):
        """Acceptance: the daemon adds plumbing, not noise."""
        _, client = live_service
        detail = client.wait(
            client.submit(scenarios=[tiny_scenario], time_limit=5.0)["id"],
            timeout=60,
        )
        service_result = detail["results"][0]

        registry = ScenarioRegistry()
        job = registry.to_job(tiny_scenario, time_limit=5.0)
        record = BatchMapper().map_all([job]).record(job.name)
        direct = {
            str(i): j for i, j in record.final().mapping.assignment.items()
        }
        assert service_result["assignment"] == direct


class TestCancellation:
    def test_cancel_before_workers_start(self, tiny_scenario):
        service = MappingService()  # never started: jobs stay queued
        job = service.submit(JobSpec(scenarios=(tiny_scenario,)))
        cancelled = service.cancel(job.id)
        assert cancelled is not None and cancelled.status == JOB_CANCELLED
        assert job.token.cancelled
        # A worker starting later must drop the job, not run it.
        service.start()
        service.stop(wait=True)
        assert job.status == JOB_CANCELLED
        assert job.results == []

    def test_start_loses_the_race_to_cancel(self, tiny_scenario):
        """A cancel landing between pop and start() must stick."""
        from repro.service.jobs import JobRegistry

        registry = JobRegistry()
        job = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        assert registry.cancel(job.id).status == JOB_CANCELLED
        assert registry.start(job) is False  # no resurrection
        assert job.status == JOB_CANCELLED
        events = [event["event"] for event in job.events]
        assert events[-1] == JOB_CANCELLED  # terminal event stays last

    def test_finished_jobs_are_evicted_beyond_the_retention_cap(
        self, tiny_scenario
    ):
        from repro.service.jobs import JOB_DONE as DONE
        from repro.service.jobs import JobRegistry

        registry = JobRegistry(max_finished=2)
        jobs = [
            registry.create(JobSpec(scenarios=(tiny_scenario,)))
            for _ in range(4)
        ]
        for job in jobs:
            registry.start(job)
            registry.finish(job, DONE)
        remaining = [job.id for job in registry.jobs()]
        assert remaining == [jobs[2].id, jobs[3].id]  # oldest evicted
        assert registry.get(jobs[0].id) is None
        # Running/queued jobs are never evicted, whatever the cap.
        live = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        registry.start(live)
        for _ in range(3):
            extra = registry.create(JobSpec(scenarios=(tiny_scenario,)))
            registry.start(extra)
            registry.finish(extra, DONE)
        assert registry.get(live.id) is live

    def test_eviction_follows_finish_order_not_submission_order(
        self, tiny_scenario
    ):
        """A long-running early job must outlive later, earlier-finished ones.

        The regression this guards: eviction walked the registry in
        insertion order, so a slow job submitted first was evicted the
        moment it finished — even though jobs that finished long before
        it were fresher by submission time and survived.
        """
        from repro.service.jobs import JOB_DONE as DONE
        from repro.service.jobs import JobRegistry

        registry = JobRegistry(max_finished=2)
        slow = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        quick_1 = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        quick_2 = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        for job in (slow, quick_1, quick_2):
            registry.start(job)
        # Finish out of submission order: quick_1, quick_2, then slow.
        registry.finish(quick_1, DONE)
        registry.finish(quick_2, DONE)
        registry.finish(slow, DONE)
        remaining = {job.id for job in registry.jobs()}
        assert remaining == {quick_2.id, slow.id}  # oldest-*finished* went
        assert registry.get(quick_1.id) is None

    def test_multi_scenario_job_reports_every_scenario(
        self, live_service, tiny_scenario
    ):
        """One submission, many scenarios: all answered, one batch."""
        _, client = live_service
        second = Scenario(
            architecture=ArchitectureSpec(kind="homogeneous", dimension=16),
            workload=tiny_scenario.workload,
            formulation=tiny_scenario.formulation,
        )
        job = client.submit(scenarios=[tiny_scenario, second], time_limit=5.0)
        detail = client.wait(job["id"], timeout=120)
        assert detail["status"] == JOB_DONE
        names = [result["scenario"] for result in detail["results"]]
        assert names == [tiny_scenario.name, second.name]
        assert all(result["status"] == "ok" for result in detail["results"])

    def test_cancel_unknown_job_is_none(self, live_service):
        service, client = live_service
        assert service.cancel("job-000000-nope") is None
        with pytest.raises(ServiceError) as excinfo:
            client.cancel("job-000000-nope")
        assert excinfo.value.status == 404

    def test_cancel_endpoint_on_finished_job_is_idempotent(
        self, live_service, tiny_scenario
    ):
        _, client = live_service
        job = client.submit(scenarios=[tiny_scenario])
        client.wait(job["id"], timeout=60)
        summary = client.cancel(job["id"])  # finished: state is preserved
        assert summary["status"] == JOB_DONE

    def test_shutdown_drains_the_backlog_as_cancelled(self, tiny_scenario):
        """202-accepted jobs must end terminal, never vanish mid-queue."""
        service = MappingService()
        jobs = [
            service.submit(JobSpec(scenarios=(tiny_scenario,)))
            for _ in range(3)
        ]
        # Close before the workers exist: everything claimed after close
        # is backlog and must be cancelled, not executed.
        service.ledger.close()
        service.start()
        service.stop(wait=True)
        for job in jobs:
            assert job.status == JOB_CANCELLED
            assert job.results == []
            assert job.events[-1]["event"] == JOB_CANCELLED
