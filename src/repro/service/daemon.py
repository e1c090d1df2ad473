"""The long-lived mapping daemon: worker loop + HTTP front end.

A :class:`MappingService` owns exactly one :class:`~repro.dse.explorer.
Explorer` — and through it one shared :class:`~repro.batch.engine.
BatchMapper`, one :class:`~repro.batch.cache.ResultCache` and one
:class:`~repro.dse.store.RunStore` — so every client submission warms
the same state: a job solved for one client is a zero-solve answer for
every later client that asks the same question.

Submissions flow ``HTTP -> JobRegistry -> JobLedger -> worker -> Explorer``;
progress flows back as registry events that ``GET /jobs/<id>/stream``
serves as NDJSON.  Both modes schedule on one :class:`~repro.service.
ledger.JobLedger`: thread mode keeps it in memory and its worker threads
claim from it directly; ``--fleet`` journals it and a :class:`Supervisor`
claims on behalf of worker processes.  Lanes, aging, the depth bound,
deadlines and shedding are therefore written once.  Endpoints:

==========================  =============================================
``POST /jobs``              submit (wire format, see :mod:`.wire`) -> 202
``GET /jobs``               job summaries, submission order
``GET /jobs/<id>``          full status, per-scenario results, event log
``GET /jobs/<id>/stream``   NDJSON event stream until the job finishes
``GET /jobs/<id>/trace``    merged span records + live solver progress
``POST /jobs/<id>/cancel``  flag cancellation (queued: immediate)
``GET /healthz``            liveness + shared cache/store statistics
``GET /metrics``            lock-consistent counters/gauges/percentiles
``POST /shutdown``          stop accepting, stop serving, exit cleanly
==========================  =============================================

Multi-tenant operation: every submission is attributed to the
``X-Repro-Client`` header (default ``anonymous``) and passes per-client
admission control — token-bucket rate plus max-in-flight quota — before
the registry ever sees it; a quota rejection is a 429 with a per-client
``Retry-After``.  Jobs carry a priority lane (``high``/``normal``/
``batch``, aged so low-priority work never starves) and an optional
end-to-end ``deadline_ms`` enforced at claim time and as a cap on the
solver budget; under sustained overload the lowest-effective-priority
queued jobs are shed (terminal ``shed``, resubmittable spec in the
event) instead of the service collapsing for everyone.

The server is stdlib :class:`http.server.ThreadingHTTPServer` — no new
dependencies; one handler thread per connection, solver work stays on
the service's worker threads.  The front end is hardened against rude
clients: request bodies are capped (413 beyond ``max_body_bytes``) and
every connection carries a socket timeout, so a client that connects
and never sends cannot pin a handler thread forever.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import queue as queue_module
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from dataclasses import replace as dataclass_replace

from .. import trace
from ..batch.queue import DEFAULT_AGING_INTERVAL, QueueFull, effective_priority
from ..dse.explorer import Explorer
from ..dse.store import TIER_GREEDY
from .admission import AdmissionController, AdmissionDenied
from .jobs import (
    JOB_CANCELLED,
    JOB_DEADLINE,
    JOB_DONE,
    JOB_ERROR,
    JOB_SHED,
    JobRegistry,
    ServiceJob,
)
from .ledger import LEASE_DEAD_LETTER, LEASE_PENDING, JobLedger, LedgerJob
from .metrics import JsonlWriter, LoopLatencyProbe, ServiceMetrics
from .wire import (
    TERMINAL_STATUSES,
    WIRE_FORMAT,
    JobSpec,
    WireError,
    parse_job,
    result_payload,
)
from .worker import FleetConfig, capped_time_limit, worker_main

#: Seconds of stream silence before a ``ping`` keepalive event is sent.
STREAM_HEARTBEAT = 10.0

#: Default request-body cap; a scenario batch is a few KiB, so 1 MiB is
#: already generous headroom rather than a limit anyone should hit.
MAX_BODY_BYTES = 1 << 20

#: Default per-socket-operation timeout for handler connections.
HANDLER_TIMEOUT = 30.0


class PayloadTooLarge(ValueError):
    """A request body beyond the server's cap (maps to HTTP 413)."""


class MappingService:
    """Worker loop over one shared explorer, fed by a job ledger.

    ``journal_path`` makes the job registry persistent: every state
    transition is appended (write-behind) to a JSONL journal that the
    next daemon pointed at the same path replays, so ``GET /jobs/<id>``
    survives a restart.  ``job_log_path`` opts into structured per-job
    logging: the same records (one JSON line per state transition and
    per scenario result), but to an operator-owned log file.
    """

    def __init__(
        self,
        explorer: Explorer | None = None,
        workers: int = 1,
        max_finished_jobs: int = 512,
        journal_path: str | Path | None = None,
        job_log_path: str | Path | None = None,
        fleet: int = 0,
        ledger_path: str | Path | None = None,
        max_queue_depth: int | None = None,
        fleet_config: FleetConfig | None = None,
        admission: AdmissionController | None = None,
        shed_after: float | None = None,
        aging_interval: float = DEFAULT_AGING_INTERVAL,
        trace_dir: str | Path | None = None,
        trace_slow_span: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if fleet < 0:
            raise ValueError("fleet must be >= 0")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if shed_after is not None and shed_after <= 0:
            raise ValueError("shed_after must be > 0 (or None to disable)")
        # The default service still shares results across clients inside
        # one process: explorer evaluations land in its (memory) RunStore.
        self.explorer = explorer if explorer is not None else Explorer()
        self.metrics = ServiceMetrics()
        self.fleet = fleet
        self.max_queue_depth = max_queue_depth
        self.shed_after = shed_after
        self.aging_interval = aging_interval
        # The controller always exists: with no limits configured it is
        # still the per-client accounting that /metrics reports.
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.fleet_config = fleet_config if fleet_config is not None else FleetConfig()
        # Tracing: one runtime for this process, its journal named after
        # the pid so restarts never contend over a file; fleet workers
        # inherit the directory through their config.
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.trace_runtime: trace.TraceRuntime | None = None
        if self.trace_dir is not None:
            self.trace_runtime = trace.install(
                trace.TraceRuntime(
                    self.trace_dir,
                    f"daemon-{os.getpid()}",
                    slow_span_threshold=trace_slow_span,
                )
            )
            # Classic mode solves in-process: live solver progress flows
            # straight into the gap gauge (fleet mode arrives the same
            # place via worker heartbeats instead).
            self.trace_runtime.on_progress = self.metrics.set_solver_progress
            if self.fleet_config.trace_dir is None:
                self.fleet_config = dataclass_replace(
                    self.fleet_config,
                    trace_dir=str(self.trace_dir),
                    trace_slow_span=trace_slow_span,
                )
        self._journal = (
            JsonlWriter(journal_path) if journal_path is not None else None
        )
        self._job_log = (
            JsonlWriter(job_log_path) if job_log_path is not None else None
        )
        observers = [self.metrics.job_event, self._admission_release]
        if self._job_log is not None:
            observers.append(self._job_log.append)
        self.registry = JobRegistry(
            max_finished=max_finished_jobs,
            journal=self._journal,
            observers=tuple(observers),
            # Fleet mode replays unfinished jobs as re-runnable (the
            # journaled ledger still owes them work); thread mode's
            # in-memory ledger died with the old process, so they replay
            # as errors.
            fail_unfinished=not fleet,
        )
        self.workers = workers
        # The shared engine reports solve progress into the same sink.
        self.explorer.mapper.metrics = self.metrics
        self._probe = LoopLatencyProbe(self.metrics)
        self._threads: list[threading.Thread] = []
        self._shed_stop = threading.Event()
        self._started = False
        # One scheduler for both modes: in memory for worker threads,
        # journaled for the fleet.
        self.ledger = JobLedger(
            ledger_path if fleet else None,
            max_attempts=self.fleet_config.max_attempts,
            lease_ttl=self.fleet_config.lease_ttl,
            backoff_base=self.fleet_config.backoff_base,
            backoff_cap=self.fleet_config.backoff_cap,
            aging_interval=aging_interval,
        )
        self.supervisor: Supervisor | None = None
        if fleet:
            self.supervisor = Supervisor(self, fleet, self.fleet_config, self.ledger)
        # Replayed-but-unfinished jobs were admitted by the previous
        # process; they still occupy their client's in-flight quota here.
        for job in self.registry.jobs():
            if not job.finished:
                self.admission.restore(job.spec.client)

    def _admission_release(self, record: dict) -> None:
        # Registry observer: every terminal transition frees one slot of
        # the submitter's in-flight quota.  The client id rides on the
        # journal record itself so this never re-enters the registry lock.
        if record.get("event") in TERMINAL_STATUSES:
            client = record.get("client")
            if isinstance(client, str) and client:
                self.admission.release(client)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spin up the workers (threads or fleet) and the probe; idempotent."""
        if self._started:
            return
        self._started = True
        self._probe.start()
        if self.shed_after is not None:
            shedder = threading.Thread(
                target=self._shed_loop, name="repro-service-shedder", daemon=True
            )
            shedder.start()
        if self.supervisor is not None:
            self.supervisor.start()
            return
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker,
                args=(f"thread-{index}",),
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, wait: bool = True, timeout: float | None = 30.0) -> None:
        """Drain the workers, flush the journals, release the fleet.

        Fleet mode drains: leased jobs get up to the configured
        ``drain_timeout`` to finish, the rest are re-queued (without
        charging their retry budget) for the next daemon on this ledger.
        Thread mode lets running jobs finish and cancels the backlog.
        """
        self._probe.stop()
        self._shed_stop.set()
        if self.supervisor is not None:
            self.supervisor.stop(wait=wait)
        # Wakes idle worker threads: they cancel what is left, then exit.
        self.ledger.close()
        if wait:
            for thread in self._threads:
                thread.join(timeout=timeout)
        for writer in (self._journal, self._job_log):
            if writer is not None:
                writer.close()
        if self.trace_runtime is not None:
            self.trace_runtime.flush()

    # ------------------------------------------------------------------
    def _retry_after_hint(self, depth: int) -> float:
        """Seconds a 429'd client should wait before resubmitting.

        The honest estimate — p50 job duration times the backlog per
        worker — clamped to something a client can reasonably sleep.
        """
        histogram = self.metrics.snapshot()["latency"].get("job_duration")
        p50 = histogram["p50"] if histogram and histogram["count"] else 0.0
        lanes = max(1, self.fleet or self.workers)
        hint = p50 * math.ceil(depth / lanes) if p50 > 0 else 5.0
        return max(1.0, min(120.0, hint))

    def submit(self, spec: JobSpec) -> ServiceJob:
        """Register and enqueue one parsed submission.

        Admission control runs first — *before* ``registry.create`` —
        so a per-client quota rejection is a clean 429 with its own
        ``Retry-After``, never a half-registered job.  Raises
        :class:`~repro.service.admission.AdmissionDenied` (a
        :class:`~repro.batch.queue.QueueFull`) on quota, or plain
        ``QueueFull`` when the outstanding jobs (pending + running) are
        at the bounded global depth.
        """
        try:
            self.admission.admit(spec.client)
        except AdmissionDenied as exc:
            self.metrics.inc("admission_throttled")
            if exc.retry_after is None:
                # In-flight rejections clear when a job finishes; the
                # backlog-based hint is the honest estimate of when.
                exc.retry_after = self._retry_after_hint(self.ledger.depth())
            raise
        if self.max_queue_depth is not None:
            depth = self.ledger.depth()
            if depth >= self.max_queue_depth:
                self.admission.release(spec.client)
                self.metrics.inc("backpressure_rejections")
                raise QueueFull(
                    f"queue depth {depth} is at the limit "
                    f"({self.max_queue_depth}); retry later",
                    retry_after=self._retry_after_hint(depth),
                )
        if self.trace_runtime is not None and spec.trace is None:
            # No inbound context: the accept point mints the trace root.
            spec = dataclass_replace(spec, trace=trace.mint_context().encode())
        job = self.registry.create(spec)
        context = self._job_context(job)
        if context is not None:
            trace.event(
                "accepted",
                context,
                job=job.id,
                client=spec.client,
                priority=spec.priority,
                tier=spec.tier,
            )
        # From here the in-flight charge is released by the terminal-
        # event observer — every path below ends terminal eventually.
        try:
            self.ledger.enqueue(
                job.id,
                spec.payload(),
                priority=spec.priority,
                deadline_at=job.deadline_at,
                max_depth=self.max_queue_depth,
            )
        except QueueFull as exc:  # a concurrent submit won the last slot
            self.metrics.inc("backpressure_rejections")
            self.registry.finish(job, JOB_ERROR, error="queue full")
            exc.retry_after = self._retry_after_hint(self.ledger.depth())
            raise
        except RuntimeError:  # shutdown raced the submission
            self.registry.finish(job, JOB_ERROR, error="service is shutting down")
        return job

    def cancel(self, job_id: str) -> ServiceJob | None:
        job = self.registry.cancel(job_id)
        if job is not None and job.finished:
            # A queued job ends at once: its ledger slot frees with it.
            self.ledger.finish(job.id, job.status)
        return job

    # -- tracing -------------------------------------------------------
    def _job_context(self, job: ServiceJob) -> "trace.TraceContext | None":
        """The job's trace context, or ``None`` (inactive/malformed)."""
        if self.trace_runtime is None or job.spec.trace is None:
            return None
        try:
            return trace.parse_context(job.spec.trace)
        except ValueError:
            return None

    def _finish_trace(self, job: ServiceJob) -> None:
        """Seal a job's trace: root span, gauge cleanup, journal flush.

        The root span reuses the context's *own* span id, so every hop
        recorded against the context (queue, lease, solve) parents to it
        and ``repro trace`` renders one tree per job.
        """
        runtime = self.trace_runtime
        context = self._job_context(job)
        if runtime is None or context is None:
            return
        end = job.finished_at or time.time()
        runtime.record_span(
            trace.Span(
                trace_id=context.trace_id,
                span_id=context.span_id,
                name="job",
                start=job.submitted_at,
                duration=max(0.0, end - job.submitted_at),
                process=runtime.process,
                attrs={"job": job.id, "status": job.status},
            )
        )
        runtime.clear_progress(job.id)
        self.metrics.clear_solver_progress(job.id)
        runtime.flush()

    def trace_payload(self, job_id: str) -> dict | None:
        """The ``GET /jobs/<id>/trace`` body (``None`` -> 404).

        Reads every journal in the trace directory — the supervisor's
        merged file *and* the live per-process ones — so spans of a job
        still running are visible before any merge happens.
        """
        job = self.registry.get(job_id)
        if job is None:
            return None
        records: list[dict] = []
        if self.trace_dir is not None and job.spec.trace is not None:
            if self.trace_runtime is not None:
                self.trace_runtime.flush()
            trace_id = job.spec.trace.partition(":")[0]
            records = trace.read_trace_dir(self.trace_dir, trace_id)
        return {
            "id": job.id,
            "status": job.status,
            "trace": job.spec.trace,
            "records": records,
            "progress": self.metrics.snapshot()["solver_progress"].get(job_id),
        }

    # -- overload shedding ---------------------------------------------
    def _shed_loop(self) -> None:
        while not self._shed_stop.wait(timeout=0.5):
            try:
                self.shed_overload()
            except Exception:  # shedding must never kill the daemon
                self.metrics.inc("shed_errors")

    def shed_overload(self, now: float | None = None) -> int:
        """Degrade gracefully under overload; returns jobs shed.

        When the oldest queued job has waited past ``shed_after``, the
        lowest-effective-priority half of the queued backlog (at least
        one job) is finished as :data:`~repro.service.jobs.JOB_SHED` —
        terminal, with the resubmittable wire spec embedded in the
        event — so fresh high-priority work keeps flowing instead of
        the whole service collapsing for everyone.  Runs on a
        maintenance thread; public and clock-injectable for tests.
        """
        if self.shed_after is None:
            return 0
        now = time.time() if now is None else now
        pending = self.ledger.pending_snapshot()
        if not pending:
            return 0
        if max(now - lease.enqueued_at for lease in pending) <= self.shed_after:
            return 0
        victims = sorted(
            pending,
            key=lambda lease: effective_priority(
                lease.priority, now - lease.enqueued_at, self.aging_interval
            ),
            reverse=True,  # worst effective priority sheds first
        )[: max(1, len(pending) // 2)]
        for lease in victims:
            self.ledger.finish(lease.id, JOB_SHED)
            job = self.registry.get(lease.id)
            if job is not None and not job.finished:
                self.registry.finish(
                    job,
                    JOB_SHED,
                    error=(
                        "shed under overload after "
                        f"{now - lease.enqueued_at:.1f}s queued; resubmit"
                    ),
                    extra={"spec": lease.spec},
                )
                job.token.cancel()  # a worker that just claimed it stops
        return len(victims)

    def stats(self) -> dict:
        """The ``/healthz`` body: liveness plus shared-state counters."""
        cache = self.explorer.cache
        store = self.explorer.store
        body = {
            "status": "ok",
            "format": WIRE_FORMAT,
            "workers": self.fleet or self.workers,
            "queued": self.ledger.depth(),
            "jobs": self.registry.counts(),
            "cache": cache.stats.snapshot() if cache is not None else None,
            "store_entries": len(store),
            "store_path": str(store.path) if store.path is not None else None,
            "admission": self.admission.snapshot(),
            "lanes": self.ledger.lane_snapshot(),
        }
        if self.max_queue_depth is not None:
            body["max_queue_depth"] = self.max_queue_depth
        if self.shed_after is not None:
            body["shed_after"] = self.shed_after
        if self.supervisor is not None:
            body["fleet"] = self.supervisor.snapshot()
            body["ledger"] = self.ledger.counts()
        return body

    def metrics_payload(self) -> dict:
        """The ``GET /metrics`` body.

        Process-lifetime counters/gauges/histograms come from the
        :class:`ServiceMetrics` snapshot (one lock, so the scrape is
        self-consistent); live state — queue depth, per-state job
        counts, cache totals — is read from its owners under *their*
        locks at scrape time.  Within each section the invariants hold
        exactly: ``cache.hits + cache.misses == cache.lookups``, and
        ``counters.jobs_submitted`` covers every job this process
        accepted (replayed jobs belong to the old process and appear
        only in ``jobs.by_state``).
        """
        cache = self.explorer.cache
        snapshot = self.metrics.snapshot()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        body = {
            "status": "ok",
            "uptime": snapshot["uptime"],
            "workers": self.fleet or self.workers,
            "queue_depth": self.ledger.depth(),
            "backpressure_rejections": counters.get("backpressure_rejections", 0),
            "admission": self.admission.snapshot(),
            "admission_throttled": counters.get("admission_throttled", 0),
            "lanes": self.ledger.lane_snapshot(),
            "solves_in_flight": gauges.get("solves_in_flight", 0),
            "jobs": {
                "by_state": self.registry.counts(),
                "submitted": counters.get("jobs_submitted", 0),
                "started": counters.get("jobs_started", 0),
                "requeued": counters.get("jobs_requeued", 0),
                "finished": {
                    "total": counters.get("jobs_finished", 0),
                    "done": counters.get("jobs_done", 0),
                    "error": counters.get("jobs_error", 0),
                    "cancelled": counters.get("jobs_cancelled", 0),
                    "deadline": counters.get("jobs_deadline", 0),
                    "shed": counters.get("jobs_shed", 0),
                },
            },
            "scenarios": {
                "total": counters.get("scenarios_total", 0),
                "ok": counters.get("scenarios_ok", 0),
                "error": counters.get("scenarios_error", 0),
                "cached": counters.get("scenarios_cached", 0),
            },
            "solves": {
                "mapper_jobs": counters.get("mapper_jobs", 0),
                "mapper_jobs_ok": counters.get("mapper_jobs_ok", 0),
                "mapper_jobs_error": counters.get("mapper_jobs_error", 0),
                "mapper_jobs_interrupted": counters.get(
                    "mapper_jobs_interrupted", 0
                ),
                "ilp_solves": counters.get("ilp_solves", 0),
            },
            "portfolio": snapshot["portfolio"],
            "cache": cache.stats.snapshot() if cache is not None else None,
            "store_entries": len(self.explorer.store),
            "latency": snapshot["latency"],
            "solver_progress": snapshot["solver_progress"],
        }
        if self.trace_runtime is not None:
            body["trace"] = {
                "enabled": True,
                "dir": str(self.trace_dir),
                "slow_spans": self.trace_runtime.slow_spans,
                "slow_span_threshold": self.trace_runtime.slow_span_threshold,
            }
        if self.supervisor is not None:
            body["fleet"] = self.supervisor.snapshot()
            body["ledger"] = self.ledger.counts()
        return body

    # -- scheduling (shared by worker threads and the fleet) -------------
    def _sweep_deadlines(self) -> None:
        # Pending jobs past their deadline finish as JOB_DEADLINE without
        # ever being leased: zero mapper invocations, zero retry charge.
        for lease in self.ledger.deadline_expired():
            job = self.registry.get(lease.id)
            if job is not None and not job.finished:
                self.registry.finish(
                    job, JOB_DEADLINE, error="deadline exceeded before start"
                )

    def _claim(self, worker: str) -> tuple[LedgerJob, ServiceJob] | None:
        """Lease the next runnable job to ``worker``, or ``None``.

        Lapsed deadlines are swept first; a claimed job the registry
        lost is adopted from its spec, and one that is already terminal
        (cancelled or shed while pending) or unparseable is closed out
        and skipped.  The claim records the job's queue wait.
        """
        self._sweep_deadlines()
        while True:
            lease = self.ledger.claim(worker)
            if lease is None:
                return None
            job = self.registry.get(lease.id)
            if job is None:
                try:
                    job = self.registry.adopt(lease.id, parse_job(lease.spec))
                except WireError:
                    self.ledger.finish(lease.id, "dropped: unparseable spec")
                    continue
            if job.finished:
                self.ledger.finish(lease.id, job.status)
                continue
            break
        now = time.time()
        waited = max(0.0, now - job.submitted_at)
        self.metrics.observe("queue_wait", waited)
        self.metrics.observe(f"queue_wait_{lease.priority}", waited)
        context = self._job_context(job)
        if context is not None:
            # Queue wait: ledger enqueue (or submission) to claim.
            enqueued = lease.enqueued_at or job.submitted_at
            trace.record_span(
                "queue",
                context,
                start=enqueued,
                duration=max(0.0, now - enqueued),
                job=lease.id,
                priority=lease.priority,
                worker=worker,
            )
        return lease, job

    def _complete(
        self,
        job: ServiceJob,
        results: list[dict],
        cancelled: bool = False,
        error: str | None = None,
    ) -> None:
        """End a run: record its results, then the terminal state in the
        registry and the ledger, then seal the trace.

        A job a cancel (or shed) already made terminal keeps that state;
        the results of the run are dropped with it.
        """
        registry = self.registry
        if not job.finished:
            for result in results:
                registry.add_result(job, result)
            failed = sum(1 for r in job.results if r.get("status") != "ok")
            if cancelled or job.token.cancelled:
                registry.finish(job, JOB_CANCELLED)
            elif error is not None:
                registry.finish(job, JOB_ERROR, error=error)
            elif failed:
                # Deterministic per-scenario failures (construction errors,
                # infeasible instances) are answers, not crashes.
                registry.finish(job, JOB_ERROR, error=f"{failed} scenario(s) failed")
            else:
                registry.finish(job, JOB_DONE)
        self.ledger.finish(job.id, job.status)
        self._finish_trace(job)

    def _worker(self, name: str) -> None:
        while True:
            claimed = self._claim(name)
            if claimed is None:
                if self.ledger.closed:
                    return
                self.ledger.wait(timeout=0.5)
                continue
            _lease, job = claimed
            if self.ledger.closed:
                # Shutdown: the backlog is cancelled, not executed — a
                # 202-accepted job must end terminal (with an event), not
                # vanish mid-solve when the process exits.
                self.cancel(job.id)
                continue
            started = time.monotonic()
            try:
                self._run_job(job)
            except Exception as exc:  # defensive: a bug must not kill the loop
                self._complete(job, [], error=f"{type(exc).__name__}: {exc}")
            finally:
                self.metrics.observe("job_duration", time.monotonic() - started)

    def _run_job(self, job: ServiceJob) -> None:
        # start() refusing means a cancel won the race after the claim —
        # the job is already terminal and must not be resurrected.
        if not self.registry.start(job):
            self._complete(job, [])
            return
        spec = job.spec
        scenarios = list(spec.scenarios)
        with trace.activate(self._job_context(job), job.id):
            with trace.span("solve", job=job.id, tier=spec.tier):
                if spec.tier == TIER_GREEDY:
                    results = self.explorer.evaluate_greedy(scenarios)
                else:
                    # One batched call so a multi-scenario submission keeps
                    # the engine's process-pool parallelism and warm-start
                    # waves; the token is polled at solve boundaries inside
                    # the batch.  The remaining deadline (if any) caps the
                    # solver budget so a runaway solve cannot overshoot the
                    # end-to-end deadline.
                    results = self.explorer.evaluate_ilp(
                        scenarios,
                        time_limit=capped_time_limit(
                            spec.time_limit,
                            self.explorer.time_limit,
                            job.deadline_at,
                        ),
                        should_cancel=job.token,
                    )
        self._complete(job, [result_payload(result) for result in results])


# ----------------------------------------------------------------------
class _WorkerHandle:
    """The supervisor's view of one worker process."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.name = f"worker-{index}"
        self.process = None
        self.task_queue = None
        self.cancel_event = None
        self.pid: int | None = None
        self.ready = False
        self.job: str | None = None  # currently dispatched job id
        self.started = False  # the worker reported "started" for ``job``
        self.dispatched_at: float | None = None
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "pid": self.pid,
            "alive": self.alive,
            "ready": self.ready,
            # Shown once the worker picked the job up, not at dispatch:
            # a worker listed with a job is inside that job's solve.
            "job": self.job if self.started else None,
            "restarts": self.restarts,
        }


class Supervisor:
    """Spawns, feeds and resurrects the fleet's worker processes.

    One background thread runs the whole control loop: drain worker
    messages, reap dead processes (respawning them), expire silent
    leases, propagate cancellations, dispatch claimable ledger jobs to
    idle workers.  Workers are spawned (never forked — the daemon
    carries journal/probe/handler threads) and own crash-safe state
    only, so ``kill -9`` on any of them costs one lease TTL, not data.

    Jobs are claimed and finished through the service's own helpers
    (``MappingService._claim`` / ``_complete``), the same path its worker
    threads use in thread mode.

    The result cache is one directory shared by the daemon and every
    worker: each publishes entries atomically under a writer-unique
    temporary name, so a mapping solved by one worker is a disk hit for
    every other one at once, with nothing to copy between processes.
    """

    #: Control-loop tick; also the message-drain poll timeout.
    POLL_INTERVAL = 0.05

    def __init__(
        self,
        service: MappingService,
        fleet: int,
        config: FleetConfig,
        ledger: JobLedger,
    ) -> None:
        if fleet < 1:
            raise ValueError("fleet must be >= 1")
        self.service = service
        self.config = config
        self.ledger = ledger
        self._ctx = multiprocessing.get_context("spawn")
        self._result_queue = self._ctx.Queue()
        self._handles = [_WorkerHandle(index) for index in range(fleet)]
        self._lock = threading.RLock()
        self._stop_event = threading.Event()
        self._draining = False
        self._thread: threading.Thread | None = None
        self._started = False
        #: Per-source byte offsets into worker span journals (merge state).
        self._trace_offsets: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._reconcile()
        for handle in self._handles:
            self._spawn(handle)
        self._thread = threading.Thread(
            target=self._loop, name="repro-fleet-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self, wait: bool = True, timeout: float | None = None) -> None:
        """Drain, then shut the fleet down.

        Busy workers get up to ``drain_timeout`` to finish their leased
        job; whatever is still running is re-queued without charging its
        retry budget — the next daemon on this ledger re-runs it.
        """
        timeout = self.config.drain_timeout if timeout is None else timeout
        with self._lock:
            self._draining = True
        if wait:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                with self._lock:
                    if not any(handle.job for handle in self._handles):
                        break
                time.sleep(self.POLL_INTERVAL)
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        with self._lock:
            for handle in self._handles:
                if handle.job is not None:
                    # The drain timed out on this one: hand the job back.
                    self.ledger.requeue_for_restart(handle.job, "shutdown")
                    job = self.service.registry.get(handle.job)
                    if job is not None:
                        self.service.registry.requeue(job, "shutdown")
                    handle.job = None
                if handle.task_queue is not None:
                    try:
                        handle.task_queue.put(None)  # quit sentinel
                    except (OSError, ValueError):
                        pass
            for handle in self._handles:
                process = handle.process
                if process is None:
                    continue
                process.join(timeout=5.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=2.0)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()
                    process.join(timeout=2.0)
            self._merge_trace()

    # -- startup reconcile ---------------------------------------------
    def _reconcile(self) -> None:
        """Make the ledger and the registry agree before dispatching.

        The two journals replay independently; after a crash either can
        know jobs the other lost.  Ledger-only jobs are adopted into the
        registry (so their ids answer over HTTP); registry-only queued
        jobs are enqueued into the ledger (so they actually run);
        registry-terminal jobs close their ledger record.
        """
        registry = self.service.registry
        for lease in self.ledger.jobs():
            if lease.terminal:
                continue
            job = registry.get(lease.id)
            if job is None:
                try:
                    registry.adopt(lease.id, parse_job(lease.spec))
                except WireError:
                    # Unreplayable spec (schema drift): close it out
                    # rather than dispatching garbage forever.
                    self.ledger.finish(lease.id, "dropped: unparseable spec")
            elif job.finished:
                self.ledger.finish(lease.id, job.status)
        for job in registry.jobs():
            if not job.finished and self.ledger.get(job.id) is None:
                self.ledger.enqueue(
                    job.id,
                    job.spec.payload(),
                    priority=job.spec.priority,
                    deadline_at=job.deadline_at,
                )

    # -- worker processes ----------------------------------------------
    def _spawn(self, handle: _WorkerHandle) -> None:
        # Fresh queue + event per incarnation: a SIGKILLed worker can
        # leave its old queue's pipe in an unusable state.
        handle.task_queue = self._ctx.Queue()
        handle.cancel_event = self._ctx.Event()
        handle.ready = False
        handle.job = None
        process = self._ctx.Process(
            target=worker_main,
            args=(
                handle.index,
                self.config,
                handle.task_queue,
                self._result_queue,
                handle.cancel_event,
            ),
            name=f"repro-fleet-{handle.name}",
            daemon=True,
        )
        process.start()
        handle.process = process
        handle.pid = process.pid

    def _handle_named(self, worker: str | None) -> _WorkerHandle | None:
        for handle in self._handles:
            if handle.name == worker:
                return handle
        return None

    # -- control loop --------------------------------------------------
    def _loop(self) -> None:
        while not self._stop_event.is_set():
            self._drain_messages()
            with self._lock:
                self._reap_dead()
                self._expire_leases()
                self.service._sweep_deadlines()
                self._propagate_cancels()
                self._dispatch()
        self._drain_messages()  # a last sweep so results beat shutdown

    def _drain_messages(self) -> None:
        block = True
        while True:
            try:
                message = self._result_queue.get(
                    timeout=self.POLL_INTERVAL if block else 0.0
                )
            except queue_module.Empty:
                return
            except (EOFError, OSError):  # queue torn down mid-shutdown
                return
            block = False
            try:
                self._handle_message(message)
            except Exception:
                # A corrupt message (a worker SIGKILLed mid-put) must
                # not kill the control loop; the lease machinery will
                # recover the job.
                self.service.metrics.inc("fleet_bad_messages")

    def _handle_message(self, message: dict) -> None:
        kind = message.get("type")
        worker = message.get("worker")
        job_id = message.get("job")
        with self._lock:
            handle = self._handle_named(worker)
            if kind == "ready":
                if handle is not None:
                    handle.ready = True
                    handle.pid = message.get("pid", handle.pid)
                return
            if kind == "heartbeat":
                self.ledger.heartbeat(job_id)
                progress = message.get("progress")
                if isinstance(progress, dict) and isinstance(job_id, str):
                    # The worker's live solver progress (incumbent/bound/
                    # gap) surfaces through the daemon's /metrics gauge.
                    self.service.metrics.set_solver_progress(job_id, progress)
                return
            if kind == "started":
                if handle is not None and handle.job == job_id:
                    handle.started = True
                job = self.service.registry.get(job_id)
                if job is not None and not self.service.registry.start(job):
                    # A cancel won the race: tell the worker to bail at
                    # the next solve boundary.
                    if handle is not None and handle.cancel_event is not None:
                        handle.cancel_event.set()
                return
            if kind == "result":
                self._finish_job(
                    handle,
                    job_id,
                    message.get("results") or [],
                    bool(message.get("cancelled")),
                )
                return
            if kind == "failed":
                if handle is not None and handle.job == job_id:
                    self._observe_duration(handle)
                    handle.job = None
                self._attempt_failed(job_id, str(message.get("error")))
                return
            if kind == "deadline":
                # The deadline lapsed between claim and pickup: the
                # worker declined without touching its mapper.
                if handle is not None and handle.job == job_id:
                    self._observe_duration(handle)
                    handle.job = None
                self.ledger.finish(job_id, JOB_DEADLINE)
                job = self.service.registry.get(job_id)
                if job is not None and not job.finished:
                    self.service.registry.finish(
                        job, JOB_DEADLINE, error="deadline exceeded before solve"
                    )
                if job is not None:
                    self.service._finish_trace(job)
                return
            self.service.metrics.inc("fleet_bad_messages")

    def _observe_duration(self, handle: _WorkerHandle) -> None:
        if handle.dispatched_at is not None:
            self.service.metrics.observe(
                "job_duration", time.monotonic() - handle.dispatched_at
            )
            handle.dispatched_at = None

    def _finish_job(
        self,
        handle: _WorkerHandle | None,
        job_id: str,
        results: list[dict],
        worker_cancelled: bool,
    ) -> None:
        lease_duration = None
        lease_worker = None
        if handle is not None and handle.job == job_id:
            if handle.dispatched_at is not None:
                lease_duration = time.monotonic() - handle.dispatched_at
                lease_worker = handle.name
            self._observe_duration(handle)
            handle.job = None
            self._merge_trace()
        job = self.service.registry.get(job_id)
        if job is None:  # evicted mid-flight; the answer is in the store
            self.ledger.finish(job_id, JOB_DONE)
            return
        context = self.service._job_context(job)
        if context is not None and lease_duration is not None:
            # The lease span is reconstructed supervisor-side: dispatch to
            # result, the interval the worker held the job.
            trace.record_span(
                "lease",
                context,
                start=time.time() - lease_duration,
                duration=lease_duration,
                job=job_id,
                worker=lease_worker,
            )
        self.service._complete(job, results, cancelled=worker_cancelled)

    def _attempt_failed(self, job_id: str, error: str) -> None:
        state = self.ledger.fail_attempt(job_id, error)
        job = self.service.registry.get(job_id)
        if state == LEASE_DEAD_LETTER:
            lease = self.ledger.get(job_id)
            attempts = lease.attempts if lease is not None else 0
            if job is not None:
                self.service.registry.finish(
                    job,
                    JOB_ERROR,
                    error=f"dead-letter after {attempts} attempt(s): {error}",
                )
                self.service._finish_trace(job)
        elif state == LEASE_PENDING and job is not None:
            self.service.registry.requeue(job, reason=error)
            context = self.service._job_context(job)
            if context is not None:
                trace.event("requeued", context, job=job_id, reason=error)

    def _reap_dead(self) -> None:
        for handle in self._handles:
            process = handle.process
            if process is None or process.is_alive():
                continue
            exitcode = process.exitcode
            handle.process = None
            handle.ready = False
            job_id, handle.job = handle.job, None
            self._merge_trace()  # salvage the dead worker's spans
            if job_id is not None:
                self._observe_duration(handle)
                self._attempt_failed(
                    job_id, f"worker died mid-job (exit {exitcode})"
                )
            if not self._draining and not self._stop_event.is_set():
                handle.restarts += 1
                self.service.metrics.inc("worker_restarts")
                self._spawn(handle)

    def _expire_leases(self) -> None:
        for lease in self.ledger.expired():
            holder = None
            for handle in self._handles:
                if handle.job == lease.id:
                    holder = handle
                    break
            if holder is not None:
                # Alive but silent: hung solver, stuck disk, whatever —
                # the lease is the contract, so the worker is killed and
                # respawned by the next reap pass.
                holder.job = None
                if holder.process is not None and holder.process.is_alive():
                    holder.process.terminate()
            self._attempt_failed(lease.id, "lease expired (missed heartbeats)")

    def _propagate_cancels(self) -> None:
        for handle in self._handles:
            if handle.job is None or handle.cancel_event is None:
                continue
            job = self.service.registry.get(handle.job)
            if (
                job is not None
                and job.token.cancelled
                and not handle.cancel_event.is_set()
            ):
                handle.cancel_event.set()

    def _dispatch(self) -> None:
        if self._draining:
            return
        for handle in self._handles:
            if not (handle.ready and handle.alive and handle.job is None):
                continue
            claimed = self.service._claim(handle.name)
            if claimed is None:
                return
            lease, job = claimed
            handle.cancel_event.clear()
            handle.job = lease.id
            handle.started = False
            handle.dispatched_at = time.monotonic()
            try:
                handle.task_queue.put(
                    {
                        "job": lease.id,
                        "spec": lease.spec,
                        "deadline_at": lease.deadline_at,
                        "trace": job.spec.trace,
                    }
                )
            except (OSError, ValueError):
                # The worker's pipe is broken (it just died); the reap
                # pass will fail the attempt and respawn.
                pass

    # -- span-journal merging ------------------------------------------
    def _merge_trace(self) -> None:
        """Fold new worker span-journal lines into ``merged.jsonl``.

        Incremental (per-source byte offsets) and torn-tail safe: a line
        a SIGKILLed worker half-wrote is left for the next pass, which
        will skip it the same way.  Reading tools dedup merged + source
        copies, so merging is free to run as often as convenient.
        """
        trace_dir = self.service.trace_dir
        if trace_dir is None:
            return
        dest = trace_dir / trace.MERGED_NAME
        for source in sorted(trace_dir.glob("worker-*.jsonl")):
            offset = self._trace_offsets.get(source.name, 0)
            self._trace_offsets[source.name] = trace.merge_journal(
                source, dest, offset
            )

    # -- inspection ----------------------------------------------------
    def snapshot(self) -> dict:
        """The ``/healthz``/``/metrics`` fleet section."""
        with self._lock:
            return {
                "size": len(self._handles),
                "draining": self._draining,
                "workers": [handle.snapshot() for handle in self._handles],
                "worker_restarts": sum(h.restarts for h in self._handles),
            }


# ----------------------------------------------------------------------
class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`MappingService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        service: MappingService,
        max_body_bytes: int = MAX_BODY_BYTES,
        handler_timeout: float | None = HANDLER_TIMEOUT,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.max_body_bytes = max_body_bytes
        self.handler_timeout = handler_timeout


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer

    # Quiet by default: the daemon is long-lived and per-request lines
    # belong to the operator's access log, not stderr.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def setup(self) -> None:
        # The per-server socket timeout: http.server applies self.timeout
        # in setup(), and handle_one_request() treats a timed-out read as
        # close_connection — so a client that connects and never sends
        # releases its handler thread instead of pinning it forever.
        self.timeout = self.server.handler_timeout
        super().setup()

    @property
    def service(self) -> MappingService:
        return self.server.service

    # -- plumbing ------------------------------------------------------
    def _send_json(
        self, payload: dict, status: int = 200, headers: dict | None = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_json(self) -> object:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise WireError("Content-Length is not an integer") from None
        if length < 0:
            raise WireError("Content-Length is negative")
        if length > self.server.max_body_bytes:
            # Reject on the *declared* size, before reading a byte: an
            # unbounded read here would hand memory to any rude client.
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{self.server.max_body_bytes}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise WireError("empty request body (expected JSON)")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise WireError(f"request body is not valid JSON: {exc}") from None

    def _job_or_404(self, job_id: str) -> ServiceJob | None:
        job = self.service.registry.get(job_id)
        if job is None:
            self._send_error_json(404, f"no such job {job_id!r}")
        return job

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        parts = [p for p in path.split("/") if p]
        if not parts:
            self._send_json(
                {
                    "service": "repro-mapping-service",
                    "format": WIRE_FORMAT,
                    "endpoints": [
                        "POST /jobs",
                        "GET /jobs",
                        "GET /jobs/<id>",
                        "GET /jobs/<id>/stream",
                        "GET /jobs/<id>/trace",
                        "POST /jobs/<id>/cancel",
                        "GET /healthz",
                        "GET /metrics",
                        "POST /shutdown",
                    ],
                }
            )
        elif parts == ["healthz"]:
            self._send_json(self.service.stats())
        elif parts == ["metrics"]:
            self._send_json(self.service.metrics_payload())
        elif parts == ["jobs"]:
            self._send_json(
                {"jobs": [job.summary() for job in self.service.registry.jobs()]}
            )
        elif len(parts) == 2 and parts[0] == "jobs":
            job = self._job_or_404(parts[1])
            if job is not None:
                self._send_json(job.detail())
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "stream":
            job = self._job_or_404(parts[1])
            if job is not None:
                self._stream(job)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
            payload = self.service.trace_payload(parts[1])
            if payload is None:
                self._send_error_json(404, f"no such job {parts[1]!r}")
            else:
                self._send_json(payload)
        else:
            self._send_error_json(404, f"unknown path {path!r}")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        parts = [p for p in path.split("/") if p]
        if parts == ["jobs"]:
            try:
                spec = parse_job(self._read_json())
                header = self.headers.get("X-Repro-Client")
                if header:
                    # The header wins over a body `client` key; replace()
                    # re-runs validation, so a bad header is still a 400.
                    spec = dataclass_replace(spec, client=header.strip())
                trace_header = self.headers.get(trace.TRACE_HEADER)
                if trace_header:
                    # Same contract as the client header: the caller's
                    # context wins, and a malformed one is a 400.
                    spec = dataclass_replace(spec, trace=trace_header.strip())
            except PayloadTooLarge as exc:
                self._send_error_json(413, str(exc))
                return
            except WireError as exc:
                self._send_error_json(400, str(exc))
                return
            try:
                job = self.service.submit(spec)
            except QueueFull as exc:
                # Backpressure, not failure: the client is told exactly
                # when the backlog should have room again.
                retry_after = max(1, math.ceil(exc.retry_after or 1.0))
                self._send_json(
                    {"error": str(exc), "retry_after": retry_after},
                    status=429,
                    headers={"Retry-After": str(retry_after)},
                )
                return
            self._send_json({**job.summary(), "stream": f"/jobs/{job.id}/stream"}, 202)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            job = self.service.cancel(parts[1])
            if job is None:
                self._send_error_json(404, f"no such job {parts[1]!r}")
            else:
                self._send_json(job.summary())
        elif parts == ["shutdown"]:
            self._send_json({"status": "shutting-down"})
            # shutdown() blocks until serve_forever exits, so it must run
            # off the handler thread; the serve loop then stops workers.
            threading.Thread(target=self.server.shutdown, daemon=True).start()
        else:
            self._send_error_json(404, f"unknown path {path!r}")

    # -- streaming -----------------------------------------------------
    def _stream(self, job: ServiceJob) -> None:
        """NDJSON event stream: replay, then follow until terminal."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        index = 0
        last_write = time.monotonic()
        registry = self.service.registry
        try:
            while True:
                events, index, drained = registry.events_since(job, index, timeout=0.5)
                for event in events:
                    self.wfile.write(
                        json.dumps(event, sort_keys=True).encode("utf-8") + b"\n"
                    )
                if events:
                    self.wfile.flush()
                    last_write = time.monotonic()
                if drained:
                    return
                if time.monotonic() - last_write > STREAM_HEARTBEAT:
                    # Keep idle streams alive through client read timeouts
                    # and proxies while a long solve produces no events.
                    self.wfile.write(b'{"event":"ping"}\n')
                    self.wfile.flush()
                    last_write = time.monotonic()
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; the job keeps running


# ----------------------------------------------------------------------
def make_server(
    service: MappingService,
    host: str = "127.0.0.1",
    port: int = 8100,
    max_body_bytes: int = MAX_BODY_BYTES,
    handler_timeout: float | None = HANDLER_TIMEOUT,
) -> ServiceHTTPServer:
    """Bind (but do not run) the HTTP front end; ``port=0`` picks a free one."""
    return ServiceHTTPServer(
        (host, port),
        service,
        max_body_bytes=max_body_bytes,
        handler_timeout=handler_timeout,
    )


def run_server(
    service: MappingService,
    server: ServiceHTTPServer,
) -> None:
    """Serve until ``POST /shutdown`` (or Ctrl-C), then stop the workers."""
    service.start()
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.stop(wait=True)
