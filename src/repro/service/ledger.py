"""Durable lease-based job ledger for the multi-process solver fleet.

The registry (:mod:`repro.service.jobs`) answers *clients* — what did I
submit, what happened to it.  The ledger answers the *fleet* — which
jobs still need work, who is working on them right now, and which ones
have burned their retry budget.  Keeping the two separate keeps each
journal replayable on its own: the registry can evict old jobs while the
ledger keeps execution state, and vice versa.

Every job moves through a small lease state machine::

    PENDING --claim--> LEASED --finish--> FINISHED
       ^                  |
       |    fail/expiry   +--fail_attempt--> PENDING (backoff)
       +------------------+                    |
                                               v  after max_attempts
                                          DEAD_LETTER

The daemon runs every job through a ledger: thread mode on an in-memory
one (``path=None``), ``--fleet`` on a journaled one.  A worker — a
thread or a fleet process — *claims* a pending job, receiving a lease
with a TTL, and renews it via heartbeat while solving.  If a fleet
worker dies (SIGKILL, OOM kill, hang), its heartbeats stop, the lease
expires, and the supervisor re-queues the job with exponential backoff
— bounded by ``max_attempts``, after which the job is dead-lettered
instead of retried forever.  A
daemon restart re-queues leased jobs immediately *without* charging the
retry budget: the worker didn't fail, the whole process went away.

Durability follows the PR-6 journal idiom: every transition appends one
JSONL line through a write-behind :class:`~repro.service.metrics.
JsonlWriter` (flushed synchronously for state changes; heartbeats are
fire-and-forget, losing one costs at most a spurious retry), and a new
ledger pointed at the same file replays it on construction — torn or
stale lines are skipped and counted, never fatal.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..batch.queue import (
    DEFAULT_AGING_INTERVAL,
    PRIORITIES,
    PRIORITY_NORMAL,
    PRIORITY_RANK,
    QueueFull,
    effective_priority,
)
from .metrics import JsonlWriter, read_jsonl

#: Bump when the ledger record schema changes; stale lines are skipped.
LEDGER_FORMAT = 1

LEASE_PENDING = "pending"
LEASE_LEASED = "leased"
LEASE_FINISHED = "finished"
LEASE_DEAD_LETTER = "dead_letter"

#: States a ledger job never leaves.
LEDGER_TERMINAL = (LEASE_FINISHED, LEASE_DEAD_LETTER)


@dataclass
class LedgerJob:
    """One job's execution state (the registry holds the client view)."""

    id: str
    spec: dict  # wire-format submission payload, replayable on restart
    state: str = LEASE_PENDING
    attempts: int = 0  # leases granted (claims), including the active one
    enqueued_at: float = field(default_factory=time.time)
    not_before: float = 0.0  # backoff gate: claimable once now >= this
    worker: str | None = None  # current lease holder
    lease_expires: float | None = None
    last_error: str | None = None
    outcome: str | None = None  # "done" | "cancelled" | ... when FINISHED
    priority: str = PRIORITY_NORMAL  # scheduling lane (aged at claim time)
    deadline_at: float | None = None  # absolute wall-clock deadline

    @property
    def terminal(self) -> bool:
        return self.state in LEDGER_TERMINAL

    def snapshot(self) -> dict:
        """The inspection view (``/healthz`` fleet section, tests)."""
        return {
            "id": self.id,
            "state": self.state,
            "attempts": self.attempts,
            "worker": self.worker,
            "lease_expires": self.lease_expires,
            "not_before": self.not_before,
            "last_error": self.last_error,
            "outcome": self.outcome,
            "priority": self.priority,
            "deadline_at": self.deadline_at,
        }


class JobLedger:
    """Thread-safe, journal-backed lease ledger.

    ``path=None`` keeps the ledger in memory (thread mode, tests);
    otherwise every transition is journaled and replayed on restart.
    All public methods take the internal lock; callers never hold it.

    Every record stays in ``_jobs`` (``get``/``jobs`` see them all), but
    the scans a scheduler runs per claim or tick walk ``_live`` — the
    non-terminal jobs in insertion order — so their cost follows the
    backlog, not the ledger's lifetime.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        max_attempts: int = 3,
        lease_ttl: float = 15.0,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        aging_interval: float = DEFAULT_AGING_INTERVAL,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0")
        if aging_interval <= 0:
            raise ValueError("aging_interval must be > 0")
        self.max_attempts = max_attempts
        self.lease_ttl = lease_ttl
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.aging_interval = aging_interval
        self._jobs: dict[str, LedgerJob] = {}
        self._live: dict[str, LedgerJob] = {}  # non-terminal, insertion order
        self._lock = threading.Lock()
        # Wakes claimers blocked in wait(): enqueue notifies one, close all.
        self._cond = threading.Condition(self._lock)
        self._closed = False
        self._replay_skipped = 0
        self._counters = {
            "leases_granted": 0,
            "leases_expired": 0,
            "requeues": 0,
            "dead_letters": 0,
            "deadline_expired": 0,
        }
        self._journal = JsonlWriter(path) if path is not None else None
        if path is not None:
            self._replay(Path(path))

    # -- journal -------------------------------------------------------
    def _append(self, record: dict, durable: bool = True) -> None:
        # Caller holds the lock.  The enqueue itself is O(1); ``durable``
        # transitions block until the line is on disk so a crash right
        # after the call cannot un-happen them.  Heartbeats skip the
        # flush: losing one costs at most a spurious lease expiry.
        if self._journal is None:
            return
        self._journal.append({"format": LEDGER_FORMAT, "ts": time.time(), **record})
        if durable:
            self._journal.flush()

    def _replay(self, path: Path) -> None:
        """Rebuild lease state from the journal of an earlier process.

        Jobs that were LEASED when that process died come back PENDING,
        immediately claimable, and journaled as restart re-queues — the
        attempt that died with the fleet is refunded, so daemon restarts
        never eat into a job's retry budget.
        """
        jobs: dict[str, LedgerJob] = {}
        for record in read_jsonl(path):
            if record.get("format") != LEDGER_FORMAT:
                self._replay_skipped += 1
                continue
            job_id = record.get("job")
            event = record.get("event")
            ts = float(record.get("ts") or 0.0)
            if not isinstance(job_id, str) or not isinstance(event, str):
                self._replay_skipped += 1
                continue
            job = jobs.get(job_id)
            if event == "enqueued":
                if job is not None:
                    continue
                spec = record.get("spec")
                if not isinstance(spec, dict):
                    self._replay_skipped += 1
                    continue
                priority = record.get("priority", PRIORITY_NORMAL)
                if priority not in PRIORITY_RANK:
                    priority = PRIORITY_NORMAL
                deadline_at = record.get("deadline_at")
                jobs[job_id] = LedgerJob(
                    id=job_id,
                    spec=spec,
                    enqueued_at=ts,
                    priority=priority,
                    deadline_at=(
                        float(deadline_at) if deadline_at is not None else None
                    ),
                )
                continue
            if job is None or job.terminal:
                self._replay_skipped += 1
                continue
            if event == "leased":
                job.state = LEASE_LEASED
                job.worker = str(record.get("worker") or "")
                job.attempts = int(record.get("attempt") or job.attempts + 1)
                job.lease_expires = float(record.get("expires") or 0.0)
            elif event == "heartbeat":
                job.lease_expires = float(record.get("expires") or 0.0)
            elif event == "requeued":
                job.state = LEASE_PENDING
                job.worker = None
                job.lease_expires = None
                job.not_before = float(record.get("not_before") or 0.0)
                # `or` would eat a legitimate 0 (a drain-refunded attempt).
                attempt = record.get("attempt")
                if attempt is not None:
                    job.attempts = int(attempt)
                job.last_error = record.get("error") or job.last_error
            elif event == "dead_letter":
                job.state = LEASE_DEAD_LETTER
                job.worker = None
                job.lease_expires = None
                job.last_error = record.get("error") or job.last_error
            elif event == "finished":
                job.state = LEASE_FINISHED
                job.worker = None
                job.lease_expires = None
                job.outcome = record.get("outcome")
            else:
                self._replay_skipped += 1
        with self._lock:
            self._jobs.update(jobs)
            self._live.update(
                (job_id, job) for job_id, job in jobs.items() if not job.terminal
            )
            for job in jobs.values():
                if job.state == LEASE_LEASED:
                    job.state = LEASE_PENDING
                    job.worker = None
                    job.lease_expires = None
                    job.not_before = 0.0
                    job.attempts = max(0, job.attempts - 1)  # refund
                    self._append(
                        {
                            "event": "requeued",
                            "job": job.id,
                            "reason": "daemon restart",
                            "attempt": job.attempts,
                            "not_before": 0.0,
                        }
                    )

    @property
    def replay_skipped(self) -> int:
        """Journal lines dropped during replay (torn/stale/orphaned)."""
        return self._replay_skipped

    def _retire(self, job: LedgerJob) -> None:
        # Caller holds the lock and has just moved ``job`` to a terminal
        # state: it leaves the live index, never the record map.
        job.worker = None
        job.lease_expires = None
        self._live.pop(job.id, None)

    # -- transitions ---------------------------------------------------
    def enqueue(
        self,
        job_id: str,
        spec: dict,
        priority: str = PRIORITY_NORMAL,
        deadline_at: float | None = None,
        max_depth: int | None = None,
    ) -> LedgerJob:
        """Add a pending job (idempotent: an existing id is returned).

        ``max_depth`` bounds the outstanding jobs (pending + leased):
        checked under the ledger's lock, so concurrent submitters can
        never overshoot it.  Raises :class:`~repro.batch.queue.QueueFull`
        at the bound and ``RuntimeError`` once the ledger is closed.
        """
        if priority not in PRIORITY_RANK:
            raise ValueError(
                f"unknown priority {priority!r}; choose from {PRIORITIES}"
            )
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                return existing
            if self._closed:
                raise RuntimeError("ledger is closed")
            if max_depth is not None and len(self._live) >= max_depth:
                raise QueueFull(f"queue is at its bounded depth ({max_depth})")
            job = LedgerJob(
                id=job_id,
                spec=dict(spec),
                priority=priority,
                deadline_at=deadline_at,
            )
            self._jobs[job_id] = job
            self._live[job_id] = job
            record = {"event": "enqueued", "job": job_id, "spec": job.spec}
            if priority != PRIORITY_NORMAL:
                record["priority"] = priority
            if deadline_at is not None:
                record["deadline_at"] = deadline_at
            self._append(record)
            self._cond.notify()
            return job

    def claim(self, worker: str, now: float | None = None) -> LedgerJob | None:
        """Lease the best claimable pending job to ``worker``.

        Claimable pending jobs (backoff gate passed, deadline not blown)
        are ranked by :func:`~repro.batch.queue.effective_priority` —
        lane rank minus age credit — with insertion order breaking ties,
        so ``high`` work runs first but a starved ``batch`` job ages its
        way to the front.  Deadline-expired pending jobs are *skipped*,
        not claimed: :meth:`deadline_expired` sweeps them to a terminal
        state without ever charging a lease against their retry budget.
        ``None`` when nothing is claimable.
        """
        now = time.time() if now is None else now
        with self._lock:
            best: LedgerJob | None = None
            best_score = 0.0
            for job in self._live.values():  # insertion order == FIFO tie-break
                if job.state != LEASE_PENDING or job.not_before > now:
                    continue
                if job.deadline_at is not None and job.deadline_at <= now:
                    continue  # deadline sweep's business, not a lease
                score = effective_priority(
                    job.priority, now - job.enqueued_at, self.aging_interval
                )
                if best is None or score < best_score:
                    best, best_score = job, score
            if best is None:
                return None
            best.state = LEASE_LEASED
            best.worker = worker
            best.attempts += 1
            best.lease_expires = now + self.lease_ttl
            self._counters["leases_granted"] += 1
            self._append(
                {
                    "event": "leased",
                    "job": best.id,
                    "worker": worker,
                    "attempt": best.attempts,
                    "expires": best.lease_expires,
                }
            )
            return best

    def heartbeat(self, job_id: str, now: float | None = None) -> bool:
        """Renew a lease; false if the job is no longer leased (stale)."""
        now = time.time() if now is None else now
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != LEASE_LEASED:
                return False
            job.lease_expires = now + self.lease_ttl
            self._append(
                {
                    "event": "heartbeat",
                    "job": job_id,
                    "expires": job.lease_expires,
                },
                durable=False,
            )
            return True

    def finish(self, job_id: str, outcome: str) -> None:
        """Terminal success path (also used for cancellations)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return
            job.state = LEASE_FINISHED
            job.outcome = outcome
            self._retire(job)
            self._append({"event": "finished", "job": job_id, "outcome": outcome})

    def fail_attempt(
        self, job_id: str, error: str, now: float | None = None
    ) -> str | None:
        """One attempt failed (worker died, crashed, or its lease expired).

        Returns the job's new state — re-queued with exponential backoff,
        or ``dead_letter`` once the retry budget (``max_attempts``) is
        spent.  ``None`` if the job is unknown or already terminal.
        """
        now = time.time() if now is None else now
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return None
            job.worker = None
            job.lease_expires = None
            job.last_error = error
            if job.attempts >= self.max_attempts:
                job.state = LEASE_DEAD_LETTER
                self._retire(job)
                self._counters["dead_letters"] += 1
                self._append({"event": "dead_letter", "job": job_id, "error": error})
                return LEASE_DEAD_LETTER
            backoff = min(
                self.backoff_cap,
                self.backoff_base * (2 ** max(0, job.attempts - 1)),
            )
            job.state = LEASE_PENDING
            job.not_before = now + backoff
            self._counters["requeues"] += 1
            self._append(
                {
                    "event": "requeued",
                    "job": job_id,
                    "reason": "attempt failed",
                    "error": error,
                    "attempt": job.attempts,
                    "not_before": job.not_before,
                }
            )
            return LEASE_PENDING

    def requeue_for_restart(self, job_id: str, reason: str = "shutdown") -> bool:
        """Re-queue a leased job without charging its retry budget.

        The drain path: the daemon is going away, not the job — the
        in-flight attempt is refunded so the next process retries it
        immediately.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != LEASE_LEASED:
                return False
            job.state = LEASE_PENDING
            job.worker = None
            job.lease_expires = None
            job.not_before = 0.0
            job.attempts = max(0, job.attempts - 1)
            self._append(
                {
                    "event": "requeued",
                    "job": job_id,
                    "reason": reason,
                    "attempt": job.attempts,
                    "not_before": 0.0,
                }
            )
            return True

    def expired(self, now: float | None = None) -> list[LedgerJob]:
        """Leased jobs whose TTL has lapsed (missed heartbeats).

        Read-only: the supervisor decides what expiry means (kill the
        worker, then :meth:`fail_attempt`).  Each expiry is counted once
        here; the job's ``lease_expires`` is cleared so a slow
        supervisor loop doesn't double-count it.
        """
        now = time.time() if now is None else now
        with self._lock:
            lapsed = []
            for job in self._live.values():
                if (
                    job.state == LEASE_LEASED
                    and job.lease_expires is not None
                    and job.lease_expires < now
                ):
                    job.lease_expires = None
                    self._counters["leases_expired"] += 1
                    lapsed.append(job)
            return lapsed

    def deadline_expired(self, now: float | None = None) -> list[LedgerJob]:
        """Finish pending jobs whose end-to-end deadline has passed.

        A job past its deadline when it *would* be claimed fails fast:
        it moves straight to FINISHED with outcome ``"deadline"`` —
        never leased, so zero mapper invocations and zero retry-budget
        charge.  Returns the swept jobs so the supervisor can mirror the
        terminal state into the client-facing registry.
        """
        now = time.time() if now is None else now
        with self._lock:
            swept = []
            for job in list(self._live.values()):
                if (
                    job.state == LEASE_PENDING
                    and job.deadline_at is not None
                    and job.deadline_at <= now
                ):
                    job.state = LEASE_FINISHED
                    job.outcome = "deadline"
                    self._retire(job)
                    self._counters["deadline_expired"] += 1
                    self._append(
                        {"event": "finished", "job": job.id, "outcome": "deadline"}
                    )
                    swept.append(job)
            return swept

    # -- inspection ----------------------------------------------------
    def get(self, job_id: str) -> LedgerJob | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[LedgerJob]:
        with self._lock:
            return list(self._jobs.values())

    def dead_letters(self) -> list[LedgerJob]:
        with self._lock:
            return [
                job for job in self._jobs.values() if job.state == LEASE_DEAD_LETTER
            ]

    def depth(self) -> int:
        """Jobs still owed work (pending + leased)."""
        with self._lock:
            return len(self._live)

    def lane_snapshot(self, now: float | None = None) -> dict[str, dict]:
        """Per-lane pending depth and oldest wait, for ``/metrics``."""
        now = time.time() if now is None else now
        with self._lock:
            body: dict[str, dict] = {
                lane: {"depth": 0, "oldest_wait": None} for lane in PRIORITIES
            }
            for job in self._live.values():
                if job.state != LEASE_PENDING:
                    continue
                lane = body.get(job.priority)
                if lane is None:
                    continue
                lane["depth"] += 1
                waited = now - job.enqueued_at
                if lane["oldest_wait"] is None or waited > lane["oldest_wait"]:
                    lane["oldest_wait"] = waited
            return body

    def pending_snapshot(self) -> list[LedgerJob]:
        """Pending jobs (shed picker input); callers must not mutate."""
        with self._lock:
            return [
                job for job in self._live.values() if job.state == LEASE_PENDING
            ]

    def counts(self) -> dict:
        """Per-state totals plus lifetime lease/retry counters."""
        with self._lock:
            by_state: dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            return {"by_state": by_state, **self._counters}

    def wait(self, timeout: float) -> None:
        """Block until a pending job may be claimable, or the ledger closes.

        Returns after at most ``timeout`` seconds.  :meth:`enqueue` wakes
        one waiter and :meth:`close` all of them, so an idle claimer picks
        up new work at once instead of polling for it.
        """

        def claimable() -> bool:
            now = time.time()
            return self._closed or any(
                job.state == LEASE_PENDING and job.not_before <= now
                for job in self._live.values()
            )

        with self._cond:
            self._cond.wait_for(claimable, timeout)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, timeout: float | None = 10.0) -> None:
        """Refuse new jobs, wake every waiter, flush the journal.

        Claims still work after close, so workers can drain what is left.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._journal is not None:
            self._journal.close(timeout=timeout)

    def __enter__(self) -> "JobLedger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
