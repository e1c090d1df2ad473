"""The fleet's worker process: one solver loop behind a task queue.

Each worker is a separate OS process spawned by the supervisor (spawn
context, never fork — the daemon carries journal/probe/handler threads
that fork would duplicate mid-lock).  A worker owns its *own*
:class:`~repro.dse.explorer.Explorer` stack — its own handles on the
shared sharded :class:`~repro.dse.store.RunStore` and on the shared
:class:`~repro.batch.cache.ResultCache` directory, which the daemon and
every sibling worker open too — so SIGKILLing it can never corrupt the
supervisor's state: the store's per-shard flock'd appends are
crash-safe, the cache publishes each entry atomically under a name no
other writer uses, and everything else dies with the process.

Protocol, all over multiprocessing queues (tasks in, messages out)::

    supervisor -> worker : {"job": id, "spec": wire payload,
                            "deadline_at": epoch | None} | None (quit)
    worker -> supervisor : {"type": "ready", ...}
                           {"type": "started", "job": ...}
                           {"type": "heartbeat", "job": ...}   every few s
                           {"type": "result", "job", "results", "cancelled"}
                           {"type": "failed", "job", "error"}
                           {"type": "deadline", "job": ...}  expired unstarted

A task whose ``deadline_at`` has already passed when the worker picks it
up is reported ``deadline`` without touching the mapper; otherwise the
remaining deadline caps the solver's ``time_limit`` so a runaway solve
cannot overshoot the end-to-end budget.

Heartbeats come from a side thread so a long ILP solve still renews the
job's lease; if the *process* dies, the heartbeats stop, the lease
expires, and the supervisor re-queues the job — that is the whole
crash-tolerance story, no worker-side cleanup required.
"""

from __future__ import annotations

import importlib.util
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from .. import trace
from ..batch.cache import ResultCache
from ..batch.engine import BatchMapper
from ..dse.store import TIER_GREEDY, RunStore
from .wire import WireError, parse_job, result_payload

#: Smallest solver budget (seconds) the deadline watchdog will grant; a
#: job with less remaining than this fails fast instead of starting a
#: solve that cannot possibly finish.
MIN_DEADLINE_BUDGET = 0.05


def capped_time_limit(
    spec_limit: float | None,
    default_limit: float | None,
    deadline_at: float | None,
    now: float | None = None,
) -> float | None:
    """The solver ``time_limit`` after the deadline watchdog's cap.

    The effective limit starts as the job's own ``time_limit`` (falling
    back to the worker's default) and is then capped at the seconds
    remaining until ``deadline_at`` — a runaway solve cannot overshoot
    the end-to-end deadline.  Returns ``None`` only when there is no
    limit from any source.
    """
    limit = spec_limit if spec_limit is not None else default_limit
    if deadline_at is None:
        return limit
    now = time.time() if now is None else now
    remaining = max(MIN_DEADLINE_BUDGET, deadline_at - now)
    return remaining if limit is None else min(limit, remaining)


@dataclass(frozen=True)
class FleetConfig:
    """Everything a worker needs to build its solver stack (picklable).

    ``mapper_factory`` is a ``"/path/to/file.py:function"`` reference
    resolved inside the worker process — spawn cannot pickle closures,
    and test helpers (fault injection) live outside the import path.
    The factory is called with ``dict(mapper_kwargs)`` and must return a
    BatchMapper-compatible object.
    """

    store_path: str | None = None
    store_shards: int = 8
    cache_dir: str | None = None
    solver_jobs: int = 1
    portfolio: bool = False
    time_limit: float | None = 10.0
    lease_ttl: float = 15.0
    heartbeat_interval: float = 3.0
    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    drain_timeout: float = 20.0
    mapper_factory: str | None = None
    mapper_kwargs: tuple = field(default_factory=tuple)
    #: Span-journal directory; ``None`` disables tracing in the worker.
    trace_dir: str | None = None
    #: Slow-span watchdog threshold (seconds), forwarded to the runtime.
    trace_slow_span: float | None = None

    def build_mapper(self, worker_id: int):
        """The worker's private engine over the shared result cache.

        ``mapper_factory`` (chaos tests, instrumentation) is called with
        the same ``cache=`` the default engine would get.
        """
        cache = ResultCache(path=self.cache_dir) if self.cache_dir is not None else None
        if self.mapper_factory is not None:
            factory = _load_factory(self.mapper_factory)
            return factory(cache=cache, **dict(self.mapper_kwargs))
        return BatchMapper(
            jobs=self.solver_jobs, portfolio=self.portfolio, cache=cache
        )

    def build_store(self) -> RunStore:
        if self.store_path is None:
            return RunStore()
        path = Path(self.store_path)
        if path.is_dir():
            return RunStore(path)  # manifest knows the shard count
        return RunStore(path, shards=self.store_shards)


def _load_factory(reference: str):
    """Resolve ``"/path/to/file.py:function"`` in this process.

    File-path based (not module-path) because chaos helpers live under
    ``tests/``, which is not an importable package in a spawned child.
    """
    path, _, name = reference.partition(":")
    if not name:
        raise ValueError(
            f"mapper_factory must look like 'file.py:function', got {reference!r}"
        )
    spec = importlib.util.spec_from_file_location("repro_fleet_factory", path)
    if spec is None or spec.loader is None:
        raise ValueError(f"cannot load mapper factory from {path!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name)


def _task_context(task: dict, spec) -> "trace.TraceContext | None":
    """The trace context a task travels under, if any (never raises).

    The supervisor sends the encoded context both as a task key and
    inside the spec payload; the task key wins (it is what the live
    dispatch saw), the spec copy covers ledger replays.
    """
    encoded = task.get("trace") or spec.trace
    if not encoded:
        return None
    try:
        return trace.parse_context(encoded)
    except ValueError:
        return None


def _heartbeat_message(job_id: str, worker: str, runtime) -> dict:
    message = {"type": "heartbeat", "job": job_id, "worker": worker}
    if runtime is not None:
        progress = runtime.progress_for(job_id)
        if progress is not None:
            message["progress"] = progress
    return message


class _Heartbeat(threading.Thread):
    """Renews one job's lease while the worker thread is deep in a solve."""

    def __init__(self, emit, interval: float) -> None:
        super().__init__(name="repro-worker-heartbeat", daemon=True)
        self._emit = emit
        self._interval = interval
        self._stop = threading.Event()

    def run(self) -> None:
        while not self._stop.wait(timeout=self._interval):
            self._emit()

    def stop(self) -> None:
        self._stop.set()


def worker_main(
    worker_id: int,
    config: FleetConfig,
    task_queue,
    result_queue,
    cancel_event,
) -> None:
    """A worker process's entire life (also unit-testable in-process).

    ``task_queue``/``result_queue`` are multiprocessing queues (plain
    ``queue.Queue`` works for in-process tests); ``cancel_event`` is a
    shared event the supervisor sets to abort the *current* job at the
    next solve boundary.
    """
    # Lazy construction, inside the child: the solver stack is neither
    # picklable nor fork-safe, so it must be born here.
    from ..dse.explorer import Explorer

    store = config.build_store()
    mapper = config.build_mapper(worker_id)
    explorer = Explorer(store=store, mapper=mapper, time_limit=config.time_limit)
    name = f"worker-{worker_id}"
    runtime = None
    if config.trace_dir is not None:
        runtime = trace.install(
            trace.TraceRuntime(
                config.trace_dir,
                f"{name}-{os.getpid()}",
                slow_span_threshold=config.trace_slow_span,
            )
        )
    result_queue.put({"type": "ready", "worker": name, "pid": os.getpid()})
    try:
        while True:
            task = task_queue.get()
            if task is None:
                return
            job_id = task["job"]
            deadline_at = task.get("deadline_at")
            if deadline_at is not None and deadline_at <= time.time():
                # Claimed but already past its end-to-end deadline: fail
                # fast, mapper never invoked, no solve burned.
                result_queue.put(
                    {"type": "deadline", "job": job_id, "worker": name}
                )
                continue
            result_queue.put({"type": "started", "job": job_id, "worker": name})
            heartbeat = _Heartbeat(
                lambda: result_queue.put(
                    _heartbeat_message(job_id, name, runtime)
                ),
                config.heartbeat_interval,
            )
            heartbeat.start()
            try:
                spec = parse_job(task["spec"])
                context = _task_context(task, spec)
                with trace.activate(context, job_id):
                    with trace.span(
                        "worker-solve", job=job_id, tier=spec.tier, worker=name
                    ):
                        # Siblings may have finished scenarios since this
                        # store handle last looked; the reload keeps
                        # repeats zero-solve.
                        store.reload()
                        if spec.tier == TIER_GREEDY:
                            results = explorer.evaluate_greedy(
                                list(spec.scenarios)
                            )
                        else:
                            results = explorer.evaluate_ilp(
                                list(spec.scenarios),
                                time_limit=capped_time_limit(
                                    spec.time_limit,
                                    config.time_limit,
                                    deadline_at,
                                ),
                                should_cancel=cancel_event.is_set,
                            )
                result_queue.put(
                    {
                        "type": "result",
                        "job": job_id,
                        "worker": name,
                        "results": [result_payload(result) for result in results],
                        "cancelled": bool(cancel_event.is_set()),
                    }
                )
            except (WireError, KeyError, TypeError) as exc:
                result_queue.put(
                    {
                        "type": "failed",
                        "job": job_id,
                        "worker": name,
                        "error": f"unrunnable task: {exc}",
                    }
                )
            except Exception as exc:
                result_queue.put(
                    {
                        "type": "failed",
                        "job": job_id,
                        "worker": name,
                        "error": f"{type(exc).__name__}: {exc}",
                        "traceback": traceback.format_exc(limit=8),
                    }
                )
            finally:
                heartbeat.stop()
                if runtime is not None:
                    # Flushed per task so a SIGKILL between tasks loses
                    # nothing; the lease re-queue covers mid-task kills.
                    runtime.flush()
                    runtime.clear_progress(job_id)
    finally:
        store.close()
        if runtime is not None:
            runtime.close()
