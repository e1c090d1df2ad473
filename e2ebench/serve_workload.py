"""The service workloads: closed-loop clients against the real daemon.

The daemon runs the way users start it, in its own process on a free
port::

    repro serve --port 0 --store S --cache-dir C --journal J            # serve-thread
    repro serve --port 0 --store S --cache-dir C --journal J \\
                --fleet 2 --ledger L                                    # serve-fleet

Two client threads (closed loop: each sends its next job only after the
previous one's terminal event arrived on the NDJSON stream) work through
a fixed, seed-generated job list:

- ~40% *hits*: ``area`` ILP requests for a hot set the benchmark wrote to
  the run store before set-up is timed;
- ~20% *greedy* requests, and ~40% *fresh* ``area`` ILPs on homogeneous
  pools; both carry a hotspot profile with a unique frame seed, so each
  is a miss (a new fingerprint: profile simulation plus a solve).

A job's latency runs from just before ``POST /jobs`` to the terminal
event on its stream; it is never polled.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.request

from common import (
    HERE,
    BenchError,
    child_env,
    median,
    metric,
    percentile,
    proc_peak_rss_mb,
    remove_dir,
    scratch_dir,
)

#: Jobs per second of ``--seconds`` (the job count is fixed by the
#: arguments, never by a clock).
JOBS_PER_SECOND = 32

#: Share of hit, greedy and fresh jobs in the list.
HIT_SHARE, GREEDY_SHARE = 0.4, 0.2

#: Closed-loop client threads (at most the host's 2 cores).
CLIENTS = 2

#: Daemon starts timed per run; the median is reported.  A thread-mode
#: start (about 1 s) varied by up to 45% between the starts of one run,
#: so it gets more samples; the fleet's three starts of one run agreed
#: within about 10%, and each costs 3-4 s of the run.
SETUP_REPEATS = {"serve-thread": 5, "serve-fleet": 3}

FLEET_SIZE = 2
SCALE = 0.12


# ----------------------------------------------------------------------
# The job list
# ----------------------------------------------------------------------
def hot_scenarios():
    """The hot set: every ``area`` scenario of the stock space (12)."""
    from repro.dse import default_space

    return [s for s in default_space(scale=SCALE).scenarios() if s.formulation.stages == ("area",)]


def job_list(seed: int, count: int) -> list[dict]:
    """``count`` jobs: hits, greedy misses and fresh ILP misses.

    The composition is the same for every seed: each class cycles
    through its instance shapes (twin x pool) evenly.  The seed sets the
    order of the list, the order within each cycle and the frame seeds
    of the misses, so different seeds do the same amount of work.
    """
    from repro.dse.scenario import ArchitectureSpec, FormulationSpec, Scenario, WorkloadSpec

    rng = random.Random(seed)
    hits = round(HIT_SHARE * count)
    greedy = round(GREEDY_SHARE * count)
    kinds = ["hit"] * hits + ["greedy"] * greedy + ["fresh"] * (count - hits - greedy)
    rng.shuffle(kinds)
    homogeneous = [ArchitectureSpec(kind="homogeneous", dimension=d) for d in (12, 16)]
    shapes = {
        "hit": hot_scenarios(),
        "greedy": [(n, a) for n in "CE" for a in homogeneous + [ArchitectureSpec(kind="heterogeneous")]],
        "fresh": [(n, a) for n in "CE" for a in homogeneous],
    }
    cycles: dict[str, list] = {kind: [] for kind in shapes}
    jobs = []
    for index, kind in enumerate(kinds):
        if not cycles[kind]:
            cycles[kind] = list(shapes[kind])
            rng.shuffle(cycles[kind])
        shape = cycles[kind].pop()
        if kind == "hit":
            jobs.append({"kind": kind, "scenario": shape, "tier": "ilp"})
            continue
        network, arch = shape
        scenario = Scenario(
            architecture=arch,
            workload=WorkloadSpec(
                network=network, scale=SCALE, profile="hotspot", seed=seed * 1_000_000 + index + 1
            ),
            formulation=FormulationSpec(stages=("area",)),
        )
        jobs.append({"kind": kind, "scenario": scenario, "tier": "greedy" if kind == "greedy" else "ilp"})
    return jobs


def prime_store(store_path: str, fleet: bool) -> None:
    """Write the hot set's answers to the run store (before set-up)."""
    from repro.dse import Explorer, RunStore

    store = RunStore(store_path, shards=8 if fleet else None)
    try:
        results = Explorer(store=store, time_limit=10.0).evaluate_ilp(hot_scenarios())
    finally:
        store.close()
    if not all(r.ok for r in results):
        raise BenchError("priming the hot set failed")


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` process and its readiness/shutdown protocol."""

    def __init__(self, work: str, fleet: bool, trace_out: str | None = None) -> None:
        self.work = work
        self.fleet = fleet
        args = [
            "serve", "--port", "0",
            "--store", os.path.join(work, "store" if fleet else "store.jsonl"),
            "--cache-dir", os.path.join(work, "cache"),
            "--journal", os.path.join(work, "journal.jsonl"),
        ]
        if fleet:
            args += ["--fleet", str(FLEET_SIZE), "--ledger", os.path.join(work, "ledger.jsonl")]
        if trace_out is None:
            self.cmd = [sys.executable, "-m", "repro.cli"] + args
        else:
            self.cmd = [sys.executable, os.path.join(HERE, "traced_daemon.py"), trace_out] + args
        self.proc = None
        self.url = None
        self.log_path = None
        self.worker_pids: list[int] = []

    def start(self, index: int) -> float:
        """Start the process; seconds until it can serve a request."""
        self.log_path = os.path.join(self.work, f"daemon-{index}.log")
        log = open(self.log_path, "w")
        start = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                self.cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=self.work
            )
        finally:
            log.close()
        deadline = start + 120
        while self.url is None:
            self._check_alive(deadline)
            with open(self.log_path) as handle:
                for line in handle:
                    if "listening on " in line:
                        self.url = line.split("listening on ", 1)[1].strip()
            time.sleep(0.002)
        while not self._ready():
            self._check_alive(deadline)
            time.sleep(0.002)
        return time.perf_counter() - start

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None or time.perf_counter() > deadline:
            self.kill()
            with open(self.log_path) as handle:
                tail = handle.read()[-1500:]
            raise BenchError(f"daemon did not become ready:\n{tail}")

    def health(self) -> dict | None:
        try:
            with urllib.request.urlopen(self.url + "/healthz", timeout=5) as response:
                return json.loads(response.read().decode())
        except OSError:
            return None

    def _ready(self) -> bool:
        health = self.health()
        if health is None:
            return False
        if not self.fleet:
            return True
        workers = health.get("fleet", {}).get("workers", [])
        self.worker_pids = [w["pid"] for w in workers if w.get("pid")]
        return len(workers) == FLEET_SIZE and all(w["ready"] and w["alive"] for w in workers)

    def peak_rss_mb(self) -> float:
        """Daemon plus worker processes, each at its own peak."""
        total = proc_peak_rss_mb(self.proc.pid)
        health = self.health() or {}
        for worker in health.get("fleet", {}).get("workers", []):
            if worker.get("pid"):
                total += proc_peak_rss_mb(worker["pid"])
        return total

    def stop(self) -> None:
        try:
            request = urllib.request.Request(self.url + "/shutdown", data=b"", method="POST")
            urllib.request.urlopen(request, timeout=10).close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        if self.proc.returncode not in (0, None):
            raise BenchError(f"daemon exited {self.proc.returncode}")

    def kill(self) -> None:
        """Failure path: kill the daemon and the fleet workers it spawned.

        A killed daemon cannot join its workers, so they are killed here
        and waited for by pid (they are not this process's children).
        """
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.kill()
        self.proc.wait(timeout=30)
        for pid in self.worker_pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                continue
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and os.path.exists(f"/proc/{pid}"):
                time.sleep(0.05)


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------
def drive(url: str, jobs: list[dict]) -> tuple[float, list[dict]]:
    """Run the job list with closed-loop clients; (wall, per-job records)."""
    from repro.service.client import ServiceClient
    from repro.service.wire import TERMINAL_STATUSES, JobSpec

    records: list[dict | None] = [None] * len(jobs)

    def client_loop(offset: int) -> None:
        client = ServiceClient(url, timeout=120)
        for position in range(offset, len(jobs), CLIENTS):
            job = jobs[position]
            payload = JobSpec(scenarios=(job["scenario"],), tier=job["tier"]).payload()
            try:
                start = time.perf_counter()
                accepted = client.submit(payload=payload)
                events = []
                received = None
                for event in client.stream(accepted["id"], timeout=120):
                    events.append(event)
                    if event.get("event") in TERMINAL_STATUSES:
                        received = time.time()
                        latency = time.perf_counter() - start
                records[position] = {"latency": latency, "events": events, "received": received}
            except Exception as exc:  # a failed job counts as missing
                records[position] = {"error": f"{type(exc).__name__}: {exc}"}

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, records


def validate(jobs: list[dict], records: list[dict], checker) -> dict:
    """Check every answer; split latencies and stream timings by class."""
    from checks import CheckError, check_area_not_below_optimum

    tally = {"passed": 0, "hit_ms": [], "miss_ms": [], "queue_ms": [], "run_ms": [],
             "stream_ms": [], "solved": 0}
    for job, record in zip(jobs, records):
        try:
            if record is None or "error" in record:
                raise CheckError(f"job failed: {record and record.get('error')}")
            events = record["events"]
            terminal = events[-1]
            if terminal.get("event") != "done":
                raise CheckError(f"job ended {terminal.get('event')}: {terminal.get('error')}")
            results = [e for e in events if e.get("event") == "result"]
            if len(results) != 1 or results[0]["status"] != "ok":
                raise CheckError(f"expected one ok result, got {results}")
            result = results[0]
            derived = checker.check(job["scenario"], result["assignment"], result["objectives"])
            if job["tier"] == "ilp":
                check_area_not_below_optimum(job["scenario"], derived, checker.expected, exact=True)
            if bool(result.get("cached")) != (job["kind"] == "hit"):
                raise CheckError(f"planned {job['kind']} answered with cached={result.get('cached')}")
        except CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            continue
        tally["passed"] += 1
        tally["solved"] += int(result.get("solves", 0))
        key = "hit_ms" if job["kind"] == "hit" else "miss_ms"
        tally[key].append(1000 * record["latency"])
        stamps = {e.get("event"): e.get("ts") for e in events}
        if stamps.get("queued") and stamps.get("running"):
            tally["queue_ms"].append(1000 * (stamps["running"] - stamps["queued"]))
        if stamps.get("running") and stamps.get("done"):
            tally["run_ms"].append(1000 * (stamps["done"] - stamps["running"]))
        if stamps.get("done") and record["received"]:
            tally["stream_ms"].append(1000 * (record["received"] - stamps["done"]))
    return tally


def serve_pass(work: str, fleet: bool, jobs: list[dict], setups: int,
               checker, trace_out: str | None = None) -> dict:
    """Prime, start the daemon ``setups`` times, drive the job list once."""
    prime_store(os.path.join(work, "store" if fleet else "store.jsonl"), fleet)
    setup = []
    daemon = None
    try:
        for index in range(setups):
            daemon = Daemon(work, fleet, trace_out)
            setup.append(daemon.start(index))
            if index < setups - 1:
                daemon.stop()
        wall, records = drive(daemon.url, jobs)
        rss = daemon.peak_rss_mb()
        daemon.stop()
    finally:
        if daemon is not None:
            daemon.kill()
    tally = validate(jobs, records, checker)
    tally.update(setup=setup, wall=wall, rss=rss)
    return tally


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from checks import AnswerChecker

    fleet = workload == "serve-fleet"
    checker = AnswerChecker()
    jobs = job_list(seed, max(10, JOBS_PER_SECOND * seconds))
    counts = {
        "jobs": len(jobs),
        "hits": sum(1 for j in jobs if j["kind"] == "hit"),
        "greedy": sum(1 for j in jobs if j["kind"] == "greedy"),
    }
    counts["misses"] = counts["jobs"] - counts["hits"]
    work = scratch_dir(workload)
    try:
        if trace:
            return _traced(work, fleet, jobs, checker, counts)
        tally = serve_pass(work, fleet, jobs, SETUP_REPEATS[workload], checker)
    finally:
        remove_dir(work)
    counts["solved"] = tally["solved"]
    attempted = len(jobs)
    metrics = {
        "setup_s": metric(median(tally["setup"]), "s"),
        "jobs_per_s": metric(attempted / tally["wall"], "1/s"),
        "miss_latency_p50_ms": metric(median(tally["miss_ms"]), "ms"),
        "ok_frac": metric(tally["passed"] / attempted, "frac"),
        "peak_rss_mb": metric(tally["rss"], "MB"),
    }
    report = {
        "workload": workload,
        "metrics": {
            **metrics,
            "hit_latency_p50_ms": metric(median(tally["hit_ms"]), "ms"),
            "hit_latency_p90_ms": metric(percentile(tally["hit_ms"], 0.90), "ms"),
            "hit_latency_p95_ms": metric(percentile(tally["hit_ms"], 0.95), "ms"),
            "miss_latency_p90_ms": metric(percentile(tally["miss_ms"], 0.90), "ms"),
            "miss_latency_p95_ms": metric(percentile(tally["miss_ms"], 0.95), "ms"),
        },
        "samples": {"hits": len(tally["hit_ms"]), "misses": len(tally["miss_ms"]), "setup_s": tally["setup"]},
    }
    return {"attempted": attempted, "failed": attempted - tally["passed"], "metrics": metrics,
            "counts": counts, "report": report}


def _traced(work: str, fleet: bool, jobs: list[dict], checker, counts: dict) -> dict:
    """The job list once against a plain daemon, once against a traced one."""
    import spans
    from layers import layer_metrics

    plain_dir = os.path.join(work, "plain")
    traced_dir = os.path.join(work, "traced")
    trace_out = os.path.join(work, "spans")
    for path in (plain_dir, traced_dir, trace_out):
        os.makedirs(path)
    plain = serve_pass(plain_dir, fleet, jobs, 1, checker)
    traced = serve_pass(traced_dir, fleet, jobs, 1, checker, trace_out=trace_out)
    snapshots = spans.read_dir(trace_out)
    workers = [s for s in snapshots if s.get("role") == "worker"]
    merged = spans.merge(snapshots)
    worker_busy = sum(row[1] for snap in workers for row in snap["roots"].values())
    runs = merged["counters"].get("fleet.daemon_runs", 0)
    extra = {
        "jobs": counts["jobs"],
        "hits": counts["hits"],
        "misses": counts["misses"],
        "queue_wait_ms_p50": percentile(traced["queue_ms"], 0.5),
        "queue_wait_ms_p95": percentile(traced["queue_ms"], 0.95),
        "run_ms": percentile(traced["run_ms"], 0.5),
        "stream_ms": percentile(traced["stream_ms"], 0.5),
        "ipc_ms": 1000 * (merged["counters"].get("fleet.daemon_run_s", 0) - worker_busy) / runs if runs else 0,
        "overhead_ratio": traced["wall"] / plain["wall"],
        "traced_wall_s": traced["wall"],
    }
    counts["solved"] = traced["solved"]
    attempted = 2 * len(jobs)
    passed = plain["passed"] + traced["passed"]
    return {
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": layer_metrics(merged, extra),
        "counts": counts,
        "report": {"processes": merged["processes"]},
    }
