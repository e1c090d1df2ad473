"""The DSE workloads: cold sweeps of the stock design space.

``dse-grid`` runs :func:`repro.dse.explore_grid` with plain HiGHS over
the 24-scenario :func:`repro.dse.default_space`; ``dse-adaptive`` runs
:func:`repro.dse.explore_adaptive` on a portfolio explorer over the 12
scenarios of that space with the uniform profile.

One run is a fixed list of requests, the way a DSE user issues them:

- *cold sweeps* (misses): a fresh explorer over an empty run store, so
  every promoted scenario is solved;
- *warm resume sweeps* (hits): a fresh explorer reopening the store a
  cold sweep wrote, so every answer comes from the store, zero solves
  (``repro dse --store runs.jsonl`` run a second time).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

from common import (
    DSE_TIME_LIMIT,
    BenchError,
    child_env,
    median,
    metric,
    percentile,
    remove_dir,
    scratch_dir,
    self_peak_rss_mb,
    stage_statuses,
)

#: Nominal wall of one cold sweep on a 2-core host; ``--seconds`` buys
#: this many cold sweeps (the count is fixed by the arguments, never by
#: a clock).
NOMINAL_SWEEP_S = {"grid": 5.0, "adaptive": 8.0}

#: Fewest cold sweeps in a run.  The gated sweep time is their median,
#: so one sweep that falls into a slow moment of the host cannot set it.
#: The adaptive sweeps of one run (mostly pure-Python rounding) varied by
#: 25% between them at the median run, the grid sweeps (mostly HiGHS) by
#: 14%, so the adaptive run takes more of them.
MIN_COLD_SWEEPS = {"grid": 3, "adaptive": 5}

#: Warm resume sweeps per run (hit samples).
WARM_SWEEPS = 16

#: Fresh interpreters started to time set-up; the median is reported.
#: They are interleaved with the warm resumes, which spreads both over
#: several seconds: on a shared host a short burst of requests can fall
#: entirely into one passing slowdown.
SETUP_REPEATS = 5

SETUP_CODE = """
import sys
from repro.dse import Explorer, RunStore, default_space
space = default_space()
Explorer(store=RunStore(sys.argv[1]), portfolio=sys.argv[2] == "1", time_limit={limit})
print("ready", flush=True)
"""


def measure_setup(portfolio: bool, work: str, rep: int) -> float:
    """Cold start to a constructed explorer, in a fresh interpreter."""
    store = os.path.join(work, f"setup-{rep}.jsonl")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE.format(limit=DSE_TIME_LIMIT), store, "1" if portfolio else "0"],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=work,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up child failed (exit {proc.returncode})")
    return elapsed


#: The adaptive sweep keeps the stock scenarios with this profile: both
#: twins, every pool and both formulations.  A full-space adaptive sweep
#: takes 20-30 s on a 2-core host, so three of them per run would not fit
#: the benchmark's time budget; this half takes 5-9 s and ``lp_round``
#: rounding is still its largest self time.
ADAPTIVE_PROFILE = "uniform"


def scenario_list(driver: str):
    """The driver's scenarios from the stock space, in stock order.

    The DSE workloads are the paper's fixed space, so ``--seed`` does not
    change them: every seed does the same work.  The order matters — the
    adaptive driver's band selection and the warm starts between
    neighbouring scenarios depend on it — so it is never shuffled.
    """
    from repro.dse import default_space

    scenarios = default_space().scenarios()
    if driver == "adaptive":
        scenarios = [s for s in scenarios if s.workload.profile == ADAPTIVE_PROFILE]
    return scenarios


def sweep(driver: str, scenarios, store_path: str):
    """One request: open the store, build the explorer, run the driver.

    Returns the exploration result and the status of every ILP stage
    solve it ran.
    """
    from repro.dse import Explorer, RunStore, explore_adaptive, explore_grid

    store = RunStore(store_path)
    statuses: list[str] = []
    try:
        explorer = Explorer(store=store, portfolio=driver == "adaptive", time_limit=DSE_TIME_LIMIT)
        map_all = explorer.mapper.map_all

        def counted_map_all(jobs, **kwargs):
            batch = map_all(jobs, **kwargs)
            statuses.extend(stage_statuses(batch))
            return batch

        explorer.mapper.map_all = counted_map_all
        explore = explore_grid if driver == "grid" else explore_adaptive
        return explore(scenarios, explorer), statuses
    finally:
        store.close()


def answers(result) -> dict:
    """fingerprint -> objectives of every answered scenario."""
    return {r.fingerprint: r.objectives.as_dict() for r in result.ok_results()}


def frontier_digest(result) -> str:
    rows = sorted(
        (r.scenario.name, r.objectives.area, r.objectives.energy, r.objectives.latency)
        for r in result.frontier()
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def validate(driver: str, result, checker) -> tuple[int, int]:
    """(answers attempted, answers that passed every check)."""
    from checks import CheckError, check_area_not_below_optimum, check_grid_optimum

    attempted = len(result.results)
    passed = 0
    for r in result.results:
        try:
            if not r.ok:
                raise CheckError(f"{r.scenario.name}: {r.error}")
            derived = checker.check(r.scenario, r.assignment, r.objectives.as_dict())
            if driver == "grid":
                check_grid_optimum(r.scenario, derived, checker.expected)
            else:
                check_area_not_below_optimum(r.scenario, derived, checker.expected, exact=False)
        except CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            continue
        passed += 1
    if driver == "grid" and attempted != 24:
        print(f"check failed: grid answered {attempted}/24 scenarios", file=sys.stderr)
        passed = min(passed, attempted - 1)
    return attempted, passed


def run_requests(driver: str, cold_count: int, warm_count: int, work: str, checker,
                 request=sweep, interludes=()):
    """The fixed request list; returns timings, answer counts and tallies.

    Each cold sweep is followed by its share of the warm resumes.  The
    ``interludes`` (set-up measurements) run at evenly spaced points
    between warm resumes, so hits and set-ups are sampled across the
    whole run rather than in one short burst that a passing slowdown of
    the host can cover.
    """
    scenarios = scenario_list(driver)
    plan = []
    for index in range(cold_count):
        plan.append(("cold", index))
        share = warm_count // cold_count + (1 if index < warm_count % cold_count else 0)
        plan += [("warm", index)] * share
    for k in range(len(interludes), 0, -1):
        plan.insert(max(1, round(k * len(plan) / (len(interludes) + 1))), ("interlude", k - 1))
    cold_s, warm_s = [], []
    attempted = passed = 0
    counts = None
    expected = {}
    for kind, index in plan:
        if kind == "interlude":
            interludes[index]()
            continue
        store_path = os.path.join(work, f"sweep-{index}.jsonl")
        start = time.perf_counter()
        result, statuses = request(driver, scenarios, store_path)
        elapsed = time.perf_counter() - start
        if kind == "warm":
            warm_s.append(elapsed)
            attempted += len(result.results)
            if result.ilp_solves != 0 or answers(result) != expected[index]:
                print("check failed: a warm resume sweep differs from its cold sweep", file=sys.stderr)
                continue
            passed += len(result.results)
            continue
        cold_s.append(elapsed)
        a, p = validate(driver, result, checker)
        attempted, passed = attempted + a, passed + p
        run_counts = {
            "ilp_solves": result.ilp_solves,
            "pruned": len(result.pruned),
            "answered": len(result.ok_results()),
            "frontier": len(result.frontier()),
            "frontier_digest": frontier_digest(result),
            "frontier_hv": result.hypervolume(),
            "proven_frac": statuses.count("optimal") / len(statuses) if statuses else 0.0,
        }
        if counts is not None and run_counts != counts:
            raise BenchError(f"cold sweeps disagree: {counts} vs {run_counts}")
        counts = run_counts
        expected[index] = answers(result)
    return cold_s, warm_s, attempted, passed, counts, len(scenarios)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One dse-grid or dse-adaptive run (``seed`` leaves the space as is)."""
    driver = workload.split("-", 1)[1]
    work = scratch_dir(workload)
    try:
        from checks import AnswerChecker

        checker = AnswerChecker()
        if trace:
            return _traced(driver, work, checker)
        setup: list[float] = []
        interludes = [
            lambda rep=rep: setup.append(measure_setup(driver == "adaptive", work, rep))
            for rep in range(SETUP_REPEATS)
        ]
        cold_count = max(MIN_COLD_SWEEPS[driver], round(seconds / NOMINAL_SWEEP_S[driver]))
        cold_s, warm_s, attempted, passed, counts, scenarios = run_requests(
            driver, cold_count, WARM_SWEEPS, work, checker, interludes=interludes
        )
        total_wall = sum(cold_s) + sum(warm_s)
        setup_s = metric(median(setup), "s")
        ok_frac = metric(passed / attempted, "frac")
        peak_rss_mb = metric(self_peak_rss_mb(), "MB")
        metrics = {
            "setup_s": setup_s,
            "jobs_per_s": metric(scenarios * (len(cold_s) + len(warm_s)) / total_wall, "1/s"),
            "miss_latency_p50_ms": metric(1000 * median(cold_s), "ms"),
            "ok_frac": ok_frac,
            "peak_rss_mb": peak_rss_mb,
        }
        report = {
            "workload": workload,
            "metrics": {
                "setup_s": setup_s,
                "sweep_s": metric(median(cold_s), "s"),
                "frontier_hv": metric(counts["frontier_hv"], "area.pJ.step"),
                "proven_frac": metric(counts["proven_frac"], "frac"),
                "ok_frac": ok_frac,
                "peak_rss_mb": peak_rss_mb,
                "hit_latency_p50_ms": metric(1000 * median(warm_s), "ms"),
                "hit_latency_p95_ms": metric(1000 * percentile(warm_s, 0.95), "ms"),
            },
            "samples": {"cold_sweeps": len(cold_s), "warm_sweeps": len(warm_s), "cold_s": cold_s, "setup_s": setup},
        }
        return {"attempted": attempted, "failed": attempted - passed, "metrics": metrics, "counts": counts, "report": report}
    finally:
        remove_dir(work)


def _traced(driver: str, work: str, checker) -> dict:
    """One untraced and one traced cold sweep (plus warm resumes)."""
    import spans

    for name in ("warmup", "plain", "traced"):
        os.makedirs(os.path.join(work, name))
    # Lazy imports inside the solver stack are paid once per process;
    # pay them before both timed passes so the overhead ratio compares
    # like with like.
    sweep(driver, scenario_list(driver)[:1], os.path.join(work, "warmup", "s.jsonl"))
    cold_plain, _, attempted, passed, _, _ = run_requests(driver, 1, 0, os.path.join(work, "plain"), checker)
    tracer = spans.Tracer()
    spans.install(tracer)
    traced_request = tracer.wrap("bench.request", sweep)
    cold_traced, warm_traced, a, p, counts, _ = run_requests(
        driver, 1, WARM_SWEEPS, os.path.join(work, "traced"), checker, request=traced_request
    )
    merged = spans.merge([tracer.snapshot()])
    from layers import layer_metrics

    extra = {
        "frontier_hv": counts["frontier_hv"],
        "ilp_solves": counts["ilp_solves"],
        "pruned": counts["pruned"],
        "overhead_ratio": cold_traced[0] / cold_plain[0],
        "traced_wall_s": sum(cold_traced) + sum(warm_traced),
    }
    return {
        "attempted": attempted + a,
        "failed": attempted + a - passed - p,
        "metrics": layer_metrics(merged, extra),
        "counts": counts,
        "report": {},
    }
