"""Repository benchmark: DSE sweeps and mapping-daemon traffic.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload dse-grid --seed 1 --seconds 12 --trace 0
    python3 e2ebench/run.py --workload serve-thread --seed 1 --seconds 12 --trace 1
    python3 e2ebench/run.py --self-test
    python3 e2ebench/run.py --steady 3 --workload dse-grid --seed 1 --seconds 12

Every run does a fixed list of operations derived from ``--seed`` and
``--seconds`` (which sets how many operations, never how long to loop),
checks every answer independently, and prints one JSON object as its last
line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
the workload once untraced and once with per-layer spans and reports the
per-layer metrics.  e2ebench/README.md says what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import HERE, ROOT, BenchError, require_program  # noqa: E402

WORKLOADS = ("dse-grid", "dse-adaptive", "serve-thread", "serve-fleet")

#: Counts that must repeat exactly between runs of one workload and seed.
STEADY_COUNT_KEYS = (
    "ilp_solves", "pruned", "answered", "frontier", "frontier_digest",
    "frontier_hv", "proven_frac", "jobs", "hits", "misses", "greedy", "solved",
)

#: Per-layer counts that follow the clock: the fleet supervisor scans the
#: ledger on every 50 ms tick, so its call count scales with wall time.
CLOCK_DRIVEN_COUNTS = ("fleet.ledger_ops",)


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if workload.startswith("dse-"):
        import dse_workload

        return dse_workload.run(workload, seed, seconds, trace)
    import serve_workload

    return serve_workload.run(workload, seed, seconds, trace)


def end_to_end_bounds() -> dict:
    """Metric name -> bound, from the ``end_to_end`` list of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {entry["name"]: entry["bound"] for entry in json.load(handle)["end_to_end"]}


def steady(workload: str, seed: int, seconds: int, repeats: int) -> int:
    """Run one workload and seed ``repeats`` times in fresh interpreters.

    Asserts that every count (solves, pruned scenarios, hits and misses,
    jobs) and the frontier digest repeat exactly and that each end-to-end
    metric's spread (range over median), ``setup_s`` included, stays
    within its bound in BENCHMARK.json.  Two more runs, traced, must
    agree on every per-layer count (races, wins, discarded proofs, store
    and cache traffic), and no solve may come within 10% of its time cap.
    """
    bounds = end_to_end_bounds()

    def once(trace: int) -> tuple[dict, dict]:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(out.stderr[-2000:], file=sys.stderr)
            raise BenchError(f"run exited {out.returncode}")
        lines = out.stdout.strip().splitlines()
        counts = next(json.loads(l[len("counts "):]) for l in lines if l.startswith("counts "))
        return counts, json.loads(lines[-1])

    runs = [once(0) for _ in range(repeats)]
    traced = [once(1) for _ in range(2)]
    problems = []
    first = runs[0][0]
    for counts, _ in runs[1:] + traced:
        for key in STEADY_COUNT_KEYS:
            if counts.get(key) != first.get(key):
                problems.append(f"count {key} differs: {first.get(key)} vs {counts.get(key)}")
    (_, one), (_, two) = traced
    for name, entry in one["metrics"].items():
        if name in CLOCK_DRIVEN_COUNTS or entry["unit"] != "count":
            continue
        if entry["value"] != two["metrics"][name]["value"]:
            problems.append(f"per-layer {name} differs: {entry['value']} vs {two['metrics'][name]['value']}")
    for _, result in traced:
        limit_bound = result["metrics"]["ilp.limit_bound_solves"]["value"]
        if limit_bound:
            problems.append(f"{limit_bound} solve(s) came within 10% of their time cap")
    for _, result in runs + traced:
        if not result["correct"] or result["failed"]:
            problems.append("a run reported incorrect answers")
    for name, entry in runs[0][1]["metrics"].items():
        values = [r["metrics"][name]["value"] for _, r in runs]
        mid = statistics.median(values)
        spread = (max(values) - min(values)) / mid if mid else 0.0
        print(f"{name}: median {mid:.6g} {entry['unit']}, spread {spread:.1%} over {len(values)} runs")
        if spread > bounds[name]:
            problems.append(f"{name} spread {spread:.1%} exceeds its bound {bounds[name]:.0%}")
    for problem in problems:
        print(f"STEADY FAIL: {problem}")
    print("steady: ok" if not problems else f"steady: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="assert the answer checks reject mutated answers")
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="determinism/steadiness self-check over N runs")
    args = parser.parse_args(argv)
    try:
        require_program()
        if args.self_test:
            from checks import self_test

            rejected = self_test()
            print(f"self-test: {len(rejected)} mutations rejected: {', '.join(rejected)}")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.steady:
            return steady(args.workload, args.seed, args.seconds, args.steady)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("report " + json.dumps(result["report"], sort_keys=True))
    print("counts " + json.dumps(result["counts"], sort_keys=True))
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
