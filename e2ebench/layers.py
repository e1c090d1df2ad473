"""The per-layer metric table printed by traced runs.

Every traced run prints every metric below; a layer a workload never
enters reads 0.  Span metrics are *self* times (a span's duration minus
the time its child spans cover), summed over every process of the run.
"""

from __future__ import annotations

from common import median, metric, percentile

#: (metric name, unit) in print order.
PER_LAYER = (
    ("ilp.solve_calls", "count"),
    ("ilp.solve_s", "s"),
    ("ilp.lower_s", "s"),
    ("ilp.presolve_s", "s"),
    ("ilp.limit_bound_solves", "count"),
    ("mapping.round_calls", "count"),
    ("mapping.round_s", "s"),
    ("mapping.build_s", "s"),
    ("mapping.greedy_s", "s"),
    ("mapping.pipeline_s", "s"),
    ("batch.races", "count"),
    ("batch.wins.highs", "count"),
    ("batch.wins.lp_round", "count"),
    ("batch.wins.bnb", "count"),
    ("batch.arm_s.highs", "s"),
    ("batch.arm_s.lp_round", "s"),
    ("batch.arm_s.bnb", "s"),
    ("batch.proofs_discarded", "count"),
    ("batch.proven_frac", "frac"),
    ("batch.portfolio_s", "s"),
    ("batch.engine_s", "s"),
    ("batch.cache.hit_ratio", "frac"),
    ("dse.registry_calls", "count"),
    ("dse.registry_s", "s"),
    ("dse.store.lookups", "count"),
    ("dse.store.hits", "count"),
    ("dse.store.appends", "count"),
    ("dse.store.append_s", "s"),
    ("dse.store.replay_s", "s"),
    ("dse.explorer_s", "s"),
    ("dse.greedy_rung_s", "s"),
    ("dse.objectives_s", "s"),
    ("dse.pareto_s", "s"),
    ("dse.driver_s", "s"),
    ("dse.ilp_solves", "count"),
    ("dse.pruned", "count"),
    ("dse.frontier_hv", "area.pJ.step"),
    ("service.jobs", "count"),
    ("service.hits", "count"),
    ("service.misses", "count"),
    ("service.submit_ms", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p95", "ms"),
    ("service.run_ms", "ms"),
    ("service.stream_ms", "ms"),
    ("service.http_s", "s"),
    ("service.run_s", "s"),
    ("service.registry_s", "s"),
    ("service.wire_s", "s"),
    ("service.admission_s", "s"),
    ("service.journal_appends", "count"),
    ("fleet.spawn_s", "s"),
    ("fleet.dispatch_wait_ms", "ms"),
    ("fleet.dispatch_s", "s"),
    ("fleet.ledger_ops", "count"),
    ("fleet.ledger_s", "s"),
    ("fleet.ipc_ms", "ms"),
    ("fleet.worker_job_s", "s"),
    ("trace.unaccounted_frac", "frac"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.traced_wall_s", "s"),
)

#: metric -> span layer whose self time it reports.
SELF_TIME = {
    "ilp.solve_s": "ilp.solve",
    "ilp.lower_s": "ilp.lower",
    "ilp.presolve_s": "ilp.presolve",
    "mapping.round_s": "mapping.round",
    "mapping.build_s": "mapping.build",
    "mapping.greedy_s": "mapping.greedy",
    "mapping.pipeline_s": "mapping.pipeline",
    "batch.portfolio_s": "batch.portfolio",
    "batch.engine_s": "batch.engine",
    "dse.registry_s": "dse.registry",
    "dse.store.append_s": "dse.store.append",
    "dse.store.replay_s": "dse.store.replay",
    "dse.explorer_s": "dse.explorer",
    "dse.greedy_rung_s": "dse.greedy_rung",
    "dse.objectives_s": "dse.objectives",
    "dse.pareto_s": "dse.pareto",
    "dse.driver_s": "dse.driver",
    "service.http_s": "service.http",
    "service.run_s": "service.run",
    "service.registry_s": "service.registry",
    "service.wire_s": "service.wire",
    "service.admission_s": "service.admission",
    "fleet.dispatch_s": "fleet.dispatch",
    "fleet.ledger_s": "fleet.ledger",
    "fleet.worker_job_s": "fleet.worker_job",
}

#: metric -> span layer whose call count it reports.
CALLS = {
    "ilp.solve_calls": "ilp.solve",
    "mapping.round_calls": "mapping.round",
    "dse.registry_calls": "dse.registry",
    "dse.store.appends": "dse.store.append",
    "service.journal_appends": "service.journal",
    "fleet.ledger_ops": "fleet.ledger",
}

#: metric -> counter recorded by the span hooks.
COUNTERS = {
    "ilp.limit_bound_solves": "ilp.limit_bound_solves",
    "batch.races": "batch.races",
    "batch.wins.highs": "batch.wins.highs",
    "batch.wins.lp_round": "batch.wins.lp_round",
    "batch.wins.bnb": "batch.wins.bnb",
    "batch.arm_s.highs": "batch.arm_s.highs",
    "batch.arm_s.lp_round": "batch.arm_s.lp_round",
    "batch.arm_s.bnb": "batch.arm_s.bnb",
    "batch.proofs_discarded": "batch.proofs_discarded",
    "dse.store.lookups": "dse.store.lookups",
    "dse.store.hits": "dse.store.hits",
}

#: metric -> key of the workload-supplied extras.
EXTRAS = {
    "dse.ilp_solves": "ilp_solves",
    "dse.pruned": "pruned",
    "dse.frontier_hv": "frontier_hv",
    "service.jobs": "jobs",
    "service.hits": "hits",
    "service.misses": "misses",
    "service.queue_wait_ms_p50": "queue_wait_ms_p50",
    "service.queue_wait_ms_p95": "queue_wait_ms_p95",
    "service.run_ms": "run_ms",
    "service.stream_ms": "stream_ms",
    "fleet.ipc_ms": "ipc_ms",
    "trace.overhead_ratio": "overhead_ratio",
    "trace.traced_wall_s": "traced_wall_s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(merged: dict, extra: dict) -> dict:
    """The full per-layer table from merged span data plus extras."""
    from spans import unaccounted_share

    layers = merged["layers"]
    counters = merged["counters"]
    samples = merged["samples"]
    values: dict[str, float] = {}
    for name, layer in SELF_TIME.items():
        values[name] = layers.get(layer, [0, 0.0, 0.0])[2]
    for name, layer in CALLS.items():
        values[name] = layers.get(layer, [0, 0.0, 0.0])[0]
    for name, counter in COUNTERS.items():
        values[name] = counters.get(counter, 0)
    for name, key in EXTRAS.items():
        values[name] = extra.get(key, 0)
    values["batch.proven_frac"] = _ratio(counters.get("batch.stage_proven", 0), counters.get("batch.stage_solves", 0))
    values["batch.cache.hit_ratio"] = _ratio(counters.get("batch.cache.hits", 0), counters.get("batch.cache.lookups", 0))
    submit = layers.get("service.submit", [0, 0.0, 0.0])
    values["service.submit_ms"] = 1000 * _ratio(submit[1], submit[0])
    spawn = samples.get("fleet.spawn_s", [])
    values["fleet.spawn_s"] = median(spawn) if spawn else 0
    waits = samples.get("fleet.dispatch_wait_s", [])
    values["fleet.dispatch_wait_ms"] = 1000 * percentile(waits, 0.5) if waits else 0
    values["trace.unaccounted_frac"] = unaccounted_share(merged)
    return {name: metric(values[name], unit) for name, unit in PER_LAYER}
