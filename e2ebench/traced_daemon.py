"""``repro serve`` with per-layer spans, for the traced service runs.

Usage: ``python3 traced_daemon.py <span-dir> serve [serve options...]``

Installs the span wrappers in the daemon process, then runs the real CLI
entry point with the given arguments.  With ``--fleet``, every worker
process gets the same wrappers through the fleet's existing
``FleetConfig.mapper_factory`` hook (:func:`traced_mapper`); workers
write their span file after every job, the daemon when it exits.
"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import spans  # noqa: E402


def traced_mapper(cache=None, trace_out=None, portfolio=False, jobs=1):
    """Fleet mapper factory: instrument this worker, return its engine."""
    from repro.batch.engine import BatchMapper

    tracer = spans.Tracer()
    tracer.role = "worker"
    spans.install(tracer, fleet_worker=True)
    tracer.dump_path = os.path.join(trace_out, f"worker-{os.getpid()}.json")
    tracer.dump_on_root = True
    return BatchMapper(jobs=jobs, portfolio=portfolio, cache=cache)


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    import repro.cli
    from repro.service import daemon

    tracer = spans.Tracer()
    tracer.role = "daemon"
    spans.install(tracer, service=True)
    plain_init = daemon.MappingService.__init__
    factory = f"{os.path.abspath(__file__)}:traced_mapper"

    def traced_init(self, *args, fleet_config=None, **kwargs):
        # Hand every fleet worker the traced mapper factory; the rest of
        # the configuration is exactly what the CLI built.
        fields = {f.name for f in dataclasses.fields(fleet_config)} if fleet_config is not None else set()
        if {"mapper_factory", "mapper_kwargs"} <= fields:
            fleet_config = dataclasses.replace(
                fleet_config,
                mapper_factory=factory,
                mapper_kwargs=(
                    ("trace_out", trace_out),
                    ("portfolio", fleet_config.portfolio),
                    ("jobs", fleet_config.solver_jobs),
                ),
            )
        elif fleet_config is not None:
            tracer.missing.append("repro.service.worker.FleetConfig.mapper_factory")
        plain_init(self, *args, fleet_config=fleet_config, **kwargs)

    daemon.MappingService.__init__ = traced_init
    try:
        return repro.cli.main(argv)
    finally:
        tracer.dump(os.path.join(trace_out, f"daemon-{os.getpid()}.json"))


if __name__ == "__main__":
    sys.exit(main())
