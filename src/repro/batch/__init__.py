"""Parallel batch mapping: process pools, solver portfolios, result cache.

The sweep-scale layer above :mod:`repro.mapping`: a :class:`BatchMapper`
runs many independent mapping pipelines at once across worker processes,
optionally racing solver backends per stage (:mod:`~repro.batch.
portfolio`) and skipping instances already solved in earlier sweeps via a
deterministic problem fingerprint (:mod:`~repro.batch.cache`).

>>> from repro.batch import BatchJob, BatchMapper
>>> jobs = [BatchJob(f"net-{i}", net, arch, stages=("area", "snu"))
...         for i, (net, arch) in enumerate(instances)]   # doctest: +SKIP
>>> result = BatchMapper(jobs=4, portfolio=True).map_all(jobs)  # doctest: +SKIP
"""

from .cache import CacheStats, ResultCache
from .engine import (
    JOB_ERROR,
    JOB_OK,
    BatchJob,
    BatchMapper,
    BatchResult,
    JobRecord,
    parallel_map,
)
from .portfolio import (
    DEFAULT_SPECS,
    PortfolioOptions,
    PortfolioSolver,
    portfolio_solver_factory,
)
from .queue import CancelToken

__all__ = [
    "BatchJob",
    "BatchMapper",
    "BatchResult",
    "CacheStats",
    "CancelToken",
    "DEFAULT_SPECS",
    "JOB_ERROR",
    "JOB_OK",
    "JobRecord",
    "PortfolioOptions",
    "PortfolioSolver",
    "ResultCache",
    "parallel_map",
    "portfolio_solver_factory",
]
