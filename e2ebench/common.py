"""Shared plumbing: locating the program, scratch space, statistics."""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Scratch space for stores, journals and caches, inside the checkout.
WORK_DIR = os.path.join(ROOT, ".e2ebench_work")

#: The stock design space is solved at this per-stage budget.  The
#: ``lp_round`` arm gets half of it (the portfolio splits the budget over
#: its two arms), so its slowest ``round()`` stays far from its cap and
#: every answer is set by the algorithm, never by the clock.  The
#: ``ilp.limit_bound_solves`` counter guards that.
DSE_TIME_LIMIT = 20.0


class BenchError(RuntimeError):
    """The benchmark cannot run or a check failed."""


def require_program() -> None:
    """Fail unless the checkout's own ``src/repro`` is importable."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"program sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


def child_env() -> dict:
    """Environment for program subprocesses: this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def scratch_dir(tag: str) -> str:
    os.makedirs(WORK_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_DIR)


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, share: float) -> float:
    """Linear-interpolated percentile (``share`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    pos = share * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (pos - low))


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def stage_statuses(batch) -> list[str]:
    """Solve status of every ILP stage a ``BatchMapper`` batch ran.

    Cache hits are left out: they ran no solve.  The results a DSE
    driver returns do not say whether an answer was proven optimal, so
    ``proven_frac`` is read from the batches on their way out.
    """
    return [
        stage.solve_result.status.value
        for record in getattr(batch, "records", ())
        if not getattr(record, "from_cache", False)
        for stage in getattr(record, "stages", {}).values()
        if getattr(stage, "solve_result", None) is not None
    ]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
