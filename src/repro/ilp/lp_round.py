"""The ``lp_round`` backend: LP relaxation + guided rounding, racing-fast.

An exact MILP solve on the mapping formulations spends nearly all of its
wall time in the root node (cuts, dual bound) before the first good
incumbent appears.  This backend inverts the trade: it solves only the LP
relaxation (one simplex call, milliseconds on these models), then rounds
to a feasible *incumbent* — never a proof — and returns immediately.

Rounding is delegated to the model when it knows better: builders attach
``model.rounding_guide`` (see :mod:`repro.mapping.rounding`), whose
delta-evaluated repair/improvement loop produces incumbents that match or
beat a node-capped exact solve's in a fraction of the time.  Models
without a guide fall back to the generic
:func:`~repro.ilp.greedy_rounding.lp_rounding_warm_start` fix-and-round,
and degrade to the caller's warm start when even that fails.

Contract highlights:

- the returned ``bound`` is the LP relaxation's optimum — a true dual
  bound for the integer program, so ``result.gap()`` is meaningful;
- any produced incumbent is verified against the lowered rows
  (``model.check_feasible``) before being reported — a guide bug degrades
  the result instead of propagating an infeasible "solution";
- status is ``OPTIMAL`` only when the incumbent's objective meets the LP
  bound (no integrality gap), otherwise ``FEASIBLE``.

Inside a portfolio, an arm placed ahead of the exact arms donates its
incumbent to them as a warm-start cutoff (see
:class:`~repro.batch.portfolio.PortfolioSolver` and
``ACCELERATED_SPECS``) — worth it only where the exact arm cannot close
on its own, such as the fig2-E SNU instance.  Where HiGHS proves quickly
(every rung solve of the stock DSE space closes in under 0.3 s) the
rounding costs more than the proof, so the adaptive DSE ladder
(:mod:`repro.dse.fidelity`) runs this arm *after* the exact arm, as a
fallback seeded with the exact arm's incumbent.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .bnb_backend import _LpRelaxation
from .greedy_rounding import lp_rounding_warm_start
from .model import Model, ObjectiveSense
from .result import Incumbent, SolveResult, SolveStatus

_TOL = 1e-6


@dataclass(frozen=True)
class LpRoundOptions:
    """Budget and determinism knobs for the rounding search."""

    time_limit: float | None = 5.0  # wall cap on the whole round() pipeline
    seed: int = 0  # rng seed for ruin-and-recreate (reproducible)


class LpRoundBackend:
    """LP-relaxation rounding as a :class:`SolverBackend`."""

    name = "lp_round"

    def __init__(self, options: LpRoundOptions | None = None) -> None:
        self.options = options or LpRoundOptions()

    def solve(
        self,
        model: Model,
        warm_start: dict[str, float] | np.ndarray | None = None,
        keep_values: bool = True,
    ) -> SolveResult:
        start = time.perf_counter()
        deadline = (
            start + self.options.time_limit
            if self.options.time_limit is not None
            else None
        )
        form = model.lower()
        relax = _LpRelaxation(form)
        lp_status, lp_obj, lp_x, _nit = relax.solve(form.var_lb, form.var_ub)
        bound = float(lp_obj) if lp_status == "optimal" else None
        if lp_status == "infeasible":
            return SolveResult(
                status=SolveStatus.INFEASIBLE,
                backend=self.name,
                wall_time=time.perf_counter() - start,
                phases=(("lp", time.perf_counter() - start),),
            )
        lp_wall = time.perf_counter() - start

        warm_vec = model.dense_values(warm_start) if warm_start is not None else None

        vec = None
        guide = getattr(model, "rounding_guide", None)
        if guide is not None:
            rng = random.Random(self.options.seed)
            vec = guide.round(
                lp_x if lp_status == "optimal" else None, warm_vec, deadline, rng
            )
            if vec is not None and model.check_feasible(vec):
                vec = None  # guide bug: never report an infeasible incumbent
        if vec is None:
            values = lp_rounding_warm_start(model)
            if values is not None:
                candidate = model.dense_values(values)
                if not model.check_feasible(candidate):
                    vec = candidate
        if vec is None and warm_vec is not None and not model.check_feasible(warm_vec):
            vec = warm_vec

        wall = time.perf_counter() - start
        phases = (("lp", lp_wall), ("round", wall - lp_wall))
        if vec is None:
            return SolveResult(
                status=SolveStatus.NO_SOLUTION,
                bound=bound,
                backend=self.name,
                wall_time=wall,
                phases=phases,
            )
        objective = model.objective_of(vec)
        closed = bound is not None and (
            objective <= bound + _TOL
            if model.objective_sense is ObjectiveSense.MINIMIZE
            else objective >= bound - _TOL
        )
        values = model.values_dict(vec) if keep_values else None
        return SolveResult(
            status=SolveStatus.OPTIMAL if closed else SolveStatus.FEASIBLE,
            objective=objective,
            values=values,
            x=vec,
            bound=bound,
            wall_time=wall,
            incumbents=[Incumbent(objective, 0.0, wall, values)],
            backend=self.name,
            phases=phases,
        )
