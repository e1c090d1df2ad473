"""Fidelity-rung solver portfolios for the adaptive DSE driver.

Successive halving (:func:`repro.dse.drivers.explore_adaptive`) evaluates
many candidates cheaply before concentrating budget on survivors.  Until
now every rung paid the same per-solve price; this module gives each rung
its own portfolio composition so the *solver* fidelity scales with the
rung, not just the candidate count:

- **cheap rungs** race a loose-gap, node-capped HiGHS arm
  (``emphasis="speed"``) — good-enough answers in a fraction of the
  exact cost, exactly what band-selection needs;
- **the top rung** races a full-fidelity exact arm (``emphasis="quality"``,
  gap 0) — survivors get the tight answer the frontier is reported from.

Every rung races its exact arm *first* and the ``lp_round`` heuristic
second.  On the stock 24-scenario space HiGHS closes every rung solve in
under 0.3 s, so with ``stop_on_optimal`` the heuristic never runs there.
Ordering it first paid its rounding on every rung for an incumbent the
proof then matched: on the 12 uniform-profile stock scenarios, 5.6 s of
rounding against 0.4 s of HiGHS per adaptive sweep.  ``lp_round`` stays
as the fallback for solves the exact arm does not close at its cap: it
then receives the exact arm's incumbent as its warm start (sequential
races share incumbents) and can only improve on it.

The interpolation is monotone: later rungs never run looser arms than
earlier ones.  Specs are plain :class:`~repro.ilp.solve.SolverSpec`
tuples, picklable and fingerprint-stable, so per-rung results cache
independently (the specs are part of the batch-job fingerprint).
"""

from __future__ import annotations

from ..ilp.solve import SolverSpec

#: Node cap of the exact arm on the cheapest rung; interpolated upward.
_MIN_NODE_CAP = 200

#: Node cap of the exact arm on the second-to-top rung.
_MAX_NODE_CAP = 5_000

#: Relative gap of the exact arm on the cheapest rung; tightens to 0.
_MAX_GAP = 0.10


def rung_solver_specs(rung: int, max_rungs: int) -> tuple[SolverSpec, ...]:
    """The portfolio arms rung ``rung`` (1-based) of ``max_rungs`` races.

    Every rung leads with the exact HiGHS arm; the ``lp_round`` racer
    follows as the fallback, running only when the exact arm does not
    prove (and then starting from its incumbent).  The exact arm's gap
    and node cap interpolate from loose/capped on rung 1 to
    exact/uncapped on the top rung.
    """
    if rung < 1:
        raise ValueError("rungs are 1-based")
    top = max(max_rungs, 1)
    if rung >= top:
        return (
            SolverSpec("highs", emphasis="quality"),
            SolverSpec("lp_round", time_limit=5.0),
        )
    # Fraction of the way up the ladder, in [0, 1).
    frac = (rung - 1) / max(top - 1, 1)
    gap = round(_MAX_GAP * (1.0 - frac), 4)
    node_cap = int(_MIN_NODE_CAP + frac * (_MAX_NODE_CAP - _MIN_NODE_CAP))
    return (
        SolverSpec(
            "highs",
            mip_rel_gap=gap if gap > 0 else None,
            node_limit=node_cap,
            emphasis="speed",
        ),
        SolverSpec("lp_round", time_limit=5.0),
    )
