"""Solver portfolio: race several backends on one model, keep the best.

MILP solvers have wildly instance-dependent performance; a portfolio that
runs HiGHS and the pure-Python branch and bound on the same model and
keeps the best incumbent is more robust than betting on either alone
(HiGHS usually wins on raw speed; the B&B occasionally lands a better
incumbent inside a tight budget because its warm-started primal heuristics
fire immediately).

Two race modes:

- ``sequential`` (default, deterministic): members run one after another,
  stopping early once a member proves optimality.  Worst-case wall time is
  the sum of member budgets; results are bit-for-bit reproducible.
- ``threads``: members run concurrently and overlap their wall time.  The
  winner is still chosen by the same deterministic rule after *all*
  members finish (SciPy solves cannot be cancelled mid-flight), so results
  stay reproducible while wall time approaches the slowest member's.

The winner is the member with the lowest objective; ties break on a
proof of optimality, then on the tighter dual bound, then on lower
deterministic time, then on portfolio order.  The race reports the best
dual bound any member proved (all members solve one model).

Sequential races also *share incumbents* (see
:class:`PortfolioOptions.share_incumbents`): each member's best solution
seeds the next member's warm start, so ordering a cheap heuristic arm
(``lp_round``) before the exact arms hands them a strong cutoff before
they open their root node.  :data:`ACCELERATED_SPECS` is that
composition, ready-made — it pays only where the exact arm cannot close
on its own; where it can, put the exact arm first and let
``stop_on_optimal`` skip the heuristic (as the adaptive DSE ladder in
:mod:`repro.dse.fidelity` does).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .. import trace
from ..ilp.model import Model, ObjectiveSense
from ..ilp.result import SolveResult, SolveStatus
from ..ilp.solve import SolverSpec, solve_model

#: The default portfolio: full-budget HiGHS plus a node-capped B&B.
DEFAULT_SPECS = (
    SolverSpec("highs"),
    SolverSpec("bnb", node_limit=20_000),
)

#: The structure-exploiting portfolio: the LP-rounding racer produces a
#: strong incumbent in O(LP) time and donates it to a node-capped exact
#: arm, which now prunes against that cutoff instead of searching blind.
ACCELERATED_SPECS = (
    SolverSpec("lp_round", time_limit=5.0),
    SolverSpec("highs", node_limit=200, emphasis="speed"),
)

RACE_MODES = ("sequential", "threads")

#: Relative tolerance under which two members' objectives tie: backends
#: evaluate objectives by different summations (``Model.objective_of``
#: vs. the lowered form's ``c @ x``), so one optimum may differ in ulps.
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class PortfolioOptions:
    """Which backends race, and how.

    ``share_incumbents`` (sequential races only): each member's best
    incumbent is donated as the warm start of every later member when it
    beats what they would otherwise have been seeded with.  Exact
    backends turn that seed into a cutoff and prune against it from the
    root node on — this is how a fast heuristic arm (``lp_round``)
    accelerates the exact arms that follow it.  Donation never *loses*
    information: a member still falls back to its own search if the seed
    does not help, and the race winner is picked by the same
    deterministic rule either way.  Thread races cannot donate (members
    start simultaneously).
    """

    specs: tuple[SolverSpec, ...] = DEFAULT_SPECS
    race: str = "sequential"
    stop_on_optimal: bool = True  # sequential mode: skip members after a proof
    share_incumbents: bool = True  # sequential mode: donate best incumbent

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("a portfolio needs at least one member spec")
        if self.race not in RACE_MODES:
            raise ValueError(
                f"unknown race mode {self.race!r}; choose from {RACE_MODES}"
            )


def winning_arm(backend: str) -> str | None:
    """The member arm inside a ``portfolio[...]`` backend tag, or ``None``.

    Solve summaries carry the winner as ``portfolio[<member>]`` (with an
    optional ``-interrupted`` suffix on degraded races); this is what
    per-arm win-rate metrics key on.  Non-portfolio backends map to
    ``None`` so callers can feed every summary through unconditionally.
    """
    prefix = "portfolio["
    if not backend.startswith(prefix) or not backend.endswith("]"):
        return None
    inner = backend[len(prefix) : -1]
    return inner.removesuffix("-interrupted")


class PortfolioSolver:
    """A :class:`~repro.mapping.pipeline.SolverBackend` over many members.

    ``on_race`` is an optional hook called after every race with
    ``(winner, results)`` — the finalized winning :class:`SolveResult`
    and every member's result in portfolio order.  The mapping daemon's
    metrics use it to count per-arm wins when the solver runs in-process
    (pooled runs report the same information parent-side, parsed out of
    the worker payload's backend tags).
    """

    name = "portfolio"

    def __init__(self, options: PortfolioOptions | None = None) -> None:
        self.options = options or PortfolioOptions()
        self.on_race = None

    def solve(
        self,
        model: Model,
        warm_start=None,
        keep_values: bool = True,
    ) -> SolveResult:
        """Race every member on ``model`` and return the best result.

        The returned result is the winning member's, re-tagged as
        ``portfolio[<member>]``, with ``det_time`` summed over every member
        that actually ran (deterministic effort is paid regardless of who
        wins).
        """
        opts = self.options
        # Assemble the shared matrix form once, up front: every racer's
        # Model.lower() (and warm-start feasibility check) then reuses the
        # cached system instead of re-lowering per backend — including in
        # thread mode, where racers would otherwise assemble concurrently.
        lower_entry = time.perf_counter()
        model.lower()
        lower_wall = time.perf_counter() - lower_entry
        race_start = time.time()
        results: list[SolveResult] = []
        if opts.race == "threads" and len(opts.specs) > 1:
            with ThreadPoolExecutor(max_workers=len(opts.specs)) as pool:
                futures = [
                    pool.submit(solve_model, model, spec, warm_start, keep_values)
                    for spec in opts.specs
                ]
                results = [f.result() for f in futures]
        else:
            # Sequential incumbent sharing: the best solution seen so far
            # (including a feasible caller-supplied warm start) seeds every
            # later member, so exact arms inherit the heuristic arms'
            # incumbents as root-node cutoffs.
            fold = 1.0 if model.objective_sense is ObjectiveSense.MINIMIZE else -1.0
            donated = warm_start
            best_folded: float | None = None
            if opts.share_incumbents and warm_start is not None:
                x0 = model.dense_values(warm_start)
                if not model.check_feasible(x0):
                    best_folded = fold * model.objective_of(x0)
            for spec in opts.specs:
                result = solve_model(model, spec, donated, keep_values)
                results.append(result)
                if opts.stop_on_optimal and result.status is SolveStatus.OPTIMAL:
                    break
                if result.backend.endswith("-interrupted"):
                    # Cancellation reached us mid-race: don't start more
                    # members, report the best of what finished.
                    break
                if (
                    opts.share_incumbents
                    and result.status.has_solution()
                    and result.objective is not None
                    and result.x is not None
                ):
                    folded = fold * result.objective
                    if best_folded is None or folded < best_folded:
                        best_folded = folded
                        donated = result.x

        # Per-arm race spans: derived post-race from each member's own
        # wall time (thread racers don't inherit the ambient context, so
        # recording here covers both race modes).  Sequential arms are
        # laid end to end; threaded arms all start at the race start.
        arm_start = race_start
        for member in results:
            trace.record_span(
                f"arm:{member.backend}",
                start=arm_start,
                duration=member.wall_time,
                status=member.status.value,
                objective=member.objective,
                bound=member.bound,
                det_time=member.det_time,
                nodes=member.node_count,
            )
            if opts.race != "threads":
                arm_start += member.wall_time

        winner = _pick_winner(results, model.objective_sense)
        winner.bound = _best_bound(results, model.objective_sense)
        winner.det_time = sum(r.det_time for r in results)
        winner.wall_time = (
            max(r.wall_time for r in results)
            if opts.race == "threads"
            else sum(r.wall_time for r in results)
        )
        winner.backend = f"{self.name}[{winner.backend}]"
        # The shared lowering above is work the winning arm's own phase
        # breakdown never saw — prepend it so phase histograms account
        # for every second the portfolio spent.
        winner.phases = (("lower", lower_wall),) + tuple(winner.phases)
        # A race truncated by cancellation is itself degraded unless the
        # winner independently proved optimality — tag it so the batch
        # cache refuses the result even when the interrupted member lost.
        race_interrupted = any("-interrupted" in r.backend for r in results)
        if (
            race_interrupted
            and winner.status is not SolveStatus.OPTIMAL
            and "-interrupted" not in winner.backend
        ):
            winner.backend += "-interrupted"
        if self.on_race is not None:
            self.on_race(winner, results)
        return winner


def _pick_winner(
    results: list[SolveResult], sense: ObjectiveSense
) -> SolveResult:
    """Deterministic selection: best objective, then proof, then order.

    "Best" honors the model's objective sense (objectives are user-facing,
    so a maximize model wants the largest).  Among members tied on the
    best objective, an ``OPTIMAL`` status wins, then the tighter dual
    bound, then lower det time, then portfolio order — a heuristic that
    reached the optimum first must not discard the exact arm's proof.
    Members without a solution only win when nobody found one — in which
    case the first conclusive status (infeasible/unbounded beats a bare
    limit-out) is reported.
    """
    fold = 1.0 if sense is ObjectiveSense.MINIMIZE else -1.0
    solved = [
        r for r in results if r.status.has_solution() and r.objective is not None
    ]
    if solved:
        best = min(fold * r.objective for r in solved)
        tol = _TIE_RTOL * max(1.0, abs(best))
        # min() keeps the first of equal keys: portfolio order breaks the
        # last tie.
        return min(
            (r for r in solved if fold * r.objective <= best + tol),
            key=lambda r: (
                r.status is not SolveStatus.OPTIMAL,
                -_folded_bound(r, fold),
                r.det_time,
            ),
        )
    conclusive = [
        r
        for r in results
        if r.status in (SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED)
    ]
    return conclusive[0] if conclusive else results[0]


def _folded_bound(result: SolveResult, fold: float) -> float:
    """``result``'s dual bound in minimize terms (-inf when it has none)."""
    return float("-inf") if result.bound is None else fold * result.bound


def _best_bound(results: list[SolveResult], sense: ObjectiveSense) -> float | None:
    """The tightest dual bound any member proved, or ``None``.

    Every member solved the same model, so each member's bound is valid
    for the race as a whole.
    """
    fold = 1.0 if sense is ObjectiveSense.MINIMIZE else -1.0
    best = max(_folded_bound(r, fold) for r in results)
    return None if best == float("-inf") else fold * best


def portfolio_solver_factory(
    specs: tuple[SolverSpec, ...] = DEFAULT_SPECS,
    race: str = "sequential",
    split_budget: bool | None = None,
) -> "callable":
    """A :class:`~repro.mapping.pipeline.SolverFactory` that races ``specs``.

    The stage's time budget is honored as a *total*: sequential races split
    it evenly across members (their wall times add up), while thread races
    give every member the full budget (they overlap).  ``split_budget``
    overrides that default.
    """
    split = split_budget if split_budget is not None else race == "sequential"

    def factory(time_limit: float | None) -> PortfolioSolver:
        per_member = (
            time_limit / len(specs)
            if split and time_limit is not None
            else time_limit
        )
        timed = tuple(spec.with_time_limit(per_member) for spec in specs)
        return PortfolioSolver(PortfolioOptions(specs=timed, race=race))

    return factory
