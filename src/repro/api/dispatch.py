""":func:`solve` — the single entry point for posing and solving problems.

``solve(problem)`` runs the auto-dispatch portfolio; ``solve(problem,
solver="fft-blocked")`` runs one registered solver by name.  Either way the
returned :class:`~repro.api.result.SolveResult` carries a schedule that has
been replayed through the replay kernel, so the reported cost is the cost of
an actually legal pebbling.

The ``"auto"`` portfolio, in order:

1. **Exhaustive optimum** when the DAG is small enough
   (``n <= exact_node_limit``) and the search finishes within ``budget``
   expanded states.
2. **Family-matched structured strategy** when the DAG carries a
   :class:`~repro.core.dag.DAGFamily` tag that a registered solver names and
   the capacity satisfies the solver's minimum.  If the strategy's cost
   meets the best known lower bound it is returned immediately; otherwise,
   on DAGs of at most :data:`GREEDY_COMPARISON_NODE_LIMIT` nodes, the
   greedy fallback is also run and the cheaper of the two schedules wins
   (ties go to the structured strategy).  The paper's strategies are built
   for their critical capacity regime, and away from it — e.g. a reduction
   tree with far more than ``k + 1`` pebbles — plain greedy pebbling can
   genuinely beat them; beyond the node limit the structured result is
   returned without the comparison, since asymptotically the structured
   strategies dominate and the greedy replay would dominate solve time.
3. **Greedy fallback** (Belady-eviction topological processing) for
   everything else.

A step that raises :class:`~repro.core.exceptions.SolverError` falls through
to the next; if every step fails, :func:`solve` raises a ``SolverError``
whose message lists what was attempted and why each attempt failed.

Every registered solver returns a :class:`~repro.api.result.SolverRun`: the
schedule together with the solver's own report (the A* counters of the
exhaustive search, the trajectory of the ``"anytime"`` solver).  The report
reaches ``SolveResult.solve_stats`` only through that return value, so a
solve never picks up counters from another solve, thread or process.  The
auto portfolio additionally records one
:class:`~repro.api.result.SolveAttempt` per member it tried.

Whatever heuristic schedule the portfolio settles on is handed to a final
**anytime refinement pass** (:mod:`repro.solvers.anytime`): a budgeted,
seeded local search that can only ever lower the achieved cost.  The pass is
skipped when the result is already provably optimal; its trajectory (initial
cost → refined cost, steps, time-to-best) is recorded on
``SolveResult.solve_stats.refinement``.  The knobs — ``seed`` (first-class
parameter), ``refine_steps``, ``time_budget_s`` and ``refine=False``
(solver options) — thread through :func:`solve` and
:func:`repro.api.solve_many` alike.
"""

from __future__ import annotations

import time
from dataclasses import asdict, replace
from typing import List, Optional, Tuple

from ..core.exceptions import SolverError
from ..core.schedule_ir import from_schedule, kernel_stats
from ..obs.tracing import get_tracer
from ..solvers.anytime import refine_schedule
from .bounds import best_lower_bound
from .problem import PebblingProblem
from .registry import SolverInfo, get_solver, list_solvers
from .result import SolveAttempt, SolveResult, SolverRun, SolveStats

__all__ = [
    "solve",
    "AUTO_EXACT_NODE_LIMIT",
    "DEFAULT_AUTO_BUDGET",
    "GREEDY_COMPARISON_NODE_LIMIT",
]

#: Above this node count the auto portfolio does not attempt exhaustive search.
AUTO_EXACT_NODE_LIMIT = 14

#: Default state budget for the exhaustive step of the auto portfolio.
DEFAULT_AUTO_BUDGET = 500_000

#: Above this node count the portfolio returns a (non-provably-optimal)
#: structured result without also running the greedy comparison.  Greedy only
#: beats the paper's strategies in small boundary regimes (tiny ``r``, or a
#: capacity far above the critical one); asymptotically the structured
#: strategies win by construction, and on multi-thousand-node DAGs the
#: Belady-eviction replay would dominate the total solve time.
GREEDY_COMPARISON_NODE_LIMIT = 2_000


def _run(
    info: SolverInfo,
    problem: PebblingProblem,
    bound: Tuple[Optional[int], str],
    **options: object,
) -> SolveResult:
    """Run one solver and package its (validated) schedule into a result.

    ``bound`` is the problem's precomputed ``best_lower_bound`` pair — it
    depends only on the problem, so callers compute it once per solve rather
    than once per portfolio attempt.  This is the one place a
    :class:`SolveStats` is built; later stages adjust it with ``replace``.
    """
    start = time.perf_counter()
    run: SolverRun = info.fn(problem, **options)
    ir = from_schedule(run.schedule)
    stats = kernel_stats(ir)  # raises on an illegal or incomplete schedule
    wall_time = time.perf_counter() - start
    return SolveResult(
        problem=problem,
        ir=ir,
        stats=stats,
        solver=info.name,
        exact_solver=info.exact,
        lower_bound=bound[0],
        lower_bound_source=bound[1],
        solve_stats=SolveStats(
            wall_time_s=wall_time,
            states_expanded=run.states_expanded,
            states_frontier_peak=run.states_frontier_peak,
            refinement=run.refinement,
        ),
    )


def _apply_refinement(result: SolveResult, **options: object) -> SolveResult:
    """The auto portfolio's final improvement pass: budgeted anytime refinement.

    Cost-monotone by construction — the refined schedule replaces the
    original only when it is strictly cheaper; either way the trajectory is
    recorded on ``solve_stats``.  Skipped entirely when the result is
    already provably optimal, when ``refine=False`` is passed, or — unless a
    refinement knob was given explicitly — on DAGs above
    :data:`GREEDY_COMPARISON_NODE_LIMIT` nodes, where the replay-heavy
    search would dominate the solve time.
    """
    if not options.get("refine", True) or result.optimal:
        return result
    steps = options.get("refine_steps")
    time_budget_s = options.get("time_budget_s")
    explicit = steps is not None or time_budget_s is not None or "refine" in options
    if not explicit and result.problem.n > GREEDY_COMPARISON_NODE_LIMIT:
        return result
    seed = int(options.get("seed") or 0)
    on_progress = options.get("on_progress")

    start = time.perf_counter()
    refined, trajectory = refine_schedule(
        result.schedule,
        steps=None if steps is None else int(steps),
        time_budget_s=None if time_budget_s is None else float(time_budget_s),
        seed=seed,
        origin=result.solver,
        on_improve=on_progress if callable(on_progress) else None,
    )
    extra = time.perf_counter() - start

    solve_stats = replace(
        result.solve_stats,
        wall_time_s=result.solve_stats.wall_time_s + extra,
        refinement=trajectory,
    )
    if trajectory.refined_cost < trajectory.initial_cost:
        ir = from_schedule(refined)
        return replace(result, ir=ir, stats=kernel_stats(ir), solve_stats=solve_stats)
    return replace(result, solve_stats=solve_stats)


def _family_candidates(problem: PebblingProblem) -> List[SolverInfo]:
    """Registered structured solvers matching the problem's family tag, game and capacity."""
    fam = problem.family
    if fam is None:
        return []
    return [
        info
        for info in list_solvers(game=problem.game, family=fam.name)
        if info.families and info.supports(problem)
    ]


def _auto(
    problem: PebblingProblem,
    budget: Optional[int],
    exact_node_limit: int,
    **options: object,
) -> SolveResult:
    # One (solver, wall_s, outcome, reason) entry per portfolio member; the
    # "candidate" outcomes become won/lost once the portfolio settles.
    attempts: List[Tuple[str, float, str, str]] = []
    started = time.perf_counter()
    bound = best_lower_bound(problem)

    def attempt(info: SolverInfo, **extra: object) -> Optional[SolveResult]:
        attempt_start = time.perf_counter()
        try:
            result = _run(info, problem, bound, **extra, **options)
        except SolverError as exc:
            attempts.append((info.name, time.perf_counter() - attempt_start, "failed", str(exc)))
            return None
        attempts.append((info.name, time.perf_counter() - attempt_start, "candidate", ""))
        return result

    # 1. exhaustive optimum on small instances
    chosen: Optional[SolveResult] = None
    if problem.n <= exact_node_limit:
        exact_budget = DEFAULT_AUTO_BUDGET if budget is None else budget
        chosen = attempt(get_solver("exhaustive"), budget=exact_budget)
    else:
        skip = f"skipped: n = {problem.n} > exact_node_limit = {exact_node_limit}"
        attempts.append(("exhaustive", 0.0, "skipped", skip))

    if chosen is None:
        # 2. family-matched structured strategy
        for info in _family_candidates(problem):
            chosen = attempt(info)
            if chosen is not None:
                break
        # 3. greedy — the fallback, and the sanity comparison for a structured
        # strategy used away from its critical capacity regime
        if chosen is None or not (chosen.optimal or problem.n > GREEDY_COMPARISON_NODE_LIMIT):
            greedy = attempt(get_solver("greedy"))
            if greedy is not None and (chosen is None or greedy.cost < chosen.cost):
                chosen = greedy
        if chosen is None:
            detail = "; ".join(f"{name}: {reason}" for name, _, _, reason in attempts)
            raise SolverError(f"no solver could handle {problem.describe()} — {detail}")
        # 4. whichever heuristic schedule won gets the anytime improvement pass
        chosen = _apply_refinement(chosen, **options)

    won = False
    report = []
    for name, wall_s, outcome, _ in attempts:
        if outcome == "candidate":
            outcome = "won" if name == chosen.solver and not won else "lost"
            won = won or outcome == "won"
        report.append(SolveAttempt(solver=name, wall_time_s=wall_s, outcome=outcome))
    solve_stats = replace(
        chosen.solve_stats,
        wall_time_s=time.perf_counter() - started,
        attempts=tuple(report),
    )
    return replace(chosen, solve_stats=solve_stats)


def solve(
    problem: PebblingProblem,
    solver: str = "auto",
    budget: Optional[int] = None,
    seed: Optional[int] = None,
    exact_node_limit: int = AUTO_EXACT_NODE_LIMIT,
    **options: object,
) -> SolveResult:
    """Solve a pebbling problem and return a validated :class:`SolveResult`.

    Parameters
    ----------
    problem:
        The instance (DAG + capacity + game + variant) to solve.
    solver:
        ``"auto"`` (default) runs the portfolio described in the module
        docstring; any other value must be a registered solver name
        (see :func:`repro.api.list_solvers`).
    budget:
        State budget for exhaustive search (expanded configurations).  For
        ``solver="auto"`` it caps step 1 and defaults to
        :data:`DEFAULT_AUTO_BUDGET` (500k, tuned so the portfolio stays
        responsive); for ``solver="exhaustive"`` it is the cap itself and
        ``None`` means the solver's own, larger default
        (:data:`~repro.solvers.exhaustive.DEFAULT_MAX_STATES`); for
        ``solver="anytime"`` it is the refinement step budget.
    seed:
        RNG seed for the anytime refinement engine (the auto portfolio's
        final improvement pass and the ``"anytime"`` solver).  ``None``
        means the default seed 0; a fixed ``(seed, refine_steps)`` pair
        makes refined schedules bit-identical across runs and processes.
        A seed alone does not force the pass — on DAGs above
        :data:`GREEDY_COMPARISON_NODE_LIMIT` nodes the auto pass is skipped
        unless ``refine_steps``/``time_budget_s``/``refine`` is given.
    exact_node_limit:
        Auto portfolio only: largest node count for which exhaustive search
        is attempted.
    options:
        Forwarded to the solver callable (solver-specific knobs).  The
        refinement pass reads ``refine_steps`` (mutation-attempt budget),
        ``time_budget_s`` (wall-clock ceiling — results under one are not
        cacheable) and ``refine=False`` (disable the pass).  ``on_progress``
        (a callable ``(cost, elapsed_s) -> None``) receives anytime-progress
        events from the refinement engine — the seed cost, then every
        accepted improvement; it never changes the returned result and is
        excluded from cache digests (:data:`repro.api.cache.EPHEMERAL_OPTIONS`).

    Raises
    ------
    SolverError
        If the named solver does not support the problem (wrong game, wrong
        family, ``r`` below the solver's minimum), or if every portfolio
        member fails.
    """
    tracer = get_tracer()
    with tracer.span(
        "solve",
        attrs={"solver": solver, "game": problem.game, "n": problem.n},
    ) as span:
        result = _solve_dispatch(
            problem,
            solver=solver,
            budget=budget,
            seed=seed,
            exact_node_limit=exact_node_limit,
            **options,
        )
        span.set_attr("solver_used", result.solver)
        span.set_attr("cost", result.cost)
        ctx = span.context
    _record_solve_telemetry(problem, solver, options, result, ctx.trace_id)
    return result


def _solve_dispatch(
    problem: PebblingProblem,
    solver: str,
    budget: Optional[int],
    seed: Optional[int],
    exact_node_limit: int,
    **options: object,
) -> SolveResult:
    if seed is not None:
        options = {**options, "seed": seed}
    if solver == "auto":
        return _auto(problem, budget, exact_node_limit, **options)

    info = get_solver(solver)
    if problem.game not in info.games:
        raise SolverError(
            f"solver {info.name!r} plays {'/'.join(info.games)}, not {problem.game!r}"
        )
    if info.families:
        fam = problem.family
        if fam is None or fam.name not in info.families:
            raise SolverError(
                f"solver {info.name!r} is restricted to the families "
                f"{'/'.join(info.families)}; the problem's DAG carries "
                f"{str(fam) if fam else 'no family tag'}"
            )
    required = info.required_r(problem)
    if required is not None and problem.r < required:
        raise SolverError(
            f"solver {info.name!r} needs r >= {required} on {problem.describe()}, "
            f"got r = {problem.r}"
        )
    if budget is not None:
        options = {**options, "budget": budget}
    return _run(info, problem, best_lower_bound(problem), **options)


#: Count of telemetry-recording failures (a diagnostic, not an error path:
#: recording must never take down a successful solve).
_telemetry_failures = 0

#: Option value types that are recorded verbatim in telemetry.
_SCALAR_TYPES = (str, int, float, bool, type(None))


def _record_solve_telemetry(
    problem: PebblingProblem,
    solver_requested: str,
    options: dict,
    result: SolveResult,
    trace_id: Optional[str],
) -> None:
    """Append one :class:`~repro.obs.telemetry.SolveTelemetry` record.

    This is the data ROADMAP item 5 (telemetry-driven portfolio) trains
    on: instance digest + features, requested/used solver, scalar options,
    cost, bound gap, wall time, states expanded, per-attempt portfolio
    wall times.  Failures are counted, never raised.
    """
    global _telemetry_failures
    try:
        # Lazy imports: corpus.features pulls in repro.corpus, whose package
        # __init__ imports api.batch — a module-level import here would cycle.
        from ..corpus.features import extract_features
        from ..obs.telemetry import SolveTelemetry, get_telemetry_log
        from .cache import problem_digest

        stats = result.solve_stats
        get_telemetry_log().record(
            SolveTelemetry(
                digest=problem_digest(problem),
                solver_requested=solver_requested,
                solver_used=result.solver,
                cost=result.cost,
                lower_bound=result.lower_bound,
                gap=result.gap,
                wall_time_s=stats.wall_time_s,
                states_expanded=stats.states_expanded,
                options={
                    key: value
                    for key, value in options.items()
                    if isinstance(value, _SCALAR_TYPES)
                },
                features=extract_features(problem).as_dict(),
                attempts=[asdict(a) for a in stats.attempts],
                trace_id=trace_id,
                ts=time.time(),
            )
        )
    except Exception:  # noqa: BLE001 - telemetry must never break a solve
        _telemetry_failures += 1
