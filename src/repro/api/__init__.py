"""repro.api — the unified facade for posing and solving pebbling problems.

This package is the canonical entry point of the library: build a
:class:`PebblingProblem` (DAG + capacity + game + variant), call
:func:`solve`, get back a validated :class:`SolveResult` with the schedule,
its replay statistics, the best known lower bound and optimality flags.

>>> from repro.api import PebblingProblem, solve
>>> from repro.dags import kary_tree_dag
>>> result = solve(PebblingProblem(kary_tree_dag(2, 5), r=3, game="prbp"))
>>> result.cost, result.solver, result.optimal
(47, 'tree', True)

Solution methods are pluggable: every built-in (exhaustive search, greedy
baselines, the paper's per-family structured strategies) registers itself via
:func:`register_solver` with capability tags, and ``solve(...,
solver="auto")`` picks the best applicable one — exhaustive below a node
budget, a family-matched structured strategy when the DAG carries a
:class:`~repro.core.dag.DAGFamily` tag, greedy otherwise.
"""

from ..solvers.anytime import RefinementTrajectory, refine_schedule
from .batch import BatchInfo, solve_many, solve_many_detailed
from .bounds import best_lower_bound
from .cache import (
    EPHEMERAL_OPTIONS,
    WALL_CLOCK_OPTIONS,
    CacheStats,
    ResultCache,
    cacheable_options,
    default_cache_dir,
    problem_digest,
)
from .dispatch import (
    AUTO_EXACT_NODE_LIMIT,
    DEFAULT_AUTO_BUDGET,
    GREEDY_COMPARISON_NODE_LIMIT,
    solve,
)
from .problem import GAMES, PebblingProblem
from .registry import (
    Solver,
    SolverInfo,
    get_solver,
    list_solvers,
    register_solver,
    solver_names,
    unregister_solver,
)
from .result import Schedule, SolveAttempt, SolveResult, SolverRun, SolveStats

# importing the adapters registers every built-in solver
from . import adapters as _adapters  # noqa: F401  (import for side effect)

__all__ = [
    "PebblingProblem",
    "GAMES",
    "SolveResult",
    "SolveAttempt",
    "SolveStats",
    "SolverRun",
    "Schedule",
    "solve",
    "solve_many",
    "solve_many_detailed",
    "BatchInfo",
    "ResultCache",
    "CacheStats",
    "EPHEMERAL_OPTIONS",
    "WALL_CLOCK_OPTIONS",
    "RefinementTrajectory",
    "refine_schedule",
    "problem_digest",
    "cacheable_options",
    "default_cache_dir",
    "AUTO_EXACT_NODE_LIMIT",
    "DEFAULT_AUTO_BUDGET",
    "GREEDY_COMPARISON_NODE_LIMIT",
    "Solver",
    "SolverInfo",
    "register_solver",
    "unregister_solver",
    "get_solver",
    "list_solvers",
    "solver_names",
    "best_lower_bound",
]
