"""repro — reproduction of *The Impact of Partial Computations on the Red-Blue Pebble Game*.

The package implements the classic red-blue pebble game (RBP) of Hong and
Kung, the partial-computing extension (PRBP) introduced by Papp, Sobczyk and
Yzelman (SPAA 2025), the DAG families and gadgets used throughout the paper,
exact and structured pebbling strategies, and the S-partition based
lower-bound machinery the paper adapts to PRBP.

Quick start
-----------
The unified facade in :mod:`repro.api` is the canonical entry point: pose a
:class:`PebblingProblem`, call :func:`solve`, and the auto-dispatch portfolio
picks an exhaustive optimum, a family-matched structured strategy, or the
greedy fallback:

>>> from repro import PebblingProblem, figure1_gadget, solve
>>> dag = figure1_gadget()
>>> solve(PebblingProblem(dag, r=4, game="rbp")).cost
3
>>> solve(PebblingProblem(dag, r=4, game="prbp")).cost
2

The per-solver free functions remain available for direct use:

>>> from repro import optimal_rbp_cost, optimal_prbp_cost
>>> optimal_rbp_cost(dag, r=4), optimal_prbp_cost(dag, r=4)
(3, 2)

Sub-packages
------------
``repro.api``
    The unified facade: :class:`PebblingProblem`, :func:`solve`, the solver
    registry (:func:`register_solver`, :func:`list_solvers`) and
    :class:`SolveResult`.
``repro.core``
    DAG substrate, both game engines, schedules, variants.
``repro.dags``
    Generators for every DAG family used in the paper.
``repro.solvers``
    Exhaustive optimal solvers, structured strategies, greedy baselines.
``repro.bounds``
    Dominators, S-/S-edge-/S-dominator partitions, analytic lower bounds.
``repro.hardness``
    The NP-hardness reduction constructions of Theorems 4.8 and 7.1.
``repro.analysis``
    Comparison harnesses and sweep/report helpers used by examples and
    benchmarks.
"""

from .api import (
    PebblingProblem,
    SolveResult,
    Solver,
    SolverInfo,
    SolverRun,
    best_lower_bound,
    get_solver,
    list_solvers,
    register_solver,
    solve,
)
from .core import (
    ComputationalDAG,
    DAGFamily,
    GameVariant,
    PebblingError,
    SolverError,
    MoveKind,
    ONE_SHOT,
    PRBPGame,
    PRBPMove,
    PRBPSchedule,
    PRBPState,
    RBPGame,
    RBPMove,
    RBPSchedule,
    RECOMPUTE,
    SLIDING,
    NO_DELETE,
    convert_rbp_to_prbp,
    is_valid_prbp_schedule,
    is_valid_rbp_schedule,
    prbp,
    prbp_schedule_cost,
    rbp,
    rbp_schedule_cost,
    run_prbp_schedule,
    run_rbp_schedule,
)
from .dags import (
    attention_dag,
    binary_tree_dag,
    chained_gadget_dag,
    fanin_groups_dag,
    fft_dag,
    figure1_gadget,
    kary_tree_dag,
    matmul_dag,
    matvec_dag,
    pebble_collection_gadget,
    pyramid_dag,
    random_layered_dag,
    zipper_gadget,
)
from .solvers import (
    optimal_prbp_cost,
    optimal_prbp_schedule,
    optimal_rbp_cost,
    optimal_rbp_schedule,
    topological_prbp_schedule,
)

__version__ = "1.0.0"

__all__ = [
    # api facade
    "PebblingProblem",
    "SolveResult",
    "Solver",
    "SolverInfo",
    "SolverRun",
    "solve",
    "register_solver",
    "get_solver",
    "list_solvers",
    "best_lower_bound",
    # core
    "ComputationalDAG",
    "DAGFamily",
    "GameVariant",
    "PebblingError",
    "SolverError",
    "MoveKind",
    "ONE_SHOT",
    "RECOMPUTE",
    "SLIDING",
    "NO_DELETE",
    "PRBPGame",
    "PRBPMove",
    "PRBPSchedule",
    "PRBPState",
    "RBPGame",
    "RBPMove",
    "RBPSchedule",
    "convert_rbp_to_prbp",
    "is_valid_prbp_schedule",
    "is_valid_rbp_schedule",
    "prbp",
    "prbp_schedule_cost",
    "rbp",
    "rbp_schedule_cost",
    "run_prbp_schedule",
    "run_rbp_schedule",
    # dags
    "attention_dag",
    "binary_tree_dag",
    "chained_gadget_dag",
    "fanin_groups_dag",
    "fft_dag",
    "figure1_gadget",
    "kary_tree_dag",
    "matmul_dag",
    "matvec_dag",
    "pebble_collection_gadget",
    "pyramid_dag",
    "random_layered_dag",
    "zipper_gadget",
    # solvers
    "optimal_prbp_cost",
    "optimal_prbp_schedule",
    "optimal_rbp_cost",
    "optimal_rbp_schedule",
    "topological_prbp_schedule",
    "__version__",
]
