"""Built-in solver registrations: thin adapters over the existing solvers.

Importing this module (done by ``repro.api.__init__``) populates the registry
with every solution method the library ships:

* ``exhaustive`` — optimal A* search, both games, ``exact`` (small DAGs);
* ``greedy`` — topological processing with Belady eviction, both games, any DAG;
* ``naive`` — spill-everything baseline, both games, any DAG;
* one structured strategy per DAG family of the paper (``figure1``,
  ``chained-gadget``, ``matvec-streaming``, ``zipper``, ``tree``,
  ``collection``, ``fanin-streaming``, ``fft-blocked``, ``matmul-tiled``,
  ``attention-flash``), each restricted to its
  :class:`~repro.core.dag.DAGFamily` tag and to the capacity regime its
  proof covers.

Family adapters rebuild the layout object from the tag parameters and verify
it reproduces the problem's DAG, so a hand-built DAG that merely *claims* a
family can never be answered with a schedule for a different graph.
"""

from __future__ import annotations

from typing import Callable

from ..core.dag import DAGFamily
from ..core.exceptions import SolverError
from ..core.variants import ONE_SHOT
from ..dags.attention import attention_instance
from ..dags.fanin import fanin_groups_instance
from ..dags.fft import fft_instance
from ..dags.gadgets import (
    chained_gadget_instance,
    figure1_instance,
    pebble_collection_instance,
    zipper_instance,
)
from ..dags.linalg import matmul_instance, matvec_instance
from ..dags.trees import kary_tree_instance
from ..solvers.anytime import (
    BEAM_NODE_LIMIT,
    beam_construct,
    refine_schedule,
    schedule_io_count,
)
from ..solvers.baselines import naive_prbp_schedule, naive_rbp_schedule
from ..solvers.exhaustive import DEFAULT_MAX_STATES, exhaustive_search
from ..solvers.greedy import greedy_rbp_schedule, topological_prbp_schedule
from ..solvers import structured
from .problem import PebblingProblem
from .registry import list_solvers, register_solver
from .result import SolverRun

__all__: list = []


# --------------------------------------------------------------------------- #
# generic solvers
# --------------------------------------------------------------------------- #


@register_solver(
    "exhaustive",
    games=("rbp", "prbp"),
    exact=True,
    description="optimal A* search over game configurations (small DAGs)",
)
def _exhaustive(problem: PebblingProblem, **options: object) -> SolverRun:
    budget = options.get("budget")
    max_states = int(budget) if budget is not None else DEFAULT_MAX_STATES
    schedule, telemetry = exhaustive_search(
        problem.dag, problem.r, problem.game, variant=problem.variant, max_states=max_states
    )
    return SolverRun(
        schedule,
        states_expanded=telemetry.expanded,
        states_frontier_peak=telemetry.frontier_peak,
    )


@register_solver(
    "greedy",
    games=("rbp", "prbp"),
    description="topological processing with Belady eviction (any DAG)",
)
def _greedy(problem: PebblingProblem, **options: object) -> SolverRun:
    if problem.game == "rbp":
        return SolverRun(greedy_rbp_schedule(problem.dag, problem.r, variant=problem.variant))
    return SolverRun(topological_prbp_schedule(problem.dag, problem.r, variant=problem.variant))


@register_solver(
    "naive",
    games=("rbp", "prbp"),
    description="spill-everything baseline (worst reasonable upper bound)",
)
def _naive(problem: PebblingProblem, **options: object) -> SolverRun:
    if problem.game == "rbp":
        return SolverRun(naive_rbp_schedule(problem.dag, problem.r, variant=problem.variant))
    return SolverRun(naive_prbp_schedule(problem.dag, problem.r, variant=problem.variant))


def _anytime_min_r(problem: PebblingProblem) -> int:
    # the greedy seeds' feasibility floors: PRBP pebbles any DAG with 2
    # pebbles, RBP needs every input of a node in fast memory at once
    if problem.game == "prbp":
        return 2 if problem.dag.m > 0 else 1
    return problem.dag.max_in_degree + 1


@register_solver(
    "anytime",
    games=("rbp", "prbp"),
    description="budgeted local-search refinement over greedy/structured/beam seeds",
    min_r=_anytime_min_r,
)
def _anytime(problem: PebblingProblem, **options: object) -> SolverRun:
    """Anytime portfolio: seed with the cheapest known schedule, then refine.

    Seeds are gathered from every family-matched structured solver plus the
    greedy baseline; a beam-search constructor (bounded by the best seed's
    cost) joins in on DAGs of at most ``BEAM_NODE_LIMIT`` nodes.  The
    cheapest seed is refined under the configured step/wall-clock budget —
    the returned schedule never costs more than the best seed.

    Options: ``refine_steps`` (or ``budget``) for the mutation-attempt
    budget, ``time_budget_s`` for a wall-clock ceiling, ``seed`` for the
    RNG, ``beam_width=0`` to disable the constructor.
    """
    seeds: list = []
    failures: list = []
    for info in list_solvers(game=problem.game):
        if not info.families or not info.supports(problem):
            continue
        try:
            schedule = info.fn(problem).schedule
        except SolverError as exc:
            failures.append((info.name, str(exc)))
            continue
        seeds.append((info.name, schedule))
    try:
        if problem.game == "rbp":
            greedy = greedy_rbp_schedule(problem.dag, problem.r, variant=problem.variant)
        else:
            greedy = topological_prbp_schedule(problem.dag, problem.r, variant=problem.variant)
        seeds.append(("greedy", greedy))
    except SolverError as exc:
        failures.append(("greedy", str(exc)))
    if not seeds:
        detail = "; ".join(f"{name}: {reason}" for name, reason in failures)
        raise SolverError(
            f"anytime solver found no seed schedule for {problem.describe()} — {detail}"
        )

    best_cost, origin, best = min(
        ((schedule_io_count(schedule), name, schedule) for name, schedule in seeds),
        key=lambda scored: scored[0],
    )

    rng_seed = int(options.get("seed") or 0)
    beam_width = options.get("beam_width")
    width = 6 if beam_width is None else int(beam_width)
    if width > 0 and problem.n <= int(options.get("beam_node_limit", BEAM_NODE_LIMIT)):
        constructed = beam_construct(
            problem.dag,
            problem.r,
            problem.game,
            problem.variant,
            upper_bound=best_cost,
            width=width,
            seed=rng_seed,
        )
        if constructed is not None:
            origin, best = "beam", constructed

    steps = options.get("refine_steps", options.get("budget"))
    time_budget_s = options.get("time_budget_s")
    on_progress = options.get("on_progress")
    refined, trajectory = refine_schedule(
        best,
        steps=None if steps is None else int(steps),
        time_budget_s=None if time_budget_s is None else float(time_budget_s),
        seed=rng_seed,
        origin=origin,
        on_improve=on_progress if callable(on_progress) else None,
    )
    return SolverRun(refined, refinement=trajectory)


# --------------------------------------------------------------------------- #
# structured per-family strategies
# --------------------------------------------------------------------------- #


def _family_tag(problem: PebblingProblem, expected: str) -> DAGFamily:
    """The problem's family tag, checked against the adapter's family."""
    fam = problem.family
    if fam is None or fam.name != expected:
        raise SolverError(
            f"this solver targets the {expected!r} family, "
            f"but the problem's DAG carries {str(fam) if fam else 'no family tag'}"
        )
    if problem.variant != ONE_SHOT:
        raise SolverError(
            "the structured strategies are stated for the one-shot variant; "
            f"got {problem.variant.describe()}"
        )
    return fam


def _rebuild(problem: PebblingProblem, builder: Callable, *args: object):
    """Regenerate the layout instance from the family tag and check it.

    Guards against forged or malformed tags twice: a tag whose parameters the
    generator rejects (missing keys surface as ``None``) raises a
    :class:`SolverError` rather than leaking the generator's
    ``ValueError``/``TypeError``, and a tag that regenerates a *different*
    graph than the problem's DAG is refused outright.
    """
    try:
        inst = builder(*args)
    except SolverError:
        raise
    except Exception as exc:
        raise SolverError(
            f"the family tag {problem.family} is malformed — "
            f"{builder.__name__} rejected its parameters: {exc}"
        ) from exc
    if inst.dag != problem.dag:
        raise SolverError(
            f"the family tag {problem.family} does not reproduce the problem's DAG "
            f"(n={problem.dag.n}, m={problem.dag.m}); was the tag copied onto a different graph?"
        )
    return inst


@register_solver(
    "figure1",
    games=("rbp", "prbp"),
    families=("figure1",),
    description="Appendix A.1 hand strategy for the Figure 1 gadget (Prop. 4.2)",
    min_r=lambda p: structured.FIGURE1_MIN_R,
)
def _figure1(problem: PebblingProblem, **options: object) -> SolverRun:
    fam = _family_tag(problem, "figure1")
    if not fam.param("include_endpoints") or fam.param("with_z_layer") or fam.param("with_w0"):
        raise SolverError("the A.1 strategy targets the plain Figure 1 DAG with endpoints")
    inst = _rebuild(problem, figure1_instance, True)
    if problem.game == "rbp":
        return SolverRun(structured.figure1_rbp_schedule(inst, r=problem.r))
    return SolverRun(structured.figure1_prbp_schedule(inst, r=problem.r))


@register_solver(
    "chained-gadget",
    games=("prbp",),
    families=("chained_gadget",),
    description="Proposition 4.7 chain strategy: PRBP cost 2 at any length",
    min_r=lambda p: structured.CHAINED_GADGET_MIN_R,
)
def _chained_gadget(problem: PebblingProblem, **options: object) -> SolverRun:
    fam = _family_tag(problem, "chained_gadget")
    inst = _rebuild(problem, chained_gadget_instance, fam.param("copies"))
    return SolverRun(structured.chained_gadget_prbp_schedule(inst, r=problem.r))


@register_solver(
    "matvec-streaming",
    games=("prbp",),
    families=("matvec",),
    description="Proposition 4.3 column-streaming strategy: trivial cost m²+2m",
    min_r=lambda p: structured.matvec_min_r(p.family.param("m")),
)
def _matvec(problem: PebblingProblem, **options: object) -> SolverRun:
    fam = _family_tag(problem, "matvec")
    inst = _rebuild(problem, matvec_instance, fam.param("m"))
    return SolverRun(structured.matvec_prbp_schedule(inst, r=problem.r))


@register_solver(
    "zipper",
    games=("rbp", "prbp"),
    families=("zipper",),
    description="Proposition 4.4 zipper strategies (two-phase PRBP / alternating RBP)",
    min_r=lambda p: structured.zipper_min_r(p.family.param("d")),
)
def _zipper(problem: PebblingProblem, **options: object) -> SolverRun:
    fam = _family_tag(problem, "zipper")
    inst = _rebuild(problem, zipper_instance, fam.param("d"), fam.param("length"))
    if problem.game == "rbp":
        return SolverRun(structured.zipper_rbp_schedule(inst, r=problem.r))
    return SolverRun(structured.zipper_prbp_schedule(inst, r=problem.r))


@register_solver(
    "tree",
    games=("rbp", "prbp"),
    families=("kary_tree",),
    description="Appendix A.2 k-ary reduction-tree strategies (optimal at r = k + 1)",
    min_r=lambda p: structured.tree_min_r(p.family.param("k")),
)
def _tree(problem: PebblingProblem, **options: object) -> SolverRun:
    fam = _family_tag(problem, "kary_tree")
    inst = _rebuild(problem, kary_tree_instance, fam.param("k"), fam.param("depth"))
    if problem.game == "rbp":
        return SolverRun(structured.tree_rbp_schedule(inst, r=problem.r))
    return SolverRun(structured.tree_prbp_schedule(inst, r=problem.r))


@register_solver(
    "collection",
    games=("rbp", "prbp"),
    families=("pebble_collection",),
    description="Proposition 4.6 full-pebble strategy for the collection gadget",
    min_r=lambda p: structured.collection_min_r(p.family.param("d")),
)
def _collection(problem: PebblingProblem, **options: object) -> SolverRun:
    fam = _family_tag(problem, "pebble_collection")
    inst = _rebuild(problem, pebble_collection_instance, fam.param("d"), fam.param("length"))
    if problem.game == "rbp":
        return SolverRun(structured.collection_full_rbp_schedule(inst, r=problem.r))
    return SolverRun(structured.collection_full_prbp_schedule(inst, r=problem.r))


@register_solver(
    "fanin-streaming",
    games=("prbp",),
    families=("fanin_groups",),
    description="Lemma 5.4 group-streaming strategy: trivial cost with 3 pebbles",
    min_r=lambda p: structured.FANIN_MIN_R,
)
def _fanin(problem: PebblingProblem, **options: object) -> SolverRun:
    fam = _family_tag(problem, "fanin_groups")
    inst = _rebuild(problem, fanin_groups_instance, fam.param("num_groups"), fam.param("group_size"))
    return SolverRun(structured.fanin_groups_prbp_schedule(inst, r=problem.r))


@register_solver(
    "fft-blocked",
    games=("rbp", "prbp"),
    families=("fft",),
    description="Theorem 6.9 blocked butterfly strategy: O(m·log m / log r) I/O",
    min_r=lambda p: structured.FFT_MIN_R,
)
def _fft(problem: PebblingProblem, **options: object) -> SolverRun:
    fam = _family_tag(problem, "fft")
    inst = _rebuild(problem, fft_instance, fam.param("m"))
    if problem.game == "rbp":
        return SolverRun(structured.fft_blocked_rbp_schedule(inst, r=problem.r))
    return SolverRun(structured.fft_blocked_prbp_schedule(inst, r=problem.r))


@register_solver(
    "matmul-tiled",
    games=("prbp",),
    families=("matmul",),
    description="Theorem 6.10 outer-product tiled strategy: O(m1·m2·m3/√r) I/O",
    min_r=lambda p: structured.MATMUL_MIN_R,
)
def _matmul(problem: PebblingProblem, **options: object) -> SolverRun:
    fam = _family_tag(problem, "matmul")
    inst = _rebuild(problem, matmul_instance, fam.param("m1"), fam.param("m2"), fam.param("m3"))
    return SolverRun(structured.matmul_tiled_prbp_schedule(inst, r=problem.r))


@register_solver(
    "attention-flash",
    games=("prbp",),
    families=("attention",),
    description="Theorem 6.11 flash-style tiled strategy for Q·Kᵀ + exp",
    min_r=lambda p: structured.attention_min_r(p.family.param("d")),
)
def _attention(problem: PebblingProblem, **options: object) -> SolverRun:
    fam = _family_tag(problem, "attention")
    if fam.param("include_softmax"):
        raise SolverError("the flash-style strategy targets the truncated attention DAG")
    inst = _rebuild(problem, attention_instance, fam.param("m"), fam.param("d"))
    return SolverRun(structured.attention_flash_prbp_schedule(inst, r=problem.r))
