"""Seeded inputs of the two workloads.

Every function here is a pure function of its arguments: the same seed gives
the same problems (hence the same problem digests) in the same order, and the
program under test only ever receives the generated problems.

Family-tagged instances (trees, FFT, matvec, ...) are deterministic by
construction, so they are walked in one fixed, well-mixed order that is the
same for every seed: every seed then poses the same structured work and a
prefix of any length is representative of the whole grid.  The seed draws the
random DAGs (exhaustive-size and larger random layered DAGs), so two seeds
never pose the same list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import PebblingProblem
from repro.bench.scenario import materialize_scenario
from repro.dags import (
    attention_dag,
    chained_gadget_dag,
    fanin_groups_dag,
    fft_dag,
    figure1_gadget,
    kary_tree_dag,
    matmul_dag,
    matvec_dag,
    optimal_prbp_tree_cost,
    optimal_rbp_tree_cost,
    pyramid_dag,
    random_layered_dag,
    zipper_gadget,
)

from spec import HIT_POOL

GAMES = ("prbp", "rbp")

#: Fixed seed of the family-grid order; deliberately not the run seed.
_GRID_ORDER_SEED = 20250701


@dataclass(frozen=True)
class Instance:
    """One posed problem plus what the benchmark knows about its answer."""

    label: str
    problem: PebblingProblem
    solver: str = "auto"
    options: Dict[str, object] = field(default_factory=dict)
    #: Closed-form optimum where the family has one (checked exactly).
    expected_cost: Optional[int] = None


def _closed_form(family: str, params: Tuple[int, ...], r: int, game: str, dag) -> Optional[int]:
    """The paper's closed-form cost, for the regimes where it is exact."""
    if family == "tree" and r == params[0] + 1:
        k, depth = params
        return optimal_prbp_tree_cost(k, depth) if game == "prbp" else optimal_rbp_tree_cost(k, depth)
    if family == "matvec" and game == "prbp" and r >= params[0] + 3:
        m = params[0]
        return m * m + 2 * m
    if family == "fanin" and game == "prbp" and r >= 3:
        return dag.trivial_cost()
    if family == "chained" and game == "prbp" and r >= 4:
        return 2
    return None


_BUILDERS: Dict[str, Callable[..., object]] = {
    "tree": kary_tree_dag,
    "fft": fft_dag,
    "matvec": matvec_dag,
    "matmul": matmul_dag,
    "attention": attention_dag,
    "chained": chained_gadget_dag,
    "fanin": fanin_groups_dag,
}

#: Grid entry: (family, generator params, r, game).
GridEntry = Tuple[str, Tuple[int, ...], int, str]


def _family_entries(family: str, shapes: Sequence[Tuple[int, ...]], rs: Callable, games) -> List[GridEntry]:
    return [(family, shape, r, game) for shape in shapes for r in rs(shape) for game in games]


def family_grid() -> List[GridEntry]:
    """Every family-tagged instance (n <= ~150), in the fixed order.

    Capacities start at each strategy's minimum, so every instance has a
    structured candidate.
    """
    span = 12
    entries = (
        _family_entries("tree", [(2, 4), (2, 5), (3, 3), (3, 4), (4, 3)],
                        lambda s: range(s[0] + 1, s[0] + 1 + span), GAMES)
        + _family_entries("fft", [(8,), (16,)], lambda s: range(4, 4 + 2 * span), GAMES)
        + _family_entries("matvec", [(m,) for m in range(4, 9)], lambda s: range(s[0] + 3, s[0] + 3 + span), GAMES)
        + _family_entries(
            "matmul",
            [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3), (2, 3, 4), (3, 3, 4)],
            lambda s: range(4, 4 + span + 6),
            ("prbp",),
        )
        + _family_entries(
            "attention",
            [(2, 2), (3, 2), (2, 3), (3, 3)],
            lambda s: range(2 * s[1] + 3, 2 * s[1] + 3 + 2 * span),
            ("prbp",),
        )
        + _family_entries("chained", [(c,) for c in range(5, 21)], lambda s: range(4, 6), GAMES)
        + _family_entries(
            "fanin",
            [(3, 5), (5, 8), (7, 10), (4, 12), (6, 6), (8, 4)],
            lambda s: range(3, 3 + 2 * span),
            ("prbp",),
        )
    )
    random.Random(_GRID_ORDER_SEED).shuffle(entries)
    return entries


def build_family(entry: GridEntry) -> Instance:
    family, params, r, game = entry
    dag = _BUILDERS[family](*params)
    return Instance(
        label=f"{family}{params}/r={r}/{game}",
        problem=PebblingProblem(dag, r=r, game=game),
        expected_cost=_closed_form(family, params, r, game, dag),
    )


# --------------------------------------------------------------------------- #
# seeded random DAGs
# --------------------------------------------------------------------------- #

#: Exhaustive-size layered shapes (n <= 12) and the capacity slack above
#: ``max_in_degree + 1`` that keeps their A* search in the millisecond range.
_SMALL_SHAPES = (((3, 3, 4), 2), ((3, 3, 3, 3), 2), ((2, 3, 3, 2), 2))
#: Least capacity of an exhaustive-size instance.  At r = 4 about one PRBP
#: instance in fifty expands thousands of states for a tenth of a second and
#: ~10 MiB; so rare an instance would make a run's time and peak memory
#: depend on whether its seed happened to draw one.
_SMALL_MIN_R = 5


def small_exact(rng: random.Random) -> Instance:
    shape, slack = rng.choice(_SMALL_SHAPES)
    game = rng.choice(GAMES)
    dag = random_layered_dag(list(shape), 0.35, seed=rng.randrange(2**31))
    r = max(dag.max_in_degree + slack, _SMALL_MIN_R)
    return Instance(f"small{shape}/r={r}/{game}", PebblingProblem(dag, r=r, game=game))


def random_layered(rng: random.Random, layers: Tuple[int, int], width: Tuple[int, int]) -> Instance:
    shape = [rng.randint(*width) for _ in range(rng.randint(*layers))]
    game = rng.choice(GAMES)
    dag = random_layered_dag(shape, rng.uniform(0.2, 0.4), seed=rng.randrange(2**31))
    r = dag.max_in_degree + 1 + rng.randrange(4)
    return Instance(f"layered{tuple(shape)}/r={r}/{game}", PebblingProblem(dag, r=r, game=game))


# --------------------------------------------------------------------------- #
# workload streams
# --------------------------------------------------------------------------- #

#: One ``service-miss`` cycle: which regime each consecutive problem comes from.
MISS_CYCLE = ("family", "layered", "family", "layered", "family", "small")


def service_miss_problems(seed: int, count: int) -> List[Instance]:
    """Up to ``count`` distinct problems in ``MISS_CYCLE`` order.

    There are as many as twice the family grid has entries.
    """
    rng = random.Random(f"service-miss:{seed}")
    grid = iter(family_grid())
    out: List[Instance] = []
    while len(out) < count:
        slot = MISS_CYCLE[len(out) % len(MISS_CYCLE)]
        if slot == "small":
            out.append(small_exact(rng))
        elif slot == "layered":
            out.append(random_layered(rng, (4, 6), (4, 7)))
        else:
            entry = next(grid, None)
            if entry is None:
                break
            out.append(build_family(entry))
    return out


def warmup_problems() -> List[Instance]:
    """Problems that warm every solver path and appear in no workload's list."""
    return [
        Instance("warm/figure1", PebblingProblem(figure1_gadget(), r=4, game="prbp")),
        Instance("warm/zipper", PebblingProblem(zipper_gadget(2, 4), r=4, game="rbp")),
        Instance("warm/pyramid", PebblingProblem(pyramid_dag(5), r=4, game="prbp")),
    ]


def hit_pool() -> List[Instance]:
    out = []
    for name in HIT_POOL:
        problem, solver, options = materialize_scenario(name, "quick")
        out.append(Instance(name, problem, solver, dict(options)))
    return out


def hit_order(seed: int, count: int, pool_size: int) -> List[int]:
    """Pool indices in seeded shuffled blocks: every block asks each problem once."""
    rng = random.Random(f"service-hit:{seed}")
    order: List[int] = []
    while len(order) < count:
        block = list(range(pool_size))
        rng.shuffle(block)
        order.extend(block)
    return order[:count]
