"""The declarative scenario model: what a benchmark measures, not how.

A :class:`BenchScenario` names one workload — a DAG factory, a capacity, a
game/variant, the solver to dispatch, and the paper reference whose cost it
reproduces — at two size tiers (``quick`` for CI smoke runs, ``full`` for
real measurements).  Scenarios are registered once in
:mod:`repro.bench.scenarios`; the runner, the CLI, and the pytest-benchmark
wrappers under ``benchmarks/`` all consume the same registry, so a workload
is defined in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..core.dag import ComputationalDAG
from ..core.variants import ONE_SHOT, GameVariant
from ..api.problem import GAMES, PebblingProblem

__all__ = [
    "BenchScenario",
    "ScenarioTier",
    "TIERS",
    "register_scenario",
    "unregister_scenario",
    "get_scenario",
    "materialize_scenario",
    "iter_scenarios",
    "scenario_names",
    "scenario_groups",
]

#: The two size tiers every scenario defines.
TIERS = ("quick", "full")

#: A capacity is either a concrete integer or derived from the built DAG
#: (e.g. ``lambda dag: dag.max_in_degree + 1`` for constructions whose
#: feasible capacity depends on random structure).
CapacitySpec = Union[int, Callable[[ComputationalDAG], int]]


@dataclass(frozen=True)
class ScenarioTier:
    """One concrete size of a scenario.

    Parameters
    ----------
    dag_args:
        Positional arguments for the scenario's DAG factory.
    dag_kwargs:
        Keyword arguments for the DAG factory.  Randomised scenarios use
        this to pass their ``seed`` explicitly by name, so a reader of the
        registry (and the BENCH json's ``--list`` output) can see at a
        glance which workloads are seeded and with what.
    r:
        Fast-memory capacity, either an int or a callable of the built DAG.
    expected_cost:
        The closed-form I/O cost the run must land on exactly (propositions
        with exact formulas), or ``None`` when only the lower-bound gap is
        tracked.
    """

    dag_args: Tuple = ()
    dag_kwargs: Mapping[str, object] = field(default_factory=dict)
    r: CapacitySpec = 2
    expected_cost: Optional[int] = None

    def capacity(self, dag: ComputationalDAG) -> int:
        """Resolve the capacity spec against the built DAG."""
        if callable(self.r):
            return int(self.r(dag))
        return int(self.r)


@dataclass(frozen=True)
class BenchScenario:
    """A named benchmark workload at two size tiers.

    Parameters
    ----------
    name:
        Unique registry key (kebab-case, e.g. ``"tree-prbp-critical"``).
    group:
        The paper anchor the scenario reproduces (``"prop4.5"``,
        ``"thm6.9"``, ...); the ``benchmarks/`` wrappers parametrize by
        group so the paper-proposition file layout survives.
    title:
        One-line human description, shown by ``--list`` and in reports.
    dag_factory:
        Callable building the DAG from the tier's ``dag_args``.
    game:
        ``"rbp"`` or ``"prbp"``.
    variant:
        Game-rule variant (defaults to the one-shot game the paper analyses).
    solver:
        Solver name handed to :func:`repro.api.solve` (``"auto"`` runs the
        dispatch portfolio — itself a meaningful workload).
    solve_options:
        Extra keyword options forwarded to :func:`repro.api.solve`.
    tiers:
        Mapping ``tier name -> ScenarioTier`` covering every name in
        :data:`TIERS`.
    reference:
        Citation string for the expected cost or bound (``"Prop. 4.5 /
        App. A.2: k^d + 2k^(d-k) - 1"``).
    expect_optimal:
        When True the run must come back with ``SolveResult.optimal`` — the
        scenario reproduces a matching upper/lower bound pair, and losing
        that match is a correctness regression, not noise.
    """

    name: str
    group: str
    title: str
    dag_factory: Callable[..., ComputationalDAG]
    game: str = "prbp"
    variant: GameVariant = field(default=ONE_SHOT)
    solver: str = "auto"
    solve_options: Mapping[str, object] = field(default_factory=dict)
    tiers: Mapping[str, ScenarioTier] = field(default_factory=dict)
    reference: str = ""
    expect_optimal: bool = False

    def __post_init__(self) -> None:
        if self.game not in GAMES:
            raise ValueError(f"game must be one of {GAMES}, got {self.game!r}")
        missing = [tier for tier in TIERS if tier not in self.tiers]
        if missing:
            raise ValueError(f"scenario {self.name!r} is missing tiers: {missing}")

    def tier(self, name: str) -> ScenarioTier:
        """The :class:`ScenarioTier` registered under ``name``.

        Raises
        ------
        KeyError
            If the tier name is unknown (the message lists valid names).
        """
        try:
            return self.tiers[name]
        except KeyError:
            raise KeyError(
                f"scenario {self.name!r} has no tier {name!r}; available: {sorted(self.tiers)}"
            ) from None

    def build_problem(self, tier: str = "quick") -> PebblingProblem:
        """Materialise the tier into a concrete :class:`PebblingProblem`."""
        spec = self.tier(tier)
        dag = self.dag_factory(*spec.dag_args, **dict(spec.dag_kwargs))
        return PebblingProblem(dag, r=spec.capacity(dag), game=self.game, variant=self.variant)


_REGISTRY: Dict[str, BenchScenario] = {}


def register_scenario(scenario: BenchScenario) -> BenchScenario:
    """Add a scenario to the registry (names are a global namespace).

    Raises
    ------
    ValueError
        If the name is already taken; use :func:`unregister_scenario` first
        to replace a built-in.
    """
    if scenario.name in _REGISTRY:
        raise ValueError(
            f"a scenario named {scenario.name!r} is already registered; "
            "unregister_scenario() it first if you intend to replace it"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def unregister_scenario(name: str) -> None:
    """Remove a scenario from the registry (no-op if absent)."""
    _REGISTRY.pop(name, None)


def get_scenario(name: str) -> BenchScenario:
    """Look up a registered scenario by name.

    Raises
    ------
    KeyError
        If no scenario of that name exists; the message lists known names.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown scenario {name!r}; registered scenarios: {known}") from None


def materialize_scenario(
    name: str, tier: str = "quick"
) -> Tuple[PebblingProblem, str, Dict[str, object]]:
    """Resolve a registered scenario into ``(problem, solver, options)``.

    The triple is exactly what :func:`repro.api.solve` takes, which makes
    this the one helper every scenario *consumer* outside the runner needs
    — the service CLI and the service bench pose registry workloads through
    it.  Importing here also registers the built-in scenarios, so callers
    see the populated registry without knowing about
    :mod:`repro.bench.scenarios`.
    """
    from . import scenarios as _register  # noqa: F401  (import populates the registry)

    scenario = get_scenario(name)
    return scenario.build_problem(tier), scenario.solver, dict(scenario.solve_options)


def iter_scenarios(
    group: Optional[str] = None,
    groups: Optional[Iterable[str]] = None,
    game: Optional[str] = None,
) -> List[BenchScenario]:
    """All registered scenarios matching the filters, sorted by (group, name).

    ``group`` filters on a single group, ``groups`` on a collection; passing
    both intersects them.
    """
    wanted = set(groups) if groups is not None else None
    out = []
    for scenario in _REGISTRY.values():
        if group is not None and scenario.group != group:
            continue
        if wanted is not None and scenario.group not in wanted:
            continue
        if game is not None and scenario.game != game:
            continue
        out.append(scenario)
    return sorted(out, key=lambda s: (s.group, s.name))


def scenario_names(**filters: object) -> List[str]:
    """The names of every scenario matching :func:`iter_scenarios` filters."""
    return [s.name for s in iter_scenarios(**filters)]


def scenario_groups() -> List[str]:
    """The sorted distinct group tags of the registry."""
    return sorted({s.group for s in _REGISTRY.values()})
