"""The solver registry: named, capability-tagged schedule producers.

Every solution method the library offers — exhaustive search, the greedy
baselines, the paper's structured per-family strategies — is registered here
under a stable name with capability tags:

* ``games`` — which game(s) the solver can play (``"rbp"``, ``"prbp"``);
* ``exact`` — whether the returned cost is the optimum by construction;
* ``families`` — :class:`~repro.core.dag.DAGFamily` names the solver is
  restricted to (empty means it accepts any DAG);
* ``min_r`` — per-problem minimum feasible capacity.

:func:`repro.api.solve` consults the registry both for explicit solver names
and for the ``solver="auto"`` portfolio.  Third-party code can plug in new
backends with the same :func:`register_solver` decorator; nothing in the
dispatch layer is specific to the built-ins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from ..core.exceptions import SolverError
from .problem import GAMES, PebblingProblem
from .result import SolverRun

__all__ = [
    "Solver",
    "SolverInfo",
    "register_solver",
    "unregister_solver",
    "get_solver",
    "list_solvers",
    "solver_names",
]


class Solver(Protocol):
    """A solver maps a problem to a :class:`~repro.api.result.SolverRun`.

    The run carries the schedule together with the solver's own report
    (search counters, refinement trajectory), so the dispatch layer reads
    the report from the return value and nowhere else.  ``options`` are
    solver-specific knobs (e.g. ``budget`` for the state cap of the
    exhaustive search); implementations must ignore options they do not
    understand.  Raise :class:`~repro.core.exceptions.SolverError` when the
    instance is unsolvable (infeasible ``r``, budget exceeded, family
    mismatch) — never return a wrong-cost schedule.
    """

    def __call__(self, problem: PebblingProblem, **options: object) -> SolverRun: ...


@dataclass(frozen=True)
class SolverInfo:
    """Registry entry: the solver callable plus its capability tags."""

    name: str
    fn: Callable[..., SolverRun]
    games: Tuple[str, ...]
    exact: bool = False
    families: Tuple[str, ...] = ()
    description: str = ""
    min_r: Optional[Callable[[PebblingProblem], int]] = None

    def supports(self, problem: PebblingProblem) -> bool:
        """True iff the tags say this solver can attempt ``problem``.

        Checks game, family restriction and the minimum capacity; it does
        *not* guarantee success (the solver may still raise
        :class:`SolverError`, e.g. on a budget overrun).  A family tag that
        is too malformed to even evaluate the capacity requirement counts as
        unsupported.
        """
        if problem.game not in self.games:
            return False
        if self.families:
            fam = problem.family
            if fam is None or fam.name not in self.families:
                return False
        try:
            required = self.required_r(problem)
        except SolverError:
            return False
        if required is not None and problem.r < required:
            return False
        return True

    def required_r(self, problem: PebblingProblem) -> Optional[int]:
        """The minimum capacity this solver needs for ``problem`` (None = no constraint).

        Raises
        ------
        SolverError
            If the capacity requirement cannot be evaluated — typically a
            hand-attached family tag missing the parameters the real
            generator would have recorded.
        """
        if self.min_r is None:
            return None
        try:
            return self.min_r(problem)
        except SolverError:
            raise
        except Exception as exc:
            raise SolverError(
                f"solver {self.name!r} cannot determine its minimum capacity for "
                f"{problem.describe()}: {exc}"
            ) from exc


_REGISTRY: Dict[str, SolverInfo] = {}


def register_solver(
    name: str,
    *,
    games: Sequence[str],
    exact: bool = False,
    families: Sequence[str] = (),
    description: str = "",
    min_r: Optional[Callable[[PebblingProblem], int]] = None,
) -> Callable[[Callable[..., SolverRun]], Callable[..., SolverRun]]:
    """Decorator registering a solver under ``name`` with capability tags.

    Raises
    ------
    ValueError
        If ``name`` is already registered (names are a global namespace; use
        :func:`unregister_solver` first to replace a built-in) or if a game
        tag is not one of ``"rbp"`` / ``"prbp"``.
    """
    for game in games:
        if game not in GAMES:
            raise ValueError(f"unknown game tag {game!r}; expected one of {GAMES}")
    if not games:
        raise ValueError("a solver must support at least one game")

    def decorator(fn: Callable[..., SolverRun]) -> Callable[..., SolverRun]:
        if name in _REGISTRY:
            raise ValueError(
                f"a solver named {name!r} is already registered; "
                "unregister_solver() it first if you intend to replace it"
            )
        doc_first_line = (fn.__doc__ or "").strip().splitlines()
        _REGISTRY[name] = SolverInfo(
            name=name,
            fn=fn,
            games=tuple(games),
            exact=exact,
            families=tuple(families),
            description=description or (doc_first_line[0] if doc_first_line else ""),
            min_r=min_r,
        )
        return fn

    return decorator


def unregister_solver(name: str) -> None:
    """Remove a solver from the registry (no-op if absent)."""
    _REGISTRY.pop(name, None)


def get_solver(name: str) -> SolverInfo:
    """Look up a registered solver by name.

    Raises
    ------
    SolverError
        If no solver of that name exists; the message lists the known names.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise SolverError(f"unknown solver {name!r}; registered solvers: {known}") from None


def list_solvers(
    game: Optional[str] = None,
    exact: Optional[bool] = None,
    family: Optional[str] = None,
) -> List[SolverInfo]:
    """All registered solvers matching the given capability filters.

    ``family`` matches solvers that either name the family explicitly or are
    family-agnostic (empty ``families`` tag).  Results are sorted by name.
    """
    out = []
    for info in _REGISTRY.values():
        if game is not None and game not in info.games:
            continue
        if exact is not None and info.exact != exact:
            continue
        if family is not None and info.families and family not in info.families:
            continue
        out.append(info)
    return sorted(out, key=lambda info: info.name)


def solver_names() -> List[str]:
    """The sorted names of every registered solver."""
    return sorted(_REGISTRY)
