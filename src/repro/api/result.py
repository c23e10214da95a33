"""The :class:`SolveResult` container returned by :func:`repro.api.solve`.

A result always carries a *validated* schedule (the cost is the cost of an
actually legal pebbling, replayed through the replay kernel) as packed columns,
``result.ir``; ``result.schedule`` is a Move-object view of it, built on first
access and never pickled.  It also carries the replay statistics, the best
lower bound the library knows for the instance, and the optimality flags
derived from the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple, Union

from ..core.exceptions import PebblingError
from ..core.schedule_ir import ScheduleIR, to_schedule
from ..core.strategy import PRBPSchedule, RBPSchedule, ScheduleStats
from ..solvers.anytime import RefinementTrajectory
from .problem import PebblingProblem

__all__ = ["SolveResult", "SolveStats", "SolveAttempt", "SolverRun", "Schedule"]

#: Either game's schedule type.
Schedule = Union[RBPSchedule, PRBPSchedule]


@dataclass(frozen=True)
class SolverRun:
    """What a registered solver returns: its schedule plus its run report.

    The report fields mirror :class:`SolveStats`.  The exhaustive search
    fills in the A* counters and the ``"anytime"`` solver its refinement
    trajectory; every other solver leaves them ``None``.
    """

    schedule: Schedule
    states_expanded: Optional[int] = None
    states_frontier_peak: Optional[int] = None
    refinement: Optional[RefinementTrajectory] = None


@dataclass(frozen=True)
class SolveAttempt:
    """One portfolio member's run inside a ``solver="auto"`` solve.

    Attributes
    ----------
    solver:
        Registry name of the attempted solver.
    wall_time_s:
        Wall-clock seconds the attempt consumed (0.0 for skipped members).
    outcome:
        ``"won"`` (its schedule was returned), ``"lost"`` (produced a
        schedule that a cheaper candidate beat), ``"failed"`` (raised),
        or ``"skipped"`` (not run, e.g. instance too large for search).
    """

    solver: str
    wall_time_s: float
    outcome: str


@dataclass(frozen=True)
class SolveStats:
    """Execution statistics of the solver run that produced a result.

    Attributes
    ----------
    wall_time_s:
        Wall-clock seconds spent producing the result, including the
        validation replay of its schedule.  For ``solver="auto"`` this is
        the *total* portfolio wall time — failed and losing attempts
        included — so telemetry attributes the true cost of an auto
        solve; the per-member split is in :attr:`attempts`.
    states_expanded:
        Number of configurations the exhaustive A* search expanded, when the
        winning solver was the exhaustive one; ``None`` for solvers that do
        not search (greedy, structured strategies).
    states_frontier_peak:
        Peak size of the A* open list, under the same conditions.
    refinement:
        The anytime-refinement trajectory (initial cost, refined cost,
        steps, time-to-best) when the result went through the refinement
        engine — either the ``"anytime"`` solver or the auto portfolio's
        final improvement pass; ``None`` otherwise.
    attempts:
        Per-member timing breakdown of the auto portfolio (see
        :class:`SolveAttempt`); empty for direct solver calls.
    """

    wall_time_s: float
    states_expanded: Optional[int] = None
    states_frontier_peak: Optional[int] = None
    refinement: Optional[RefinementTrajectory] = None
    attempts: Tuple[SolveAttempt, ...] = ()


@dataclass(frozen=True)
class SolveResult:
    """A solved pebbling instance.

    Attributes
    ----------
    problem:
        The instance that was solved.
    ir:
        The validated schedule as packed ``op``/``node``/``arg`` columns
        (read-only).  :attr:`schedule` is its Move-object view.
    stats:
        Replay statistics: per-kind move counts, I/O cost, peak red pebbles.
    solver:
        Registry name of the solver that produced the schedule (for
        ``solver="auto"`` this is the portfolio member that won).
    exact_solver:
        True iff the schedule came from a solver registered with the
        ``exact`` capability (exhaustive search), so its cost *is* the
        optimum by construction.
    lower_bound:
        The best lower bound :mod:`repro.bounds` offers for this instance
        (at least the trivial cost), or ``None`` when none applies.
    lower_bound_source:
        Which bound supplied ``lower_bound`` (``"trivial"``, ``"thm6.9"``,
        ...); empty when ``lower_bound`` is None.
    solve_stats:
        Execution statistics of the winning solver run (wall time and, for
        exhaustive search, the expanded-state counters); ``None`` for results
        assembled outside :func:`repro.api.solve`.
    """

    problem: PebblingProblem
    ir: ScheduleIR
    stats: ScheduleStats
    solver: str
    exact_solver: bool
    lower_bound: Optional[int] = None
    lower_bound_source: str = ""
    solve_stats: Optional[SolveStats] = None

    @cached_property
    def schedule(self) -> Schedule:
        """The validated move list (:class:`RBPSchedule` or :class:`PRBPSchedule`)."""
        return to_schedule(self.ir)

    def __getstate__(self) -> Dict[str, object]:
        # the view is derived: a worker that touched it must not ship it back
        state = dict(self.__dict__)
        state.pop("schedule", None)
        return state

    @property
    def cost(self) -> int:
        """I/O cost of the validated schedule."""
        return self.stats.io_cost

    @property
    def optimal(self) -> bool:
        """True iff the cost is provably the optimum.

        Either an exact solver produced the schedule, or the achieved cost
        meets the best known lower bound (a matching upper/lower pair is a
        proof of optimality regardless of which solver found the schedule).

        Raises
        ------
        PebblingError
            If the validated cost is strictly *below* the claimed lower
            bound — a mathematically impossible state that can only mean a
            broken bound formula or a bound computed for a different
            instance; it is surfaced rather than converted into a false
            optimality proof.
        """
        if self.lower_bound is not None and self.cost < self.lower_bound:
            raise PebblingError(
                f"inconsistent result for {self.problem.describe()}: the validated schedule "
                f"costs {self.cost}, strictly below the claimed lower bound "
                f"{self.lower_bound} ({self.lower_bound_source}) — the bound is wrong for "
                "this instance"
            )
        if self.exact_solver:
            return True
        return self.lower_bound is not None and self.cost == self.lower_bound

    @property
    def upper_bound(self) -> bool:
        """True iff the cost is only known to be achievable, not optimal."""
        return not self.optimal

    @property
    def gap(self) -> Optional[int]:
        """``cost - lower_bound`` (None when no lower bound is known)."""
        if self.lower_bound is None:
            return None
        return self.cost - self.lower_bound

    def describe(self) -> str:
        """One-line human-readable summary."""
        quality = "optimal" if self.optimal else "upper bound"
        lb = f", lower bound {self.lower_bound} ({self.lower_bound_source})" if self.lower_bound is not None else ""
        return (
            f"{self.problem.describe()}: cost {self.cost} ({quality}, solver={self.solver}{lb}), "
            f"{self.stats.moves} moves, peak red {self.stats.peak_red}"
        )
