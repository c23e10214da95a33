"""The baseline comparator: the regression gate behind ``--compare``.

Given the current report and a baseline report, flags

* **wall-time regressions** — a scenario slower than ``threshold`` times its
  baseline (both sides floored at ``min_wall_time_s`` so sub-millisecond
  timer noise cannot fail a build);
* **I/O-cost regressions** — any achieved cost above the baseline's.  Costs
  are deterministic replays of deterministic schedules, so *any* increase is
  a real algorithmic regression and no threshold applies;
* **counter regressions** — the solver report's deterministic work counters:
  any rise in ``states_expanded`` or ``states_frontier_peak`` (like
  ``io_cost``), and any change at all in ``refine_initial_cost``,
  ``refine_steps`` or ``refine_accepted``.  Counters that are ``None`` in
  the baseline are not gated;
* **new failures** — a scenario that errored or missed its expected cost now
  but was healthy in the baseline;
* **missing scenarios** — present in the baseline but absent from the
  current run (a silently dropped workload must not look like a pass).

Improvements (faster, cheaper) are reported informationally and never fail.

Records are matched by ``(scenario, tier)`` and gated on ``io_cost``,
the report counters above, ``wall_time_s``, ``error`` and ``expected_ok``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .report import report_records

__all__ = ["Regression", "ComparisonResult", "compare_reports", "DEFAULT_THRESHOLD"]

#: Default wall-time ratio above which a scenario counts as regressed.
DEFAULT_THRESHOLD = 1.25

#: Wall times below this floor are treated as equal (timer noise).
DEFAULT_MIN_WALL_TIME_S = 0.02

#: Search counters gated like ``io_cost``: a rise is a regression.
RISING_COUNTERS = ("states_expanded", "states_frontier_peak")

#: Refinement counters that must match the baseline exactly.
EXACT_COUNTERS = ("refine_initial_cost", "refine_steps", "refine_accepted")


@dataclass(frozen=True)
class Regression:
    """One flagged difference between the current run and the baseline."""

    scenario: str
    tier: str
    kind: str  # "wall-time" | "io-cost" | "counter" | "failure" | "missing"
    message: str
    current: Optional[float] = None
    baseline: Optional[float] = None


@dataclass
class ComparisonResult:
    """Outcome of :func:`compare_reports`.

    ``ok`` is True iff no regression was found; ``improvements`` and
    ``skipped`` carry informational notes (never failures).
    """

    threshold: float
    regressions: List[Regression] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def describe(self) -> str:
        """Multi-line human-readable summary (one line per finding)."""
        lines = []
        for reg in self.regressions:
            lines.append(f"REGRESSION [{reg.kind}] {reg.scenario} ({reg.tier}): {reg.message}")
        for note in self.improvements:
            lines.append(f"improved: {note}")
        for note in self.skipped:
            lines.append(f"skipped: {note}")
        if not lines:
            lines.append("no differences against the baseline")
        return "\n".join(lines)


def _index(doc: Dict[str, object]) -> Dict[Tuple[str, str], Dict[str, object]]:
    return {
        (str(rec.get("scenario")), str(rec.get("tier"))): rec
        for rec in report_records(doc)
    }


def _is_healthy(rec: Dict[str, object]) -> bool:
    return rec.get("error") is None and rec.get("expected_ok") is not False


def compare_reports(
    current: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
    min_wall_time_s: float = DEFAULT_MIN_WALL_TIME_S,
) -> ComparisonResult:
    """Compare two loaded BENCH report documents; see the module docstring."""
    if threshold < 1.0:
        raise ValueError(f"threshold must be >= 1.0, got {threshold}")
    result = ComparisonResult(threshold=threshold)
    current_index = _index(current)
    baseline_index = _index(baseline)

    for key, base_rec in sorted(baseline_index.items()):
        name, tier = key
        cur_rec = current_index.get(key)
        if cur_rec is None:
            result.regressions.append(
                Regression(
                    scenario=name,
                    tier=tier,
                    kind="missing",
                    message="present in the baseline but absent from the current run",
                )
            )
            continue

        if not _is_healthy(base_rec):
            # A scenario that was already broken at the baseline cannot
            # regress further; it only gates again once a healthy baseline
            # records it.
            result.skipped.append(f"{name} ({tier}): baseline run was already failing")
            continue
        if not _is_healthy(cur_rec):
            detail = cur_rec.get("error") or (
                f"expected cost {cur_rec.get('expected_cost')}, got {cur_rec.get('io_cost')}"
            )
            result.regressions.append(
                Regression(
                    scenario=name, tier=tier, kind="failure", message=str(detail)
                )
            )
            continue

        cur_cost, base_cost = cur_rec.get("io_cost"), base_rec.get("io_cost")
        if isinstance(cur_cost, int) and isinstance(base_cost, int):
            if cur_cost > base_cost:
                result.regressions.append(
                    Regression(
                        scenario=name,
                        tier=tier,
                        kind="io-cost",
                        message=f"I/O cost rose from {base_cost} to {cur_cost}",
                        current=float(cur_cost),
                        baseline=float(base_cost),
                    )
                )
            elif cur_cost < base_cost:
                result.improvements.append(
                    f"{name} ({tier}): I/O cost fell from {base_cost} to {cur_cost}"
                )

        for counter in RISING_COUNTERS + EXACT_COUNTERS:
            base_val, cur_val = base_rec.get(counter), cur_rec.get(counter)
            if base_val is None or cur_val == base_val:
                continue
            if counter in RISING_COUNTERS and cur_val is not None and cur_val < base_val:
                result.improvements.append(
                    f"{name} ({tier}): {counter} fell from {base_val} to {cur_val}"
                )
                continue
            result.regressions.append(
                Regression(
                    scenario=name,
                    tier=tier,
                    kind="counter",
                    message=f"{counter} changed from {base_val} to {cur_val}",
                    current=None if cur_val is None else float(cur_val),
                    baseline=float(base_val),
                )
            )

        cur_time, base_time = cur_rec.get("wall_time_s"), base_rec.get("wall_time_s")
        if isinstance(cur_time, (int, float)) and isinstance(base_time, (int, float)):
            effective_cur = max(float(cur_time), min_wall_time_s)
            effective_base = max(float(base_time), min_wall_time_s)
            ratio = effective_cur / effective_base
            if ratio > threshold:
                result.regressions.append(
                    Regression(
                        scenario=name,
                        tier=tier,
                        kind="wall-time",
                        message=(
                            f"wall time {cur_time:.4f}s vs baseline {base_time:.4f}s "
                            f"({ratio:.2f}x > threshold {threshold:.2f}x)"
                        ),
                        current=float(cur_time),
                        baseline=float(base_time),
                    )
                )
            elif ratio < 1.0 / threshold:
                result.improvements.append(
                    f"{name} ({tier}): wall time {cur_time:.4f}s vs baseline "
                    f"{base_time:.4f}s ({ratio:.2f}x)"
                )

    for key in sorted(set(current_index) - set(baseline_index)):
        result.skipped.append(f"{key[0]} ({key[1]}): new scenario, no baseline to compare")
    return result
