"""Correctness checks applied to every result the benchmark receives."""

from __future__ import annotations

from typing import List

from repro.api import SolveResult

from workloads import Instance


def check_result(instance: Instance, result: SolveResult) -> List[str]:
    """Why ``result`` is wrong for ``instance``; an empty list means it is right.

    The schedule is replayed through the game engine (the defining
    semantics, independent of the replay kernel the service and cache use),
    its cost must not undercut the reported lower bound, and families with
    a closed-form optimum must hit it exactly.
    """
    errors: List[str] = []
    try:
        engine_cost = result.schedule.stats().io_cost
    except Exception as exc:  # noqa: BLE001 - any engine refusal is a wrong answer
        return [f"{instance.label}: schedule does not replay through the engine: {exc}"]
    if engine_cost != result.cost:
        errors.append(f"{instance.label}: engine replay costs {engine_cost}, result claims {result.cost}")
    if result.lower_bound is not None and result.cost < result.lower_bound:
        errors.append(f"{instance.label}: cost {result.cost} < lower bound {result.lower_bound}")
    if instance.expected_cost is not None and result.cost != instance.expected_cost:
        errors.append(f"{instance.label}: cost {result.cost} != closed form {instance.expected_cost}")
    return errors
