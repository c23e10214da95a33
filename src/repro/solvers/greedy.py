"""Greedy pebbling heuristics: topological processing with Belady-style eviction.

These solvers produce *valid* (not necessarily optimal) schedules for DAGs of
any size and are used as upper-bound baselines in the benchmarks and as
work-horses in the examples:

* :func:`topological_prbp_schedule` — the strategy sketched in Section 3 of
  the paper: process the edges in a topological order of their heads,
  loading inputs and saving partial values on demand.  It produces a valid
  PRBP pebbling for every DAG as soon as ``r >= 2``.
* :func:`greedy_rbp_schedule` — the classic RBP analogue: compute the nodes
  in topological order, gathering all inputs in fast memory; valid whenever
  ``r >= Δ_in + 1``.

Both use the same eviction rule: when a slot is needed, prefer pebbles that
can be dropped for free (already saved, or never needed again), and
otherwise save-and-drop the pebble whose next use is furthest in the future
(the offline Belady rule applied to the fixed processing order).

Both wrap :func:`belady_rows`, which emits the pebbling as ``(op, node,
arg)`` rows (the :mod:`repro.core.schedule_ir` encoding) from a small
incremental pebble state instead of driving a game engine.  An eviction
looks only at the ``<= r`` nodes in fast memory and finds each one's next
use by bisection.  Every row list is replayed by the kernel before it is
returned; the anytime refiner consumes the rows directly.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.dag import ComputationalDAG
from ..core.exceptions import IllegalMoveError, SolverError
from ..core.schedule_ir import (
    OP_COMPUTE,
    OP_DELETE,
    OP_LOAD,
    OP_SAVE,
    decode_moves,
    replay_io_cost,
)
from ..core.strategy import PRBPSchedule, RBPSchedule
from ..core.variants import ONE_SHOT, GameVariant

__all__ = ["topological_prbp_schedule", "greedy_rbp_schedule", "belady_rows"]

Row = Tuple[int, int, int]

# PRBP node states, as in ``core.pebbles.PRBPState``; light and dark are red
_NONE, _BLUE, _LIGHT, _DARK = 0, 1, 2, 3

_DESCRIPTION = "topological greedy (Belady eviction)"

_NO_DELETE_RULE = "delete moves are forbidden in the no-deletion variant (Appendix B.4)"


def _use_table(participants: Sequence[Tuple[int, ...]], n: int) -> List[List[int]]:
    """For each node, the ascending positions in ``participants`` that involve it."""
    uses: List[List[int]] = [[] for _ in range(n)]
    for pos, nodes in enumerate(participants):
        for v in nodes:
            uses[v].append(pos)
    return uses


def _prbp_rows(
    dag: ComputationalDAG, r: int, pos_of: Dict[int, int], variant: GameVariant
) -> List[Row]:
    # Edge processing sequence: all in-edges of each node, nodes in order.
    edges = [(u, v) for v in pos_of for u in sorted(dag.predecessors(v), key=pos_of.__getitem__)]
    uses = _use_table(edges, dag.n)
    state = [_BLUE if dag.is_source(v) else _NONE for v in range(dag.n)]
    # unmarked in- and out-edges; a sink counts one extra so it never reaches
    # 0: an unsaved dark red sink must never be dropped
    pending = [dag.in_degree(v) + (dag.out_degree(v) or 1) for v in range(dag.n)]
    red: Set[int] = set()
    rows: List[Row] = []

    def make_room(pos: int, protected: int) -> None:
        """Free one fast-memory slot, never touching the ``protected`` node."""
        if len(red) < r:
            return
        # free pebbles first, then the furthest next use, then the smallest id
        victim, best = -1, (False, -1, 0)
        for w in red:
            if w != protected:
                i = bisect_right(uses[w], pos)
                nxt = uses[w][i] if i < len(uses[w]) else len(edges)
                key = (state[w] == _LIGHT or pending[w] == 0, nxt, -w)
                if key > best:
                    victim, best = w, key
        if victim < 0:
            raise SolverError(
                f"cannot free a fast-memory slot at position {pos}: all {r} red pebbles are in use"
            )
        if state[victim] == _DARK and not best[0]:
            rows.append((OP_SAVE, victim, -1))
            state[victim] = _LIGHT
        elif state[victim] == _DARK and not variant.allow_delete:
            raise SolverError(f"cannot evict node {victim}: {_NO_DELETE_RULE}")
        rows.append((OP_DELETE, victim, -1))
        state[victim] = _BLUE if state[victim] == _LIGHT else _NONE
        red.remove(victim)

    for pos, (u, v) in enumerate(edges):
        # 1. make sure u is in fast memory
        if state[u] < _LIGHT:
            make_room(pos, v if state[v] >= _LIGHT else -1)
            rows.append((OP_LOAD, u, -1))
            state[u] = _LIGHT
            red.add(u)
        # 2. make sure v can receive the dark red pebble
        if state[v] < _LIGHT:
            make_room(pos, u)
            if state[v] == _BLUE:
                rows.append((OP_LOAD, v, -1))
            red.add(v)
        # 3. aggregate
        rows.append((OP_COMPUTE, u, v))
        state[v] = _DARK
        pending[u] -= 1
        pending[v] -= 1

    rows.extend((OP_SAVE, v, -1) for v in dag.sinks if state[v] == _DARK)
    return rows


def _rbp_rows(
    dag: ComputationalDAG, r: int, pos_of: Dict[int, int], variant: GameVariant
) -> List[Row]:
    steps = [dag.predecessors(v) + (v,) for v in pos_of if not dag.is_source(v)]
    uses = _use_table(steps, dag.n)
    # ``red`` sees exactly the add/remove sequence of ``RBPGame.red``: eviction
    # ties go to the first node in that set's iteration order.
    red: Set[int] = set()
    blue = [dag.is_source(v) for v in range(dag.n)]
    rows: List[Row] = []

    def make_room(pos: int, protected: Set[int]) -> None:
        if len(red) < r:
            return
        # saved pebbles first, then the furthest next use
        victim, best = -1, (False, -1)
        for w in red:
            if w not in protected:
                i = bisect_right(uses[w], pos)
                key = (blue[w], uses[w][i] if i < len(uses[w]) else len(steps))
                if key > best:
                    victim, best = w, key
        if victim < 0:
            raise SolverError(
                f"cannot free a fast-memory slot at step {pos}: all {r} red pebbles are protected"
            )
        if not variant.allow_delete:
            raise SolverError(f"cannot evict node {victim}: {_NO_DELETE_RULE}")
        if not blue[victim]:
            rows.append((OP_SAVE, victim, -1))
            blue[victim] = True
        rows.append((OP_DELETE, victim, -1))
        red.remove(victim)

    for step, inputs in enumerate(steps):
        v = inputs[-1]
        protected = set(inputs)
        for u in sorted(inputs[:-1], key=pos_of.__getitem__):
            if u not in red:
                make_room(step, protected)
                rows.append((OP_LOAD, u, -1))
                red.add(u)
        make_room(step, protected)
        rows.append((OP_COMPUTE, v, -1))
        red.add(v)
        if dag.is_sink(v):
            rows.append((OP_SAVE, v, -1))
            blue[v] = True
            if not variant.allow_delete:  # the save replaces the red pebble
                red.discard(v)
    return rows


def belady_rows(
    dag: ComputationalDAG,
    r: int,
    game: str,
    topo_order: Optional[Sequence[int]] = None,
    variant: GameVariant = ONE_SHOT,
) -> Tuple[List[Row], int]:
    """The greedy pebbling of ``game`` (``"rbp"``/``"prbp"``) as rows, with its I/O cost.

    The cost comes from the replay kernel.  Raises :class:`SolverError` when
    ``r`` is below the game's floor or an eviction needs a delete the
    variant forbids, and ``ValueError`` for a non-topological order or a
    sliding PRBP variant.
    """
    if game == "rbp" and r < dag.max_in_degree + 1:
        raise SolverError(
            f"no valid RBP pebbling exists: r = {r} < max in-degree + 1 = {dag.max_in_degree + 1}"
        )
    if game == "prbp" and r < 2 and dag.m > 0:
        raise SolverError(f"the topological PRBP strategy needs r >= 2, got r = {r}")
    order = list(topo_order) if topo_order is not None else list(dag.topological_order)
    if len(order) != dag.n or set(order) != set(range(dag.n)):
        raise ValueError("topo_order must be a permutation of all nodes")
    pos_of = {v: i for i, v in enumerate(order)}  # iterates in ``order``
    if any(pos_of[u] >= pos_of[v] for u, v in dag.edges):
        raise ValueError("topo_order is not a topological order of the DAG")
    # the checks RBPGame/PRBPGame make on construction, in their order
    if r < 1:
        raise ValueError(f"fast memory capacity must be >= 1, got {r}")
    if game == "prbp" and variant.allow_sliding:
        raise ValueError(
            "the sliding variant only applies to RBP; PRBP partial computes are already in-place"
        )
    dag.validate_no_isolated()
    rows = (_rbp_rows if game == "rbp" else _prbp_rows)(dag, r, pos_of, variant)
    cost = replay_io_cost(dag, r, variant, game, rows)
    if cost is None:
        raise IllegalMoveError(f"the greedy {game.upper()} rows do not replay on the kernel")
    return rows, cost


def topological_prbp_schedule(
    dag: ComputationalDAG,
    r: int,
    topo_order: Optional[Sequence[int]] = None,
    variant: GameVariant = ONE_SHOT,
) -> PRBPSchedule:
    """Greedy PRBP pebbling: aggregate each node's in-edges in topological order.

    Parameters
    ----------
    dag, r:
        The instance; any ``r >= 2`` admits a valid pebbling (``r >= 1``
        suffices for edge-less DAGs).
    topo_order:
        Optional node order to follow (must be a topological order of
        ``dag``); defaults to the DAG's own order.  Structured callers (e.g.
        the matrix–vector strategy) pass tailored orders to get better
        locality.
    variant:
        The rule bundle.  An eviction that needs a delete the variant
        forbids raises :class:`SolverError`; sliding is RBP-only.
    """
    rows, _ = belady_rows(dag, r, "prbp", topo_order, variant)
    moves = decode_moves("prbp", rows)
    return PRBPSchedule(dag, r, moves, variant=variant, description=_DESCRIPTION)


def greedy_rbp_schedule(
    dag: ComputationalDAG,
    r: int,
    topo_order: Optional[Sequence[int]] = None,
    variant: GameVariant = ONE_SHOT,
) -> RBPSchedule:
    """Greedy RBP pebbling: compute nodes in topological order with Belady eviction.

    Requires ``r >= Δ_in + 1`` (otherwise no RBP pebbling exists at all).
    """
    rows, _ = belady_rows(dag, r, "rbp", topo_order, variant)
    moves = decode_moves("rbp", rows)
    return RBPSchedule(dag, r, moves, variant=variant, description=_DESCRIPTION)
