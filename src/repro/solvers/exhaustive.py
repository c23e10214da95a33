"""Exact optimal pebbling via A* search over game configurations.

Computing ``OPT_RBP`` and ``OPT_PRBP`` is NP-hard (and hard to approximate,
Theorem 7.1), so exact solvers can only target small DAGs — which is exactly
what the paper's examples need: the Figure 1 gadget, small trees, small
zipper and collection gadgets, and the DAG families at toy sizes.  The
solvers here are used by the test-suite and the benchmarks to *verify* that
the structured strategies and the closed-form costs of the propositions are
actually optimal.

Search formulation
------------------
A configuration is the complete game state:

* RBP:  ``(red set, blue set, computed set)`` — three bitmasks;
* PRBP: ``(per-node pebble state, marked-edge set)`` — a 2-bit-per-node code
  and an edge bitmask.

Moves are grouped into *macro moves* in a cost-preserving normal form:

* **Deferred deletes.**  Delete moves are free and their legality is
  monotone in time (a light red pebble can always be deleted; a dark red
  pebble becomes deletable once all its out-edges are marked, and marks are
  never removed in the one-shot game), and keeping a pebble never disables a
  later move except through the capacity bound, which is only checked when a
  pebble is *added*.  Hence every strategy can be normalised so that deletes
  happen immediately before the load/compute that needs the freed slot.  The
  solver therefore only branches over "delete one pebble + add one pebble"
  pairs when the configuration is at capacity.
* **Useless-move elimination.**  Loads of values that can never be used
  again, saves of values that are already up to date in slow memory, and
  saves of values that are never needed again are never part of a minimal
  strategy and are not generated.

The search is A* with an admissible (not necessarily consistent) heuristic
combining two ingredients:

* the per-state counting term "number of unsaved sinks plus number of
  sources that still have to be re-loaded" — both count distinct,
  unavoidable future I/O operations from the current configuration;
* a *root lower bound* computed once per search from :mod:`repro.bounds`
  (the trivial cost always; on small one-shot instances also the exact
  Hong–Kung S-partition bound for RBP and the Theorem 6.5/6.7 S-edge /
  S-dominator partition bounds for PRBP).  Any full schedule through a
  state of cost ``g`` costs at least the root bound in total, so
  ``max(h(state), bound - g)`` is admissible, which floors every f-value
  at the bound.

States are re-opened when a cheaper path is found, so inconsistency only
costs re-expansions, never optimality.  Two further prunes keep the
expansion count down:

* **f-tie breaking towards the goal** — among equal f-values the larger
  g (deeper state) is popped first, so once the frontier reaches the
  optimum plateau the search runs depth-first along it instead of
  flooding the whole plateau breadth-first;
* **dominance pruning** — a popped state whose freely-deletable red set
  is a subset of an already-expanded state with the same irreversible
  progress (blue/computed sets in RBP; marked edges, dark pebbles and
  blue base in PRBP) at equal-or-lower g-cost is skipped: extra red
  pebbles can always be deleted for free, so every completion of the
  dominated state is matched, at equal or lower cost, through the
  dominating one.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import count
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..bounds.hongkung import rbp_lower_bound_exact
from ..bounds.prbp_bounds import (
    prbp_dominator_lower_bound_exact,
    prbp_edge_lower_bound_exact,
)
from ..core.canonical import dag_digest
from ..core.dag import ComputationalDAG
from ..core.exceptions import SolverError
from ..core.moves import MoveKind, PRBPMove, RBPMove
from ..core.pebbles import PRBPState
from ..core.strategy import PRBPSchedule, RBPSchedule
from ..core.variants import ONE_SHOT, GameVariant

__all__ = [
    "optimal_rbp_schedule",
    "optimal_rbp_cost",
    "optimal_prbp_schedule",
    "optimal_prbp_cost",
    "DEFAULT_MAX_STATES",
    "ROOT_BOUND_NODE_LIMIT",
    "ROOT_BOUND_EDGE_LIMIT",
    "SearchTelemetry",
    "exhaustive_search",
    "root_lower_bound",
    "root_lower_bound_cache_clear",
]

#: Default cap on the number of distinct configurations the solvers may expand.
DEFAULT_MAX_STATES = 2_000_000

#: Exact node-partition root bounds are only computed below this node count —
#: the downset-lattice search behind them is itself exponential, and on larger
#: or capacity-rich instances its cost would dwarf the A* run it speeds up.
ROOT_BOUND_NODE_LIMIT = 9

#: Same guard for the PRBP S-edge partition bound, in edges.
ROOT_BOUND_EDGE_LIMIT = 12


#: Bound on the memoised root bounds below.  The cache stores only
#: ``(digest, r, game, variant) -> int`` — never DAG objects — so even at
#: capacity it holds a few hundred strings and ints, not hundreds of graphs.
ROOT_BOUND_CACHE_SIZE = 512

_root_bound_cache: "OrderedDict[Tuple[str, int, str, GameVariant], int]" = OrderedDict()
_root_bound_lock = threading.Lock()


def root_lower_bound_cache_clear() -> None:
    """Drop every memoised root bound.

    Exposed so long-running hosts (the solve daemon's cache-pressure path,
    test isolation) can release the memo deterministically instead of
    waiting for LRU turnover.
    """
    with _root_bound_lock:
        _root_bound_cache.clear()


def root_lower_bound(dag: ComputationalDAG, r: int, game: str, variant: GameVariant) -> int:
    """A cheap lower bound on the total cost of any valid schedule.

    Always includes the trivial cost (sources + sinks) when the DAG has no
    isolated node; on small one-shot instances without the sliding rule it is
    strengthened with the exact partition bounds of :mod:`repro.bounds`
    (Hong–Kung for RBP, Theorems 6.5/6.7 for PRBP).  The partition searches
    are skipped when ``2r >= n`` (a single class is always valid there, so
    the bound degenerates to 0) and above the ``ROOT_BOUND_*`` size guards.

    The result floors every f-value of the A* searches below; it is a bound
    on *total* cost because I/O cost lower bounds remain valid when compute
    steps add a non-negative ε on top.

    Results are memoised under the DAG's *content digest*, not the DAG
    object: a resident daemon solving an endless stream of distinct
    problems must not pin full graphs in an ``lru_cache`` for the life of
    the process (the old behaviour — up to 512 DAGs held by key identity).
    The bound is a pure function of the digested content, so equal digests
    cannot disagree.  Thread-safe: the service's thread-pool fallback
    solves concurrently.
    """
    key = (dag_digest(dag), r, game, variant)
    with _root_bound_lock:
        cached = _root_bound_cache.get(key)
        if cached is not None:
            _root_bound_cache.move_to_end(key)
            return cached
    value = _compute_root_lower_bound(dag, r, game, variant)
    with _root_bound_lock:
        _root_bound_cache[key] = value
        _root_bound_cache.move_to_end(key)
        while len(_root_bound_cache) > ROOT_BOUND_CACHE_SIZE:
            _root_bound_cache.popitem(last=False)
    return value


def _compute_root_lower_bound(
    dag: ComputationalDAG, r: int, game: str, variant: GameVariant
) -> int:
    if dag.n > 1 and any(dag.is_source(v) and dag.is_sink(v) for v in dag.nodes()):
        return 0  # an isolated node needs no I/O at all; stay conservative
    lb = dag.trivial_cost()
    if not variant.one_shot or variant.allow_sliding:
        # The partition bounds are proven for the one-shot game without
        # sliding (a sliding schedule is not a valid standard schedule, so
        # OPT_sliding may undercut them); the trivial cost still holds.
        return lb
    try:
        if game == "rbp":
            if dag.n <= ROOT_BOUND_NODE_LIMIT and 2 * r < dag.n:
                lb = max(lb, rbp_lower_bound_exact(dag, r))
        elif dag.n <= ROOT_BOUND_NODE_LIMIT and 2 * r < dag.n:
            lb = max(lb, prbp_dominator_lower_bound_exact(dag, r))
            if dag.m <= ROOT_BOUND_EDGE_LIMIT:
                lb = max(lb, prbp_edge_lower_bound_exact(dag, r))
    except SolverError:
        pass  # partition machinery refused the instance; the trivial cost stands
    return lb


@dataclass(frozen=True)
class SearchTelemetry:
    """Counters of one successful A* run, as returned by :func:`exhaustive_search`."""

    expanded: int
    frontier_peak: int
    dominated_pruned: int = 0


def _popcount(x: int) -> int:
    return x.bit_count()


def _bits(x: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``x`` in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# --------------------------------------------------------------------------- #
# RBP
# --------------------------------------------------------------------------- #


class _RBPSearch:
    """A* search for the optimal RBP pebbling of a small DAG."""

    #: Heuristic value of a provably dead state (a still-needed value was
    #: irrecoverably lost); far above any reachable f, so never expanded.
    DEAD_STATE_H = 1 << 30

    def __init__(self, dag: ComputationalDAG, r: int, variant: GameVariant, max_states: int):
        self.dag = dag
        self.r = r
        self.variant = variant
        self.max_states = max_states
        self.n = dag.n
        self.full_mask = (1 << dag.n) - 1
        self.source_mask = sum(1 << v for v in dag.sources)
        self.sink_mask = sum(1 << v for v in dag.sinks)
        self.pred_mask = [sum(1 << u for u in dag.predecessors(v)) for v in range(self.n)]
        self.succ_mask = [sum(1 << w for w in dag.successors(v)) for v in range(self.n)]
        self.is_source = [dag.is_source(v) for v in range(self.n)]
        self.is_sink = [dag.is_sink(v) for v in range(self.n)]
        if not variant.allow_sliding and r < dag.max_in_degree + 1:
            raise SolverError(
                f"no valid RBP pebbling exists: r = {r} < max in-degree + 1 = {dag.max_in_degree + 1}"
            )
        if variant.allow_sliding and r < dag.max_in_degree:
            raise SolverError(
                f"no valid sliding-RBP pebbling exists: r = {r} < max in-degree = {dag.max_in_degree}"
            )
        self.root_bound = root_lower_bound(dag, r, "rbp", variant)

    # state = (red, blue, computed) bitmask triple

    def initial(self) -> Tuple[int, int, int]:
        return (0, self.source_mask, 0)

    def dominance(self, state: Tuple[int, int, int]) -> Optional[Tuple[Tuple[int, int], int]]:
        """Dominance key/mask pair: states sharing the ``(blue, computed)``
        key are comparable, and one with a red *subset* at equal-or-higher
        g-cost is dominated (extra red pebbles delete for free).  Disabled in
        the no-deletion variant, where red pebbles cannot be shed."""
        if not self.variant.allow_delete:
            return None
        red, blue, computed = state
        return (blue, computed), red

    def is_goal(self, state: Tuple[int, int, int]) -> bool:
        return (state[1] & self.sink_mask) == self.sink_mask

    def heuristic(self, state: Tuple[int, int, int]) -> int:
        red, blue, computed = state
        h = _popcount(self.sink_mask & ~blue)
        if self.variant.one_shot:
            # Every non-red node with an uncomputed successor must become red
            # again before that successor can be computed.  Sources and
            # already-computed nodes can only get there through a load (one
            # distinct load each); an already-computed node that is neither
            # blue nor red is lost for good — the state is a dead end.
            for v in _bits(self.full_mask & ~red):
                if not (self.succ_mask[v] & ~computed):
                    continue
                bit = 1 << v
                if self.is_source[v]:
                    h += 1
                elif computed & bit:
                    if blue & bit:
                        h += 1
                    else:
                        return self.DEAD_STATE_H
        else:
            for s in _bits(self.source_mask & ~red):
                # a source that still has an uncomputed successor must be
                # (re)loaded; non-sources may be recomputed instead
                if self.succ_mask[s] & ~computed:
                    h += 1
        return h

    def successors(
        self, state: Tuple[int, int, int]
    ) -> Iterator[Tuple[Tuple[int, int, int], float, Tuple[RBPMove, ...]]]:
        red, blue, computed = state
        red_count = _popcount(red)
        at_capacity = red_count >= self.r
        one_shot = self.variant.one_shot
        allow_delete = self.variant.allow_delete
        compute_cost = self.variant.compute_cost

        # deletable red pebbles (for deferred deletes); in the no-deletion
        # variant nothing can be deleted.  In the one-shot game, deleting the
        # only copy of a value that is still needed (an unsaved sink, or an
        # unsaved computed node with an uncomputed successor) makes the goal
        # unreachable, so those choices are never generated.
        deletable: List[int] = []
        if allow_delete:
            for d in _bits(red):
                dbit = 1 << d
                if (
                    one_shot
                    and not (blue & dbit)
                    and (self.is_sink[d] or (self.succ_mask[d] & ~computed))
                ):
                    continue
                deletable.append(d)

        for v in range(self.n):
            bit = 1 << v
            in_red = bool(red & bit)
            in_blue = bool(blue & bit)

            # ---- save -------------------------------------------------- #
            # In the no-deletion variant a save is also the only way to free a
            # fast-memory slot, so it is generated even when it looks useless
            # (and even when the node is already blue).
            if in_red and (not in_blue or not allow_delete):
                useful = True
                if (
                    allow_delete
                    and one_shot
                    and not self.is_sink[v]
                    and not (self.succ_mask[v] & ~computed)
                ):
                    useful = False  # value can never be needed again
                if useful:
                    new_red = red if allow_delete else red & ~bit
                    yield (new_red, blue | bit, computed), 1.0, (RBPMove(MoveKind.SAVE, v),)

            # ---- load -------------------------------------------------- #
            if in_blue and not in_red:
                useful = bool(self.succ_mask[v] & ~computed) if one_shot else bool(self.succ_mask[v])
                if useful:
                    if not at_capacity:
                        yield (red | bit, blue, computed), 1.0, (RBPMove(MoveKind.LOAD, v),)
                    else:
                        for d in deletable:
                            dbit = 1 << d
                            yield (
                                ((red & ~dbit) | bit, blue, computed),
                                1.0,
                                (RBPMove(MoveKind.DELETE, d), RBPMove(MoveKind.LOAD, v)),
                            )

            # ---- compute ----------------------------------------------- #
            if not self.is_source[v] and not in_red:
                if one_shot and (computed & bit):
                    continue
                if (red & self.pred_mask[v]) != self.pred_mask[v]:
                    continue
                cost = float(compute_cost)
                if self.variant.allow_sliding:
                    for u in _bits(self.pred_mask[v]):
                        ubit = 1 << u
                        yield (
                            ((red & ~ubit) | bit, blue, computed | bit),
                            cost,
                            (RBPMove(MoveKind.COMPUTE, v, slide_from=u),),
                        )
                if not at_capacity:
                    yield (red | bit, blue, computed | bit), cost, (RBPMove(MoveKind.COMPUTE, v),)
                else:
                    for d in deletable:
                        dbit = 1 << d
                        if dbit & self.pred_mask[v]:
                            continue  # deleting an input would make the compute illegal
                        yield (
                            ((red & ~dbit) | bit, blue, computed | bit),
                            cost,
                            (RBPMove(MoveKind.DELETE, d), RBPMove(MoveKind.COMPUTE, v)),
                        )


class _PRBPSearch:
    """A* search for the optimal (one-shot) PRBP pebbling of a small DAG."""

    def __init__(self, dag: ComputationalDAG, r: int, variant: GameVariant, max_states: int):
        if not variant.one_shot:
            raise SolverError("the exhaustive PRBP solver only supports the one-shot variant")
        if variant.allow_sliding:
            raise SolverError("the sliding rule does not exist in PRBP")
        self.dag = dag
        self.r = r
        self.variant = variant
        self.max_states = max_states
        self.n = dag.n
        self.m = dag.m
        self.edges = dag.edges
        self.in_edge_ids = [
            [dag.edge_id(u, v) for u in dag.predecessors(v)] for v in range(self.n)
        ]
        self.out_edge_ids = [
            [dag.edge_id(v, w) for w in dag.successors(v)] for v in range(self.n)
        ]
        self.in_edge_mask = [sum(1 << e for e in self.in_edge_ids[v]) for v in range(self.n)]
        self.out_edge_mask = [sum(1 << e for e in self.out_edge_ids[v]) for v in range(self.n)]
        self.is_source = [dag.is_source(v) for v in range(self.n)]
        self.is_sink = [dag.is_sink(v) for v in range(self.n)]
        self.sinks = list(dag.sinks)
        self.sources = list(dag.sources)
        self.all_edges_mask = (1 << self.m) - 1
        if r < 2 and dag.max_in_degree >= 1:
            raise SolverError(
                f"no valid PRBP pebbling exists for r = {r} < 2 on a DAG with edges"
            )
        self.root_bound = root_lower_bound(dag, r, "prbp", variant)

    # state = (codes, marked) where codes packs 2 bits per node

    def initial(self) -> Tuple[int, int]:
        codes = 0
        for v in self.sources:
            codes |= int(PRBPState.BLUE) << (2 * v)
        return (codes, 0)

    def dominance(self, state: Tuple[int, int]) -> Tuple[Tuple[int, int], int]:
        """Dominance key/mask pair.  Light red pebbles are the only freely
        deletable resource (``BLUE_LIGHT_RED -> BLUE`` is always legal, even
        in the no-deletion variant), so the key normalises every light pebble
        to plain blue — states agreeing on marked edges, dark pebbles and the
        blue base are comparable, and a light-set subset at equal-or-higher
        g-cost is dominated."""
        codes, marked = state
        light = int(PRBPState.BLUE_LIGHT_RED)
        blue = int(PRBPState.BLUE)
        light_mask = 0
        base = codes
        for v in range(self.n):
            shift = 2 * v
            if ((codes >> shift) & 3) == light:
                light_mask |= 1 << v
                base = (base & ~(3 << shift)) | (blue << shift)
        return (base, marked), light_mask

    def _state_of(self, codes: int, v: int) -> int:
        return (codes >> (2 * v)) & 3

    def _with_state(self, codes: int, v: int, st: int) -> int:
        shift = 2 * v
        return (codes & ~(3 << shift)) | (st << shift)

    def is_goal(self, state: Tuple[int, int]) -> bool:
        codes, marked = state
        if marked != self.all_edges_mask:
            return False
        for v in self.sinks:
            st = self._state_of(codes, v)
            if st != int(PRBPState.BLUE) and st != int(PRBPState.BLUE_LIGHT_RED):
                return False
        return True

    def heuristic(self, state: Tuple[int, int]) -> int:
        codes, marked = state
        NONE = int(PRBPState.NONE)
        DARK = int(PRBPState.DARK_RED)
        BLUE = int(PRBPState.BLUE)
        h = 0
        for v in range(self.n):
            st = (codes >> (2 * v)) & 3
            if self.is_sink[v]:
                if st == NONE or st == DARK:
                    h += 1  # a save of this sink is still pending
            if st == BLUE and ((self.out_edge_mask[v] | self.in_edge_mask[v]) & ~marked):
                # a blue node with an unmarked incident edge must be loaded
                # again: marking an out-edge needs v red, and marking an
                # in-edge needs v's partial value back in fast memory
                h += 1
        return h

    def _red_count(self, codes: int) -> int:
        cnt = 0
        for v in range(self.n):
            st = (codes >> (2 * v)) & 3
            if st == int(PRBPState.BLUE_LIGHT_RED) or st == int(PRBPState.DARK_RED):
                cnt += 1
        return cnt

    def _deletable(self, codes: int, marked: int) -> List[Tuple[int, int]]:
        """Red pebbles that may be deleted right now, as ``(node, resulting state)`` pairs."""
        out: List[Tuple[int, int]] = []
        for v in range(self.n):
            st = (codes >> (2 * v)) & 3
            if st == int(PRBPState.BLUE_LIGHT_RED):
                out.append((v, int(PRBPState.BLUE)))
            elif st == int(PRBPState.DARK_RED):
                # A dark sink still needs its save; deleting it would lose the
                # value for good (its in-edges are marked, so it can never be
                # recomputed) — never generate that dead end.
                if (
                    self.variant.allow_delete
                    and not self.is_sink[v]
                    and (self.out_edge_mask[v] & ~marked) == 0
                    and (self.in_edge_mask[v] & ~marked) == 0
                ):
                    out.append((v, int(PRBPState.NONE)))
        return out

    def successors(
        self, state: Tuple[int, int]
    ) -> Iterator[Tuple[Tuple[int, int], float, Tuple[PRBPMove, ...]]]:
        codes, marked = state
        red_count = self._red_count(codes)
        at_capacity = red_count >= self.r
        deletable = self._deletable(codes, marked)
        compute_cost = self.variant.compute_cost

        DARK = int(PRBPState.DARK_RED)
        LIGHT = int(PRBPState.BLUE_LIGHT_RED)
        BLUE = int(PRBPState.BLUE)
        NONE = int(PRBPState.NONE)

        for v in range(self.n):
            st = (codes >> (2 * v)) & 3

            # ---- save -------------------------------------------------- #
            if st == DARK:
                # Without the delete rule for dark red pebbles (no-deletion
                # variant) a save may be needed purely to free the slot.
                useful = (
                    self.is_sink[v]
                    or bool(self.out_edge_mask[v] & ~marked)
                    or not self.variant.allow_delete
                )
                if useful:
                    yield (
                        (self._with_state(codes, v, LIGHT), marked),
                        1.0,
                        (PRBPMove(MoveKind.SAVE, node=v),),
                    )

            # ---- load -------------------------------------------------- #
            if st == BLUE:
                needs_more_inputs = bool(self.in_edge_mask[v] & ~marked)
                feeds_someone = bool(self.out_edge_mask[v] & ~marked)
                if needs_more_inputs or feeds_someone:
                    if not at_capacity:
                        yield (
                            (self._with_state(codes, v, LIGHT), marked),
                            1.0,
                            (PRBPMove(MoveKind.LOAD, node=v),),
                        )
                    else:
                        for d, dst in deletable:
                            if d == v:
                                continue
                            new_codes = self._with_state(codes, d, dst)
                            new_codes = self._with_state(new_codes, v, LIGHT)
                            yield (
                                (new_codes, marked),
                                1.0,
                                (
                                    PRBPMove(MoveKind.DELETE, node=d),
                                    PRBPMove(MoveKind.LOAD, node=v),
                                ),
                            )

        # ---- partial computes ------------------------------------------ #
        for eid in _bits(self.all_edges_mask & ~marked):
            u, v = self.edges[eid]
            stu = (codes >> (2 * u)) & 3
            if stu != DARK and stu != LIGHT:
                continue
            if self.in_edge_mask[u] & ~marked:
                continue  # u not fully computed yet
            stv = (codes >> (2 * v)) & 3
            if stv == BLUE:
                continue  # v's partial value must first be loaded
            new_marked = marked | (1 << eid)
            cost = float(compute_cost)
            if cost and self.variant.split_compute_cost:
                cost /= self.dag.in_degree(v)
            if stv == NONE:
                if not at_capacity:
                    yield (
                        (self._with_state(codes, v, DARK), new_marked),
                        cost,
                        (PRBPMove(MoveKind.COMPUTE, edge=(u, v)),),
                    )
                else:
                    for d, dst in deletable:
                        if d == u or d == v:
                            continue
                        new_codes = self._with_state(codes, d, dst)
                        new_codes = self._with_state(new_codes, v, DARK)
                        yield (
                            (new_codes, new_marked),
                            cost,
                            (
                                PRBPMove(MoveKind.DELETE, node=d),
                                PRBPMove(MoveKind.COMPUTE, edge=(u, v)),
                            ),
                        )
            else:
                yield (
                    (self._with_state(codes, v, DARK), new_marked),
                    cost,
                    (PRBPMove(MoveKind.COMPUTE, edge=(u, v)),),
                )


def _astar(search, max_states: int):
    """Generic A* driver shared by the RBP and PRBP searches.

    Heap entries are ``(f, -g, tie, state)`` — among equal f-values the
    deeper state pops first, which matters once the root bound floors a
    whole plateau of f-values at the optimum.  Dominance pruning consults a
    per-key transposition table of ``(mask, g)`` pairs of already-expanded
    states; a popped state whose mask is a subset of a recorded one at
    equal-or-lower g is skipped without expansion (and without counting
    against the state budget).

    Returns ``(goal, parent, telemetry)``: the terminal configuration, the
    parent links to rebuild the move list from, and the search counters
    (expanded states, frontier peak, dominance prunes) the benchmark suite
    tracks as part of the cost model.
    """
    root = search.root_bound
    start = search.initial()
    dist: Dict = {start: 0.0}
    parent: Dict = {start: None}
    tie = count()
    heap = [(max(search.heuristic(start), root), 0.0, -next(tie), start)]
    expanded = 0
    pruned = 0
    frontier_peak = 1
    dom_table: Dict = {}
    while heap:
        f, neg_g, _, state = heapq.heappop(heap)
        g = -neg_g
        if g > dist.get(state, float("inf")):
            continue
        if search.is_goal(state):
            telemetry = SearchTelemetry(
                expanded=expanded, frontier_peak=frontier_peak, dominated_pruned=pruned
            )
            return state, parent, telemetry
        dom = search.dominance(state)
        if dom is not None:
            key, mask = dom
            entries = dom_table.setdefault(key, [])
            dominated = False
            for mask0, g0 in entries:
                if g0 <= g + 1e-12 and (mask | mask0) == mask0:
                    dominated = True
                    break
            if dominated:
                pruned += 1
                continue
            # the new entry may in turn dominate recorded ones; drop them
            entries[:] = [
                (mask0, g0)
                for mask0, g0 in entries
                if not ((mask0 | mask) == mask and g <= g0 + 1e-12)
            ]
            entries.append((mask, g))
        expanded += 1
        if expanded > max_states:
            raise SolverError(
                f"exhaustive search exceeded the state budget of {max_states} expanded states; "
                "the instance is too large for an exact solution"
            )
        for new_state, cost, moves in search.successors(state):
            ng = g + cost
            if ng < dist.get(new_state, float("inf")) - 1e-12:
                dist[new_state] = ng
                parent[new_state] = (state, moves)
                nf = ng + search.heuristic(new_state)
                if nf < root:
                    nf = root
                heapq.heappush(heap, (nf, -ng, -next(tie), new_state))
        if len(heap) > frontier_peak:
            frontier_peak = len(heap)
    raise SolverError("the search space was exhausted without reaching a terminal configuration")


def _reconstruct(parent: Dict, goal) -> List:
    moves: List = []
    cur = goal
    while parent[cur] is not None:
        prev, mvs = parent[cur]
        moves.extend(reversed(mvs))
        cur = prev
    moves.reverse()
    return moves


def exhaustive_search(
    dag: ComputationalDAG,
    r: int,
    game: str,
    variant: GameVariant = ONE_SHOT,
    max_states: int = DEFAULT_MAX_STATES,
) -> Tuple[Union[RBPSchedule, PRBPSchedule], SearchTelemetry]:
    """An optimal ``game`` schedule (``"rbp"``/``"prbp"``) and the search counters.

    Raises :class:`~repro.core.exceptions.SolverError` if no valid pebbling
    exists for the given ``r`` or if the state budget is exceeded.
    """
    if game == "rbp":
        search, schedule_cls = _RBPSearch(dag, r, variant, max_states), RBPSchedule
    else:
        search, schedule_cls = _PRBPSearch(dag, r, variant, max_states), PRBPSchedule
    goal, parent, telemetry = _astar(search, max_states)
    moves = _reconstruct(parent, goal)
    schedule = schedule_cls(dag, r, moves, variant=variant, description="exhaustive optimum")
    schedule.validate()
    return schedule, telemetry


def optimal_rbp_schedule(
    dag: ComputationalDAG,
    r: int,
    variant: GameVariant = ONE_SHOT,
    max_states: int = DEFAULT_MAX_STATES,
) -> RBPSchedule:
    """Compute an optimal RBP schedule by exhaustive search (small DAGs only).

    Raises :class:`~repro.core.exceptions.SolverError` if no valid pebbling
    exists for the given ``r`` or if the state budget is exceeded.
    """
    return exhaustive_search(dag, r, "rbp", variant=variant, max_states=max_states)[0]


def optimal_rbp_cost(
    dag: ComputationalDAG,
    r: int,
    variant: GameVariant = ONE_SHOT,
    max_states: int = DEFAULT_MAX_STATES,
) -> int:
    """``OPT_RBP(dag, r)`` computed by exhaustive search (small DAGs only)."""
    return optimal_rbp_schedule(dag, r, variant=variant, max_states=max_states).cost()


def optimal_prbp_schedule(
    dag: ComputationalDAG,
    r: int,
    variant: GameVariant = ONE_SHOT,
    max_states: int = DEFAULT_MAX_STATES,
) -> PRBPSchedule:
    """Compute an optimal PRBP schedule by exhaustive search (small DAGs only).

    Only the one-shot variant is supported; see
    :mod:`repro.solvers.structured` and :mod:`repro.solvers.greedy` for
    strategies on larger instances.
    """
    return exhaustive_search(dag, r, "prbp", variant=variant, max_states=max_states)[0]


def optimal_prbp_cost(
    dag: ComputationalDAG,
    r: int,
    variant: GameVariant = ONE_SHOT,
    max_states: int = DEFAULT_MAX_STATES,
) -> int:
    """``OPT_PRBP(dag, r)`` computed by exhaustive search (small DAGs only)."""
    return optimal_prbp_schedule(dag, r, variant=variant, max_states=max_states).cost()
