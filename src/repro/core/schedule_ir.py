"""Columnar schedule IR + replay kernel: engine-equivalent, without Move objects.

A schedule is stored as three parallel ``int32`` numpy columns — ``op``,
``node``, ``arg`` — plus a small header (DAG, capacity, game, variant,
description).  The encoding is *lossless* for both games:

========= ======================= =========================================
op code    RBP row                 PRBP row
========= ======================= =========================================
``0`` load    ``(0, v, -1)``         ``(0, v, -1)``
``1`` save    ``(1, v, -1)``         ``(1, v, -1)``
``2`` compute ``(2, v, slide|-1)``   ``(2, u, v)`` (partial compute on edge)
``3`` delete  ``(3, v, -1)``         ``(3, v, -1)``
``4`` clear   (illegal in RBP)       ``(4, v, -1)``
========= ======================= =========================================

:func:`from_schedule` / :func:`to_schedule` convert between the IR and the
:class:`~repro.core.strategy.RBPSchedule` / ``PRBPSchedule`` containers;
``to_schedule(from_schedule(s))`` reproduces the move list exactly.

The replay kernel reproduces every legality rule of the engines —
capacity, predecessor availability, one-shot / no-deletion / sliding
variant toggles — and is differentially tested against them move-for-move
(``tests/test_schedule_ir.py``): for any move sequence, legal or not, the
kernel's verdict (first illegal index, I/O at failure, final-state masks,
peak red usage, terminality) is identical to what ``RBPGame`` /
``PRBPGame`` produce.  The semantics stay *defined* by the engines; the
kernel is a proven-equivalent fast path.

:func:`replay` / :func:`replay_io_cost` run a tuned scalar loop over plain
int rows (no Move-object dispatch, no set churn); this is what the anytime
refiner scores every mutation with.

The IR is also the interchange format of the cache and the wire protocol:
:func:`pack_arrays` / :func:`unpack_arrays` implement the shared base64
``int32`` little-endian codec, and :func:`ir_digest` fingerprints header +
columns for round-trip tests.
"""

from __future__ import annotations

import base64
import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dag import ComputationalDAG
from .exceptions import IllegalMoveError, IncompletePebblingError
from .moves import MoveKind, PRBPMove, RBPMove
from .strategy import PRBPSchedule, RBPSchedule, ScheduleStats
from .variants import GameVariant

__all__ = [
    "OP_LOAD",
    "OP_SAVE",
    "OP_COMPUTE",
    "OP_DELETE",
    "OP_CLEAR",
    "OP_NAMES",
    "ScheduleIR",
    "ReplayOutcome",
    "from_schedule",
    "to_schedule",
    "encode_moves",
    "decode_moves",
    "replay",
    "replay_io_cost",
    "kernel_stats",
    "ir_digest",
    "pack_arrays",
    "unpack_arrays",
]

Schedule = Union[RBPSchedule, PRBPSchedule]
Move = Union[RBPMove, PRBPMove]
MoveRow = Tuple[int, int, int]

OP_LOAD = 0
OP_SAVE = 1
OP_COMPUTE = 2
OP_DELETE = 3
OP_CLEAR = 4

OP_NAMES = ("load", "save", "compute", "delete", "clear")

_OP_OF_KIND: Dict[MoveKind, int] = {
    MoveKind.LOAD: OP_LOAD,
    MoveKind.SAVE: OP_SAVE,
    MoveKind.COMPUTE: OP_COMPUTE,
    MoveKind.DELETE: OP_DELETE,
    MoveKind.CLEAR: OP_CLEAR,
}

_KIND_OF_OP: Tuple[MoveKind, ...] = (
    MoveKind.LOAD,
    MoveKind.SAVE,
    MoveKind.COMPUTE,
    MoveKind.DELETE,
    MoveKind.CLEAR,
)

_GAMES = ("rbp", "prbp")


# --------------------------------------------------------------------------- #
# per-DAG derived structures (cached: the refiner replays one DAG thousands
# of times, and rebuilding predecessor tables per replay would dominate)
# --------------------------------------------------------------------------- #


class _DagData:
    """Flat, index-friendly projections of one DAG, shared by the scalar kernels."""

    __slots__ = (
        "n",
        "m",
        "preds",
        "pred_sets",
        "in_edges",
        "indeg",
        "outdeg",
        "is_source",
        "is_sink",
        "sinks",
        "edge_index",
    )

    def __init__(self, dag: ComputationalDAG) -> None:
        n = dag.n
        self.n = n
        self.m = dag.m
        self.preds: Tuple[Tuple[int, ...], ...] = tuple(
            dag.predecessors(v) for v in range(n)
        )
        self.pred_sets: Tuple[frozenset, ...] = tuple(
            frozenset(p) for p in self.preds
        )
        self.edge_index: Dict[Tuple[int, int], int] = {
            edge: eid for eid, edge in enumerate(dag.edges)
        }
        self.in_edges: Tuple[Tuple[Tuple[int, int], ...], ...] = tuple(
            tuple((u, self.edge_index[(u, v)]) for u in self.preds[v])
            for v in range(n)
        )
        self.indeg: List[int] = [dag.in_degree(v) for v in range(n)]
        self.outdeg: List[int] = [dag.out_degree(v) for v in range(n)]
        self.is_source = bytearray(n)
        for v in dag.sources:
            self.is_source[v] = 1
        self.is_sink = bytearray(n)
        for v in dag.sinks:
            self.is_sink[v] = 1
        self.sinks: Tuple[int, ...] = dag.sinks


_DAG_DATA_CACHE: "OrderedDict[int, Tuple[ComputationalDAG, _DagData]]" = OrderedDict()
_DAG_DATA_CACHE_SIZE = 32


def _dag_data(dag: ComputationalDAG) -> _DagData:
    key = id(dag)
    hit = _DAG_DATA_CACHE.get(key)
    if hit is not None and hit[0] is dag:
        _DAG_DATA_CACHE.move_to_end(key)
        return hit[1]
    data = _DagData(dag)
    _DAG_DATA_CACHE[key] = (dag, data)
    _DAG_DATA_CACHE.move_to_end(key)
    while len(_DAG_DATA_CACHE) > _DAG_DATA_CACHE_SIZE:
        _DAG_DATA_CACHE.popitem(last=False)
    return data


# --------------------------------------------------------------------------- #
# IR container and converters
# --------------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class ScheduleIR:
    """A schedule as three parallel int32 columns plus its header.

    ``op[i]``/``node[i]``/``arg[i]`` describe move ``i`` per the table in
    the module docstring.  The columns are read-only arrays the IR owns, so
    no holder of a shared IR (a cache hit) can change it for the next one.
    """

    game: str
    dag: ComputationalDAG
    r: int
    variant: GameVariant
    op: np.ndarray
    node: np.ndarray
    arg: np.ndarray
    description: str = ""

    def __post_init__(self) -> None:
        for name in _COLUMNS:
            object.__setattr__(self, name, _as_column(getattr(self, name)))

    def __setstate__(self, state: Dict[str, Any]) -> None:
        # pickling drops the write lock; the unpickled columns are the IR's own
        for name, value in state.items():
            if name in _COLUMNS:
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        # value equality, like the Move-list schedules an IR stands for
        if not isinstance(other, ScheduleIR):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name)) if name in _COLUMNS
            else getattr(self, name) == getattr(other, name)
            for name in self.__dataclass_fields__
        )

    def __len__(self) -> int:
        return int(self.op.shape[0])


_COLUMNS = ("op", "node", "arg")


def _as_column(values: Sequence[int]) -> np.ndarray:
    """``values`` as a read-only int32 column, copied if a caller's array is writeable."""
    column = np.asarray(values, dtype=np.int32)
    if column.flags.writeable and np.may_share_memory(column, values):
        column = column.copy()
    column.setflags(write=False)
    return column


def encode_moves(game: str, moves: Iterable[Move]) -> List[MoveRow]:
    """Moves -> ``(op, node, arg)`` int rows (the refiner's working form).

    The mapping is a bijection: ``decode_moves(game, encode_moves(game,
    moves))`` reproduces ``moves`` exactly, so row tuples can stand in for
    Move objects anywhere identity matters (candidate signatures, dedup).
    """
    rows: List[MoveRow] = []
    if game == "rbp":
        for mv in moves:
            slide = mv.slide_from  # type: ignore[union-attr]
            rows.append((_OP_OF_KIND[mv.kind], mv.node, -1 if slide is None else slide))  # type: ignore[arg-type]
    else:
        for mv in moves:
            if mv.kind is MoveKind.COMPUTE:
                u, v = mv.edge  # type: ignore[union-attr, misc]
                rows.append((OP_COMPUTE, u, v))
            else:
                rows.append((_OP_OF_KIND[mv.kind], mv.node, -1))  # type: ignore[arg-type]
    return rows


def decode_moves(game: str, rows: Iterable[Sequence[int]]) -> List[Move]:
    """``(op, node, arg)`` rows -> Move objects; raises ``ValueError`` on malformed rows."""
    moves: List[Move] = []
    for row in rows:
        op, x, y = int(row[0]), int(row[1]), int(row[2])
        if not 0 <= op < len(_KIND_OF_OP):
            raise ValueError(f"unknown op code {op}")
        kind = _KIND_OF_OP[op]
        if game == "rbp":
            moves.append(RBPMove(kind, x, None if y < 0 else y))
        elif op == OP_COMPUTE:
            if y < 0:
                raise ValueError(f"a PRBP compute row needs an edge head, got arg={y}")
            moves.append(PRBPMove(kind, edge=(x, y)))
        else:
            if y != -1:
                raise ValueError(f"a PRBP {kind.value} row must carry arg=-1, got {y}")
            moves.append(PRBPMove(kind, node=x))
    return moves


def _validate_rows(game: str, n: int, rows: Sequence[MoveRow]) -> None:
    for i, (op, x, y) in enumerate(rows):
        if not 0 <= op < len(_KIND_OF_OP):
            raise ValueError(f"move {i}: unknown op code {op}")
        if not 0 <= x < n:
            raise ValueError(f"move {i}: node {x} out of range (n = {n})")
        if game == "rbp":
            if op == OP_COMPUTE:
                if not -1 <= y < n:
                    raise ValueError(f"move {i}: slide_from {y} out of range (n = {n})")
            elif y != -1:
                raise ValueError(f"move {i}: {OP_NAMES[op]} rows must carry arg=-1, got {y}")
        else:
            if op == OP_COMPUTE:
                # a non-edge (u, v) stays representable — it is an *illegal
                # move* (the engine refuses it at replay time), not a
                # malformed row — but both endpoints must be real nodes
                if not 0 <= y < n:
                    raise ValueError(f"move {i}: edge head {y} out of range (n = {n})")
            elif y != -1:
                raise ValueError(f"move {i}: {OP_NAMES[op]} rows must carry arg=-1, got {y}")


def _validate_columns(
    game: str, n: int, op: np.ndarray, node: np.ndarray, arg: np.ndarray
) -> None:
    """Vectorized :func:`_validate_rows` over whole columns (the hot wire path).

    Raises the same ``ValueError`` messages, pinned to the *first* offending
    row, without a per-row Python loop.
    """
    # fast path: one fused check for the overwhelmingly-common all-valid case;
    # the per-rule scans below only run to pin down the error message
    is_comp = op == OP_COMPUTE
    arg_lo = -1 if game == "rbp" else 0
    if not (
        (op < 0)
        | (op >= len(_KIND_OF_OP))
        | (node < 0)
        | (node >= n)
        | np.where(is_comp, (arg < arg_lo) | (arg >= n), arg != -1)
    ).any():
        return
    bad = (op < 0) | (op >= len(_KIND_OF_OP))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"move {i}: unknown op code {int(op[i])}")
    bad = (node < 0) | (node >= n)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"move {i}: node {int(node[i])} out of range (n = {n})")
    if game == "rbp":
        bad = is_comp & ((arg < -1) | (arg >= n))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"move {i}: slide_from {int(arg[i])} out of range (n = {n})"
            )
    else:
        bad = is_comp & ((arg < 0) | (arg >= n))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"move {i}: edge head {int(arg[i])} out of range (n = {n})"
            )
    bad = ~is_comp & (arg != -1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"move {i}: {OP_NAMES[int(op[i])]} rows must carry arg=-1, got {int(arg[i])}"
        )


def from_schedule(schedule: Schedule) -> ScheduleIR:
    """Encode an ``RBPSchedule`` / ``PRBPSchedule`` losslessly into columns.

    Node ids are range-checked (the columnar kernels index flat per-node
    tables, so an out-of-range id is unrepresentable — the engines treat it
    as an illegal move; here it is a ``ValueError`` at encode time).
    Illegal-but-representable schedules pass through unchanged: legality is
    the replay kernel's job, not the encoder's.
    """
    game = "rbp" if isinstance(schedule, RBPSchedule) else "prbp"
    rows = encode_moves(game, schedule.moves)
    _validate_rows(game, schedule.dag.n, rows)
    op, node, arg = np.array(rows, dtype=np.int32).reshape(-1, 3).T
    return ScheduleIR(
        game=game,
        dag=schedule.dag,
        r=int(schedule.r),
        variant=schedule.variant,
        op=op,
        node=node,
        arg=arg,
        description=schedule.description,
    )


def to_schedule(ir: ScheduleIR) -> Schedule:
    """Decode an IR back into the Move-object schedule container."""
    rows = zip(ir.op.tolist(), ir.node.tolist(), ir.arg.tolist())
    moves = decode_moves(ir.game, rows)
    if ir.game == "rbp":
        return RBPSchedule(
            ir.dag,
            ir.r,
            [mv for mv in moves if isinstance(mv, RBPMove)],
            variant=ir.variant,
            description=ir.description,
        )
    return PRBPSchedule(
        ir.dag,
        ir.r,
        [mv for mv in moves if isinstance(mv, PRBPMove)],
        variant=ir.variant,
        description=ir.description,
    )


def ir_digest(ir: ScheduleIR) -> str:
    """Hex SHA-256 of the IR's header + columns (byte-exact identity)."""
    h = hashlib.sha256()
    h.update(
        repr((ir.game, ir.dag.n, ir.r, ir.variant, ir.description, len(ir))).encode()
    )
    for column in (ir.op, ir.node, ir.arg):
        h.update(np.ascontiguousarray(column, dtype="<i4").tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------------- #
# wire / cache codec for the columns
# --------------------------------------------------------------------------- #


def _b64_encode(column: np.ndarray) -> str:
    return base64.b64encode(
        np.ascontiguousarray(column, dtype="<i4").tobytes()
    ).decode("ascii")


def _b64_decode(text: object, count: int, field: str) -> np.ndarray:
    if not isinstance(text, str):
        raise ValueError(f"schedule column {field!r} must be a base64 string")
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise ValueError(f"schedule column {field!r} is not valid base64: {exc}") from exc
    if len(raw) != 4 * count:
        raise ValueError(
            f"schedule column {field!r} holds {len(raw)} bytes, expected {4 * count}"
        )
    return np.frombuffer(raw, dtype="<i4").astype(np.int32)


def pack_arrays(ir: ScheduleIR) -> Dict[str, object]:
    """The IR's columns as the compact JSON-safe payload used on disk and wire."""
    return {
        "count": len(ir),
        "ops": _b64_encode(ir.op),
        "nodes": _b64_encode(ir.node),
        "args": _b64_encode(ir.arg),
    }


def unpack_arrays(doc: object) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a :func:`pack_arrays` payload; raises ``ValueError`` when malformed."""
    if not isinstance(doc, dict):
        raise ValueError("packed schedule columns must be an object")
    count = doc.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise ValueError("packed schedule 'count' must be a non-negative integer")
    op = _b64_decode(doc.get("ops"), count, "ops")
    node = _b64_decode(doc.get("nodes"), count, "nodes")
    arg = _b64_decode(doc.get("args"), count, "args")
    return op, node, arg


def ir_from_arrays(
    game: str,
    dag: ComputationalDAG,
    r: int,
    variant: GameVariant,
    op: np.ndarray,
    node: np.ndarray,
    arg: np.ndarray,
    description: str = "",
) -> ScheduleIR:
    """Assemble and *validate* an IR from untrusted columns (cache / wire)."""
    if game not in _GAMES:
        raise ValueError(f"game must be one of {_GAMES}, got {game!r}")
    ir = ScheduleIR(
        game=game,
        dag=dag,
        r=int(r),
        variant=variant,
        op=op,
        node=node,
        arg=arg,
        description=description,
    )
    _validate_columns(game, dag.n, ir.op, ir.node, ir.arg)
    return ir


# --------------------------------------------------------------------------- #
# replay outcome
# --------------------------------------------------------------------------- #


@dataclass
class ReplayOutcome:
    """What one replay established — verdict, cost, and final-state masks.

    ``failed_at`` is the index of the first illegal move (``None`` when
    every move applied); ``io_cost`` counts the I/O performed *before* that
    index, exactly like the engine's ``io_cost`` at raise time.  The masks
    describe the configuration after the last successfully applied move:
    ``red``/``blue``/``computed`` (RBP) or ``state``/``marked`` (PRBP).
    """

    legal: bool
    terminal: bool
    failed_at: Optional[int]
    io_cost: int
    compute_cost_total: float
    peak_red: int
    red: Optional[np.ndarray] = None
    blue: Optional[np.ndarray] = None
    computed: Optional[np.ndarray] = None
    state: Optional[np.ndarray] = None
    marked: Optional[np.ndarray] = None

    @property
    def ok(self) -> bool:
        """True iff the schedule replays legally *and* finishes the pebbling."""
        return self.legal and self.terminal

    @property
    def total_cost(self) -> float:
        return self.io_cost + self.compute_cost_total


# --------------------------------------------------------------------------- #
# scalar kernels
# --------------------------------------------------------------------------- #


def _rbp_scalar(
    data: _DagData,
    r: int,
    variant: GameVariant,
    rows: Sequence[MoveRow],
) -> ReplayOutcome:
    n = data.n
    red = bytearray(n)
    blue = bytearray(n)
    computed = bytearray(n)
    is_source = data.is_source
    for v in range(n):
        blue[v] = is_source[v]
    preds = data.preds
    pred_sets = data.pred_sets
    allow_delete = variant.allow_delete
    allow_sliding = variant.allow_sliding
    one_shot = variant.one_shot
    io = 0
    rc = 0
    peak = 0
    computes = 0
    failed: Optional[int] = None
    for i, (op, x, y) in enumerate(rows):
        if op == 0:  # load
            if not blue[x]:
                failed = i
                break
            if not red[x]:
                if rc >= r:
                    failed = i
                    break
                red[x] = 1
                rc += 1
                if rc > peak:
                    peak = rc
            io += 1
        elif op == 1:  # save
            if not red[x]:
                failed = i
                break
            blue[x] = 1
            if not allow_delete:
                red[x] = 0
                rc -= 1
            io += 1
        elif op == 2:  # compute
            if is_source[x]:
                failed = i
                break
            if one_shot and computed[x]:
                failed = i
                break
            ok = True
            for u in preds[x]:
                if not red[u]:
                    ok = False
                    break
            if not ok:
                failed = i
                break
            if y >= 0:  # sliding compute
                if not allow_sliding or y not in pred_sets[x]:
                    failed = i
                    break
                if red[y]:
                    red[y] = 0
                    rc -= 1
                if not red[x]:
                    red[x] = 1
                    rc += 1
                    if rc > peak:
                        peak = rc
            else:
                if not red[x]:
                    if rc >= r:
                        failed = i
                        break
                    red[x] = 1
                    rc += 1
                    if rc > peak:
                        peak = rc
            computed[x] = 1
            computes += 1
        elif op == 3:  # delete
            if not allow_delete or not red[x]:
                failed = i
                break
            red[x] = 0
            rc -= 1
        else:  # clear (and any other op) is not part of RBP
            failed = i
            break
    terminal = failed is None and all(blue[v] for v in data.sinks)
    return ReplayOutcome(
        legal=failed is None,
        terminal=terminal,
        failed_at=failed,
        io_cost=io,
        compute_cost_total=computes * variant.compute_cost,
        peak_red=peak,
        red=np.frombuffer(bytes(red), dtype=np.uint8).astype(bool),
        blue=np.frombuffer(bytes(blue), dtype=np.uint8).astype(bool),
        computed=np.frombuffer(bytes(computed), dtype=np.uint8).astype(bool),
    )


def _prbp_scalar(
    data: _DagData,
    r: int,
    variant: GameVariant,
    rows: Sequence[MoveRow],
) -> ReplayOutcome:
    # states mirror PRBPState: 0 NONE, 1 BLUE, 2 BLUE_LIGHT_RED, 3 DARK_RED
    n = data.n
    state = bytearray(n)
    is_source = data.is_source
    for v in range(n):
        if is_source[v]:
            state[v] = 1
    marked = bytearray(data.m)
    edge_computes = [0] * data.m
    marked_in = [0] * n
    marked_out = [0] * n
    indeg = data.indeg
    outdeg = data.outdeg
    is_sink = data.is_sink
    in_edges = data.in_edges
    edge_index = data.edge_index
    allow_delete = variant.allow_delete
    one_shot = variant.one_shot
    base_compute_cost = variant.compute_cost
    split = variant.split_compute_cost
    io = 0
    rc = 0
    peak = 0
    compute_cost_total = 0.0
    failed: Optional[int] = None
    for i, (op, x, y) in enumerate(rows):
        if op == 0:  # load
            st = state[x]
            if st != 1 and st != 2:
                failed = i
                break
            if st == 1:
                if rc >= r:
                    failed = i
                    break
                state[x] = 2
                rc += 1
                if rc > peak:
                    peak = rc
            io += 1
        elif op == 1:  # save
            if state[x] != 3:
                failed = i
                break
            state[x] = 2
            io += 1
        elif op == 2:  # partial compute on edge (x, y)
            eid = edge_index.get((x, y), -1)
            if eid < 0 or marked[eid]:
                failed = i
                break
            if one_shot and edge_computes[eid] >= 1:
                failed = i
                break
            if marked_in[x] != indeg[x]:
                failed = i
                break
            stu = state[x]
            if stu != 2 and stu != 3:
                failed = i
                break
            stv = state[y]
            if stv == 1:
                failed = i
                break
            if stv == 0:
                if rc >= r:
                    failed = i
                    break
                rc += 1
                if rc > peak:
                    peak = rc
            state[y] = 3
            marked[eid] = 1
            edge_computes[eid] += 1
            marked_in[y] += 1
            marked_out[x] += 1
            if base_compute_cost:
                cost = base_compute_cost
                if split:
                    cost /= indeg[y]
                compute_cost_total += cost
        elif op == 3:  # delete
            st = state[x]
            if st == 2:
                state[x] = 1
                rc -= 1
            elif st == 3:
                if (
                    not allow_delete
                    or marked_out[x] != outdeg[x]
                    or marked_in[x] != indeg[x]
                ):
                    failed = i
                    break
                state[x] = 0
                rc -= 1
            else:
                failed = i
                break
        elif op == 4:  # clear
            if one_shot or is_source[x] or is_sink[x]:
                failed = i
                break
            st = state[x]
            if st == 2 or st == 3:
                rc -= 1
            state[x] = 0
            for u, eid in in_edges[x]:
                if marked[eid]:
                    marked[eid] = 0
                    marked_in[x] -= 1
                    marked_out[u] -= 1
        else:  # pragma: no cover — op codes are exhaustive after validation
            failed = i
            break
    terminal = (
        failed is None
        and all(marked)
        and all(state[v] == 1 or state[v] == 2 for v in data.sinks)
    )
    return ReplayOutcome(
        legal=failed is None,
        terminal=terminal,
        failed_at=failed,
        io_cost=io,
        compute_cost_total=compute_cost_total,
        peak_red=peak,
        state=np.frombuffer(bytes(state), dtype=np.uint8),
        marked=np.frombuffer(bytes(marked), dtype=np.uint8).astype(bool),
    )


def replay_io_cost(
    dag: ComputationalDAG,
    r: int,
    variant: GameVariant,
    game: str,
    rows: Sequence[MoveRow],
) -> Optional[int]:
    """I/O cost of a candidate row list, or ``None`` unless it replays legally
    *and* terminally — the kernel twin of the refiner's engine replay.

    This is the mutation-scoring hot path: a stripped copy of the scalar
    kernels that skips outcome construction and exits at the first illegal
    move.  Rows must use in-range node ids (the refiner's rows come from
    encoded schedules, which guarantees it).
    """
    data = _dag_data(dag)
    n = data.n
    if game == "rbp":
        red = bytearray(n)
        blue = bytearray(n)
        computed = bytearray(n)
        is_source = data.is_source
        for v in range(n):
            blue[v] = is_source[v]
        preds = data.preds
        pred_sets = data.pred_sets
        allow_delete = variant.allow_delete
        allow_sliding = variant.allow_sliding
        one_shot = variant.one_shot
        io = 0
        rc = 0
        for op, x, y in rows:
            if op == 0:
                if not blue[x]:
                    return None
                if not red[x]:
                    if rc >= r:
                        return None
                    red[x] = 1
                    rc += 1
                io += 1
            elif op == 1:
                if not red[x]:
                    return None
                blue[x] = 1
                if not allow_delete:
                    red[x] = 0
                    rc -= 1
                io += 1
            elif op == 2:
                if is_source[x] or (one_shot and computed[x]):
                    return None
                for u in preds[x]:
                    if not red[u]:
                        return None
                if y >= 0:
                    if not allow_sliding or y not in pred_sets[x]:
                        return None
                    if red[y]:
                        red[y] = 0
                        rc -= 1
                    if not red[x]:
                        red[x] = 1
                        rc += 1
                elif not red[x]:
                    if rc >= r:
                        return None
                    red[x] = 1
                    rc += 1
                computed[x] = 1
            elif op == 3:
                if not allow_delete or not red[x]:
                    return None
                red[x] = 0
                rc -= 1
            else:
                return None
        for v in data.sinks:
            if not blue[v]:
                return None
        return io

    state = bytearray(n)
    is_source = data.is_source
    for v in range(n):
        if is_source[v]:
            state[v] = 1
    marked = bytearray(data.m)
    edge_computes = [0] * data.m
    marked_in = [0] * n
    marked_out = [0] * n
    indeg = data.indeg
    outdeg = data.outdeg
    is_sink = data.is_sink
    in_edges = data.in_edges
    edge_index = data.edge_index
    allow_delete = variant.allow_delete
    one_shot = variant.one_shot
    io = 0
    rc = 0
    for op, x, y in rows:
        if op == 0:
            st = state[x]
            if st != 1 and st != 2:
                return None
            if st == 1:
                if rc >= r:
                    return None
                state[x] = 2
                rc += 1
            io += 1
        elif op == 1:
            if state[x] != 3:
                return None
            state[x] = 2
            io += 1
        elif op == 2:
            eid = edge_index.get((x, y), -1)
            if eid < 0 or marked[eid]:
                return None
            if one_shot and edge_computes[eid] >= 1:
                return None
            if marked_in[x] != indeg[x]:
                return None
            stu = state[x]
            if stu != 2 and stu != 3:
                return None
            stv = state[y]
            if stv == 1:
                return None
            if stv == 0:
                if rc >= r:
                    return None
                rc += 1
            state[y] = 3
            marked[eid] = 1
            edge_computes[eid] += 1
            marked_in[y] += 1
            marked_out[x] += 1
        elif op == 3:
            st = state[x]
            if st == 2:
                state[x] = 1
                rc -= 1
            elif st == 3:
                if (
                    not allow_delete
                    or marked_out[x] != outdeg[x]
                    or marked_in[x] != indeg[x]
                ):
                    return None
                state[x] = 0
                rc -= 1
            else:
                return None
        elif op == 4:
            if one_shot or is_source[x] or is_sink[x]:
                return None
            st = state[x]
            if st == 2 or st == 3:
                rc -= 1
            state[x] = 0
            for u, eid in in_edges[x]:
                if marked[eid]:
                    marked[eid] = 0
                    marked_in[x] -= 1
                    marked_out[u] -= 1
        else:
            return None
    if not all(marked):
        return None
    for v in data.sinks:
        if state[v] != 1 and state[v] != 2:
            return None
    return io


# --------------------------------------------------------------------------- #
# public replay entry points
# --------------------------------------------------------------------------- #


def _check_ir_game(ir: ScheduleIR) -> None:
    if ir.game == "prbp" and ir.variant.allow_sliding:
        # mirror PRBPGame.__init__: such a schedule cannot even start
        raise ValueError(
            "the sliding variant only applies to RBP; PRBP partial computes are already in-place"
        )
    if ir.r < 1:
        raise ValueError(f"fast memory capacity must be >= 1, got {ir.r}")


def _ir_rows(ir: ScheduleIR) -> List[MoveRow]:
    return list(zip(ir.op.tolist(), ir.node.tolist(), ir.arg.tolist()))


def replay(ir: ScheduleIR) -> ReplayOutcome:
    """Replay one IR through the scalar kernel (engine-equivalent verdicts)."""
    _check_ir_game(ir)
    data = _dag_data(ir.dag)
    if ir.game == "rbp":
        return _rbp_scalar(data, ir.r, ir.variant, _ir_rows(ir))
    return _prbp_scalar(data, ir.r, ir.variant, _ir_rows(ir))


def kernel_stats(ir: ScheduleIR) -> ScheduleStats:
    """Replay an IR and return engine-identical :class:`ScheduleStats`.

    Raises exactly like the engine replay in ``Schedule.stats()``:
    :class:`IllegalMoveError` at an illegal move,
    :class:`IncompletePebblingError` when the final configuration is not
    terminal.  The cache and the wire protocol use this as their
    "never trust, always replay" check.
    """
    outcome = replay(ir)
    if not outcome.legal:
        assert outcome.failed_at is not None
        op = int(ir.op[outcome.failed_at])
        name = OP_NAMES[op] if 0 <= op < len(OP_NAMES) else f"op#{op}"
        raise IllegalMoveError(
            f"schedule replay failed at move {outcome.failed_at} "
            f"({name} {int(ir.node[outcome.failed_at])})"
        )
    if not outcome.terminal:
        raise IncompletePebblingError(
            f"{ir.game.upper()} pebbling incomplete: the schedule replays legally "
            "but does not finish the pebbling"
        )
    kinds = np.bincount(ir.op, minlength=5) if len(ir) else np.zeros(5, dtype=np.int64)
    return ScheduleStats(
        io_cost=outcome.io_cost,
        loads=int(kinds[OP_LOAD]),
        saves=int(kinds[OP_SAVE]),
        computes=int(kinds[OP_COMPUTE]),
        deletes=int(kinds[OP_DELETE]),
        clears=int(kinds[OP_CLEAR]),
        total_cost=outcome.total_cost,
        peak_red=outcome.peak_red,
    )
