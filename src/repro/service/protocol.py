"""Wire protocol of the solve service: length-prefixed JSON frames.

Every message — request or response — is one *frame*: a 4-byte big-endian
unsigned payload length followed by that many bytes of UTF-8 JSON encoding a
single object.  Frames keep the stream self-synchronizing (a reader always
knows where the next message starts) while staying trivially debuggable:
``socat`` plus a hex dump shows you the whole conversation.

Versioning
----------
Each message carries ``"v": PROTOCOL_VERSION``.  A server refuses requests
whose version is outside :data:`SUPPORTED_PROTOCOL_VERSIONS` with a
``protocol`` error instead of guessing; the version is bumped whenever the
frame layout or a message schema changes incompatibly.  Every node of a
deployment ships from the same build, so only the current version is
accepted.  Validators ignore unknown fields.  Response frames stamp the
server's own version; clients do not gate on it.

Problem and result serialization
--------------------------------
Problems travel as their full content — DAG (``n``, edge list, labels, name,
family tag), capacity, game, variant — plus the
:func:`repro.core.canonical.dag_digest` of the DAG.  The receiving side
recomputes the digest from the content; a mismatch means the wire doc does
not faithfully describe the graph and is refused.  A server answers memory
cache hits by content digest (:func:`parse_problem`) before it
rebuilds the DAG (:meth:`WireProblem.rebuild`).  Results travel as
``result.ir``'s packed columns (the base64 ``ops``/``nodes``/``args`` of
:mod:`repro.core.schedule_ir`, protocol version 2) plus solver provenance;
:func:`result_from_wire` decodes the columns and replays them through the
replay kernel (the library's "never trust, always replay" policy) and builds
no Move objects, so a service client ends up holding a
:class:`~repro.api.result.SolveResult` whose cost is the cost of an actually
legal pebbling — bit-identical to what a local ``solve()`` returns.

Family-tag parameters may contain tuples (e.g. ``layer_sizes``); JSON would
silently turn them into lists, so scalar values pass through as-is and
containers are type-tagged (``{"__tuple__": [...]}``) and restored exactly.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import asdict, fields
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple, cast

from ..core.canonical import content_digest, dag_digest
from ..core.dag import ComputationalDAG, DAGFamily, Edge
from ..core.schedule_ir import (
    ScheduleIR,
    ir_from_arrays,
    kernel_stats,
    pack_arrays,
    unpack_arrays,
)
from ..core.strategy import ScheduleStats
from ..core.variants import GameVariant
from ..api.cache import problem_digest_from_parts
from ..api.problem import GAMES, PebblingProblem
from ..api.result import SolveAttempt, SolveResult, SolveStats
from ..solvers.anytime import RefinementTrajectory

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_PROTOCOL_VERSIONS",
    "MAX_FRAME_BYTES",
    "REQUEST_OPS",
    "RESPONSE_OPS",
    "ERROR_CODES",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "write_frame",
    "make_request",
    "make_response",
    "validate_request",
    "problem_to_wire",
    "problem_from_wire",
    "WireProblem",
    "parse_problem",
    "result_to_wire",
    "result_from_wire",
]

#: Bumped on any incompatible change to the frame layout or message schemas.
#: v2: result frames carry the schedule as packed schedule-IR columns
#: instead of a per-move JSON list.
#: v3: ``solve`` requests may carry ``cache_only`` (answer from the shared
#: cache or fail with ``cache-miss`` — the cluster's peer-fetch probe) and
#: ``client_id`` (rate-limit identity, consumed by the front router);
#: responses may carry ``backend`` (which node served a routed request);
#: router-origin error codes added.
#: v4: observability.  ``solve`` requests may carry an optional ``trace``
#: object (``{"trace_id", "span_id"}``) propagating a distributed-trace
#: context; solve ``result``/``error`` responses may echo a ``trace_id``;
#: a new ``metrics`` op returns the node's metrics registry (text
#: exposition and/or JSON snapshot); ``solve_stats`` gains ``attempts``
#: (per-member portfolio timings).
PROTOCOL_VERSION = 4

#: Request versions this build accepts.
SUPPORTED_PROTOCOL_VERSIONS = frozenset({4})

#: Upper bound on a single frame's payload.  Large enough for the move list
#: of a multi-thousand-node schedule, small enough that a garbage length
#: prefix cannot make the server allocate gigabytes.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Operations a client may send.
REQUEST_OPS = frozenset({"ping", "solve", "poll", "stats", "metrics", "shutdown"})

#: Operations a server may answer with.
RESPONSE_OPS = frozenset(
    {"pong", "result", "accepted", "status", "progress", "stats", "metrics", "ok", "error"}
)

#: Machine-readable failure classes carried by ``error`` responses.
ERROR_CODES = frozenset(
    {
        "protocol",
        "bad-request",
        "queue-full",
        "deadline",
        "solver-error",
        "unknown-job",
        "shutting-down",
        "internal",
        # v3 — cluster codes.  ``cache-miss`` answers a cache_only probe the
        # shared cache cannot serve; the rest originate at the front router:
        # a client over its token bucket, a router at its in-flight bound,
        # and a request whose every candidate backend is down.
        "cache-miss",
        "rate-limited",
        "overloaded",
        "no-backend",
    }
)

#: Option values allowed over the wire: JSON scalars only.  Callbacks and
#: other rich objects are intentionally unrepresentable — the service adds
#: its own ``on_progress`` bridge server-side for streamed solves.
_SCALAR_TYPES = (bool, int, float, str, type(None))


class ProtocolError(ValueError):
    """A frame or message that does not conform to this protocol version."""


# --------------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------------- #


def encode_frame(doc: Mapping[str, object]) -> bytes:
    """Serialize one message object into a length-prefixed frame."""
    try:
        payload = json.dumps(doc, separators=(",", ":"), allow_nan=False).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"message is not JSON-serializable: {exc}") from exc
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(payload)} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> Dict[str, object]:
    """Parse one frame payload (header already stripped) into a message dict."""
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError(f"frame payload must be a JSON object, got {type(doc).__name__}")
    return doc


async def read_frame(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> Optional[Dict[str, object]]:
    """Read one frame; ``None`` on clean EOF between frames.

    Raises
    ------
    ProtocolError
        On a truncated header/payload, a zero or oversized length prefix, or
        a payload that is not a JSON object.  After a framing error the
        stream position is untrustworthy — the caller must close the
        connection rather than try to resynchronize.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF on a frame boundary
        raise ProtocolError("connection closed mid-header") from exc
    (length,) = _HEADER.unpack(header)
    if length == 0:
        raise ProtocolError("zero-length frame")
    if length > max_bytes:
        raise ProtocolError(f"frame of {length} bytes exceeds the {max_bytes}-byte limit")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} of {length} bytes)"
        ) from exc
    return decode_frame(payload)


async def write_frame(writer: asyncio.StreamWriter, doc: Mapping[str, object]) -> None:
    """Encode ``doc`` and write it, draining the transport."""
    writer.write(encode_frame(doc))
    await writer.drain()


# --------------------------------------------------------------------------- #
# message construction & validation
# --------------------------------------------------------------------------- #


def make_request(op: str, request_id: str, **fields: object) -> Dict[str, object]:
    """A request envelope: version + op + client-chosen id + op fields."""
    return {"v": PROTOCOL_VERSION, "op": op, "id": request_id, **fields}


def make_response(op: str, request_id: Optional[str], **fields: object) -> Dict[str, object]:
    """A response envelope echoing the request id it answers."""
    return {"v": PROTOCOL_VERSION, "op": op, "id": request_id, **fields}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def validate_request(doc: Mapping[str, object]) -> Dict[str, object]:
    """Check a decoded frame against the request schema; returns it typed.

    Field-level problems raise :class:`ProtocolError` with a message precise
    enough to debug a hand-rolled client.  The ``problem`` payload of a
    ``solve`` request is *not* decoded here — graph reconstruction is the
    admission layer's job, so schema validation stays cheap.
    """
    version = doc.get("v")
    _require(
        version in SUPPORTED_PROTOCOL_VERSIONS,
        f"unsupported protocol version {version!r} (this server speaks "
        f"{sorted(SUPPORTED_PROTOCOL_VERSIONS)})",
    )
    op = doc.get("op")
    _require(isinstance(op, str) and op in REQUEST_OPS, f"unknown request op {op!r}")
    request_id = doc.get("id")
    _require(isinstance(request_id, str) and bool(request_id), "request 'id' must be a non-empty string")

    if op == "solve":
        _require(isinstance(doc.get("problem"), dict), "'solve' requires a 'problem' object")
        solver = doc.get("solver", "auto")
        _require(isinstance(solver, str) and bool(solver), "'solver' must be a non-empty string")
        options = doc.get("options", {})
        _require(isinstance(options, dict), "'options' must be an object")
        for key, value in options.items():
            _require(
                isinstance(value, _SCALAR_TYPES),
                f"option {key!r} must be a JSON scalar, got {type(value).__name__}",
            )
        stream = doc.get("stream", False)
        wait = doc.get("wait", True)
        _require(isinstance(stream, bool), "'stream' must be a boolean")
        _require(isinstance(wait, bool), "'wait' must be a boolean")
        _require(not (stream and not wait), "'stream' requires 'wait': a fire-and-forget solve cannot stream")
        cache_only = doc.get("cache_only", False)
        _require(isinstance(cache_only, bool), "'cache_only' must be a boolean")
        _require(
            not (cache_only and stream),
            "'cache_only' cannot stream: a cache probe never runs a solve",
        )
        _require(
            not (cache_only and not wait),
            "'cache_only' requires 'wait': a probe's whole point is its immediate answer",
        )
        client_id = doc.get("client_id")
        if client_id is not None:
            _require(
                isinstance(client_id, str) and bool(client_id),
                "'client_id' must be a non-empty string or absent",
            )
        priority = doc.get("priority", 0)
        _require(
            isinstance(priority, int) and not isinstance(priority, bool),
            "'priority' must be an integer",
        )
        deadline_s = doc.get("deadline_s")
        if deadline_s is not None:
            _require(
                isinstance(deadline_s, (int, float))
                and not isinstance(deadline_s, bool)
                and deadline_s > 0,
                "'deadline_s' must be a positive number of seconds",
            )
        trace = doc.get("trace")
        if trace is not None:
            # v4 — optional distributed-trace context.  Malformed contexts
            # are a schema error; absence is fine.
            _require(isinstance(trace, dict), "'trace' must be an object or absent")
            for field in ("trace_id", "span_id"):
                value = trace.get(field)  # type: ignore[union-attr]
                _require(
                    isinstance(value, str) and 0 < len(value) <= 64,
                    f"'trace.{field}' must be a non-empty string of at most 64 chars",
                )
    elif op == "poll":
        job_id = doc.get("job_id")
        _require(isinstance(job_id, str) and bool(job_id), "'poll' requires a 'job_id' string")
        wait = doc.get("wait", False)
        _require(isinstance(wait, bool), "'wait' must be a boolean")
    elif op == "shutdown":
        drain = doc.get("drain", True)
        _require(isinstance(drain, bool), "'drain' must be a boolean")
    return dict(doc)


# --------------------------------------------------------------------------- #
# value-level codecs (family params may hold tuples JSON would flatten)
# --------------------------------------------------------------------------- #


def _value_to_wire(value: object) -> object:
    if isinstance(value, _SCALAR_TYPES):
        return value
    if isinstance(value, tuple):
        return {"__tuple__": [_value_to_wire(item) for item in value]}
    if isinstance(value, list):
        return {"__list__": [_value_to_wire(item) for item in value]}
    raise ProtocolError(f"cannot serialize a value of type {type(value).__name__} to the wire")


def _value_from_wire(doc: object) -> object:
    if isinstance(doc, dict):
        if set(doc) == {"__tuple__"} and isinstance(doc["__tuple__"], list):
            return tuple(_value_from_wire(item) for item in doc["__tuple__"])
        if set(doc) == {"__list__"} and isinstance(doc["__list__"], list):
            return [_value_from_wire(item) for item in doc["__list__"]]
        raise ProtocolError(f"unrecognized tagged value {sorted(doc)!r}")
    if isinstance(doc, _SCALAR_TYPES):
        return doc
    raise ProtocolError(f"cannot deserialize a wire value of type {type(doc).__name__}")


# --------------------------------------------------------------------------- #
# problem serialization
# --------------------------------------------------------------------------- #


def _family_to_wire(family: Optional[DAGFamily]) -> Optional[Dict[str, object]]:
    if family is None:
        return None
    return {
        "name": family.name,
        "params": [[key, _value_to_wire(value)] for key, value in family.params],
    }


def _family_from_wire(doc: Optional[object]) -> Optional[DAGFamily]:
    if doc is None:
        return None
    _require(isinstance(doc, dict), "'family' must be an object or null")
    assert isinstance(doc, dict)
    name = doc.get("name")
    params = doc.get("params", [])
    _require(isinstance(name, str) and bool(name), "family 'name' must be a non-empty string")
    _require(isinstance(params, list), "family 'params' must be a list of [key, value] pairs")
    pairs: List[Tuple[str, Any]] = []
    for item in params:
        _require(
            isinstance(item, list) and len(item) == 2 and isinstance(item[0], str),
            "each family param must be a [key, value] pair",
        )
        pairs.append((item[0], _value_from_wire(item[1])))
    return DAGFamily(str(name), tuple(pairs))


def _variant_to_wire(variant: GameVariant) -> Dict[str, object]:
    # coerced to the wire types, so that a locally valid variant is never refused
    doc = {f.name: bool(getattr(variant, f.name)) for f in fields(GameVariant)}
    return {**doc, "compute_cost": float(variant.compute_cost)}


def _variant_from_wire(doc: object) -> GameVariant:
    _require(isinstance(doc, dict), "'variant' must be an object")
    assert isinstance(doc, dict)
    values = {f.name: f.default for f in fields(GameVariant)}
    unknown = set(doc) - set(values)
    _require(not unknown, f"unknown variant fields {sorted(unknown)!r}")
    values.update(doc)
    for field, value in values.items():
        # validated, not coerced; a bool is an int, so compare exact types
        kinds = (int, float) if field == "compute_cost" else (bool,)
        _require(type(value) in kinds, f"variant {field!r} must be a {kinds[-1].__name__}")
    try:
        return GameVariant(**{**values, "compute_cost": float(values["compute_cost"])})
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid variant: {exc}") from exc


def problem_to_wire(problem: PebblingProblem) -> Dict[str, object]:
    """Serialize a problem with its full DAG content and an integrity digest."""
    dag = problem.dag
    return {
        "dag": {
            "n": dag.n,
            "edges": [[u, v] for u, v in dag.edges],
            "labels": [dag.label(v) for v in range(dag.n)],
            "name": dag.name,
            "family": _family_to_wire(dag.family),
        },
        "r": problem.r,
        "game": problem.game,
        "variant": _variant_to_wire(problem.variant),
        "dag_digest": dag_digest(dag),
    }


class WireProblem(NamedTuple):
    """A wire problem document, decoded and type-checked but not yet rebuilt.

    :meth:`digest` and :meth:`rebuild` both refuse a claimed ``dag_digest``
    that does not match the content.  :meth:`digest` does not check the DAG's
    structure: a document that describes no valid DAG gets a digest no cached
    problem has, and :meth:`rebuild` refuses it.
    """

    n: int
    edges: Tuple[Edge, ...]
    labels: Tuple[str, ...]
    name: str
    family: Optional[DAGFamily]
    dag_hex: str  # the exact dag_digest of the content
    claimed: str  # the document's dag_digest
    r: int
    game: str
    variant: GameVariant

    def _checked_dag_hex(self) -> str:
        claimed, actual = self.claimed[:16], self.dag_hex[:16]
        _require(self.dag_hex == self.claimed, f"dag content digest mismatch (claimed {claimed}…, rebuilt {actual}…)")
        return self.dag_hex

    def digest(self, solver: str = "auto", options: Optional[Mapping[str, object]] = None) -> str:
        """``problem_digest(self.rebuild(), solver, options)`` without the rebuild."""
        return problem_digest_from_parts(
            self._checked_dag_hex(), self.family, self.r, self.game, self.variant, solver, options
        )

    def rebuild(self) -> PebblingProblem:
        """The :class:`PebblingProblem`, or a :class:`ProtocolError` if the DAG is invalid."""
        labels = dict(enumerate(self.labels))
        try:
            dag = ComputationalDAG(self.n, self.edges, labels, name=self.name, family=self.family)
        except Exception as exc:  # DAGError and friends — wire data, not our bug
            raise ProtocolError(f"problem 'dag' does not describe a valid DAG: {exc}") from exc
        # the DAG keeps edges, labels and name as given: seed the dag_digest memo
        dag._digest_memo = (self.name, self._checked_dag_hex())
        return PebblingProblem(dag, r=self.r, game=self.game, variant=self.variant)  # type: ignore[arg-type]


def parse_problem(doc: Mapping[str, object]) -> WireProblem:
    """Decode and type-check a problem document once; see :class:`WireProblem`."""
    _require(isinstance(doc, Mapping), "'problem' must be an object")
    dag_doc = doc.get("dag")
    _require(isinstance(dag_doc, dict), "problem 'dag' must be an object")
    assert isinstance(dag_doc, dict)
    n = dag_doc.get("n")
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 0, "dag 'n' must be a non-negative integer")
    assert isinstance(n, int)
    edges_doc = dag_doc.get("edges")
    _require(isinstance(edges_doc, list), "dag 'edges' must be a list")
    assert isinstance(edges_doc, list)
    # one pass, no per-edge calls; exact types, so a bool is not an int
    _require(
        all(
            type(item) is list and len(item) == 2 and type(item[0]) is int and type(item[1]) is int
            for item in edges_doc
        ),
        "each dag edge must be a [u, v] pair of integers",
    )
    edges = cast(Tuple[Edge, ...], tuple(map(tuple, edges_doc)))
    labels = dag_doc.get("labels")
    if labels is None:
        labels = [f"v{v}" for v in range(n)]  # the DAG's default labels
    _require(
        isinstance(labels, list) and len(labels) == n and all(isinstance(lb, str) for lb in labels),
        "dag 'labels' must be a list of n strings",
    )
    assert isinstance(labels, list)
    name = dag_doc.get("name", "dag")
    _require(isinstance(name, str), "dag 'name' must be a string")
    family = _family_from_wire(dag_doc.get("family"))
    dag_hex = content_digest(n, edges, tuple(labels), str(name))
    r = doc.get("r")
    _require(isinstance(r, int) and not isinstance(r, bool) and r >= 1, "problem 'r' must be an integer >= 1")
    assert isinstance(r, int)
    game = doc.get("game")
    _require(game in GAMES, f"problem 'game' must be one of {GAMES}")
    variant = _variant_from_wire(doc.get("variant"))
    claimed = doc.get("dag_digest")
    _require(isinstance(claimed, str), "problem 'dag_digest' must be a string")
    assert isinstance(claimed, str)
    return WireProblem(n, edges, tuple(labels), str(name), family, dag_hex, claimed, r, str(game), variant)


def problem_from_wire(doc: Mapping[str, object]) -> PebblingProblem:
    """Rebuild a :class:`PebblingProblem`, verifying the DAG content digest.

    The digest recomputation catches every way a wire document can drift
    from the graph it claims to describe — truncated edge lists, re-ordered
    edges, dropped labels — before a solver ever sees the problem.
    """
    return parse_problem(doc).rebuild()


# --------------------------------------------------------------------------- #
# schedule / result serialization
# --------------------------------------------------------------------------- #


def _schedule_from_wire(problem: PebblingProblem, doc: object) -> Tuple[ScheduleIR, ScheduleStats]:
    """Decode and *kernel-validate* a v2 schedule payload.

    The packed columns are decoded (any malformation — bad base64, wrong
    byte counts, out-of-range op/node ids — is a :class:`ProtocolError`) and
    the resulting IR is replayed through the kernel, which both
    checks legality/terminality and recomputes every statistic.  Returns the
    verified IR together with the kernel-replayed statistics.
    """
    _require(isinstance(doc, dict), "result 'schedule' must be an object")
    assert isinstance(doc, dict)
    description = doc.get("description", "")
    _require(isinstance(description, str), "schedule 'description' must be a string")
    try:
        op, node, arg = unpack_arrays(doc)
        ir = ir_from_arrays(
            problem.game, problem.dag, problem.r, problem.variant, op, node, arg, str(description)
        )
    except ValueError as exc:
        raise ProtocolError(f"malformed schedule columns: {exc}") from exc
    try:
        replayed = kernel_stats(ir)  # raises on an illegal/incomplete schedule
    except Exception as exc:
        raise ProtocolError(f"wire schedule does not replay legally: {exc}") from exc
    return ir, replayed


def _trajectory_from_wire(doc: Optional[object]) -> Optional[RefinementTrajectory]:
    if doc is None:
        return None
    _require(isinstance(doc, dict), "'refinement' must be an object or null")
    assert isinstance(doc, dict)
    try:
        return RefinementTrajectory(
            initial_cost=int(doc["initial_cost"]),
            refined_cost=int(doc["refined_cost"]),
            steps=int(doc["steps"]),
            accepted=int(doc["accepted"]),
            time_to_best_s=float(doc["time_to_best_s"]),
            wall_time_s=float(doc["wall_time_s"]),
            seed=int(doc["seed"]),
            seed_solver=str(doc.get("seed_solver", "input")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid refinement trajectory: {exc}") from exc


def result_to_wire(result: SolveResult) -> Dict[str, object]:
    """Serialize a result: packed schedule columns + provenance + solve stats.

    The problem itself is *not* repeated — both sides already hold it (the
    client posed it, the server admitted it), and echoing a multi-megabyte
    DAG back with every answer would double the protocol's traffic for no
    information.
    """
    stats = result.solve_stats
    return {
        "solver": result.solver,
        "exact_solver": result.exact_solver,
        "lower_bound": result.lower_bound,
        "lower_bound_source": result.lower_bound_source,
        "io_cost": result.cost,
        # the v2 schedule payload: packed IR columns plus the description
        "schedule": {**pack_arrays(result.ir), "description": result.ir.description},
        "solve_stats": None
        if stats is None
        else {
            "wall_time_s": stats.wall_time_s,
            "states_expanded": stats.states_expanded,
            "states_frontier_peak": stats.states_frontier_peak,
            "refinement": None if stats.refinement is None else asdict(stats.refinement),
            "attempts": [asdict(a) for a in stats.attempts],
        },
    }


def _attempts_from_wire(doc: object) -> Tuple[SolveAttempt, ...]:
    """Decode the ``attempts`` list of a result's ``solve_stats``."""
    _require(isinstance(doc, list), "solve_stats 'attempts' must be a list")
    assert isinstance(doc, list)
    attempts = []
    for entry in doc:
        _require(isinstance(entry, dict), "each solve attempt must be an object")
        solver = entry.get("solver")
        outcome = entry.get("outcome")
        wall = entry.get("wall_time_s")
        _require(
            isinstance(solver, str)
            and isinstance(outcome, str)
            and isinstance(wall, (int, float))
            and not isinstance(wall, bool),
            "solve attempt fields: 'solver' str, 'outcome' str, 'wall_time_s' number",
        )
        attempts.append(
            SolveAttempt(solver=str(solver), wall_time_s=float(wall), outcome=str(outcome))
        )
    return tuple(attempts)


def result_from_wire(problem: PebblingProblem, doc: Mapping[str, object]) -> SolveResult:
    """Rebuild a :class:`SolveResult` against the locally held problem.

    The packed columns are replayed through the kernel — the
    replay both validates legality and recomputes every statistic, so the
    returned result is bit-identical to a local solve (wall-clock
    ``solve_stats`` are carried verbatim; they are measurements, not derived
    data).  A wire document whose claimed ``io_cost`` disagrees with the
    replay is refused.
    """
    _require(isinstance(doc, Mapping), "'result' must be an object")
    ir, replayed = _schedule_from_wire(problem, doc.get("schedule"))
    claimed_cost = doc.get("io_cost")
    _require(
        isinstance(claimed_cost, int) and replayed.io_cost == claimed_cost,
        f"wire result claims I/O cost {claimed_cost!r} but the schedule replays to {replayed.io_cost}",
    )

    solver = doc.get("solver")
    _require(isinstance(solver, str) and bool(solver), "result 'solver' must be a non-empty string")
    exact_solver = doc.get("exact_solver", False)
    _require(isinstance(exact_solver, bool), "result 'exact_solver' must be a boolean")
    lower_bound = doc.get("lower_bound")
    if lower_bound is not None:
        _require(
            isinstance(lower_bound, int) and not isinstance(lower_bound, bool),
            "result 'lower_bound' must be an integer or null",
        )
    lower_bound_source = doc.get("lower_bound_source", "")
    _require(isinstance(lower_bound_source, str), "result 'lower_bound_source' must be a string")

    stats_doc = doc.get("solve_stats")
    solve_stats: Optional[SolveStats] = None
    if stats_doc is not None:
        _require(isinstance(stats_doc, dict), "result 'solve_stats' must be an object or null")
        assert isinstance(stats_doc, dict)
        try:
            solve_stats = SolveStats(
                wall_time_s=float(stats_doc.get("wall_time_s", 0.0)),
                states_expanded=None
                if stats_doc.get("states_expanded") is None
                else int(stats_doc["states_expanded"]),  # type: ignore[arg-type]
                states_frontier_peak=None
                if stats_doc.get("states_frontier_peak") is None
                else int(stats_doc["states_frontier_peak"]),  # type: ignore[arg-type]
                refinement=_trajectory_from_wire(stats_doc.get("refinement")),
                attempts=_attempts_from_wire(stats_doc.get("attempts")),
            )
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"invalid solve_stats: {exc}") from exc

    return SolveResult(
        problem=problem,
        ir=ir,
        stats=replayed,
        solver=str(solver),
        exact_solver=bool(exact_solver),
        lower_bound=lower_bound,  # type: ignore[arg-type]
        lower_bound_source=str(lower_bound_source),
        solve_stats=solve_stats,
    )
