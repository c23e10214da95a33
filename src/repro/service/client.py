"""Client library for the solve service.

:class:`ServiceClient` is the asyncio client: one TCP connection, one
request in flight at a time (open several clients for concurrency — the
server schedules across connections via its admission queue).  Three
calling conventions cover the protocol:

* **blocking** — :meth:`ServiceClient.solve` poses a problem and returns
  the :class:`~repro.api.result.SolveResult`, reconstructed locally by
  replaying the wire schedule through the replay kernel (so it is
  bit-identical to what a local ``solve()`` would have produced);
* **fire-and-forget** — :meth:`ServiceClient.submit` returns a job id
  immediately; :meth:`ServiceClient.poll` (optionally waiting) fetches the
  state and, once finished, the result;
* **streaming** — :meth:`ServiceClient.solve_stream` returns the result
  *plus* the anytime-progress events (strictly improving costs) the server
  pushed while the solve ran, invoking an optional callback per event as
  they arrive.

For scripts and the CLI there is a tiny synchronous facade,
:func:`solve_via_service`, which wraps one connect/solve/close round trip
in ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..api.problem import PebblingProblem
from ..api.result import SolveResult
from ..obs.tracing import current_trace
from . import protocol
from .protocol import ProtocolError, read_frame, write_frame

__all__ = [
    "ProgressEvent",
    "ServiceClient",
    "ServiceError",
    "solve_via_service",
]


class ServiceError(Exception):
    """An ``error`` response from the server, with its machine-readable code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code

    def __str__(self) -> str:
        return f"[{self.code}] {super().__str__()}"


@dataclass(frozen=True)
class ProgressEvent:
    """One anytime-progress push: the best known cost at ``elapsed_s``."""

    cost: int
    elapsed_s: float


class ServiceClient:
    """One connection to a running solve service.

    Construct via :meth:`connect` (or use as an async context manager)::

        async with await ServiceClient.connect(host, port) as client:
            result = await client.solve(problem)
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._request_seq = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        """Open a connection to ``host:port``."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (OSError, asyncio.CancelledError):
            pass

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def _next_id(self) -> str:
        self._request_seq += 1
        return f"r{self._request_seq}"

    async def _roundtrip(self, op: str, **fields: object) -> Dict[str, Any]:
        """Send one request and return its (non-progress) response."""
        request_id = self._next_id()
        await write_frame(self._writer, protocol.make_request(op, request_id, **fields))
        return await self._next_response(request_id)

    async def _next_response(self, request_id: str) -> Dict[str, Any]:
        doc = await read_frame(self._reader)
        if doc is None:
            raise ConnectionError("server closed the connection mid-request")
        if doc.get("id") not in (request_id, None):
            raise ProtocolError(
                f"response id {doc.get('id')!r} does not match request {request_id!r}"
            )
        if doc.get("op") == "error":
            raise ServiceError(str(doc.get("code", "internal")), str(doc.get("error", "")))
        return doc

    @staticmethod
    def _expect(doc: Mapping[str, Any], op: str) -> Mapping[str, Any]:
        if doc.get("op") != op:
            raise ProtocolError(f"expected a {op!r} response, got {doc.get('op')!r}")
        return doc

    # ------------------------------------------------------------------ #
    # protocol operations
    # ------------------------------------------------------------------ #

    async def ping(self) -> Dict[str, Any]:
        """Round-trip liveness check; returns the ``pong`` payload."""
        return dict(self._expect(await self._roundtrip("ping"), "pong"))

    async def stats(self) -> Dict[str, Any]:
        """The server's counter snapshot (queue depth, cache hits, ...)."""
        doc = self._expect(await self._roundtrip("stats"), "stats")
        stats = doc.get("stats")
        return dict(stats) if isinstance(stats, dict) else {}

    async def metrics(self) -> Dict[str, Any]:
        """The server's metrics (protocol v4): text exposition + JSON snapshot.

        Returns ``{"exposition": <Prometheus-style text>, "snapshot": <dict>}``.
        """
        doc = self._expect(await self._roundtrip("metrics"), "metrics")
        snapshot = doc.get("snapshot")
        return {
            "exposition": str(doc.get("exposition", "")),
            "snapshot": dict(snapshot) if isinstance(snapshot, dict) else {},
        }

    async def shutdown_server(self, drain: bool = True) -> None:
        """Ask the server to shut down (gracefully draining by default)."""
        self._expect(await self._roundtrip("shutdown", drain=drain), "ok")

    async def solve(
        self,
        problem: PebblingProblem,
        solver: str = "auto",
        *,
        priority: int = 0,
        deadline_s: Optional[float] = None,
        client_id: Optional[str] = None,
        **options: object,
    ) -> SolveResult:
        """Solve remotely and return the validated result."""
        result, _ = await self.solve_detailed(
            problem,
            solver,
            priority=priority,
            deadline_s=deadline_s,
            client_id=client_id,
            **options,
        )
        return result

    async def solve_detailed(
        self,
        problem: PebblingProblem,
        solver: str = "auto",
        *,
        priority: int = 0,
        deadline_s: Optional[float] = None,
        client_id: Optional[str] = None,
        **options: object,
    ) -> Tuple[SolveResult, Dict[str, Any]]:
        """:meth:`solve` plus the response metadata (``cache_hit``, ``job_id``).

        ``client_id`` is the rate-limit identity a front router buckets
        requests under; a plain single-node server ignores it.  The metadata
        also carries ``backend`` when a router answered (which node served).
        """
        fields: Dict[str, object] = {}
        if client_id is not None:
            fields["client_id"] = client_id
        # Propagate the caller's ambient trace context (if any) so the
        # server's spans parent under it.
        ambient = current_trace()
        if ambient is not None:
            fields["trace"] = ambient.to_wire()
        doc = self._expect(
            await self._roundtrip(
                "solve",
                problem=protocol.problem_to_wire(problem),
                solver=solver,
                options=dict(options),
                priority=priority,
                deadline_s=deadline_s,
                stream=False,
                wait=True,
                **fields,
            ),
            "result",
        )
        result = self._decode_result(problem, doc)
        return result, {
            "cache_hit": bool(doc.get("cache_hit")),
            "job_id": doc.get("job_id"),
            "backend": doc.get("backend"),
        }

    async def probe(
        self,
        problem: PebblingProblem,
        solver: str = "auto",
        **options: object,
    ) -> Optional[SolveResult]:
        """Ask the server's shared cache for a result *without* solving.

        Returns the cached (replay-validated) result, or ``None`` when the
        server answers ``cache-miss``.  This is the peer-fetch primitive the
        cluster router uses: probing every peer costs one cache lookup each,
        which is always cheaper than recomputing a solve.
        """
        try:
            doc = self._expect(
                await self._roundtrip(
                    "solve",
                    problem=protocol.problem_to_wire(problem),
                    solver=solver,
                    options=dict(options),
                    stream=False,
                    wait=True,
                    cache_only=True,
                ),
                "result",
            )
        except ServiceError as exc:
            if exc.code == "cache-miss":
                return None
            raise
        return self._decode_result(problem, doc)

    async def solve_stream(
        self,
        problem: PebblingProblem,
        solver: str = "auto",
        *,
        priority: int = 0,
        deadline_s: Optional[float] = None,
        on_progress: Optional[Callable[[ProgressEvent], None]] = None,
        **options: object,
    ) -> Tuple[SolveResult, List[ProgressEvent]]:
        """Solve remotely with streamed anytime progress.

        Returns the final result and every :class:`ProgressEvent` the server
        pushed (first event: the refinement seed's cost; later events:
        strictly cheaper accepted schedules).  ``on_progress`` is invoked
        per event as it arrives, before the final result exists.

        A request the shared cache can already answer returns immediately
        with an **empty** event list — no solve runs, so there is no
        progress to stream; the cached result is the same one a fresh
        streamed solve would have ended on.
        """
        request_id = self._next_id()
        await write_frame(
            self._writer,
            protocol.make_request(
                "solve",
                request_id,
                problem=protocol.problem_to_wire(problem),
                solver=solver,
                options=dict(options),
                priority=priority,
                deadline_s=deadline_s,
                stream=True,
                wait=True,
                **(
                    {"trace": current_trace().to_wire()}
                    if current_trace() is not None
                    else {}
                ),
            ),
        )
        events: List[ProgressEvent] = []
        while True:
            doc = await self._next_response(request_id)
            if doc.get("op") == "progress":
                event = ProgressEvent(
                    cost=int(doc.get("cost", -1)), elapsed_s=float(doc.get("elapsed_s", 0.0))
                )
                events.append(event)
                if on_progress is not None:
                    on_progress(event)
                continue
            self._expect(doc, "result")
            return self._decode_result(problem, doc), events

    async def submit(
        self,
        problem: PebblingProblem,
        solver: str = "auto",
        *,
        priority: int = 0,
        deadline_s: Optional[float] = None,
        **options: object,
    ) -> str:
        """Fire-and-forget solve; returns the server-assigned job id."""
        doc = self._expect(
            await self._roundtrip(
                "solve",
                problem=protocol.problem_to_wire(problem),
                solver=solver,
                options=dict(options),
                priority=priority,
                deadline_s=deadline_s,
                stream=False,
                wait=False,
            ),
            "accepted",
        )
        return str(doc["job_id"])

    async def poll(
        self, job_id: str, problem: Optional[PebblingProblem] = None, *, wait: bool = False
    ) -> Tuple[str, Optional[SolveResult]]:
        """State of a submitted job, plus its result once finished.

        ``problem`` is required to decode a finished job's result (the wire
        result references the problem both sides already hold); without it
        only the state comes back.  A job that *failed* raises the
        corresponding :class:`ServiceError`.
        """
        doc = self._expect(await self._roundtrip("poll", job_id=job_id, wait=wait), "status")
        state = str(doc.get("state"))
        if doc.get("error") is not None:
            raise ServiceError(str(doc.get("code", "internal")), str(doc["error"]))
        result: Optional[SolveResult] = None
        if problem is not None and isinstance(doc.get("result"), dict):
            result = protocol.result_from_wire(problem, doc["result"])
        return state, result

    async def wait(self, job_id: str, problem: PebblingProblem) -> SolveResult:
        """Block until a submitted job finishes; returns its result."""
        state, result = await self.poll(job_id, problem, wait=True)
        if result is None:
            raise ServiceError("internal", f"job {job_id} ended in state {state!r} without a result")
        return result

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _decode_result(problem: PebblingProblem, doc: Mapping[str, Any]) -> SolveResult:
        wire = doc.get("result")
        if not isinstance(wire, Mapping):
            raise ProtocolError("'result' response carries no result object")
        return protocol.result_from_wire(problem, wire)


def solve_via_service(
    host: str,
    port: int,
    problem: PebblingProblem,
    solver: str = "auto",
    **options: object,
) -> SolveResult:
    """One-shot synchronous convenience: connect, solve, close."""

    async def run() -> SolveResult:
        async with await ServiceClient.connect(host, port) as client:
            return await client.solve(problem, solver, **options)

    return asyncio.run(run())
