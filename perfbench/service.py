"""The two service workloads: a load generator against a live cluster.

The system under test runs in its own processes, each in its own process
group so that its worker processes are measured and stopped with it::

    python -m repro.service route --hot-cache 0 --backend <backend>
    python -m repro.service serve --workers 1 --no-disk-cache

The load comes from this process alone, in closed loops: each caller has
a connection of its own and sends its next request when its previous answer
arrives, and a request's latency runs from its send to its answer.

* ``service-hit`` has one caller.
* ``service-miss`` has two callers (the host has two cores) in front of the
  one solve worker, so that a request waits in the backend's queue while the
  other one solves.

The loops are closed because, on a shared virtual host, an open loop slow
enough not to queue leaves every process idle between requests and the
wake-ups from idle then set the latency, while one fast enough to keep the
processes busy queues, and queueing multiplies the host's own noise.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import ResultCache, SolveResult, best_lower_bound, problem_digest, solve
from repro.core.schedule_ir import from_schedule, kernel_stats
from repro.corpus.features import extract_features
from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError

from checks import check_result
from layers import (
    Recorder,
    counter_delta,
    histogram_delta,
    median_time,
    peak_rss_mib,
    percentile,
    process_group_members,
    solver_layer,
    span_self_times,
)
from spec import HIT_POOL
from workloads import Instance, hit_order, hit_pool, warmup_problems, service_miss_problems

#: Callers, one connection each (at most the cores of the reference host).
CALLERS = {"service-hit": 1, "service-miss": 2}
#: More answers per second than a workload gets; sizes its request list.
MAX_RATE = {"service-hit": 200.0, "service-miss": 60.0}
#: The I/O cost is summed over the distinct problems of the first CORE
#: requests; a run always gets this far, so the sum repeats exactly for a seed.
CORE = 300
#: The traced run replays and times the layer calls of the first REPLAY
#: answers, and takes the counts that must repeat exactly over them.
REPLAY = 120
#: Router tiers whose latency is reported (one backend, hot LRU off).
TIERS = ("probe_primary", "dispatch")

_LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")


class Topology:
    """One router in front of one backend, as child processes."""

    def __init__(self, root: Path, workdir: Path, traced: bool) -> None:
        self.root = root
        self.workdir = workdir
        self.traced = traced
        self.procs: List[subprocess.Popen] = []
        self.router: Tuple[str, int] = ("", 0)
        self.backend: Tuple[str, int] = ("", 0)

    @property
    def trace_files(self) -> List[Path]:
        return [self.workdir / "router-trace.jsonl", self.workdir / "backend-trace.jsonl"]

    def _spawn(self, args: List[str], trace_file: Path) -> Tuple[str, int]:
        if self.traced:
            args = args + ["--trace-file", str(trace_file)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", *args],
            cwd=self.root,
            env={**os.environ, "PYTHONPATH": str(self.root / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
        self.procs.append(proc)
        assert proc.stdout is not None
        line = proc.stdout.readline()
        match = _LISTENING.search(line)
        if match is None:
            raise RuntimeError(f"{args[0]} did not start (printed {line!r})")
        return match.group(1), int(match.group(2))

    def start(self) -> None:
        self.backend = self._spawn(
            ["serve", "--port", "0", "--workers", "1", "--no-disk-cache"], self.trace_files[1]
        )
        self.router = self._spawn(
            ["route", "--port", "0", "--hot-cache", "0", "--backend", "%s:%d" % self.backend],
            self.trace_files[0],
        )

    def peak_rss_mib(self) -> float:
        return peak_rss_mib(pid for proc in self.procs for pid in process_group_members(proc.pid))

    def stop(self) -> None:
        """Drain and stop every process of the topology, waiting for each to end."""
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in reversed(self.procs):
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # worker processes left behind, if any
            except ProcessLookupError:
                pass
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
            deadline = time.monotonic() + 10
            while process_group_members(proc.pid) and time.monotonic() < deadline:
                time.sleep(0.01)  # orphaned workers are reaped by init, not by us
        self.procs = []


async def _scrape(address: Tuple[str, int]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    async with await ServiceClient.connect(*address) as client:
        return await client.stats(), (await client.metrics())["snapshot"]


async def _warm(address: Tuple[str, int], instances: Sequence[Instance], rounds: int) -> None:
    async with await ServiceClient.connect(*address) as client:
        await client.ping()
        for _ in range(rounds):
            for inst in instances:
                await client.solve(inst.problem, inst.solver, **inst.options)


def set_up(root: Path, workdir: Path, workload: str, traced: bool) -> Tuple[Topology, float]:
    """Start a topology and warm it; returns it with the seconds that took."""
    start = time.perf_counter()
    topology = Topology(root, workdir, traced)
    try:
        topology.start()
        if workload == "service-hit":
            warm, rounds = hit_pool(), 2  # first round solves and stores, second hits
        else:
            warm, rounds = warmup_problems(), 1
        asyncio.run(_warm(topology.router, warm, rounds))
    except BaseException:
        topology.stop()
        raise
    return topology, time.perf_counter() - start


@dataclass
class Sample:
    index: int
    sent: Optional[float] = None
    done: Optional[float] = None
    cost: Optional[int] = None
    #: The whole answer, kept only for the first answer of each problem: a
    #: run that kept them all would spend its time collecting garbage.
    result: Optional[SolveResult] = None
    cache_hit: bool = False
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        assert self.sent is not None and self.done is not None
        return self.done - self.sent


async def _request(
    clients: List[ServiceClient], slot: int, address: Tuple[str, int], sample: Sample, inst: Instance, answered: set
) -> None:
    """Send one request on connection ``slot`` and record its outcome in ``sample``.

    ``answered`` holds the problems that have an answer already.
    """
    loop = asyncio.get_running_loop()
    sample.sent = loop.time()
    try:
        result, meta = await clients[slot].solve_detailed(inst.problem, inst.solver, **inst.options)
    except ServiceError as exc:
        sample.error = str(exc)
    except (ConnectionError, OSError, protocol.ProtocolError) as exc:
        sample.error = f"{type(exc).__name__}: {exc}"
        await clients[slot].close()
        clients[slot] = await ServiceClient.connect(*address)
    else:
        sample.cost, sample.cache_hit = result.cost, bool(meta["cache_hit"])
        if id(inst) not in answered:
            answered.add(id(inst))
            sample.result = result
    sample.done = loop.time()


async def _closed_loop(
    address: Tuple[str, int],
    jobs: Sequence[Instance],
    seconds: float,
    callers: int,
    block: int,
    at_core: Callable[[], float],
) -> Tuple[List[Sample], float, Optional[float]]:
    """``callers`` callers send ``jobs`` in order, each after its previous answer, for ``seconds``.

    Sending stops at a multiple of ``block`` requests (a hit run then asks
    every pool problem equally often), or when ``jobs`` runs out.  Returns
    the samples of the requests sent, the phase wall time and what
    ``at_core`` returned when the first CORE requests had been sent.
    """
    loop = asyncio.get_running_loop()
    clients = [await ServiceClient.connect(*address) for _ in range(callers)]
    samples: List[Sample] = []
    pending = iter(range(len(jobs)))
    answered: set = set()
    stopped = False
    core_value: Optional[float] = None
    origin = loop.time()

    async def caller(slot: int) -> None:
        nonlocal stopped, core_value
        for index in pending:
            if index == CORE:
                core_value = at_core()
            stopped = stopped or (loop.time() - origin >= seconds and index % block == 0)
            if stopped:
                return
            samples.append(Sample(index))
            await _request(clients, slot, address, samples[-1], jobs[index], answered)

    try:
        await asyncio.gather(*(caller(slot) for slot in range(callers)))
    finally:
        for client in clients:
            await client.close()
    return samples, loop.time() - origin, core_value


@dataclass
class Phase:
    """What one closed-loop phase measured."""

    samples: List[Sample]
    wall_s: float
    #: Peak RSS of the system under test when the first CORE requests had been sent.
    core_rss_mb: Optional[float]
    ok: List[Sample] = field(init=False)

    def __post_init__(self) -> None:
        self.ok = [s for s in self.samples if s.error is None]

    @property
    def latencies(self) -> List[float]:
        return [s.latency for s in self.ok]


def _jobs(workload: str, seed: int, seconds: float) -> List[Instance]:
    """The requests of one phase, more than it can send."""
    count = round(MAX_RATE[workload] * seconds)
    if workload == "service-hit":
        pool = hit_pool()
        return [pool[i] for i in hit_order(seed, count, len(pool))]
    return service_miss_problems(seed, max(count, CORE))


def _drive(topology: Topology, workload: str, jobs: Sequence[Instance], seconds: float) -> Phase:
    block = len(HIT_POOL) if workload == "service-hit" else 1
    load = _closed_loop(topology.router, jobs, seconds, CALLERS[workload], block, topology.peak_rss_mib)
    return Phase(*asyncio.run(load))


def _check(jobs: Sequence[Instance], phase: Phase, workload: str) -> Tuple[List[str], int]:
    """Check each distinct answer and pin repeated answers of a problem to it.

    A ``service-hit`` answer must also cost what a local ``solve()`` of the
    same problem costs.  Returns the errors and how many answered requests
    they make wrong.
    """
    errors: List[str] = []
    first: Dict[int, int] = {}
    wrong: set = set()
    for sample in phase.ok:
        if sample.result is None:
            continue
        inst = jobs[sample.index]
        first[id(inst)] = sample.result.cost
        found = check_result(inst, sample.result)
        if not found and workload == "service-hit":
            local = solve(inst.problem, inst.solver, **inst.options).cost
            if local != sample.result.cost:
                found = [f"{inst.label}: remote cost {sample.result.cost} != local {local}"]
        if found:
            errors += found
            wrong.add(id(inst))
    for sample in phase.ok:
        inst = jobs[sample.index]
        if sample.cost != first[id(inst)]:
            errors.append(f"{inst.label}: answered {sample.cost} after {first[id(inst)]}")
            wrong.add(id(inst))
    return errors, sum(1 for s in phase.ok if id(jobs[s.index]) in wrong)


def run(root: Path, workdir: Path, workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    if trace:
        return _run_traced(root, workdir, workload, seed, seconds)
    setups = []
    for _ in range(2):
        topology, setup_s = set_up(root, workdir, workload, traced=False)
        topology.stop()
        setups.append(setup_s)
    topology, setup_s = set_up(root, workdir, workload, traced=False)
    setups.append(setup_s)
    jobs = _jobs(workload, seed, seconds)
    try:
        phase = _drive(topology, workload, jobs, seconds)
        # the backend cache grows with every answer, so memory is taken at a fixed request count
        rss = topology.peak_rss_mib() if phase.core_rss_mb is None else phase.core_rss_mb
    finally:
        topology.stop()
    errors, wrong = _check(jobs, phase, workload)
    failed = len(phase.samples) - len(phase.ok) + wrong
    distinct = {id(jobs[s.index]): s.cost for s in phase.ok if s.index < CORE}
    return {
        "correct": not errors,
        "attempted": len(phase.samples),
        "failed": failed,
        "errors": errors + [s.error for s in phase.samples if s.error][:10],
        "metrics": {
            "ops_per_s": len(phase.ok) / phase.wall_s,
            "latency_p50_ms": 1000 * percentile(phase.latencies, 0.50),
            "latency_p90_ms": 1000 * percentile(phase.latencies, 0.90),
            "ok_fraction": (len(phase.ok) - wrong) / len(phase.samples),
            "io_cost_total": float(sum(distinct.values())),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        },
    }


# --------------------------------------------------------------------------- #
# traced run
# --------------------------------------------------------------------------- #


def _client_targets(recorder: Recorder, counts: Dict[str, List[int]]) -> List[Tuple[object, str, Any]]:
    """Timers on the protocol functions the client calls, plus frame sizes.

    Frame sizes leave out the request id, whose length depends on which
    connection sent the request, so they repeat exactly for a seed.
    """

    def sized_encode(original: Any) -> Any:
        timed = recorder.wrap("encode_frame", original)

        def encode(doc: Any) -> bytes:
            data = timed(doc)
            if doc.get("op") == "solve":
                counts["request_bytes"].append(len(data) - len(json.dumps(doc.get("id"))))
            return data

        return encode

    def sized_decode(original: Any) -> Any:
        timed = recorder.wrap("decode_frame", original)

        def decode(payload: bytes) -> Any:
            doc = timed(payload)
            if doc.get("op") == "result":
                counts["response_bytes"].append(len(payload) - len(json.dumps(doc.get("id"))))
            return doc

        return decode

    return [
        (protocol, "problem_to_wire", "problem_to_wire"),
        (protocol, "result_from_wire", "result_from_wire"),
        (protocol, "encode_frame", sized_encode),
        (protocol, "decode_frame", sized_decode),
    ]


def _weighted_ms(per_problem: Dict[int, float], keys: Sequence[int]) -> float:
    """Mean over requests (given by their problem keys) of a per-problem time, in ms."""
    return 1000 * sum(per_problem.get(key, 0.0) for key in keys) / max(1, len(keys))


def _run_traced(root: Path, workdir: Path, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    half = seconds / 2
    jobs = _jobs(workload, seed, half)
    plain, _ = set_up(root, workdir, workload, traced=False)
    try:
        untraced = _drive(plain, workload, jobs, half)
    finally:
        plain.stop()

    topology, _ = set_up(root, workdir, workload, traced=True)
    recorder = Recorder()
    counts: Dict[str, List[int]] = {"request_bytes": [], "response_bytes": []}
    try:
        router_before = asyncio.run(_scrape(topology.router))
        backend_before = asyncio.run(_scrape(topology.backend))
        since = time.time()
        with recorder.patched(_client_targets(recorder, counts)):
            traced = _drive(topology, workload, jobs, half)
        router_after = asyncio.run(_scrape(topology.router))
        backend_after = asyncio.run(_scrape(topology.backend))
    finally:
        topology.stop()
    spans = span_self_times(topology.trace_files, since)
    errors_a, wrong_a = _check(jobs, untraced, workload)
    errors_b, wrong_b = _check(jobs, traced, workload)
    errors = errors_a + errors_b

    ok = traced.ok
    n = max(1, len(ok))
    replayed = sorted(ok, key=lambda s: s.index)[:REPLAY]
    keys = [id(jobs[s.index]) for s in replayed]
    answers = {id(jobs[s.index]): (jobs[s.index], s.result) for s in ok if s.result is not None}
    results = {key: answers[key] for key in keys}
    layer = _replay_layers(results, workload)
    mean_latency_ms = 1000 * statistics.fmean(traced.latencies) if ok else 0.0

    def solve_stats_of(samples: Sequence[Sample]) -> List[Any]:
        """What the program reported about the solves these requests ran (hits ran none)."""
        return [s.result.solve_stats for s in samples if s.result and not s.cache_hit and s.result.solve_stats]

    solve_stats = solve_stats_of(ok)
    attempts = [a for stats in solve_stats for a in stats.attempts]
    trajectories = [stats.refinement for stats in solve_stats if stats.refinement is not None]
    core_stats = solve_stats_of(replayed)
    core_steps = [stats.refinement.steps for stats in core_stats if stats.refinement is not None]

    def attempts_ms(kind: str) -> float:
        return 1000 * sum(a.wall_time_s for a in attempts if solver_layer(a.solver) == kind) / n

    refine_ms = 1000 * sum(t.wall_time_s for t in trajectories) / n
    solve_walls = sum(stats.wall_time_s for stats in solve_stats)
    waste = sum(a.wall_time_s for a in attempts if a.outcome in ("lost", "failed"))
    solver_ms = sum(attempts_ms(k) for k in ("exhaustive", "structured", "greedy")) + refine_ms

    queue_wait = histogram_delta(backend_before[1], backend_after[1], "repro_queue_wait_seconds")
    solve_hist = histogram_delta(backend_before[1], backend_after[1], "repro_solve_seconds")
    request_hist = histogram_delta(
        backend_before[1], backend_after[1], "repro_request_latency_seconds", {"op": "solve"}
    )
    hits = sum(
        counter_delta(backend_before[1], backend_after[1], "repro_cache_ops_total", event=e)
        for e in ("hit_memory", "hit_disk")
    )
    misses = counter_delta(backend_before[1], backend_after[1], "repro_cache_ops_total", event="miss")
    stores = counter_delta(backend_before[1], backend_after[1], "repro_cache_ops_total", event="store")
    routing_before, routing_after = router_before[0]["routing"], router_after[0]["routing"]
    routed = routing_after["routed"] - routing_before["routed"]

    client_encode_ms = 1000 * (recorder.total("problem_to_wire") + recorder.total("encode_frame")) / n
    client_decode_ms = 1000 * (recorder.total("result_from_wire") + recorder.total("decode_frame")) / n
    decode_ms = _weighted_ms(layer["decode"], keys)
    digest_ms = _weighted_ms(layer["digest"], keys)
    get_ms = _weighted_ms(layer["get"], keys)
    encode_ms = _weighted_ms(layer["encode"], keys)
    # router and backend each decode and digest the problem once per hit
    hit_path_ms = client_encode_ms + client_decode_ms + 2 * decode_ms + 2 * digest_ms + get_ms + encode_ms

    metrics = {
        "client.encode_ms": client_encode_ms,
        "client.decode_ms": client_decode_ms,
        "client.request_bytes": statistics.fmean(counts["request_bytes"][:REPLAY]) if counts["request_bytes"] else 0.0,
        "client.response_bytes": statistics.fmean(counts["response_bytes"][:REPLAY])
        if counts["response_bytes"]
        else 0.0,
        "protocol.problem_decode_ms": decode_ms,
        "protocol.result_encode_ms": encode_ms,
        "router.probe_hit_ratio": (routing_after["primary_probe_hits"] - routing_before["primary_probe_hits"])
        / max(1, routed),
        "router.dispatched": float(routing_after["dispatched"] - routing_before["dispatched"]),
        "router.failovers": float(routing_after["failovers"] - routing_before["failovers"]),
        "server.request_p50_ms": 1000 * request_hist["p50"],
        "server.solve_p50_ms": 1000 * solve_hist["p50"],
        "queue.wait_p50_ms": 1000 * queue_wait["p50"],
        "queue.wait_p90_ms": 1000 * queue_wait["p90"],
        "workers.busy_fraction": solve_hist["sum"] / traced.wall_s,
        "cache.get_ms": get_ms,
        "cache.put_ms": 1000 * statistics.fmean(layer["put"].values()) if stores and layer["put"] else 0.0,
        "cache.hit_ratio": hits / max(1.0, hits + misses),
        "cache.stores": stores,
        "api.digest_ms": digest_ms,
        "api.validate_ms": _weighted_ms(layer["validate"], keys),
        "api.telemetry_ms": _weighted_ms(layer["telemetry"], keys),
        "api.portfolio_waste_ratio": waste / solve_walls if solve_walls else 0.0,
        "bounds.lower_bound_ms": _weighted_ms(layer["bound"], keys),
        "solvers.exhaustive_ms": attempts_ms("exhaustive"),
        "solvers.exhaustive_states": float(sum(stats.states_expanded or 0 for stats in core_stats)),
        "solvers.structured_ms": attempts_ms("structured"),
        "solvers.greedy_ms": attempts_ms("greedy"),
        "solvers.refine_ms": refine_ms,
        "solvers.refine_steps": float(sum(core_steps)),
        "solvers.refine_accept_ratio": sum(t.accepted for t in trajectories) / max(1, sum(t.steps for t in trajectories)),
        "ir.replay_ms": _weighted_ms(layer["replay"], keys),
        "ir.schedule_rows": float(sum(layer["rows"].values())),  # over the distinct answers
        "span.router.route.self_ms": 1000 * spans.get("router.route", 0.0) / n,
        "span.server.solve_request.self_ms": 1000 * spans.get("server.solve_request", 0.0) / n,
        "span.queue_wait.self_ms": 1000 * spans.get("queue_wait", 0.0) / n,
        "span.solve_exec.self_ms": 1000 * spans.get("solve_exec", 0.0) / n,
        "span.solve.self_ms": 1000 * spans.get("solve", 0.0) / n,
        "loadgen.connections": float(CALLERS[workload]),
        "trace.overhead_fraction": _overhead(untraced.latencies, traced.latencies),
        "split.solvers_share": solver_ms / mean_latency_ms if mean_latency_ms else 0.0,
        "split.queue_solve_share": 1000 * (queue_wait["sum"] + solve_hist["sum"]) / n / mean_latency_ms
        if mean_latency_ms
        else 0.0,
    }
    for tier in TIERS:
        summary = histogram_delta(router_before[1], router_after[1], "repro_router_tier_seconds", {"tier": tier})
        metrics[f"router.route_p50_ms.{tier}"] = 1000 * summary["p50"]
    if workload == "service-hit":
        metrics["split.hit_path_share"] = hit_path_ms / mean_latency_ms if mean_latency_ms else 0.0
        metrics.update(_hit_to_cold(jobs, untraced))
    return {
        "correct": not errors,
        "attempted": len(untraced.samples) + len(traced.samples),
        "failed": len(untraced.samples) + len(traced.samples) - len(untraced.ok) - len(traced.ok) + wrong_a + wrong_b,
        "errors": errors,
        "metrics": metrics,
    }


def _overhead(untraced: List[float], traced: List[float]) -> float:
    base = percentile(untraced, 0.5)
    return percentile(traced, 0.5) / base - 1.0 if base else 0.0


def _replay_layers(results: Dict[int, Tuple[Instance, SolveResult]], workload: str) -> Dict[str, Dict[int, float]]:
    """Time, outside the servers, the layer calls each request made inside them.

    Every distinct problem is decoded, digested and looked up once per
    repeat as the router and backend do; for the workload that solves, the
    bound, telemetry, validation and cache store are timed on the returned
    answer as well.
    """
    out: Dict[str, Dict[int, float]] = {
        key: {} for key in ("decode", "digest", "get", "encode", "put", "bound", "telemetry", "validate", "replay", "rows")
    }
    cache = ResultCache()
    for key, (inst, result) in results.items():
        wire = protocol.problem_to_wire(inst.problem)
        digest = problem_digest(inst.problem, inst.solver, inst.options)
        out["decode"][key] = median_time(lambda: protocol.problem_from_wire(wire))
        out["digest"][key] = median_time(lambda: problem_digest(inst.problem, inst.solver, inst.options))
        out["encode"][key] = median_time(lambda: protocol.result_to_wire(result))
        out["replay"][key] = median_time(lambda: kernel_stats(from_schedule(result.schedule)), repeats=1)
        out["rows"][key] = float(len(from_schedule(result.schedule)))
        if workload == "service-hit":
            cache.put(digest, result)  # the backend's cache holds every pool answer
        out["get"][key] = median_time(lambda: cache.get(inst.problem, digest))
        if workload == "service-hit":
            continue
        out["put"][key] = median_time(lambda: ResultCache().put(digest, result))
        out["bound"][key] = median_time(lambda: best_lower_bound(inst.problem), repeats=1)
        out["telemetry"][key] = median_time(
            lambda: (extract_features(inst.problem), problem_digest(inst.problem, inst.solver, inst.options)),
            repeats=1,
        )
        out["validate"][key] = median_time(lambda: result.schedule.stats(), repeats=1)
    return out


def _hit_to_cold(jobs: Sequence[Instance], phase: Phase) -> Dict[str, float]:
    """Median remote hit latency over a local cold ``solve()``, per pool problem."""
    out = {}
    for inst in hit_pool():
        hits = [s.latency for s in phase.ok if jobs[s.index].label == inst.label]
        cold = median_time(lambda: solve(inst.problem, inst.solver, **inst.options))
        out[f"service.hit_to_cold_ratio.{inst.label}"] = statistics.median(hits) / cold if hits else 0.0
    return out
