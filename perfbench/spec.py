"""What each workload is, and what each per-layer metric should move.

``BENCHMARK.json`` at the repository root declares the metric names, units
and bounds (its keys are fixed by the benchmark contract); this module holds
what that file has no room for: each workload's loop, rate and instances, and
for every per-layer metric its layer, which end-to-end metric on which
workload it should move, and the workloads on which the layer does any work
(elsewhere it reads 0, which is itself the check that, e.g., no solver work
happens on ``service-hit``).
"""

from __future__ import annotations

from typing import Dict, Tuple

HIT, MISS = "service-hit", "service-miss"
SERVICE = (HIT, MISS)

#: Registry scenarios the ``service-hit`` workload repeats, posed exactly as
#: :func:`repro.bench.scenario.materialize_scenario` returns them.
HIT_POOL = (
    "tree-prbp-scaling",
    "attention-flash-prbp",
    "fft-blocked-prbp",
    "matmul-tiled-prbp",
    "fig1-appA1-rbp",
)

WORKLOADS: Dict[str, Dict[str, str]] = {
    HIT: {
        "loop": "closed, one caller over one connection to the router",
        "rate": "as fast as the caller gets answers (~50/s)",
        "instances": (
            "the registry problems tree-prbp-scaling, attention-flash-prbp, fft-blocked-prbp, "
            "matmul-tiled-prbp and fig1-appA1-rbp in seeded shuffled blocks, warmed into the "
            "backend cache during set-up; router hot LRU off"
        ),
    },
    MISS: {
        "loop": "closed, two callers over a connection each to the router, in front of one solve worker",
        "rate": "as fast as the worker answers (~25/s); each request waits in the queue while the other solves",
        "instances": (
            "a distinct problem per request, in cycles of six: three family-tagged (tree, FFT, "
            "matvec, matmul, attention, chained, fan-in; n <= 150) from a fixed well-mixed grid that "
            "is the same for every seed, two seeded random-layered DAGs (n 16-42) and one seeded "
            "exhaustive-size layered DAG (n <= 12); both games"
        ),
    },
}

#: per-layer metric -> (layer, what it should move, workloads where the layer works)
PER_LAYER: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "client.encode_ms": ("service.client", "latency_p50_ms on service-hit", SERVICE),
    "client.decode_ms": ("service.client", "latency_p50_ms on service-hit", SERVICE),
    "client.request_bytes": ("service.client", "latency_p50_ms on service-hit", SERVICE),
    "client.response_bytes": ("service.client", "latency_p50_ms on service-hit", SERVICE),
    "protocol.problem_decode_ms": ("service.protocol", "latency_p50_ms on service-hit", SERVICE),
    "protocol.result_encode_ms": ("service.protocol", "latency_p50_ms on service-hit", SERVICE),
    "router.route_p50_ms.probe_primary": ("service.router", "latency_p50_ms on service-hit", SERVICE),
    "router.route_p50_ms.dispatch": ("service.router", "latency_p50_ms on service-miss", SERVICE),
    "router.probe_hit_ratio": ("service.router", "latency_p50_ms on service-hit", SERVICE),
    "router.dispatched": ("service.router", "ok_fraction on both service workloads", SERVICE),
    "router.failovers": ("service.router", "ok_fraction on both service workloads", SERVICE),
    "server.request_p50_ms": ("service.server", "latency_p90_ms on service-miss", SERVICE),
    "server.solve_p50_ms": ("service.server", "latency_p90_ms on service-miss", SERVICE),
    "queue.wait_p50_ms": ("service.queue", "latency_p90_ms on service-miss", SERVICE),
    "queue.wait_p90_ms": ("service.queue", "latency_p90_ms on service-miss", SERVICE),
    "workers.busy_fraction": ("service.workers", "latency_p90_ms on service-miss", SERVICE),
    "cache.get_ms": ("api.cache", "latency_p50_ms on service-hit", SERVICE),
    "cache.put_ms": ("api.cache", "latency_p50_ms on service-miss", SERVICE),
    "cache.hit_ratio": ("api.cache", "latency_p50_ms on service-hit", SERVICE),
    "cache.stores": ("api.cache", "latency_p50_ms on service-miss", SERVICE),
    "api.digest_ms": ("api.dispatch", "latency_p50_ms on service-hit", SERVICE),
    "api.validate_ms": ("api.dispatch", "ops_per_s and latency_p50_ms on service-miss", (MISS,)),
    "api.telemetry_ms": ("api.dispatch", "ops_per_s and latency_p50_ms on service-miss", (MISS,)),
    "api.portfolio_waste_ratio": ("api.dispatch", "ops_per_s on service-miss", (MISS,)),
    "bounds.lower_bound_ms": ("bounds", "latency_p50_ms on service-miss", (MISS,)),
    "solvers.exhaustive_ms": ("solvers", "ops_per_s on service-miss", (MISS,)),
    "solvers.exhaustive_states": ("solvers", "ops_per_s on service-miss", (MISS,)),
    "solvers.structured_ms": ("solvers", "ops_per_s on service-miss", (MISS,)),
    "solvers.greedy_ms": ("solvers", "ops_per_s and latency_p50_ms on service-miss", (MISS,)),
    "solvers.refine_ms": ("solvers", "ops_per_s and latency_p50_ms on service-miss", (MISS,)),
    "solvers.refine_steps": ("solvers", "io_cost_total on service-miss", (MISS,)),
    "solvers.refine_accept_ratio": ("solvers", "io_cost_total on service-miss", (MISS,)),
    "ir.replay_ms": ("core.schedule_ir", "latency_p50_ms on service-hit (client validation)", SERVICE),
    "ir.schedule_rows": ("core.schedule_ir", "latency_p50_ms on service-hit (client validation)", SERVICE),
    "span.router.route.self_ms": ("service.router spans", "latency_p50_ms on both service workloads", SERVICE),
    "span.server.solve_request.self_ms": ("service.server spans", "latency_p50_ms on both service workloads", SERVICE),
    "span.queue_wait.self_ms": ("service.queue spans", "latency_p90_ms on service-miss", SERVICE),
    "span.solve_exec.self_ms": ("service.workers spans", "latency_p90_ms on service-miss", SERVICE),
    "span.solve.self_ms": ("api.dispatch spans", "latency_p50_ms on service-miss", (MISS,)),
    "loadgen.connections": ("load generator", "none: callers (one connection each) the load used", SERVICE),
    "trace.overhead_fraction": ("tracing", "none: traced over untraced latency_p50_ms, minus 1", SERVICE),
    "split.solvers_share": ("solvers", "share of latency in solvers: ~0 on service-hit", SERVICE),
    "split.hit_path_share": ("service + api.cache", "share of service-hit latency in wire and cache work", (HIT,)),
    "split.queue_solve_share": ("service.queue + workers", "share of service-miss latency queued or solving", SERVICE),
}

for _name in HIT_POOL:
    PER_LAYER[f"service.hit_to_cold_ratio.{_name}"] = (
        "service (whole hit path)",
        "latency_p50_ms on service-hit; median hit over a local cold solve()",
        (HIT,),
    )
