"""Wire protocol of repro.service: framing, schemas, round trips, and fuzz."""

import asyncio
import base64
import hashlib
import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import PebblingProblem, problem_digest, solve
from repro.core.canonical import content_digest, dag_digest
from repro.core.dag import ComputationalDAG, DAGFamily
from repro.core.schedule_ir import ir_from_arrays, pack_arrays, unpack_arrays
from repro.core.variants import NO_DELETE, ONE_SHOT, RECOMPUTE, SLIDING, GameVariant
from repro.dags import chained_gadget_dag, fft_dag, figure1_gadget, kary_tree_dag
from repro.dags.random_dags import random_layered_dag
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    make_request,
    parse_problem,
    problem_from_wire,
    problem_to_wire,
    read_frame,
    result_from_wire,
    result_to_wire,
    validate_request,
)


def _wire_digest(doc, **kwargs):
    """The digest-first path: the problem digest of a document, without the rebuild."""
    return parse_problem(doc).digest(**kwargs)


def _read_all(data: bytes, max_bytes: int = MAX_FRAME_BYTES):
    """Feed raw bytes to a fresh StreamReader and read frames until EOF."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = []
        while True:
            frame = await read_frame(reader, max_bytes=max_bytes)
            if frame is None:
                return frames
            frames.append(frame)

    return asyncio.run(run())


def _problems():
    """Both games, both variant bundles, a tagged family, and custom labels."""
    labeled = kary_tree_dag(2, 3)
    return [
        PebblingProblem(figure1_gadget(), r=4, game="prbp"),
        PebblingProblem(figure1_gadget(), r=4, game="rbp", variant=ONE_SHOT),
        PebblingProblem(labeled, r=3, game="prbp", variant=RECOMPUTE),
        PebblingProblem(chained_gadget_dag(4), r=4, game="rbp"),
        PebblingProblem(random_layered_dag((3, 4, 3), 0.4, 3, 7), r=4, game="prbp"),
    ]


class TestFraming:
    def test_round_trip_single_frame(self):
        doc = {"v": PROTOCOL_VERSION, "op": "ping", "id": "r1", "nested": {"a": [1, 2]}}
        assert _read_all(encode_frame(doc)) == [doc]

    def test_round_trip_back_to_back_frames(self):
        docs = [{"op": "ping", "id": f"r{i}", "v": 1} for i in range(5)]
        stream = b"".join(encode_frame(doc) for doc in docs)
        assert _read_all(stream) == docs

    def test_decode_rejects_non_object_payloads(self):
        for payload in (b"[1,2]", b'"hello"', b"42", b"null"):
            with pytest.raises(ProtocolError):
                decode_frame(payload)

    def test_decode_rejects_invalid_utf8_and_json(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"\xff\xfe garbage")
        with pytest.raises(ProtocolError):
            decode_frame(b"{not json")

    def test_encode_rejects_unserializable_and_oversized(self):
        with pytest.raises(ProtocolError):
            encode_frame({"fn": object()})
        with pytest.raises(ProtocolError):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_truncated_header_raises(self):
        with pytest.raises(ProtocolError, match="mid-header"):
            _read_all(b"\x00\x00")

    def test_truncated_payload_raises(self):
        frame = encode_frame({"op": "ping", "id": "r1", "v": 1})
        with pytest.raises(ProtocolError, match="mid-frame"):
            _read_all(frame[:-3])

    def test_zero_length_frame_raises(self):
        with pytest.raises(ProtocolError, match="zero-length"):
            _read_all(struct.pack(">I", 0))

    def test_oversized_length_prefix_raises_without_allocating(self):
        # A garbage prefix claiming 4 GiB must be refused from the header
        # alone — the 8 payload bytes present are never awaited.
        with pytest.raises(ProtocolError, match="exceeds"):
            _read_all(struct.pack(">I", 0xFFFFFFFF) + b"x" * 8)

    def test_custom_max_bytes_is_enforced(self):
        frame = encode_frame({"op": "ping", "id": "r1", "v": 1, "pad": "y" * 64})
        with pytest.raises(ProtocolError, match="exceeds"):
            _read_all(frame, max_bytes=32)

    def test_clean_eof_returns_none(self):
        assert _read_all(b"") == []

    @given(st.binary(min_size=0, max_size=200))
    def test_fuzz_arbitrary_bytes_never_hang_or_crash(self, blob):
        # Whatever the bytes, the reader either parses frames or raises
        # ProtocolError — no other exception type, no hang on fed-EOF data.
        try:
            frames = _read_all(blob, max_bytes=4096)
        except ProtocolError:
            return
        for frame in frames:
            assert isinstance(frame, dict)

    @given(
        st.dictionaries(
            st.text(max_size=8),
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.text(max_size=8),
                lambda children: st.lists(children, max_size=3),
                max_leaves=8,
            ),
            max_size=4,
        )
    )
    def test_fuzz_json_objects_round_trip(self, doc):
        assert _read_all(encode_frame(doc)) == [json.loads(json.dumps(doc))]


class TestRequestValidation:
    def _solve_request(self, **overrides):
        doc = make_request(
            "solve", "r1", problem={"dag": {}}, solver="auto", options={}, stream=False, wait=True
        )
        doc.update(overrides)
        return doc

    def test_accepts_every_request_op(self):
        assert validate_request(make_request("ping", "r1"))["op"] == "ping"
        assert validate_request(make_request("stats", "r2"))["op"] == "stats"
        assert validate_request(make_request("shutdown", "r3", drain=False))["op"] == "shutdown"
        assert validate_request(make_request("poll", "r4", job_id="job-1"))["op"] == "poll"
        assert validate_request(self._solve_request())["op"] == "solve"

    def test_rejects_wrong_protocol_version(self):
        with pytest.raises(ProtocolError, match="version"):
            validate_request({"v": PROTOCOL_VERSION + 1, "op": "ping", "id": "r1"})
        with pytest.raises(ProtocolError, match="version"):
            validate_request({"op": "ping", "id": "r1"})  # missing version

    def test_rejects_unknown_op_and_bad_id(self):
        with pytest.raises(ProtocolError, match="unknown request op"):
            validate_request({"v": PROTOCOL_VERSION, "op": "solve-all", "id": "r1"})
        for bad_id in ("", None, 7):
            with pytest.raises(ProtocolError, match="'id'"):
                validate_request({"v": PROTOCOL_VERSION, "op": "ping", "id": bad_id})

    def test_solve_requires_problem_and_scalar_options(self):
        with pytest.raises(ProtocolError, match="'problem'"):
            validate_request(self._solve_request(problem=None))
        with pytest.raises(ProtocolError, match="scalar"):
            validate_request(self._solve_request(options={"hook": [1, 2]}))
        with pytest.raises(ProtocolError, match="scalar"):
            validate_request(self._solve_request(options={"nested": {"a": 1}}))

    def test_solve_flag_and_priority_typing(self):
        with pytest.raises(ProtocolError, match="'stream'"):
            validate_request(self._solve_request(stream="yes"))
        with pytest.raises(ProtocolError, match="'priority'"):
            validate_request(self._solve_request(priority=True))
        with pytest.raises(ProtocolError, match="'priority'"):
            validate_request(self._solve_request(priority=1.5))
        with pytest.raises(ProtocolError, match="'deadline_s'"):
            validate_request(self._solve_request(deadline_s=-1))
        with pytest.raises(ProtocolError, match="'deadline_s'"):
            validate_request(self._solve_request(deadline_s=True))

    def test_stream_requires_wait(self):
        with pytest.raises(ProtocolError, match="'stream' requires 'wait'"):
            validate_request(self._solve_request(stream=True, wait=False))

    def test_cache_only_probe_shape(self):
        # the well-formed peer-fetch probe of the cluster router
        assert validate_request(self._solve_request(cache_only=True))["cache_only"] is True
        with pytest.raises(ProtocolError, match="'cache_only' must be a boolean"):
            validate_request(self._solve_request(cache_only="yes"))
        with pytest.raises(ProtocolError, match="cannot stream"):
            validate_request(self._solve_request(cache_only=True, stream=True))
        with pytest.raises(ProtocolError, match="requires 'wait'"):
            validate_request(self._solve_request(cache_only=True, wait=False))

    def test_client_id_must_be_a_nonempty_string_or_absent(self):
        assert validate_request(self._solve_request(client_id="tenant-a"))["client_id"] == "tenant-a"
        assert "client_id" not in validate_request(self._solve_request())
        for bad in ("", 7, ["x"]):
            with pytest.raises(ProtocolError, match="'client_id'"):
                validate_request(self._solve_request(client_id=bad))

    def test_poll_requires_job_id(self):
        with pytest.raises(ProtocolError, match="'job_id'"):
            validate_request(make_request("poll", "r1"))


#: Every variant bundle, plus the compute-cost fields.
_VARIANTS = (
    ONE_SHOT,
    RECOMPUTE,
    SLIDING,
    NO_DELETE,
    GameVariant(one_shot=False, compute_cost=0.5, split_compute_cost=True),
)

_NAMES = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@st.composite
def _wire_problems(draw):
    """A random problem, whether to drop its default labels, a solver and options."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    perm = draw(st.permutations(range(n)))
    edges = [(perm[u], perm[v]) for u, v in chosen]
    custom_labels = draw(st.booleans())
    labels = {v: draw(_NAMES) for v in range(n)} if custom_labels else None
    family = draw(
        st.none()
        | st.builds(
            lambda sizes, p, seed: DAGFamily.tag("layered", layer_sizes=sizes, p=p, seed=seed),
            st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
            st.floats(0, 1),
            st.integers(0, 99),
        )
        | st.builds(lambda k: DAGFamily.tag("tree", k=k, shape=("a", (k, "b"))), st.integers(2, 4))
    )
    dag = ComputationalDAG(n, edges, labels=labels, name=draw(_NAMES), family=family)
    game = draw(st.sampled_from(("rbp", "prbp")))
    variants = [v for v in _VARIANTS if game == "rbp" or not v.allow_sliding]
    problem = PebblingProblem(
        dag, r=draw(st.integers(1, 6)), game=game, variant=draw(st.sampled_from(variants))
    )
    solver = draw(st.sampled_from(("auto", "greedy", "exhaustive")))
    options = draw(
        st.dictionaries(
            st.sampled_from(("seed", "refine_steps", "budget", "time_budget_s", "on_progress")),
            st.none() | st.integers(0, 99) | st.floats(0, 5),
            max_size=3,
        )
    )
    return problem, not custom_labels and draw(st.booleans()), solver, options


class TestProblemRoundTrip:
    def test_round_trips_every_problem_shape(self):
        for problem in _problems():
            doc = json.loads(json.dumps(problem_to_wire(problem)))
            rebuilt = problem_from_wire(doc)
            assert rebuilt == problem
            assert rebuilt.dag.edges == problem.dag.edges
            assert rebuilt.variant == problem.variant
            assert [rebuilt.dag.label(v) for v in range(rebuilt.n)] == [
                problem.dag.label(v) for v in range(problem.n)
            ]

    def test_family_tuples_survive_json(self):
        # layer_sizes is a tuple; plain JSON would hand back a list and the
        # rebuilt DAG's family (hence its digest inputs) would drift.
        problem = PebblingProblem(random_layered_dag((3, 4, 3), 0.4, 3, 7), r=4, game="prbp")
        doc = json.loads(json.dumps(problem_to_wire(problem)))
        rebuilt = problem_from_wire(doc)
        assert rebuilt.dag.family == problem.dag.family
        assert rebuilt.dag.family.params == problem.dag.family.params

    def test_digest_mismatch_is_refused(self):
        doc = problem_to_wire(_problems()[0])
        doc["dag_digest"] = "0" * 64
        for decode in (problem_from_wire, _wire_digest):
            with pytest.raises(ProtocolError, match="digest mismatch"):
                decode(doc)

    def test_tampered_edges_are_refused_by_the_digest(self):
        doc = problem_to_wire(PebblingProblem(kary_tree_dag(2, 3), r=3, game="prbp"))
        doc["dag"]["edges"] = doc["dag"]["edges"][:-1]
        for decode in (problem_from_wire, _wire_digest):
            with pytest.raises(ProtocolError, match="digest mismatch"):
                decode(doc)
        # the digest-first path also catches content changes the DAG keeps valid
        doc = problem_to_wire(PebblingProblem(kary_tree_dag(2, 3), r=3, game="prbp"))
        doc["dag"]["labels"][0] = "forged"
        with pytest.raises(ProtocolError, match="digest mismatch"):
            _wire_digest(doc)

    def test_malformed_problem_documents_are_refused(self):
        good = problem_to_wire(_problems()[0])
        for mutate in (
            lambda d: d.pop("dag"),
            lambda d: d.__setitem__("r", 0),
            lambda d: d.__setitem__("r", "four"),
            lambda d: d.__setitem__("game", "chess"),
            lambda d: d.__setitem__("variant", "one-shot"),
            lambda d: d["dag"].__setitem__("n", -1),
            lambda d: d["dag"].__setitem__("edges", [[0, 1, 2]]),
            lambda d: d["dag"].__setitem__("labels", ["only-one"]),
            lambda d: d["dag"].__setitem__("family", {"params": []}),
            # the variant decoder validates types, it does not coerce them
            lambda d: d["variant"].__setitem__("one_shot", "no"),
            lambda d: d["variant"].__setitem__("allow_sliding", 0),
            lambda d: d["variant"].__setitem__("allow_delete", None),
            lambda d: d["variant"].__setitem__("split_compute_cost", "false"),
            lambda d: d["variant"].__setitem__("compute_cost", True),
            lambda d: d["variant"].__setitem__("compute_cost", "1.0"),
            lambda d: d["variant"].__setitem__("compute_cost", [1]),
        ):
            doc = json.loads(json.dumps(good))
            mutate(doc)
            with pytest.raises(ProtocolError):
                problem_from_wire(doc)
            # the digest-first path refuses the same documents
            with pytest.raises(ProtocolError):
                _wire_digest(doc)

    def test_cyclic_edge_list_is_a_protocol_error(self):
        doc = problem_to_wire(PebblingProblem(figure1_gadget(), r=4, game="prbp"))
        doc["dag"]["edges"] = [[0, 1], [1, 0]]
        with pytest.raises(ProtocolError, match="valid DAG"):
            problem_from_wire(doc)

    @given(_wire_problems())
    def test_wire_digest_is_the_digest_of_the_rebuilt_problem(self, case):
        problem, drop_labels, solver, options = case
        doc = json.loads(json.dumps(problem_to_wire(problem)))
        if drop_labels:
            del doc["dag"]["labels"]
        digest = _wire_digest(doc, solver=solver, options=options)
        rebuilt = problem_from_wire(doc)
        assert digest == problem_digest(rebuilt, solver=solver, options=options)
        assert digest == problem_digest(problem, solver=solver, options=options)
        # the rebuild seeds the DAG's digest memo; the seed is the DAG's own digest
        dag = rebuilt.dag
        labels = tuple(dag.label(v) for v in range(dag.n))
        assert dag_digest(dag) == content_digest(dag.n, dag.edges, labels, dag.name)

    @given(st.binary(max_size=64))
    def test_fuzz_problem_from_wire_raises_protocol_error_only(self, blob):
        doc = {"dag": {"n": 1, "edges": [], "labels": None}, "raw": blob.hex()}
        with pytest.raises(ProtocolError):
            problem_from_wire(doc)


class TestResultRoundTrip:
    def _round_trip(self, problem, **options):
        local = solve(problem, **options)
        doc = json.loads(json.dumps(result_to_wire(local)))
        return local, result_from_wire(problem, doc)

    def test_result_round_trips_bit_identical(self):
        for problem in _problems():
            local, remote = self._round_trip(problem)
            assert remote.cost == local.cost
            assert remote.schedule.moves == local.schedule.moves
            assert remote.solver == local.solver
            assert remote.exact_solver == local.exact_solver
            assert remote.lower_bound == local.lower_bound
            assert remote.lower_bound_source == local.lower_bound_source
            assert remote.stats == local.stats

    def test_refinement_trajectory_survives_the_wire(self):
        problem = PebblingProblem(chained_gadget_dag(8), r=4, game="rbp")
        local, remote = self._round_trip(problem, refine_steps=64, seed=0)
        assert local.solve_stats is not None and local.solve_stats.refinement is not None
        assert remote.solve_stats is not None
        assert remote.solve_stats.refinement == local.solve_stats.refinement
        assert remote.solve_stats.wall_time_s == local.solve_stats.wall_time_s

    @pytest.mark.parametrize(
        "problem,options,digest",
        [
            (
                PebblingProblem(fft_dag(16), r=4, game="prbp"),
                {},
                "6efdf65536c4006f8bd9b368be2b2681ff0795958a2e949f9e86dcfec7f73016",
            ),
            (
                PebblingProblem(figure1_gadget(), r=4, game="rbp"),
                {"solver": "exhaustive"},
                "c3c2ce2747f1ca5058e1d96b9aff5c6a0c781e8f3768a3304b6621e553397905",
            ),
            (
                PebblingProblem(kary_tree_dag(2, 3), r=3, game="rbp"),
                {"solver": "anytime", "seed": 3},
                "97871c97a5dda3e838d2b7c86b109189f75cd2784e12459a1bb76700a8b2f741",
            ),
        ],
        ids=["auto", "exhaustive", "anytime"],
    )
    def test_result_frame_bytes_are_pinned(self, problem, options, digest):
        # Wall-clock fields are the only nondeterministic part of a result;
        # pin them, and the frame must match the recorded bytes exactly.
        result = solve(problem, **options)
        stats = result.solve_stats
        refinement = stats.refinement
        if refinement is not None:
            refinement = replace(refinement, time_to_best_s=0.25, wall_time_s=0.5)
        stats = replace(
            stats,
            wall_time_s=1.5,
            refinement=refinement,
            attempts=tuple(replace(a, wall_time_s=0.125) for a in stats.attempts),
        )
        frame = encode_frame(result_to_wire(replace(result, solve_stats=stats)))
        assert hashlib.sha256(frame).hexdigest() == digest

    def test_claimed_cost_must_match_the_replay(self):
        problem = _problems()[0]
        doc = result_to_wire(solve(problem))
        doc["io_cost"] = doc["io_cost"] + 1
        with pytest.raises(ProtocolError, match="replays to"):
            result_from_wire(problem, doc)

    def test_illegal_schedules_are_refused(self):
        problem = PebblingProblem(kary_tree_dag(2, 3), r=3, game="prbp")
        doc = result_to_wire(solve(problem))
        # drop the first move: still representable columns, no longer legal
        op, node, arg = unpack_arrays(doc["schedule"])
        truncated = ir_from_arrays(
            problem.game, problem.dag, problem.r, problem.variant, op[1:], node[1:], arg[1:]
        )
        doc["schedule"] = {**pack_arrays(truncated), "description": ""}
        with pytest.raises(ProtocolError):
            result_from_wire(problem, doc)

    def test_columns_from_the_wrong_game_are_refused(self):
        rbp = PebblingProblem(figure1_gadget(), r=4, game="rbp")
        prbp = PebblingProblem(figure1_gadget(), r=4, game="prbp")
        with pytest.raises(ProtocolError):
            result_from_wire(rbp, result_to_wire(solve(prbp)))

    def test_tampered_columns_are_refused(self):
        problem = _problems()[0]
        good = result_to_wire(solve(problem))
        for mutate in (
            lambda d: d["schedule"].__setitem__("ops", "not base64!"),
            lambda d: d["schedule"].__setitem__("nodes", base64.b64encode(b"\x07").decode()),
            lambda d: d["schedule"].__setitem__("count", -1),
            lambda d: d["schedule"].pop("args"),
            lambda d: d.__setitem__("schedule", None),
            # an out-of-range op code, packed exactly like a real column
            lambda d: d["schedule"].__setitem__(
                "ops",
                base64.b64encode(
                    np.full(d["schedule"]["count"], 7, dtype="<i4").tobytes()
                ).decode(),
            ),
        ):
            doc = json.loads(json.dumps(good))
            mutate(doc)
            with pytest.raises(ProtocolError):
                result_from_wire(problem, doc)


class TestVariantCodec:
    def test_all_variant_combinations_round_trip(self):
        for one_shot in (True, False):
            for sliding in (True, False):
                variant = GameVariant(
                    one_shot=one_shot,
                    allow_sliding=sliding,
                    allow_delete=True,
                    compute_cost=0.5 if sliding else 0.0,
                )
                problem = PebblingProblem(figure1_gadget(), r=4, game="rbp", variant=variant)
                doc = json.loads(json.dumps(problem_to_wire(problem)))
                assert problem_from_wire(doc).variant == variant

    def test_locally_valid_variants_are_coerced_on_the_way_out(self):
        # GameVariant accepts ints for its flags and cost; the sender
        # coerces them, so the strict decoder never refuses a valid variant
        variant = GameVariant(one_shot=1, compute_cost=1)  # type: ignore[arg-type]
        problem = PebblingProblem(figure1_gadget(), r=4, game="rbp", variant=variant)
        doc = json.loads(json.dumps(problem_to_wire(problem)))
        assert doc["variant"]["one_shot"] is True
        assert isinstance(doc["variant"]["compute_cost"], float)
        assert problem_from_wire(doc).variant == variant

    def test_unknown_variant_fields_are_refused(self):
        doc = problem_to_wire(_problems()[0])
        doc["variant"]["time_travel"] = True
        with pytest.raises(ProtocolError, match="unknown variant fields"):
            problem_from_wire(doc)


class TestObservabilityWire:
    """v4 observability additions: trace propagation, metrics op, attempts."""

    def _solve_request(self, **overrides):
        doc = make_request(
            "solve", "r1", problem={"dag": {}}, solver="auto", options={}, stream=False, wait=True
        )
        doc.update(overrides)
        return doc

    def test_v3_stamped_requests_are_refused(self):
        # every node speaks v4; a v3 frame is refused, not read leniently
        with pytest.raises(ProtocolError, match="version"):
            validate_request({"v": 3, "op": "ping", "id": "r1"})
        doc = self._solve_request()
        doc["v"] = 3
        with pytest.raises(ProtocolError, match="version"):
            validate_request(doc)

    def test_metrics_op_is_a_valid_request(self):
        assert validate_request(make_request("metrics", "r1"))["op"] == "metrics"

    def test_trace_context_shape_is_enforced(self):
        good = {"trace_id": "a" * 32, "span_id": "b" * 16}
        assert validate_request(self._solve_request(trace=good))["trace"] == good
        with pytest.raises(ProtocolError, match="'trace'"):
            validate_request(self._solve_request(trace="not-an-object"))
        for bad in (
            {"trace_id": "", "span_id": "b"},  # empty
            {"trace_id": "a" * 65, "span_id": "b"},  # oversized
            {"trace_id": 7, "span_id": "b"},  # non-string
            {"trace_id": "a"},  # span_id missing
        ):
            with pytest.raises(ProtocolError, match="trace"):
                validate_request(self._solve_request(trace=bad))

    def test_auto_portfolio_attempts_survive_the_wire(self):
        problem = PebblingProblem(figure1_gadget(), r=4, game="prbp")
        result = solve(problem, solver="auto")
        attempts = result.solve_stats.attempts
        assert attempts, "auto solve should record portfolio attempts"
        doc = json.loads(json.dumps(result_to_wire(result)))
        decoded = result_from_wire(problem, doc)
        assert decoded.solve_stats.attempts == attempts
        assert any(a.outcome == "won" for a in decoded.solve_stats.attempts)

    def test_missing_or_malformed_attempts_are_refused(self):
        problem = PebblingProblem(figure1_gadget(), r=4, game="prbp")
        doc = json.loads(json.dumps(result_to_wire(solve(problem, solver="greedy"))))
        doc["solve_stats"].pop("attempts", None)
        with pytest.raises(ProtocolError, match="attempts"):
            result_from_wire(problem, doc)
        doc["solve_stats"]["attempts"] = [{"solver": "greedy"}]  # fields missing
        with pytest.raises(ProtocolError, match="attempt"):
            result_from_wire(problem, doc)
