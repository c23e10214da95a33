"""Batch-solving consistency: solve_many ≡ serial solve(), cache included.

The contract under test is the one :mod:`repro.api.batch` documents: for any
batch, any job count and any cache state, ``solve_many`` returns results
identical to a serial ``solve()`` loop — same costs, same winning solvers,
same move lists.  Corruption of on-disk cache entries must be detected and
answered with recomputation, never with a damaged result.
"""

import pickle
from dataclasses import replace

import pytest

from repro.api import (
    PebblingProblem,
    ResultCache,
    SolveResult,
    cacheable_options,
    get_solver,
    problem_digest,
    solve,
    solve_many,
    solve_many_detailed,
)
from repro.core.exceptions import SolverError
from repro.core.schedule_ir import from_schedule
from repro.dags import figure1_gadget, kary_tree_dag
from repro.dags.random_dags import random_dag, random_layered_dag


def _mixed_batch():
    """Exhaustive, structured and greedy territory in one batch."""
    return [
        PebblingProblem(figure1_gadget(), r=4, game="prbp"),
        PebblingProblem(figure1_gadget(), r=4, game="rbp"),
        PebblingProblem(kary_tree_dag(2, 3), r=3, game="prbp"),
        PebblingProblem(kary_tree_dag(2, 3), r=3, game="rbp"),
        PebblingProblem(random_layered_dag((4, 6, 4), 0.3, 3, 0), r=5, game="prbp"),
        PebblingProblem(random_dag(6, edge_probability=0.3, seed=11), r=3, game="prbp"),
    ]


def _assert_identical(batch_results, serial_results):
    assert len(batch_results) == len(serial_results)
    for got, want in zip(batch_results, serial_results):
        assert isinstance(got, SolveResult)
        assert got.cost == want.cost
        assert got.solver == want.solver
        assert got.exact_solver == want.exact_solver
        assert got.lower_bound == want.lower_bound
        assert got.lower_bound_source == want.lower_bound_source
        assert got.stats == want.stats
        assert got.schedule.moves == want.schedule.moves
        assert got.problem == want.problem


class TestSerialEquivalence:
    def test_batch_matches_serial_loop(self):
        problems = _mixed_batch()
        _assert_identical(solve_many(problems), [solve(p) for p in problems])

    def test_parallel_matches_serial_loop(self):
        problems = _mixed_batch()
        _assert_identical(solve_many(problems, jobs=4), [solve(p) for p in problems])

    def test_cached_second_pass_matches_serial_loop(self, tmp_path):
        problems = _mixed_batch()
        serial = [solve(p) for p in problems]
        cache = ResultCache(directory=tmp_path)
        _assert_identical(solve_many(problems, cache=cache), serial)
        assert cache.stats.stores == len(problems)
        # a fresh cache object reads everything back from disk
        cache2 = ResultCache(directory=tmp_path)
        _assert_identical(solve_many(problems, cache=cache2), serial)
        assert cache2.stats.hits == len(problems)
        assert cache2.stats.misses == 0

    def test_parallel_cached_combination(self, tmp_path):
        problems = _mixed_batch()
        serial = [solve(p) for p in problems]
        cache = ResultCache(directory=tmp_path)
        _assert_identical(solve_many(problems, jobs=3, cache=cache), serial)
        _assert_identical(solve_many(problems, jobs=3, cache=cache), serial)
        assert cache.stats.hits == len(problems)

    def test_duplicates_are_solved_once_per_digest(self, tmp_path):
        problem = PebblingProblem(figure1_gadget(), r=4, game="prbp")
        cache = ResultCache(directory=tmp_path)
        results, info = solve_many_detailed([problem, problem, problem], cache=cache)
        assert cache.stats.stores == 1
        assert [r.cost for r in results] == [2, 2, 2]
        assert info.digests[0] == info.digests[1] == info.digests[2]

    def test_duplicates_dedupe_without_a_cache(self):
        problem = PebblingProblem(figure1_gadget(), r=4, game="prbp")
        results, info = solve_many_detailed([problem, problem])
        assert [r.cost for r in results] == [2, 2]
        assert results[0] is results[1]  # one solve, shared outcome
        assert info.digests[0] == info.digests[1] is not None

    def test_parallel_anytime_matches_serial_loop_with_trajectories(self):
        # the anytime pass runs inside the workers; with a fixed seed the
        # refined schedules AND their trajectory stats must be identical to
        # a serial solve() loop (wall-clock fields excepted, of course)
        problems = [
            PebblingProblem(
                random_layered_dag((6, 8, 8, 6, 4), 0.3, 4, s), r=6, game="prbp"
            )
            for s in (0, 1)
        ] + [
            PebblingProblem(
                random_layered_dag((6, 8, 8, 6, 4), 0.3, 4, 3), r=6, game="rbp"
            )
        ]
        serial = [solve(p, seed=5, refine_steps=64) for p in problems]
        batch = solve_many(problems, jobs=2, seed=5, refine_steps=64)
        _assert_identical(batch, serial)
        for got, want in zip(batch, serial):
            t_got = got.solve_stats.refinement
            t_want = want.solve_stats.refinement
            assert t_got is not None and t_want is not None
            assert (
                t_got.initial_cost,
                t_got.refined_cost,
                t_got.steps,
                t_got.accepted,
                t_got.seed,
                t_got.seed_solver,
            ) == (
                t_want.initial_cost,
                t_want.refined_cost,
                t_want.steps,
                t_want.accepted,
                t_want.seed,
                t_want.seed_solver,
            )
            assert t_got.refined_cost == got.cost <= t_got.initial_cost

    def test_anytime_solver_parallel_matches_serial(self):
        problems = [
            PebblingProblem(
                random_layered_dag((6, 8, 8, 6, 4), 0.35, 4, s), r=6, game="prbp"
            )
            for s in (7, 8)
        ]
        serial = [solve(p, solver="anytime", seed=2, refine_steps=48) for p in problems]
        batch = solve_many(problems, solver="anytime", jobs=2, seed=2, refine_steps=48)
        _assert_identical(batch, serial)

    def test_per_problem_solvers(self):
        problems = [
            PebblingProblem(figure1_gadget(), r=4, game="prbp"),
            PebblingProblem(kary_tree_dag(2, 3), r=3, game="prbp"),
        ]
        results = solve_many(problems, solver=["exhaustive", "tree"])
        assert [r.solver for r in results] == ["exhaustive", "tree"]

    def test_solver_count_mismatch_is_rejected(self):
        with pytest.raises(ValueError):
            solve_many([PebblingProblem(figure1_gadget(), r=4)], solver=["auto", "auto"])


class TestErrorPolicy:
    def _with_infeasible(self):
        return [
            PebblingProblem(figure1_gadget(), r=4, game="prbp"),
            # RBP needs r >= max in-degree + 1; r=2 is infeasible on figure 1
            PebblingProblem(figure1_gadget(), r=2, game="rbp"),
        ]

    def test_default_raises_first_solver_error(self):
        with pytest.raises(SolverError):
            solve_many(self._with_infeasible())

    def test_return_exceptions_keeps_positions(self):
        results = solve_many(self._with_infeasible(), return_exceptions=True)
        assert isinstance(results[0], SolveResult) and results[0].cost == 2
        assert isinstance(results[1], SolverError)

    def test_return_exceptions_parallel(self):
        results = solve_many(self._with_infeasible(), jobs=2, return_exceptions=True)
        assert isinstance(results[0], SolveResult) and results[0].cost == 2
        assert isinstance(results[1], SolverError)

    def test_solver_errors_are_never_cached(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        solve_many(self._with_infeasible(), cache=cache, return_exceptions=True)
        assert cache.stats.stores == 1  # only the solvable problem


class TestCacheIntegrity:
    def _prime(self, tmp_path):
        problem = PebblingProblem(figure1_gadget(), r=4, game="prbp")
        cache = ResultCache(directory=tmp_path)
        [result] = solve_many([problem], cache=cache)
        digest = problem_digest(problem)
        path = cache._path(digest)
        assert path.exists()
        return problem, digest, path, result

    def test_bit_flip_is_detected_and_recomputed(self, tmp_path):
        problem, digest, path, want = self._prime(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        cache = ResultCache(directory=tmp_path)
        [got] = solve_many([problem], cache=cache)
        assert cache.stats.corrupt == 1
        assert not path.exists() or cache.stats.stores == 1  # entry was replaced
        assert got.cost == want.cost and got.schedule.moves == want.schedule.moves

    def test_truncation_is_detected_and_recomputed(self, tmp_path):
        problem, digest, path, want = self._prime(tmp_path)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 3])
        cache = ResultCache(directory=tmp_path)
        [got] = solve_many([problem], cache=cache)
        assert cache.stats.corrupt == 1
        assert got.cost == want.cost

    def test_forged_entry_for_wrong_problem_is_rejected(self, tmp_path):
        problem, digest, path, _ = self._prime(tmp_path)
        # A checksum-valid entry whose payload answers a different problem:
        other = solve(PebblingProblem(kary_tree_dag(2, 2), r=3, game="prbp"))
        payload = pickle.dumps(
            {"digest": digest, "result": other}, protocol=pickle.HIGHEST_PROTOCOL
        )
        import hashlib

        path.write_bytes(hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload)
        cache = ResultCache(directory=tmp_path)
        [got] = solve_many([problem], cache=cache)
        assert cache.stats.corrupt == 1
        assert got.problem == problem and got.cost == 2

    def test_old_format_entry_is_recomputed_not_misread(self, tmp_path):
        # A pre-v3 entry (the whole SolveResult pickled under "result") with
        # a *valid* checksum, planted at the v3 path for the right problem:
        # the read path must recognise the foreign layout and recompute,
        # never try to interpret the old pickle as a current entry.
        import hashlib

        problem, digest, path, want = self._prime(tmp_path)
        payload = pickle.dumps(
            {"digest": digest, "result": want}, protocol=pickle.HIGHEST_PROTOCOL
        )
        path.write_bytes(hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload)
        cache = ResultCache(directory=tmp_path)
        [got] = solve_many([problem], cache=cache)
        assert cache.stats.corrupt == 1
        assert cache.stats.stores == 1  # recomputed and re-stored in v3 form
        assert got.cost == want.cost and got.schedule.moves == want.schedule.moves

    def test_tampered_columns_are_rejected(self, tmp_path):
        # Checksum-valid entry whose packed node column was edited: the IR
        # digest (and the kernel replay behind it) must catch the edit, the
        # same way a tampered JSONL record is rejected by the corpus layer.
        import hashlib

        from repro.core.schedule_ir import ir_from_arrays, pack_arrays, unpack_arrays

        problem, digest, path, want = self._prime(tmp_path)
        _, payload = path.read_bytes().split(b"\n", 1)
        doc = pickle.loads(payload)
        op, node, arg = unpack_arrays(doc["arrays"])
        node = node.copy()
        node[0] = (int(node[0]) + 1) % problem.dag.n  # different, still-valid node id
        doc["arrays"] = pack_arrays(
            ir_from_arrays(
                problem.game,
                problem.dag,
                problem.r,
                problem.variant,
                op,
                node,
                arg,
                description=str(doc["description"]),
            )
        )
        payload = pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL)
        path.write_bytes(hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload)
        cache = ResultCache(directory=tmp_path)
        [got] = solve_many([problem], cache=cache)
        assert cache.stats.corrupt == 1
        assert got.cost == want.cost and got.schedule.moves == want.schedule.moves

    def test_memory_only_cache(self):
        problems = _mixed_batch()[:2]
        cache = ResultCache(directory=None)
        first = solve_many(problems, cache=cache)
        second = solve_many(problems, cache=cache)
        assert cache.stats.hits == len(problems)
        _assert_identical(second, first)

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_a_cache_hit_cannot_be_edited_by_its_caller(self, jobs):
        # every memory hit hands out the same result object: its schedule
        # columns must be read-only, or one caller could corrupt the next;
        # with jobs=2 the cached results were unpickled from worker processes
        problems = _mixed_batch()[2:4]
        cache = ResultCache(directory=None)
        solve_many(problems, jobs=jobs, cache=cache)
        hits = solve_many(problems, cache=cache)
        assert cache.stats.hits == len(problems)
        for hit in hits:
            with pytest.raises(ValueError):
                hit.ir.op[0] = 0
        _assert_identical(solve_many(problems, cache=cache), [solve(p) for p in problems])

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_a_lookup_before_the_rebuild_counts_like_one_get(self, tmp_path, on_disk):
        # get(None, digest) reads the memory tier only; with a disk tier the
        # miss is counted by the follow-up get(problem, digest) alone
        problem = PebblingProblem(figure1_gadget(), r=4, game="prbp")
        digest = problem_digest(problem)
        cache = ResultCache(directory=tmp_path if on_disk else None)
        assert cache.get(None, digest) is None
        if on_disk:
            assert cache.stats.misses == 0
            assert cache.get(problem, digest) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        stored = solve(problem)
        cache.put(digest, stored)
        assert cache.get(None, digest) is stored
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        if on_disk:
            cache._memory.clear()  # only the disk tier holds it now
            assert cache.get(None, digest) is None
            assert cache.get(problem, digest) == stored  # decoded, equal by value
            assert (cache.stats.hits, cache.stats.misses) == (2, 1)

    def test_clear_empties_the_store(self, tmp_path):
        problem, digest, path, _ = self._prime(tmp_path)
        cache = ResultCache(directory=tmp_path)
        cache.clear()
        assert not path.exists()
        assert cache.get(problem, digest) is None


class TestResultPickling:
    def test_the_move_object_view_is_not_pickled(self):
        # what a process-pool worker ships back: a result whose schedule
        # view was touched must travel as columns only
        problem = PebblingProblem(figure1_gadget(), r=4, game="rbp")
        result = solve(problem, solver="exhaustive")
        moves = result.schedule.moves
        assert "schedule" in vars(result)
        clone = pickle.loads(pickle.dumps(result))
        assert "schedule" not in vars(clone)
        assert pickle.dumps(result) == pickle.dumps(clone)
        built = get_solver("exhaustive").fn(problem).schedule
        assert clone.schedule.moves == moves == built.moves
        assert built.stats() == clone.stats  # the engine replays the same cost
        assert clone == result  # results compare by value, schedule included
        assert replace(result, ir=from_schedule(built)) == result
        assert replace(clone, ir=replace(clone.ir, description="other")) != result


class TestDigest:
    def test_digest_is_stable_across_rebuilds(self):
        a = PebblingProblem(figure1_gadget(), r=4, game="prbp")
        b = PebblingProblem(figure1_gadget(), r=4, game="prbp")
        assert problem_digest(a) == problem_digest(b)

    def test_digest_separates_every_solve_ingredient(self):
        base = PebblingProblem(figure1_gadget(), r=4, game="prbp")
        variants = [
            problem_digest(base.with_r(5)),
            problem_digest(base.with_game("rbp")),
            problem_digest(base, solver="greedy"),
            problem_digest(base, options={"budget": 10}),
            problem_digest(base, options={"seed": 1}),
            problem_digest(base, options={"seed": 2}),
            problem_digest(base, options={"refine_steps": 32}),
            problem_digest(PebblingProblem(kary_tree_dag(2, 2), r=4, game="prbp")),
        ]
        digests = [problem_digest(base)] + variants
        assert len(set(digests)) == len(digests)

    def test_wall_clock_budget_never_enters_the_digest(self):
        # a wall-clock budget does not deterministically identify a result,
        # so two different budgets (or none) must share a digest — and the
        # batch layer must therefore refuse to cache such solves at all
        base = PebblingProblem(figure1_gadget(), r=4, game="prbp")
        assert (
            problem_digest(base)
            == problem_digest(base, options={"time_budget_s": 0.5})
            == problem_digest(base, options={"time_budget_s": 2.0})
            == problem_digest(base, options={"time_budget_s": None})
        )

    def test_cacheable_options_flags_wall_clock_budgets(self):
        assert cacheable_options(None)
        assert cacheable_options({})
        assert cacheable_options({"seed": 3, "refine_steps": 64, "budget": 100})
        assert cacheable_options({"time_budget_s": None})
        assert not cacheable_options({"time_budget_s": 0.5})


class TestWallClockBudgetCachePolicy:
    """Wall-clock budgets share digests by design; the cache must sit out.

    The corruption-style scenario: a cache primed by a budget-free run holds
    an entry under the exact digest a time-budgeted run would compute.
    Serving it would answer "solve within 0.01s" with a result produced
    under no budget at all — a false hit on cost-bearing fields — so the
    batch layer must bypass the cache in both directions.
    """

    def _problem(self):
        return PebblingProblem(
            random_layered_dag((6, 8, 8, 6, 4), 0.3, 4, 0), r=6, game="prbp"
        )

    def test_primed_entry_is_not_served_to_a_time_budgeted_solve(self, tmp_path):
        problem = self._problem()
        cache = ResultCache(directory=tmp_path)
        [primed] = solve_many([problem], cache=cache, seed=0)
        assert cache.stats.stores == 1
        cache2 = ResultCache(directory=tmp_path)
        [fresh] = solve_many(
            [problem], cache=cache2, seed=0, refine_steps=32, time_budget_s=5.0
        )
        assert cache2.stats.hits == 0  # the lookup was skipped, not missed
        assert isinstance(fresh, SolveResult)
        assert fresh.cost <= primed.solve_stats.refinement.initial_cost

    def test_time_budgeted_results_are_never_stored(self, tmp_path):
        problem = self._problem()
        cache = ResultCache(directory=tmp_path)
        solve_many([problem], cache=cache, seed=0, refine_steps=32, time_budget_s=5.0)
        assert cache.stats.stores == 0
        # and a later budget-free run computes fresh instead of hitting
        solve_many([problem], cache=cache, seed=0)
        assert cache.stats.hits == 0
        assert cache.stats.stores == 1

    def test_time_budgeted_duplicates_are_not_deduped(self):
        problem = self._problem()
        results, info = solve_many_detailed(
            [problem, problem], seed=0, refine_steps=32, time_budget_s=5.0
        )
        assert info.digests[0] == info.digests[1]
        # same digest, but each position was solved independently
        assert results[0] is not results[1]
        assert results[0].cost == results[1].cost  # step-bounded, so deterministic

    def test_per_problem_wall_clock_budget_only_exempts_that_problem(self, tmp_path):
        problems = [self._problem(), self._problem().with_r(7)]
        cache = ResultCache(directory=tmp_path)
        solve_many(
            problems,
            cache=cache,
            seed=0,
            per_problem_options=[{"refine_steps": 32, "time_budget_s": 5.0}, {}],
        )
        assert cache.stats.stores == 1  # only the budget-free problem


class TestTimeout:
    def test_parallel_timeout_becomes_solver_error(self):
        # PRBP searches on dense 11-node DAGs take far longer than 10 ms;
        # the workers are terminated after collection, so nothing lingers.
        # Two distinct seeds — identical problems would dedup to one task.
        hard = [
            PebblingProblem(random_dag(11, edge_probability=0.5, seed=s), r=3, game="prbp")
            for s in (3, 4)
        ]
        results = solve_many(
            hard,
            solver="exhaustive",
            budget=2_000_000,
            jobs=2,
            timeout_s=0.01,
            return_exceptions=True,
        )
        assert all(isinstance(r, SolverError) for r in results)
        assert any("timed out" in str(r) for r in results)

    def test_single_miss_with_timeout_still_uses_a_worker(self):
        # Even one pending problem must honour timeout_s (a serial solve
        # cannot be pre-empted), so the pool is used despite the dedup.
        hard = PebblingProblem(
            random_dag(11, edge_probability=0.5, seed=3), r=3, game="prbp"
        )
        results = solve_many(
            [hard, hard],  # dedups to a single unique miss
            solver="exhaustive",
            budget=2_000_000,
            jobs=2,
            timeout_s=0.01,
            return_exceptions=True,
        )
        assert all(isinstance(r, SolverError) for r in results)
        assert all("timed out" in str(r) for r in results)


class TestDiskSizeCap:
    """max_disk_bytes: oldest-first pruning keeps the disk tier bounded."""

    def _fill(self, tmp_path, max_disk_bytes=None, count=4):
        """Store ``count`` distinct results with strictly increasing mtimes.

        Returns the cache plus the (problem, digest) pairs in write order.
        Explicit mtimes make "oldest-first" deterministic even when every
        put lands within the same filesystem timestamp granule.
        """
        import os

        problems = [
            PebblingProblem(kary_tree_dag(2, 2), r=3, game="prbp"),
            PebblingProblem(kary_tree_dag(2, 3), r=3, game="prbp"),
            PebblingProblem(figure1_gadget(), r=4, game="prbp"),
            PebblingProblem(figure1_gadget(), r=4, game="rbp"),
        ][:count]
        cache = ResultCache(directory=tmp_path, max_disk_bytes=max_disk_bytes)
        stored = []
        for i, problem in enumerate(problems):
            digest = problem_digest(problem)
            cache.put(digest, solve(problem))
            path = cache._path(digest)
            if path.exists():
                os.utime(path, (1_000_000 + i, 1_000_000 + i))
            stored.append((problem, digest))
        return cache, stored

    def test_no_cap_keeps_every_entry(self, tmp_path):
        cache, stored = self._fill(tmp_path)
        assert all(cache._path(digest).exists() for _, digest in stored)
        assert cache.stats.evicted == 0
        assert cache.disk_bytes() == sum(
            cache._path(digest).stat().st_size for _, digest in stored
        )

    def test_generous_cap_prunes_nothing(self, tmp_path):
        cache, stored = self._fill(tmp_path, max_disk_bytes=10_000_000)
        assert all(cache._path(digest).exists() for _, digest in stored)
        assert cache.stats.evicted == 0

    def test_oldest_entries_are_pruned_first(self, tmp_path):
        probe = ResultCache(directory=tmp_path)
        entry_size = None
        # size one entry to set a cap that holds exactly two of them
        problem = PebblingProblem(kary_tree_dag(2, 2), r=3, game="prbp")
        probe.put(problem_digest(problem), solve(problem))
        entry_size = probe.disk_bytes()
        probe.clear()

        cache, stored = self._fill(tmp_path, max_disk_bytes=int(entry_size * 2.5))
        assert cache.disk_bytes() <= int(entry_size * 2.5)
        assert cache.stats.evicted >= 1
        # the newest write always survives its own put()
        assert cache._path(stored[-1][1]).exists()
        # survivors are a suffix of the write order: every pruned entry is
        # strictly older than every kept one
        alive = [cache._path(d).exists() for _, d in stored]
        assert alive == sorted(alive)  # False... then True...

    def test_pruned_entries_miss_but_survivors_serve(self, tmp_path):
        cache, stored = self._fill(tmp_path, max_disk_bytes=1)
        # a fresh instance has no memory tier; pruned disk entries are misses
        fresh = ResultCache(directory=tmp_path)
        for problem, digest in stored:
            if cache._path(digest).exists():
                assert fresh.get(problem, digest) is not None
            else:
                assert fresh.get(problem, digest) is None

    def test_cap_below_one_entry_degrades_to_memory_only(self, tmp_path):
        problem = PebblingProblem(kary_tree_dag(2, 2), r=3, game="prbp")
        digest = problem_digest(problem)
        cache = ResultCache(directory=tmp_path, max_disk_bytes=1)
        result = solve(problem)
        cache.put(digest, result)
        assert cache.disk_bytes() == 0  # the write itself was pruned
        assert cache.stats.evicted == 1
        # ... but the memory tier still answers within this process
        assert cache.get(problem, digest) is not None

    def test_foreign_files_are_never_pruned(self, tmp_path):
        foreign = tmp_path / "README.txt"
        foreign.write_text("not a cache entry")
        nested = tmp_path / "ab" / "notes.log"
        nested.parent.mkdir(parents=True, exist_ok=True)
        nested.write_text("x" * 10_000)
        cache, _ = self._fill(tmp_path, max_disk_bytes=1)
        assert foreign.exists() and nested.exists()
        assert cache.stats.evicted >= 1

    def test_solve_many_respects_the_cap(self, tmp_path):
        problems = _mixed_batch()
        cache = ResultCache(directory=tmp_path, max_disk_bytes=1)
        first = solve_many(problems, cache=cache)
        assert cache.disk_bytes() == 0
        # batch answers are unaffected: memory tier plus recomputation
        second = solve_many(problems, cache=cache)
        _assert_identical(second, first)


class TestDiskLRUTouchOnRead:
    """Reads refresh recency: pruning is LRU by use, not FIFO by write time."""

    def _fill(self, tmp_path, count=4):
        """Four distinct entries with strictly increasing (ancient) mtimes."""
        import os

        problems = [
            PebblingProblem(kary_tree_dag(2, 2), r=3, game="prbp"),
            PebblingProblem(kary_tree_dag(2, 3), r=3, game="prbp"),
            PebblingProblem(figure1_gadget(), r=4, game="prbp"),
            PebblingProblem(figure1_gadget(), r=4, game="rbp"),
        ][:count]
        cache = ResultCache(directory=tmp_path)
        stored = []
        for i, problem in enumerate(problems):
            digest = problem_digest(problem)
            cache.put(digest, solve(problem))
            os.utime(cache._path(digest), (1_000_000 + i, 1_000_000 + i))
            stored.append((problem, digest))
        return cache, stored

    def test_read_refreshes_mtime(self, tmp_path):
        cache, stored = self._fill(tmp_path)
        problem, digest = stored[0]
        before = cache._path(digest).stat().st_mtime
        # a fresh instance has an empty memory tier, so the get() must go
        # through the disk read that carries the touch
        reader = ResultCache(directory=tmp_path)
        assert reader.get(problem, digest) is not None
        assert cache._path(digest).stat().st_mtime > before

    def test_freshly_read_entry_survives_a_prune_that_evicts_older_unread(self, tmp_path):
        """The LRU regression: under mtime-FIFO the oldest *write* dies first,
        so reading entry 0 would not save it.  With touch-on-read it must
        outlive entry 1, which was written later but never read."""
        cache, stored = self._fill(tmp_path)
        entry_size = cache.disk_bytes() // len(stored)
        reader = ResultCache(directory=tmp_path)
        assert reader.get(*stored[0]) is not None  # entry 0 is now the hottest
        cache._prune_disk(int(entry_size * 2.5))  # room for two entries
        assert cache._path(stored[0][1]).exists()  # read entry survives
        assert not cache._path(stored[1][1]).exists()  # unread older write dies
        assert not cache._path(stored[2][1]).exists()
        assert cache._path(stored[3][1]).exists()  # newest write survives

    def test_touch_failure_does_not_break_the_read(self, tmp_path, monkeypatch):
        import os as _os

        cache, stored = self._fill(tmp_path, count=1)

        def deny_utime(*args, **kwargs):
            raise OSError("read-only store")

        reader = ResultCache(directory=tmp_path)
        monkeypatch.setattr("repro.api.cache.os.utime", deny_utime)
        result = reader.get(*stored[0])
        assert result is not None  # serving must not depend on the touch


class TestPruneVanishRace:
    """Files vanishing between the prune's scan and unlink are not errors."""

    def test_prune_tolerates_files_deleted_by_a_peer(self, tmp_path):
        problem = PebblingProblem(kary_tree_dag(2, 2), r=3, game="prbp")
        digest = problem_digest(problem)
        cache = ResultCache(directory=tmp_path)
        cache.put(digest, solve(problem))
        real = cache._path(digest)
        ghost = tmp_path / "ff" / "deadbeef.pkl"

        original = cache._disk_entries

        def with_ghost():
            return original() + [(0.0, 4096, ghost)]  # oldest: pruned first

        cache._disk_entries = with_ghost  # a peer deletes it post-scan
        cache._prune_disk(0)  # must evict everything without raising
        assert not real.exists()
        assert cache.stats.evicted >= 1

    def test_prune_scan_tolerates_stat_races(self, tmp_path):
        """An entry vanishing between glob and stat is skipped, not fatal."""
        problem = PebblingProblem(kary_tree_dag(2, 2), r=3, game="prbp")
        cache = ResultCache(directory=tmp_path)
        cache.put(problem_digest(problem), solve(problem))
        # a plausible peer artifact: an empty shard dir left after its prune
        (tmp_path / "aa").mkdir(exist_ok=True)
        assert len(cache._disk_entries()) == 1
