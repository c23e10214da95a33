"""Tests for the repro.api facade: problem, registry, portfolio dispatch, results."""

import threading

import pytest

from repro.api import (
    PebblingProblem,
    SolveResult,
    SolverRun,
    get_solver,
    list_solvers,
    register_solver,
    solve,
    solver_names,
    unregister_solver,
)
from repro.core.dag import DAGFamily
from repro.core.exceptions import SolverError
from repro.core.variants import NO_DELETE, ONE_SHOT
from repro.dags import (
    attention_dag,
    chained_gadget_dag,
    fanin_groups_dag,
    fft_dag,
    figure1_gadget,
    kary_tree_dag,
    matmul_dag,
    matvec_dag,
    pebble_collection_gadget,
    pyramid_dag,
    random_layered_dag,
    zipper_gadget,
)
from repro.solvers.anytime import refine_schedule
from repro.solvers.greedy import topological_prbp_schedule


class TestPebblingProblem:
    def test_validation(self):
        dag = figure1_gadget()
        with pytest.raises(ValueError):
            PebblingProblem(dag, r=4, game="hybrid")
        with pytest.raises(ValueError):
            PebblingProblem(dag, r=0)
        with pytest.raises(TypeError):
            PebblingProblem("not a dag", r=4)

    def test_views_and_transforms(self):
        problem = PebblingProblem(kary_tree_dag(2, 3), r=3, game="prbp")
        assert problem.n == 15
        assert problem.family.name == "kary_tree"
        assert problem.family.param("k") == 2
        assert problem.trivial_cost == 8 + 1
        assert problem.with_game("rbp").game == "rbp"
        assert problem.with_r(5).r == 5
        assert "kary_tree" in problem.describe()


class TestRegistry:
    def test_builtins_are_registered(self):
        names = solver_names()
        for expected in ("exhaustive", "greedy", "naive", "tree", "fft-blocked"):
            assert expected in names

    def test_duplicate_name_raises(self):
        @register_solver("test-dup", games=("prbp",))
        def first(problem, **options):
            return SolverRun(topological_prbp_schedule(problem.dag, problem.r))

        try:
            with pytest.raises(ValueError):
                @register_solver("test-dup", games=("prbp",))
                def second(problem, **options):
                    return SolverRun(topological_prbp_schedule(problem.dag, problem.r))
        finally:
            unregister_solver("test-dup")

    def test_bad_game_tag_raises(self):
        with pytest.raises(ValueError):
            register_solver("test-bad-game", games=("chess",))

    def test_unknown_solver_raises_with_known_names(self):
        with pytest.raises(SolverError, match="exhaustive"):
            get_solver("no-such-solver")

    def test_list_solvers_filters(self):
        exact_prbp = [info.name for info in list_solvers(game="prbp", exact=True)]
        assert exact_prbp == ["exhaustive"]
        rbp = [info.name for info in list_solvers(game="rbp")]
        assert "greedy" in rbp and "matmul-tiled" not in rbp
        fft_capable = [info.name for info in list_solvers(game="prbp", family="fft")]
        assert "fft-blocked" in fft_capable and "tree" not in fft_capable
        assert "greedy" in fft_capable  # family-agnostic solvers always qualify

    def test_custom_solver_roundtrip(self):
        @register_solver("test-custom", games=("prbp",), description="test only")
        def custom(problem, **options):
            return SolverRun(topological_prbp_schedule(problem.dag, problem.r))

        try:
            result = solve(PebblingProblem(pyramid_dag(3), r=4), solver="test-custom")
            assert result.solver == "test-custom"
            assert result.cost == result.schedule.cost()
        finally:
            unregister_solver("test-custom")

    def test_report_never_leaks_in_from_another_thread(self):
        # a refinement that runs on another thread while this solve is in
        # flight must not be reported as this solve's trajectory
        @register_solver("test-thread-probe", games=("prbp",))
        def probe(problem, **options):
            schedule = topological_prbp_schedule(problem.dag, problem.r)
            worker = threading.Thread(target=refine_schedule, args=(schedule,))
            worker.start()
            worker.join()
            return SolverRun(schedule)

        try:
            result = solve(PebblingProblem(pyramid_dag(3), r=4), solver="test-thread-probe")
            assert result.solve_stats.refinement is None
            assert result.solve_stats.states_expanded is None
        finally:
            unregister_solver("test-thread-probe")


# (dag, r, game, expected winning solver) — all DAGs large enough to skip the
# exhaustive step, so the family match must win over the greedy fallback.
FAMILY_CASES = [
    (chained_gadget_dag(4), 4, "prbp", "chained-gadget"),
    (zipper_gadget(3, 10), 5, "prbp", "zipper"),
    (zipper_gadget(3, 10), 5, "rbp", "zipper"),
    (pebble_collection_gadget(3, 15), 5, "prbp", "collection"),
    (kary_tree_dag(2, 4), 3, "prbp", "tree"),
    (kary_tree_dag(2, 4), 3, "rbp", "tree"),
    (matvec_dag(4), 7, "prbp", "matvec-streaming"),
    (matmul_dag(3, 3, 3), 9, "prbp", "matmul-tiled"),
    (fft_dag(64), 16, "prbp", "fft-blocked"),
    (fft_dag(64), 16, "rbp", "fft-blocked"),
    (attention_dag(4, 2), 8, "prbp", "attention-flash"),
    (fanin_groups_dag(7, 5), 3, "prbp", "fanin-streaming"),
]


class TestAutoDispatch:
    def test_small_dag_uses_exhaustive(self):
        result = solve(PebblingProblem(figure1_gadget(), r=4, game="rbp"))
        assert result.solver == "exhaustive"
        assert result.exact_solver and result.optimal
        assert result.cost == 3

    @pytest.mark.parametrize(
        "dag,r,game,expected", FAMILY_CASES, ids=[c[3] + "-" + c[2] for c in FAMILY_CASES]
    )
    def test_family_tagged_dags_pick_structured_strategy(self, dag, r, game, expected):
        assert dag.n > 14  # too large for the exhaustive step of the portfolio
        result = solve(PebblingProblem(dag, r, game=game))
        assert result.solver == expected, f"expected {expected}, portfolio chose {result.solver}"
        # the reported cost is the replayed schedule cost
        assert result.cost == result.schedule.cost()
        assert result.stats.peak_red <= r
        assert result.lower_bound is not None and result.cost >= result.lower_bound

    def test_untagged_dag_falls_back_to_greedy(self):
        dag = random_layered_dag([6, 8, 8, 6], edge_probability=0.3, max_in_degree=4, seed=1)
        result = solve(PebblingProblem(dag, r=6, game="prbp"))
        assert result.solver == "greedy"
        assert result.cost == result.schedule.cost()

    def test_budget_overrun_falls_through_to_structured(self):
        # 14 nodes: exhaustive is attempted but a tiny budget forces the
        # portfolio onto the family strategy instead of failing outright.
        dag = zipper_gadget(3, 8)
        assert dag.n == 14
        result = solve(PebblingProblem(dag, r=5, game="prbp"), budget=50)
        assert result.solver == "zipper"

    def test_capacity_below_every_solver_raises(self):
        # RBP needs r >= max in-degree + 1 = 3 on a binary tree; the tree
        # strategy needs r >= 3 too, so r = 2 must raise, not mis-solve.
        with pytest.raises(SolverError, match="no solver could handle"):
            solve(PebblingProblem(kary_tree_dag(2, 4), r=2, game="rbp"))

    @pytest.mark.parametrize("game", ["rbp", "prbp"])
    def test_no_deletion_variant_ends_in_the_portfolio_error(self, game):
        # n = 15 skips exhaustive; the greedy eviction needs a delete the
        # variant forbids, which must surface as the portfolio's SolverError
        # naming the rule, not as a raw engine error.
        dag = random_layered_dag([4, 4, 4, 3], 0.4, seed=3)
        problem = PebblingProblem(dag, dag.max_in_degree + 1, game=game, variant=NO_DELETE)
        with pytest.raises(SolverError, match="no solver could handle.*greedy: .*no-deletion"):
            solve(problem)

    def test_tree_at_critical_capacity_is_provably_optimal(self):
        result = solve(PebblingProblem(kary_tree_dag(2, 5), r=3, game="prbp"))
        assert result.solver == "tree"
        assert not result.exact_solver
        assert result.optimal  # cost meets the Appendix A.2 closed form
        assert result.lower_bound_source == "appA.2"


class TestNamedDispatch:
    def test_named_solver_below_family_minimum_raises(self):
        problem = PebblingProblem(kary_tree_dag(2, 4), r=2, game="prbp")
        with pytest.raises(SolverError, match="r >= 3"):
            solve(problem, solver="tree")

    def test_named_solver_wrong_game_raises(self):
        problem = PebblingProblem(matmul_dag(2, 2, 2), r=8, game="rbp")
        with pytest.raises(SolverError, match="plays prbp"):
            solve(problem, solver="matmul-tiled")

    def test_named_solver_wrong_family_raises(self):
        problem = PebblingProblem(fft_dag(8), r=4, game="prbp")
        with pytest.raises(SolverError, match="restricted to the families"):
            solve(problem, solver="tree")

    def test_forged_family_tag_is_rejected(self):
        dag = pyramid_dag(4)
        dag.family = DAGFamily.tag("kary_tree", k=2, depth=3)
        with pytest.raises(SolverError, match="does not reproduce"):
            solve(PebblingProblem(dag, r=5, game="prbp"), solver="tree")

    def test_malformed_family_tag_raises_solver_error_not_typeerror(self):
        # a tag missing its parameters must not leak a TypeError from min_r
        dag = pyramid_dag(4)
        dag.family = DAGFamily.tag("matvec")  # no "m" recorded
        with pytest.raises(SolverError, match="minimum capacity"):
            solve(PebblingProblem(dag, r=10, game="prbp"), solver="matvec-streaming")

    def test_malformed_family_tag_degrades_to_greedy_in_auto(self):
        dag = random_layered_dag([6, 8, 8, 6], edge_probability=0.3, max_in_degree=4, seed=2)
        dag.family = DAGFamily.tag("kary_tree")  # no k/depth recorded
        result = solve(PebblingProblem(dag, r=6, game="prbp"), exact_node_limit=0)
        assert result.solver == "greedy"

    def test_exhaustive_honours_budget(self):
        problem = PebblingProblem(kary_tree_dag(2, 3), r=3, game="prbp")
        with pytest.raises(SolverError, match="budget"):
            solve(problem, solver="exhaustive", budget=3)

    def test_auto_honours_budget_zero(self):
        # budget=0 must not silently become the 500k default: the exhaustive
        # step fails immediately and the portfolio moves on.
        result = solve(PebblingProblem(figure1_gadget(), r=4, game="prbp"), budget=0)
        assert result.solver == "figure1"  # family strategy, not exhaustive
        attempts = [(a.solver, a.outcome) for a in result.solve_stats.attempts]
        assert attempts == [("exhaustive", "failed"), ("figure1", "won")]
        assert result.solve_stats.states_expanded is None


class TestSolveResult:
    def test_replayed_cost_and_flags(self):
        result = solve(PebblingProblem(figure1_gadget(), r=4, game="prbp"))
        assert isinstance(result, SolveResult)
        assert result.cost == 2 == result.schedule.cost()
        assert result.optimal and not result.upper_bound
        assert result.gap == result.cost - result.lower_bound
        assert result.problem.variant == ONE_SHOT
        assert "cost 2" in result.describe()

    def test_upper_bound_flagging(self):
        result = solve(PebblingProblem(fft_dag(16), r=4, game="prbp"))
        assert not result.exact_solver
        assert result.upper_bound  # neither strategy is known optimal here
        assert result.lower_bound is not None

    def test_auto_prefers_greedy_when_it_beats_the_family_strategy(self):
        # away from the critical capacity r = k + 1, the fixed tree schedule
        # is beatable; the portfolio must not return the worse schedule
        result = solve(PebblingProblem(kary_tree_dag(2, 4), r=17, game="rbp"))
        assert result.solver == "greedy"
        assert result.cost == 17  # trivial cost: everything fits in cache
        assert result.optimal

    def test_stale_family_tag_contributes_no_closed_form_bound(self):
        # a tag copied onto a graph it does not describe must not smuggle in
        # the closed-form bound of the full family instance
        sub = kary_tree_dag(2, 3).induced_subgraph(range(7))
        sub.family = DAGFamily.tag("kary_tree", k=2, depth=3)
        result = solve(PebblingProblem(sub, r=3, game="prbp"), exact_node_limit=0)
        assert result.lower_bound == sub.trivial_cost()  # 5, not the 11 of the full tree
        assert result.lower_bound_source == "trivial"
        assert result.cost >= result.lower_bound

    def test_inconsistent_lower_bound_raises_instead_of_proving_optimality(self):
        from repro.core.exceptions import PebblingError

        good = solve(PebblingProblem(figure1_gadget(), r=4, game="prbp"))
        from dataclasses import replace

        broken = replace(good, lower_bound=good.cost + 1, exact_solver=False)
        with pytest.raises(PebblingError, match="strictly below"):
            broken.optimal


class TestBackCompat:
    def test_all_pre_facade_names_still_importable(self):
        from repro import (  # noqa: F401
            ComputationalDAG,
            GameVariant,
            PebblingProblem,
            SolveResult,
            attention_dag,
            binary_tree_dag,
            convert_rbp_to_prbp,
            figure1_gadget,
            optimal_prbp_cost,
            optimal_prbp_schedule,
            optimal_rbp_cost,
            optimal_rbp_schedule,
            solve,
            topological_prbp_schedule,
        )

    def test_top_level_quickstart(self):
        import repro

        dag = repro.figure1_gadget()
        rbp = repro.solve(repro.PebblingProblem(dag, r=4, game="rbp"))
        prbp = repro.solve(repro.PebblingProblem(dag, r=4, game="prbp"))
        assert (rbp.cost, prbp.cost) == (3, 2)
