"""The built-in scenario registry: every paper workload, declaratively.

One :class:`~repro.bench.scenario.BenchScenario` per measured claim, grouped
by paper anchor.  The ``quick`` tier is sized for CI smoke runs (the whole
suite solves in seconds); the ``full`` tier is sized for real perf tracking
(larger trees, FFTs and mat-vecs, denser random layered DAGs).

Importing this module (done by ``repro.bench.__init__``) populates the
registry; the pytest wrappers under ``benchmarks/`` and the ``python -m
repro.bench`` CLI both read from it, so workload definitions live here and
nowhere else.
"""

from __future__ import annotations

import numpy as np

from ..bounds.analytic import (
    chained_gadget_prbp_optimal_cost,
    matvec_prbp_optimal_cost,
    zipper_prbp_cost_estimate,
    zipper_rbp_cost_estimate,
)
from ..core.dag import ComputationalDAG
from ..core.variants import RECOMPUTE, SLIDING
from ..dags import (
    attention_dag,
    chained_gadget_dag,
    fanin_groups_dag,
    fft_dag,
    figure1_gadget,
    kary_tree_dag,
    matvec_dag,
    pebble_collection_gadget,
    random_layered_dag,
    zipper_gadget,
)
from ..dags.linalg import matmul_dag
from ..dags.trees import optimal_prbp_tree_cost, optimal_rbp_tree_cost
from ..hardness.levels import demo_theorem71_instance
from ..hardness.independent_set import UndirectedGraph
from ..hardness.reduction_thm48 import build_theorem48_instance
from .scenario import BenchScenario, ScenarioTier, register_scenario

__all__ = ["register_builtin_scenarios"]


def _theorem48_dag(n0: int, seed: int, chain_scale: float) -> ComputationalDAG:
    """The Appendix A.4 reduction DAG for a seeded random graph on ``n0`` nodes."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n0) for j in range(i + 1, n0) if rng.random() < 0.5]
    graph = UndirectedGraph.from_edges(n0, edges)
    return build_theorem48_instance(graph, 0, chain_scale=chain_scale).dag


def _theorem71_dag(adapted: bool) -> ComputationalDAG:
    """The two-tower Theorem 7.1 demo construction."""
    return demo_theorem71_instance(adapted=adapted).dag


def _feasible_r(dag: ComputationalDAG) -> int:
    """The smallest generally feasible capacity for greedy pebbling."""
    return dag.max_in_degree + 1


def register_builtin_scenarios() -> None:
    """Populate the registry with every built-in scenario (idempotence is the
    caller's job — ``repro.bench.__init__`` runs this exactly once)."""

    # ------------------------------------------------------------------ #
    # Proposition 4.2 / Figure 1: the paper's opening RBP-vs-PRBP gap
    # ------------------------------------------------------------------ #
    register_scenario(
        BenchScenario(
            name="fig1-rbp-optimal",
            group="prop4.2",
            title="exhaustive OPT_RBP on the Figure 1 gadget (r=4)",
            dag_factory=figure1_gadget,
            game="rbp",
            tiers={
                "quick": ScenarioTier(dag_args=(), r=4, expected_cost=3),
                "full": ScenarioTier(dag_args=(), r=4, expected_cost=3),
            },
            reference="Prop. 4.2: OPT_RBP = 3",
            expect_optimal=True,
        )
    )
    register_scenario(
        BenchScenario(
            name="fig1-prbp-optimal",
            group="prop4.2",
            title="exhaustive OPT_PRBP on the Figure 1 gadget (r=4)",
            dag_factory=figure1_gadget,
            game="prbp",
            tiers={
                "quick": ScenarioTier(dag_args=(), r=4, expected_cost=2),
                "full": ScenarioTier(dag_args=(), r=4, expected_cost=2),
            },
            reference="Prop. 4.2: OPT_PRBP = 2",
            expect_optimal=True,
        )
    )
    register_scenario(
        BenchScenario(
            name="fig1-appA1-rbp",
            group="prop4.2",
            title="Appendix A.1 hand-written RBP strategy replay",
            dag_factory=figure1_gadget,
            game="rbp",
            solver="figure1",
            tiers={
                "quick": ScenarioTier(dag_args=(), r=4, expected_cost=3),
                "full": ScenarioTier(dag_args=(), r=4, expected_cost=3),
            },
            reference="App. A.1 strategy, cost 3",
        )
    )
    register_scenario(
        BenchScenario(
            name="fig1-appA1-prbp",
            group="prop4.2",
            title="Appendix A.1 hand-written PRBP strategy replay",
            dag_factory=figure1_gadget,
            game="prbp",
            solver="figure1",
            tiers={
                "quick": ScenarioTier(dag_args=(), r=4, expected_cost=2),
                "full": ScenarioTier(dag_args=(), r=4, expected_cost=2),
            },
            reference="App. A.1 strategy, cost 2",
        )
    )

    # ------------------------------------------------------------------ #
    # Proposition 4.3: matrix-vector multiplication
    # ------------------------------------------------------------------ #
    register_scenario(
        BenchScenario(
            name="matvec-prbp-streaming",
            group="prop4.3",
            title="PRBP column-streaming strategy on mat-vec (r = m + 3)",
            dag_factory=matvec_dag,
            game="prbp",
            tiers={
                "quick": ScenarioTier(
                    dag_args=(6,), r=9, expected_cost=matvec_prbp_optimal_cost(6)
                ),
                "full": ScenarioTier(
                    dag_args=(24,), r=27, expected_cost=matvec_prbp_optimal_cost(24)
                ),
            },
            reference="Prop. 4.3: OPT_PRBP = m^2 + 2m (trivial cost)",
            expect_optimal=True,
        )
    )
    register_scenario(
        BenchScenario(
            name="matvec-rbp-greedy",
            group="prop4.3",
            title="greedy RBP upper bound on mat-vec (gap vs the Prop. 4.3 bound)",
            dag_factory=matvec_dag,
            game="rbp",
            tiers={
                "quick": ScenarioTier(dag_args=(6,), r=9),
                "full": ScenarioTier(dag_args=(16,), r=19),
            },
            reference="Prop. 4.3: OPT_RBP >= m^2 + 3m - 1",
        )
    )

    # ------------------------------------------------------------------ #
    # Proposition 4.4: the zipper gadget at r = d + 2
    # ------------------------------------------------------------------ #
    register_scenario(
        BenchScenario(
            name="zipper-prbp",
            group="prop4.4",
            title="two-phase PRBP zipper strategy (~2 I/O per chain node)",
            dag_factory=zipper_gadget,
            game="prbp",
            solver="zipper",
            tiers={
                "quick": ScenarioTier(
                    dag_args=(4, 8), r=6, expected_cost=zipper_prbp_cost_estimate(4, 8)
                ),
                "full": ScenarioTier(
                    dag_args=(6, 32), r=8, expected_cost=zipper_prbp_cost_estimate(6, 32)
                ),
            },
            reference="Prop. 4.4: PRBP pays ~2 I/O per chain node",
        )
    )
    register_scenario(
        BenchScenario(
            name="zipper-rbp",
            group="prop4.4",
            title="alternating-group RBP zipper strategy (d I/O per chain node)",
            dag_factory=zipper_gadget,
            game="rbp",
            solver="zipper",
            tiers={
                "quick": ScenarioTier(
                    dag_args=(4, 8), r=6, expected_cost=zipper_rbp_cost_estimate(4, 8)
                ),
                "full": ScenarioTier(
                    dag_args=(6, 32), r=8, expected_cost=zipper_rbp_cost_estimate(6, 32)
                ),
            },
            reference="Prop. 4.4: RBP pays d I/O per chain node",
        )
    )

    # ------------------------------------------------------------------ #
    # Proposition 4.5 / Appendix A.2: k-ary reduction trees at r = k + 1
    # ------------------------------------------------------------------ #
    register_scenario(
        BenchScenario(
            name="tree-rbp-critical",
            group="prop4.5",
            title="App. A.2 RBP tree strategy at the critical capacity",
            dag_factory=kary_tree_dag,
            game="rbp",
            tiers={
                "quick": ScenarioTier(
                    dag_args=(3, 4), r=4, expected_cost=optimal_rbp_tree_cost(3, 4)
                ),
                "full": ScenarioTier(
                    dag_args=(4, 6), r=5, expected_cost=optimal_rbp_tree_cost(4, 6)
                ),
            },
            reference="App. A.2: OPT_RBP = k^d + 2k^(d-1) - 1",
            expect_optimal=True,
        )
    )
    register_scenario(
        BenchScenario(
            name="tree-prbp-critical",
            group="prop4.5",
            title="App. A.2 PRBP tree strategy at the critical capacity",
            dag_factory=kary_tree_dag,
            game="prbp",
            tiers={
                "quick": ScenarioTier(
                    dag_args=(2, 5), r=3, expected_cost=optimal_prbp_tree_cost(2, 5)
                ),
                "full": ScenarioTier(
                    dag_args=(2, 10), r=3, expected_cost=optimal_prbp_tree_cost(2, 10)
                ),
            },
            reference="App. A.2: OPT_PRBP = k^d + 2k^(d-k) - 1",
            expect_optimal=True,
        )
    )
    register_scenario(
        BenchScenario(
            name="tree-prbp-scaling",
            group="prop4.5",
            title="PRBP tree strategy on deep binary trees (scaling)",
            dag_factory=kary_tree_dag,
            game="prbp",
            tiers={
                "quick": ScenarioTier(
                    dag_args=(2, 8), r=3, expected_cost=optimal_prbp_tree_cost(2, 8)
                ),
                "full": ScenarioTier(
                    dag_args=(2, 12), r=3, expected_cost=optimal_prbp_tree_cost(2, 12)
                ),
            },
            reference="App. A.2 closed form at depth 8 / 12",
            expect_optimal=True,
        )
    )

    # ------------------------------------------------------------------ #
    # Proposition 4.6: the pebble collection gadget
    # ------------------------------------------------------------------ #
    register_scenario(
        BenchScenario(
            name="collection-full-pebbles",
            group="prop4.6",
            title="collection gadget with d + 2 pebbles: only the trivial cost",
            dag_factory=pebble_collection_gadget,
            game="prbp",
            tiers={
                "quick": ScenarioTier(dag_args=(3, 18), r=5, expected_cost=4),
                "full": ScenarioTier(dag_args=(4, 60), r=6, expected_cost=5),
            },
            reference="Prop. 4.6: trivial cost d + 1 with d + 2 pebbles",
            expect_optimal=True,
        )
    )
    register_scenario(
        BenchScenario(
            name="collection-restricted-cache",
            group="prop4.6",
            title="collection gadget one pebble short: the l/(2d) penalty",
            dag_factory=pebble_collection_gadget,
            game="prbp",
            tiers={
                "quick": ScenarioTier(dag_args=(3, 18), r=4),
                "full": ScenarioTier(dag_args=(4, 60), r=5),
            },
            reference="Prop. 4.6: >= l/(2d) extra I/O without d + 2 pebbles",
        )
    )

    # ------------------------------------------------------------------ #
    # Proposition 4.7: linear-factor gap on chained Figure 1 gadgets
    # ------------------------------------------------------------------ #
    register_scenario(
        BenchScenario(
            name="chained-prbp-constant",
            group="prop4.7",
            title="PRBP chain strategy: cost 2 at any length (r = 4)",
            dag_factory=chained_gadget_dag,
            game="prbp",
            tiers={
                "quick": ScenarioTier(
                    dag_args=(32,), r=4, expected_cost=chained_gadget_prbp_optimal_cost()
                ),
                "full": ScenarioTier(
                    dag_args=(512,), r=4, expected_cost=chained_gadget_prbp_optimal_cost()
                ),
            },
            reference="Prop. 4.7: OPT_PRBP = 2, independent of length",
            expect_optimal=True,
        )
    )
    register_scenario(
        BenchScenario(
            name="chained-rbp-greedy",
            group="prop4.7",
            title="greedy RBP on the chain: linear growth (gap vs Prop. 4.7 bound)",
            dag_factory=chained_gadget_dag,
            game="rbp",
            tiers={
                "quick": ScenarioTier(dag_args=(16,), r=4),
                "full": ScenarioTier(dag_args=(128,), r=4),
            },
            reference="Prop. 4.7: OPT_RBP >= one I/O per gadget copy",
        )
    )

    # ------------------------------------------------------------------ #
    # Theorem 4.8: greedy pebbling of the NP-hardness reduction DAG
    # ------------------------------------------------------------------ #
    register_scenario(
        BenchScenario(
            name="thm48-reduction-greedy",
            group="thm4.8",
            title="greedy PRBP on the App. A.4 reduction DAG (scaled chains)",
            dag_factory=_theorem48_dag,
            game="prbp",
            tiers={
                "quick": ScenarioTier(
                    dag_args=(3,), dag_kwargs={"seed": 21, "chain_scale": 0.02}, r=_feasible_r
                ),
                "full": ScenarioTier(
                    dag_args=(4,), dag_kwargs={"seed": 28, "chain_scale": 0.03}, r=_feasible_r
                ),
            },
            reference="Thm. 4.8 construction (chain_scale keeps it polynomial-small)",
        )
    )

    # ------------------------------------------------------------------ #
    # Lemma 5.4: fan-in groups — S-partitions over-estimate PRBP cost
    # ------------------------------------------------------------------ #
    register_scenario(
        BenchScenario(
            name="fanin-streaming-prbp",
            group="lemma5.4",
            title="group-streaming PRBP on fan-in groups: constant cost 8 (r = 3)",
            dag_factory=fanin_groups_dag,
            game="prbp",
            tiers={
                "quick": ScenarioTier(dag_args=(7, 24), r=3, expected_cost=8),
                "full": ScenarioTier(dag_args=(7, 96), r=3, expected_cost=8),
            },
            reference="Lemma 5.4: OPT_PRBP = 8 regardless of group size",
            expect_optimal=True,
        )
    )

    # ------------------------------------------------------------------ #
    # Theorem 6.9: FFT
    # ------------------------------------------------------------------ #
    register_scenario(
        BenchScenario(
            name="fft-blocked-prbp",
            group="thm6.9",
            title="blocked butterfly PRBP strategy on the FFT DAG",
            dag_factory=fft_dag,
            game="prbp",
            solver="fft-blocked",
            tiers={
                "quick": ScenarioTier(dag_args=(64,), r=8),
                "full": ScenarioTier(dag_args=(512,), r=16),
            },
            reference="Thm. 6.9: Omega(m log m / log r), O(m log m / log r) achieved",
        )
    )
    register_scenario(
        BenchScenario(
            name="fft-blocked-prbp-large-cache",
            group="thm6.9",
            title="blocked FFT strategy with a larger cache (scaling in r)",
            dag_factory=fft_dag,
            game="prbp",
            solver="fft-blocked",
            tiers={
                "quick": ScenarioTier(dag_args=(64,), r=16),
                "full": ScenarioTier(dag_args=(512,), r=64),
            },
            reference="Thm. 6.9: cost shrinks as log r grows",
        )
    )

    # ------------------------------------------------------------------ #
    # Theorem 6.10: matrix multiplication
    # ------------------------------------------------------------------ #
    register_scenario(
        BenchScenario(
            name="matmul-tiled-prbp",
            group="thm6.10",
            title="outer-product tiled PRBP strategy on matmul",
            dag_factory=matmul_dag,
            game="prbp",
            solver="matmul-tiled",
            tiers={
                "quick": ScenarioTier(dag_args=(6, 6, 6), r=18),
                "full": ScenarioTier(dag_args=(12, 12, 12), r=32),
            },
            reference="Thm. 6.10: Omega(m1 m2 m3 / sqrt(r)), tiled strategy within O(.)",
        )
    )

    # ------------------------------------------------------------------ #
    # Theorem 6.11: attention
    # ------------------------------------------------------------------ #
    register_scenario(
        BenchScenario(
            name="attention-flash-prbp",
            group="thm6.11",
            title="flash-style row-block PRBP strategy on Q.K^T + exp",
            dag_factory=attention_dag,
            game="prbp",
            solver="attention-flash",
            tiers={
                "quick": ScenarioTier(dag_args=(12, 3, False), r=16),
                "full": ScenarioTier(dag_args=(24, 4, False), r=40),
            },
            reference="Thm. 6.11: two-regime attention bound",
        )
    )

    # ------------------------------------------------------------------ #
    # Theorem 7.1: the inapproximability level gadgets
    # ------------------------------------------------------------------ #
    register_scenario(
        BenchScenario(
            name="thm71-adapted-greedy",
            group="thm7.1",
            title="greedy PRBP on the adapted two-tower demo construction",
            dag_factory=_theorem71_dag,
            game="prbp",
            tiers={
                "quick": ScenarioTier(dag_args=(True,), r=_feasible_r),
                "full": ScenarioTier(dag_args=(True,), r=_feasible_r),
            },
            reference="Thm. 7.1 / App. A.5 auxiliary-level adaptation",
        )
    )

    # ------------------------------------------------------------------ #
    # Appendix B: model variants on the Figure 1 gadget
    # ------------------------------------------------------------------ #
    register_scenario(
        BenchScenario(
            name="fig1-rbp-recompute",
            group="appB",
            title="exhaustive RBP with re-computation: the gap closes",
            dag_factory=figure1_gadget,
            game="rbp",
            variant=RECOMPUTE,
            tiers={
                "quick": ScenarioTier(dag_args=(), r=4, expected_cost=2),
                "full": ScenarioTier(dag_args=(), r=4, expected_cost=2),
            },
            reference="App. B.1: OPT_RBP = 2 with re-computation",
        )
    )
    register_scenario(
        BenchScenario(
            name="fig1-rbp-sliding",
            group="appB",
            title="exhaustive RBP with sliding pebbles: the gap closes",
            dag_factory=figure1_gadget,
            game="rbp",
            variant=SLIDING,
            tiers={
                "quick": ScenarioTier(dag_args=(), r=4, expected_cost=2),
                "full": ScenarioTier(dag_args=(), r=4, expected_cost=2),
            },
            reference="App. B.2: OPT_RBP = 2 with sliding",
        )
    )

    # ------------------------------------------------------------------ #
    # Cross-cutting machinery: greedy + conversion on random layered DAGs
    # at several densities (also the random-DAG scaling scenarios)
    # ------------------------------------------------------------------ #
    register_scenario(
        BenchScenario(
            name="random-layered-sparse",
            group="machinery",
            title="greedy PRBP on a sparse random layered DAG (p = 0.2)",
            dag_factory=random_layered_dag,
            game="prbp",
            tiers={
                "quick": ScenarioTier(
                    dag_args=((6, 8, 8, 6, 4),),
                    dag_kwargs={"edge_probability": 0.2, "max_in_degree": 4, "seed": 0},
                    r=6,
                ),
                "full": ScenarioTier(
                    dag_args=((20, 30, 30, 30, 20, 10),),
                    dag_kwargs={"edge_probability": 0.2, "max_in_degree": 6, "seed": 0},
                    r=8,
                ),
            },
            reference="Sec. 6 machinery over random layered DAGs",
        )
    )
    register_scenario(
        BenchScenario(
            name="random-layered-medium",
            group="machinery",
            title="greedy PRBP on a medium-density random layered DAG (p = 0.35)",
            dag_factory=random_layered_dag,
            game="prbp",
            tiers={
                "quick": ScenarioTier(
                    dag_args=((6, 8, 8, 6, 4),),
                    dag_kwargs={"edge_probability": 0.35, "max_in_degree": 4, "seed": 1},
                    r=6,
                ),
                "full": ScenarioTier(
                    dag_args=((20, 30, 30, 30, 20, 10),),
                    dag_kwargs={"edge_probability": 0.35, "max_in_degree": 6, "seed": 1},
                    r=8,
                ),
            },
            reference="Sec. 6 machinery over random layered DAGs",
        )
    )
    register_scenario(
        BenchScenario(
            name="random-layered-dense",
            group="machinery",
            title="greedy PRBP on a dense random layered DAG (p = 0.5)",
            dag_factory=random_layered_dag,
            game="prbp",
            tiers={
                "quick": ScenarioTier(
                    dag_args=((6, 8, 8, 6, 4),),
                    dag_kwargs={"edge_probability": 0.5, "max_in_degree": 4, "seed": 2},
                    r=6,
                ),
                "full": ScenarioTier(
                    dag_args=((20, 30, 30, 30, 20, 10),),
                    dag_kwargs={"edge_probability": 0.5, "max_in_degree": 6, "seed": 2},
                    r=8,
                ),
            },
            reference="Sec. 6 machinery over random layered DAGs",
        )
    )
    register_scenario(
        BenchScenario(
            name="random-layered-rbp",
            group="machinery",
            title="greedy RBP on a random layered DAG (Prop. 4.1 comparison side)",
            dag_factory=random_layered_dag,
            game="rbp",
            tiers={
                "quick": ScenarioTier(
                    dag_args=((6, 8, 8, 6, 4),),
                    dag_kwargs={"edge_probability": 0.3, "max_in_degree": 4, "seed": 3},
                    r=6,
                ),
                "full": ScenarioTier(
                    dag_args=((20, 30, 30, 30, 20, 10),),
                    dag_kwargs={"edge_probability": 0.3, "max_in_degree": 6, "seed": 3},
                    r=8,
                ),
            },
            reference="Prop. 4.1: OPT_RBP >= OPT_PRBP on every DAG",
        )
    )

    # ------------------------------------------------------------------ #
    # Anytime refinement (Sections 3 & 8.1): the quality/time dial on the
    # heuristic workloads — seeded, step-budgeted, trajectory-recorded
    # ------------------------------------------------------------------ #
    register_scenario(
        BenchScenario(
            name="anytime-tree-offcritical",
            group="anytime",
            title="anytime refinement of a reduction tree away from its critical capacity",
            dag_factory=kary_tree_dag,
            game="rbp",
            solver="anytime",
            solve_options={"seed": 0, "refine_steps": 384},
            tiers={
                "quick": ScenarioTier(dag_args=(3, 3), r=5),
                "full": ScenarioTier(dag_args=(3, 5), r=7),
            },
            reference="App. A.2 trees off the r = k + 1 regime (no closed form applies)",
        )
    )
    register_scenario(
        BenchScenario(
            name="anytime-fft",
            group="anytime",
            title="anytime refinement of the blocked FFT strategy / greedy seed",
            dag_factory=fft_dag,
            game="prbp",
            solver="anytime",
            solve_options={"seed": 0, "refine_steps": 384},
            tiers={
                "quick": ScenarioTier(dag_args=(16,), r=6),
                "full": ScenarioTier(dag_args=(128,), r=12),
            },
            reference="Thm. 6.9 FFT family between the exact and asymptotic regimes",
        )
    )
    register_scenario(
        BenchScenario(
            name="anytime-random-layered",
            group="anytime",
            title="anytime refinement of greedy PRBP on a random layered DAG",
            dag_factory=random_layered_dag,
            game="prbp",
            solver="anytime",
            solve_options={"seed": 0, "refine_steps": 384},
            tiers={
                "quick": ScenarioTier(
                    dag_args=((6, 8, 8, 6, 4),),
                    dag_kwargs={"edge_probability": 0.3, "max_in_degree": 4, "seed": 5},
                    r=6,
                ),
                "full": ScenarioTier(
                    dag_args=((20, 30, 30, 30, 20, 10),),
                    dag_kwargs={"edge_probability": 0.3, "max_in_degree": 6, "seed": 5},
                    r=8,
                ),
            },
            reference="Sec. 8.1 anytime improvement over the Belady baseline",
        )
    )
