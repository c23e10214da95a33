"""DAG canonicalization: soundness, determinism, and invariance where promised."""

from repro.core.canonical import canonical_form, canonical_labeling, content_digest, dag_digest
from repro.core.dag import ComputationalDAG
from repro.dags import figure1_gadget, kary_tree_dag
from repro.dags.random_dags import random_dag


def _relabel(dag: ComputationalDAG, perm) -> ComputationalDAG:
    """The same graph with node ``v`` renamed to ``perm[v]``."""
    return ComputationalDAG(dag.n, [(perm[u], perm[v]) for u, v in dag.edges])


class TestCanonicalLabeling:
    def test_labeling_is_a_permutation(self):
        for seed in range(5):
            dag = random_dag(7, edge_probability=0.3, seed=seed)
            perm = canonical_labeling(dag)
            assert sorted(perm) == list(range(dag.n))

    def test_empty_and_trivial_graphs(self):
        assert canonical_labeling(ComputationalDAG(0, [])) == []
        assert canonical_form(ComputationalDAG(1, [])) == (1, ())

    def test_form_is_deterministic(self):
        dag = figure1_gadget()
        assert canonical_form(dag) == canonical_form(figure1_gadget())

    def test_chain_relabelings_share_a_form(self):
        # WL refinement separates every node of a path (by depth), so any
        # renumbering of a chain canonicalises identically.
        chain = ComputationalDAG(4, [(0, 1), (1, 2), (2, 3)])
        shifted = ComputationalDAG(4, [(3, 0), (0, 2), (2, 1)])  # 0->3, 1->0, 2->2, 3->1
        assert canonical_form(chain) == canonical_form(shifted)

    def test_tree_relabeling_with_discrete_refinement(self):
        # Reversing a diamond's middle pair keeps the structure; the two
        # middle nodes are genuinely symmetric, so the form must agree no
        # matter how ties were broken.
        diamond = ComputationalDAG(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        swapped = _relabel(diamond, [0, 2, 1, 3])
        assert canonical_form(diamond) == canonical_form(swapped)

    def test_forms_differ_for_non_isomorphic_graphs(self):
        # Same node and edge counts, different shape: a path vs. a fork.
        path = ComputationalDAG(3, [(0, 1), (1, 2)])
        fork = ComputationalDAG(3, [(0, 1), (0, 2)])
        assert canonical_form(path) != canonical_form(fork)

    def test_equal_forms_imply_isomorphic_edge_sets(self):
        # The form is a relabelled copy: reconstructing from it reproduces
        # the original's canonical form (soundness round-trip).
        dag = kary_tree_dag(2, 3)
        n, edges = canonical_form(dag)
        rebuilt = ComputationalDAG(n, edges)
        assert canonical_form(rebuilt) == (n, edges)


class TestDagDigest:
    def test_exact_digest_separates_numberings(self):
        # Isomorphic but renumbered instances must NOT share an exact digest:
        # numbering-sensitive solvers (greedy tie-breaking) may legitimately
        # answer them differently, and the result cache keys on this digest.
        diamond = ComputationalDAG(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        renumbered = _relabel(diamond, [3, 1, 2, 0])
        assert dag_digest(diamond) != dag_digest(renumbered)

    def test_structural_digest_identifies_symmetric_relabelings(self):
        diamond = ComputationalDAG(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        swapped = _relabel(diamond, [0, 2, 1, 3])
        assert dag_digest(diamond, exact=False) == dag_digest(swapped, exact=False)

    def test_digest_reflects_structure_changes(self):
        a = random_dag(6, edge_probability=0.3, seed=1)
        b = random_dag(6, edge_probability=0.3, seed=2)
        assert dag_digest(a) != dag_digest(b)
        assert dag_digest(a) == dag_digest(random_dag(6, edge_probability=0.3, seed=1))

    def test_content_digest_is_the_exact_digest(self):
        dag = kary_tree_dag(2, 3)
        labels = tuple(dag.label(v) for v in range(dag.n))
        assert content_digest(dag.n, dag.edges, labels, dag.name) == dag_digest(dag)

    def test_renaming_a_dag_changes_its_memoized_digest(self):
        # the digest is memoized per DAG object, and ``name`` is the one
        # mutable part of its content: a rename must not serve a stale memo
        dag = figure1_gadget()
        before = dag_digest(dag)
        assert dag_digest(dag) == before
        dag.name = "renamed"
        after = dag_digest(dag)
        assert after != before
        labels = {v: dag.label(v) for v in range(dag.n)}
        assert after == dag_digest(ComputationalDAG(dag.n, dag.edges, labels, name="renamed"))
        dag.name = figure1_gadget().name
        assert dag_digest(dag) == before
