"""DAG canonicalization and content digests for the result cache.

The batch solver (:func:`repro.api.solve_many`) keys its content-addressed
result cache on a digest of the full problem.  This module supplies the
graph-structure half of that key:

* :func:`canonical_labeling` / :func:`canonical_form` — a deterministic
  relabeling computed by Weisfeiler–Leman colour refinement.  The refinement
  is isomorphism-invariant; remaining ties inside a colour class are broken
  by the original node id, which keeps the procedure cheap (``O(n·m)`` per
  round) and *sound* — equal canonical forms always mean isomorphic graphs —
  at the price of completeness: two isomorphic graphs whose refinement does
  not separate all nodes may still canonicalise differently.  For cache
  purposes that asymmetry is exactly right: a spurious miss recomputes, a
  spurious hit would return a wrong schedule.
* :func:`dag_digest` — a hex SHA-256 over the canonical form and (by
  default) the exact node numbering and edge insertion order.  The exact
  part is deliberate: the greedy and structured solvers iterate the DAG's
  topological order, which depends on the numbering, so two isomorphic but
  differently-numbered instances can legitimately receive different
  (equally valid) schedules.  A cache key that identified them would break
  the guarantee that a cache hit is bit-identical to a fresh solve.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

from .dag import ComputationalDAG, Edge

__all__ = ["canonical_labeling", "canonical_form", "content_digest", "dag_digest",
           "DIGEST_ALGORITHM"]

#: Hash algorithm behind every digest in this module (hex output).
DIGEST_ALGORITHM = "sha256"


def _refine_colors(dag: ComputationalDAG) -> List[int]:
    """Weisfeiler–Leman colour refinement; returns one colour id per node.

    Colours start from the (in-degree, out-degree) pair and are repeatedly
    split on the sorted multisets of predecessor and successor colours until
    the partition stops refining.  Colour ids are assigned by sorting the
    signatures, so they are independent of the node numbering.
    """
    n = dag.n
    if n == 0:
        return []
    signatures: List[Tuple] = [(dag.in_degree(v), dag.out_degree(v)) for v in range(n)]
    ranks = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
    colors = [ranks[sig] for sig in signatures]
    num_classes = len(ranks)
    for _ in range(n):
        signatures = [
            (
                colors[v],
                tuple(sorted(colors[u] for u in dag.predecessors(v))),
                tuple(sorted(colors[w] for w in dag.successors(v))),
            )
            for v in range(n)
        ]
        ranks = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        colors = [ranks[sig] for sig in signatures]
        if len(ranks) == num_classes:
            break  # fixed point: no class split this round
        num_classes = len(ranks)
    return colors


def canonical_labeling(dag: ComputationalDAG) -> List[int]:
    """A deterministic relabeling ``perm`` with ``perm[old id] = new id``.

    Nodes are ordered by their refined WL colour, ties broken by the
    original id (see the module docstring for what that trade-off means).
    """
    colors = _refine_colors(dag)
    order = sorted(range(dag.n), key=lambda v: (colors[v], v))
    perm = [0] * dag.n
    for new, old in enumerate(order):
        perm[old] = new
    return perm


def canonical_form(dag: ComputationalDAG) -> Tuple[int, Tuple[Edge, ...]]:
    """The canonically relabelled structure: ``(n, sorted relabelled edges)``.

    Equal canonical forms imply isomorphic DAGs (the form *is* a relabelled
    copy of the edge set), so any quantity invariant under isomorphism —
    in particular every optimal pebbling cost — agrees between DAGs that
    share a form.
    """
    perm = canonical_labeling(dag)
    return dag.n, tuple(sorted((perm[u], perm[v]) for u, v in dag.edges))


def dag_digest(dag: ComputationalDAG, exact: bool = True) -> str:
    """Hex SHA-256 content digest of a DAG.

    With ``exact=True`` (the default, used by the result cache) the digest
    covers the exact numbering, labels and edge insertion order — everything
    a numbering-sensitive solver can observe.  The canonical form is a
    deterministic function of ``(n, edges)``, so equal exact digests already
    imply equal canonical forms and the refinement is skipped on this hot
    path.  With ``exact=False`` only the canonical form is hashed, which
    identifies canonically-equal relabelings (useful for corpus
    deduplication, not for result caching).
    """
    if not exact:
        return hashlib.new(DIGEST_ALGORITHM, repr(canonical_form(dag)).encode()).hexdigest()
    # memoized per DAG object; of the digested content only ``name`` is mutable
    memo = getattr(dag, "_digest_memo", None)
    if memo is not None and memo[0] == dag.name:
        return memo[1]
    digest = content_digest(dag.n, dag.edges, tuple(map(dag.label, range(dag.n))), dag.name)
    dag._digest_memo = (dag.name, digest)
    return digest


def content_digest(n: int, edges: Tuple[Edge, ...], labels: Tuple[str, ...], name: str) -> str:
    """The exact :func:`dag_digest` of unbuilt content: tuples like ``dag.edges`` and its labels."""
    return hashlib.new(DIGEST_ALGORITHM, repr((n, edges, labels, name)).encode()).hexdigest()
