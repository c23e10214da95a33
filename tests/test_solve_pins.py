"""Pinned auto-portfolio results: the refiner's output must not drift.

Each case records what ``solve()`` returned before the greedy builder became
row-native: the final cost, the refinement trajectory's ``initial_cost``,
``refined_cost``, ``steps`` and ``accepted``, and the sha256 of the final
schedule's ``(op, node, arg)`` rows.  The refiner re-runs the Belady builder
on every order it tries, so any change to the builder's moves or tie-breaks
shows up here as a different trajectory or schedule.
"""

import hashlib

import pytest

from repro.api import PebblingProblem, solve
from repro.core.schedule_ir import encode_moves
from repro.dags import chained_gadget_dag, fft_dag, kary_tree_dag, matvec_dag, random_layered_dag

_LAYERED = {
    "L0": ([4, 5, 5, 4], 0.3, 0),
    "L1": ([4, 5, 5, 4], 0.3, 1),
    "L2": ([4, 5, 5, 4], 0.3, 2),
    "L3": ([5, 6, 6, 5], 0.35, 3),
    "L4": ([5, 6, 6, 5], 0.35, 4),
    "L5": ([6, 7, 6], 0.3, 5),
}

_FAMILIES = {
    "tree-2-4": lambda: kary_tree_dag(2, 4),
    "fft-8": lambda: fft_dag(8),
    "matvec-4": lambda: matvec_dag(4),
    "chained-5": lambda: chained_gadget_dag(5),
}


def _dag(name):
    if name in _LAYERED:
        layers, probability, seed = _LAYERED[name]
        return random_layered_dag(layers, probability, seed=seed)
    return _FAMILIES[name]()


def _r(dag, game, extra):
    """PRBP capacities are absolute; RBP ones are offsets from Δ_in + 1."""
    return extra if game == "prbp" else dag.max_in_degree + 1 + extra


def solve_pin(name, game, extra):
    dag = _dag(name)
    result = solve(PebblingProblem(dag, _r(dag, game, extra), game=game))
    rows = encode_moves(game, result.schedule.moves)
    trajectory = result.solve_stats.refinement
    report = (
        (None,) * 4
        if trajectory is None
        else (
            trajectory.initial_cost,
            trajectory.refined_cost,
            trajectory.steps,
            trajectory.accepted,
        )
    )
    return (result.cost, *report, hashlib.sha256(repr(rows).encode()).hexdigest())


#: (dag, game, r or RBP offset) -> (cost, initial_cost, refined_cost, steps,
#: accepted, rows sha256)
PINS = {
    ('L0', 'prbp', 3): (25, 29, 25, 96, 4, 'eeb2256f5699555932271c35cacfe4804121ccd2c951879635981cd3e55474d2'),
    ('L0', 'prbp', 5): (12, 14, 12, 96, 2, '780eab83418592b3c3c2902ba5230ad2b30a7505531ad8a930544d2ac6d9fd3e'),
    ('L0', 'rbp', 0): (18, 20, 18, 96, 2, '6c625109cbaf65f0cebeb61ad56a6bfe47d8b237115fb79b8ae7cb5649fa7cad'),
    ('L0', 'rbp', 1): (16, 18, 16, 96, 2, '6e870d6389f7f242e9d57df85b43cd1fbb5a5f5a1a7ff66043997b8a46c1cbb0'),
    ('L1', 'prbp', 3): (24, 25, 24, 96, 1, '216f6671fcd28f1f0234489b6e87cb2db0fe9c4d01b5a9a71b500852756c8137'),
    ('L1', 'prbp', 5): (14, 15, 14, 96, 1, '2ebe8ba4cf652087934fbb5f4049e777e302e1a1cce06a62f9acc0d49c404616'),
    ('L1', 'rbp', 0): (17, 21, 17, 96, 4, '52b63e754ead4ef7a9c7b8b927c2c67eae6bb6d3ba9a7e56752d2c02c4bab90c'),
    ('L1', 'rbp', 1): (12, 16, 12, 96, 4, 'ff9cdc6192694552a834da96b9f478d9c9fdc8c1ebf2d99c44efbc7e615324db'),
    ('L2', 'prbp', 3): (25, 26, 25, 96, 1, 'e66f589056a912a23de9c65c728b959fd46975bd409ea9bdcaf4ef0c9c6028ec'),
    ('L2', 'prbp', 5): (13, 16, 13, 96, 2, '8a509ef371d7e4793f0138ac96c2ec0e35d3454afbf6681b200c1e3116953cf9'),
    ('L2', 'rbp', 0): (26, 29, 26, 96, 3, 'a2368074dce2223e1ee2555abe9c0d937e607fac7dbd8cca8806f3d97f5c203b'),
    ('L2', 'rbp', 1): (21, 24, 21, 96, 3, 'b05d53668bbaa660535cfc5de8ac3bdd03a970f1923d59af9021c70eb10bbff8'),
    ('L3', 'prbp', 3): (45, 46, 45, 96, 1, 'a0a9567f7a6f456a73bc0867488dca72f4275ef1b57648e0f681898a7229f6a3'),
    ('L3', 'prbp', 5): (24, 26, 24, 96, 2, '93a7992595d4f1ed41c3b94d403a9064951d446fca82fe492314d44d5bd85dd7'),
    ('L3', 'rbp', 0): (28, 33, 28, 96, 5, '20115c928cb46b0a59efdaf948dc46df48ac75bd95d19488a42c53bf9ad24a07'),
    ('L3', 'rbp', 1): (22, 27, 22, 96, 5, 'aafa44ad0292bb9ddc6ea605efa4ef6227c31fb35df858aaa7a12b7f58606c26'),
    ('L4', 'prbp', 3): (38, 40, 38, 96, 2, '694cc783e73fb15e18edf25829f24624b52cfeb77c299f7cf2408ab28c20ebd3'),
    ('L4', 'prbp', 5): (27, 28, 27, 96, 1, 'ee4ea8c4b760eb8ef67420f04d5edece299fbd922c7f83bbd8f73a71b253b1a1'),
    ('L4', 'rbp', 0): (34, 36, 34, 96, 2, 'de010299a9a5895deed0ade2167761662761122154922b418978768a6e5e78ce'),
    ('L4', 'rbp', 1): (27, 29, 27, 96, 2, '119baf6a1ceddbaf4b22bd19ea11fadfda2e2500ea61a8209fc8b05cd1c2a082'),
    ('L5', 'prbp', 3): (36, 37, 36, 96, 1, 'e4cb0b8ffbd674bf98221303f473784d821aaf03eafb4ac15b9f49a6aad01504'),
    ('L5', 'prbp', 5): (23, 25, 23, 96, 1, '6fe07158b39b65b1effa65364fa3275f631767030b501bc468926dbcdf7d2a3d'),
    ('L5', 'rbp', 0): (20, 26, 20, 96, 5, 'e20ea00c8e56ecaa2bcb67f34b59657526e00e02b4a26c1c3c8adc4b06c0576d'),
    ('L5', 'rbp', 1): (20, 22, 20, 96, 2, '62412d9b759d51c38a550f9e72f1d124f486541c1eec91f7bb1396d49cdd4d32'),
    ('tree-2-4', 'prbp', 4): (19, 19, 19, 96, 0, '5a0a4f761fe62a823dde18b323b872acdc7b6e40fa4eec294c1fdcf1d442c31f'),
    ('tree-2-4', 'rbp', 1): (23, 31, 23, 96, 8, '7059b8535ba7a2cc3f5f54efb343789b18adbf2014db596ea233df4445fb6d38'),
    ('fft-8', 'prbp', 5): (29, 31, 29, 96, 2, 'b0e7308c3e06c68ae0252fca17199fdc9d291bc966842d838357b062192f3df8'),
    ('fft-8', 'rbp', 1): (35, 42, 35, 96, 7, 'de3eacf0bc96e3514639c4872a748ec0358a964951fab81ece85dd07550ba1da'),
    ('matvec-4', 'prbp', 8): (24, None, None, None, None, 'd6e2ae85e6c6d610f483d952a20958428278e339e0171b217fcc01ce5db3d3bf'),
    ('matvec-4', 'rbp', 2): (35, 46, 35, 96, 11, '5d816f25c416b1c6a577261e4e917c4712f1324e677e3fd72cab3c4b28da252d'),
    ('chained-5', 'prbp', 4): (2, None, None, None, None, '8865eb78b88aa658c074f7a83c7f30f85fbd12709ac1fade2577c21dcff2610e'),
    ('chained-5', 'rbp', 1): (12, 36, 12, 96, 24, '151651e91b10b08a3cacacb41a8aefec39a98b07ed8d1679ed5cdc16ab45fab4'),
}


@pytest.mark.parametrize("case", list(PINS), ids=["-".join(map(str, c)) for c in PINS])
def test_solve_matches_recorded_result(case):
    assert solve_pin(*case) == PINS[case]
