"""Pebbling solvers: exact search, the paper's structured strategies, greedy baselines."""

from .anytime import (
    BEAM_NODE_LIMIT,
    DEFAULT_REFINE_STEPS,
    RefinementTrajectory,
    beam_construct,
    refine_schedule,
)
from .baselines import naive_prbp_schedule, naive_rbp_schedule
from .exhaustive import (
    DEFAULT_MAX_STATES,
    optimal_prbp_cost,
    optimal_prbp_schedule,
    optimal_rbp_cost,
    optimal_rbp_schedule,
)
from .greedy import greedy_rbp_schedule, topological_prbp_schedule
from .structured import (
    attention_flash_prbp_schedule,
    chained_gadget_prbp_schedule,
    collection_full_prbp_schedule,
    collection_full_rbp_schedule,
    fanin_groups_prbp_schedule,
    fft_blocked_prbp_schedule,
    fft_blocked_rbp_schedule,
    figure1_prbp_schedule,
    figure1_rbp_schedule,
    matmul_tiled_prbp_schedule,
    matvec_prbp_schedule,
    tree_prbp_schedule,
    tree_rbp_schedule,
    zipper_prbp_schedule,
    zipper_rbp_schedule,
)

__all__ = [
    "BEAM_NODE_LIMIT",
    "DEFAULT_REFINE_STEPS",
    "RefinementTrajectory",
    "beam_construct",
    "refine_schedule",
    "naive_prbp_schedule",
    "naive_rbp_schedule",
    "DEFAULT_MAX_STATES",
    "optimal_prbp_cost",
    "optimal_prbp_schedule",
    "optimal_rbp_cost",
    "optimal_rbp_schedule",
    "greedy_rbp_schedule",
    "topological_prbp_schedule",
    "attention_flash_prbp_schedule",
    "chained_gadget_prbp_schedule",
    "collection_full_prbp_schedule",
    "collection_full_rbp_schedule",
    "fanin_groups_prbp_schedule",
    "fft_blocked_prbp_schedule",
    "fft_blocked_rbp_schedule",
    "figure1_prbp_schedule",
    "figure1_rbp_schedule",
    "matmul_tiled_prbp_schedule",
    "matvec_prbp_schedule",
    "tree_prbp_schedule",
    "tree_rbp_schedule",
    "zipper_prbp_schedule",
    "zipper_rbp_schedule",
]
