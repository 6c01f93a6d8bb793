"""diophlab: exact tools for simultaneous rational approximation in the plane.

The package computes best-approximation sequences and their piecewise-linear
lattice profiles, the two shortest primitive classes of the pair lattice
attached to a primitive vector, self-similar families of descendant vectors
with verified separation, slow-divergence chains driven by a prescribed
profile, and box-counting dimension certificates for the limit sets.
"""

from .bestapprox import (
    best_approximations,
    shortest_vector_oracle,
    shortest_vector_reduced,
    wx_profile,
)
from .construct import (
    Chain,
    Schedule,
    cantor_children,
    child_vector,
    expansion_tree,
    fixed_chain,
    limit_box,
    regularize_schedule,
    sandwich_audit,
    sing_chain,
    slow_chain,
    slow_step,
    tree_audit,
    verify_spacing,
)
from .core import PrimVec, RatPoint, Wedge2, pvec, proj_dist, residual, seminorm, wedge
from .latinv import Invariants, distortion_below, invariants, lattice_minima

__all__ = [
    "Chain",
    "Invariants",
    "PrimVec",
    "RatPoint",
    "Schedule",
    "Wedge2",
    "best_approximations",
    "cantor_children",
    "child_vector",
    "distortion_below",
    "expansion_tree",
    "fixed_chain",
    "invariants",
    "lattice_minima",
    "limit_box",
    "proj_dist",
    "pvec",
    "regularize_schedule",
    "residual",
    "sandwich_audit",
    "seminorm",
    "shortest_vector_oracle",
    "shortest_vector_reduced",
    "sing_chain",
    "slow_chain",
    "slow_step",
    "tree_audit",
    "verify_spacing",
    "wedge",
    "wx_profile",
]

__version__ = "0.1.0"
