"""Finitely presented infinite extensive games.

Infinite binary game trees and strategy profiles are represented as
finite systems of parametric corecursive equations; on that
representation the package decides bisimilarity, leaf-termination,
utility assignment, convertibility, Nash equilibrium, and subgame
perfect equilibrium, with machine-checkable certificates.  The dollar
auction and centipede families ship as built-ins together with a small
source language (``.cog``), a brute-force oracle on finite trees, and a
CLI (``cogames``).
"""

__version__ = "0.1.0"

from .histories import (
    LassoHistory,
    canonicalize,
    format_lasso,
    h_bisimilar,
    in_h1,
    in_h2,
    is_finite,
    is_history_of,
    parse_lasso,
    strategy_history,
)
from .equilibria import (
    ReachSet,
    nash_eq,
    reach_index_sets,
    sgpe,
)
from .semantics import alw_leads_to_leaf, leads_to_leaf, s2u, utility_from
from .system import (
    GAME,
    STRATEGY,
    Affine,
    Choice,
    ConvClass,
    Convertibility,
    CoSystem,
    InvalidSystemError,
    KindMismatchError,
    Leaf,
    Node,
    Ref,
    RosterMismatchError,
    annotate,
    bisimilar,
    bisimilar_bounded,
    convertible,
    is_parametric,
    reachable,
    strategy_to_game,
    unfold,
    validate,
    with_root,
)
from .verdict import Verdict

__all__ = [
    "Affine", "Choice", "CoSystem", "ConvClass", "Convertibility", "GAME",
    "InvalidSystemError", "KindMismatchError", "LassoHistory", "Leaf", "Node",
    "ReachSet", "Ref", "RosterMismatchError",
    "STRATEGY", "Verdict", "alw_leads_to_leaf", "annotate", "bisimilar",
    "bisimilar_bounded", "canonicalize", "convertible", "format_lasso",
    "h_bisimilar", "in_h1", "in_h2", "is_finite", "is_history_of",
    "is_parametric", "leads_to_leaf", "nash_eq", "parse_lasso",
    "reach_index_sets", "reachable", "s2u", "sgpe", "strategy_history",
    "strategy_to_game", "unfold", "utility_from", "validate", "with_root",
]
