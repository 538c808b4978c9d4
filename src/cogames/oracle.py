"""Brute-force ground truth on explicit finite trees.

Everything here is deliberately naive: literal enumeration of deviation
profiles, one rebuilt tree per profile, bottom-up optimal choice.  The
engine modules are validated against these independent computations on
small instances, so nothing in this module may share code with them.
Payoffs are plain integers (finite trees need no index parameter); the
profile count is capped on purpose.

The command line does not use this module: ``truncate --solve`` decides
a truncation, itself a ``CoSystem``, with ``families.backward_induction``,
``nash_eq`` and ``sgpe``.  This is the independent finite reference that
the tests and the benchmark's own tests check those engines against.  A
truncation is as deep as its horizon, so the functions they call walk a
tree's positions in preorder with an explicit stack; only the helpers
``finite_sgpe`` and ``size`` recurse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Union

from .system import Affine, Choice, CoSystem, GAME, Ref, STRATEGY
from .system import Leaf as SysLeaf
from .system import Node as SysNode
from .verdict import Verdict


# per agent, ``exhaustive_nash`` refuses to enumerate more profiles
MAX_PROFILES = 1 << 14


class TooLargeError(ValueError):
    """Enumeration would exceed ``MAX_PROFILES``."""


@dataclass(frozen=True)
class Leaf:
    payoffs: Mapping[str, int]


@dataclass(frozen=True)
class GameNode:
    owner: str
    left: "FiniteGame"
    right: "FiniteGame"


@dataclass(frozen=True)
class StrategyNode:
    owner: str
    choice: Choice
    left: "FiniteStrategy"
    right: "FiniteStrategy"


FiniteGame = Union[Leaf, GameNode]
FiniteStrategy = Union[Leaf, StrategyNode]

PREFER_LEFT = "prefer_left"
PREFER_RIGHT = "prefer_right"


def size(t: FiniteGame | FiniteStrategy) -> int:
    """Total node count, leaves included."""
    if isinstance(t, Leaf):
        return 1
    return 1 + size(t.left) + size(t.right)


def finite_utility(s: FiniteStrategy, agent: str) -> int:
    """Follow the choices to the leaf and read off the agent's payoff."""
    while isinstance(s, StrategyNode):
        s = s.left if s.choice is Choice.L else s.right
    return s.payoffs[agent]


# a position of a tree in preorder: its subtree, the preorder slot of its
# parent (-1 at the root) and the choice that leads there from the parent
Position = tuple[Union[FiniteGame, FiniteStrategy], int, Union[Choice, None]]


def _preorder(t: FiniteGame | FiniteStrategy) -> list[Position]:
    """Every position of ``t`` in preorder (left before right).  An
    explicit stack keeps deep trees off the call stack."""
    order: list[Position] = []
    todo: list[Position] = [(t, -1, None)]
    while todo:
        order.append(todo.pop())
        node = order[-1][0]
        if not isinstance(node, Leaf):
            todo += [(node.right, len(order) - 1, Choice.R), (node.left, len(order) - 1, Choice.L)]
    return order


def _fold(order: list[Position], leaf: Callable[[Leaf], Any],
          node: Callable[[int, Any, Any, Any], Any]) -> Any:
    """Combine a tree bottom-up: ``leaf(t)`` at each leaf, and
    ``node(slot, t, left, right)`` at the node in preorder ``slot`` from
    its two subtrees' results."""
    done = []
    for slot in range(len(order) - 1, -1, -1):
        t = order[slot][0]
        if isinstance(t, Leaf):
            done.append(leaf(t))
        else:
            left = done.pop()
            done.append(node(slot, t, left, done.pop()))
    return done[0]


def erase_choices(s: FiniteStrategy) -> FiniteGame:
    return _fold(_preorder(s), lambda t: t, lambda _, t, left, right: GameNode(t.owner, left, right))


def backward_induction(g: FiniteGame, tiebreak: str = PREFER_LEFT) -> FiniteStrategy:
    """Bottom-up optimal choice; every subtree of the result is optimal.

    Ties between the two branch utilities are broken by the flag; the
    delicate properties downstream (weak-dominance subgame perfection)
    are exercised under both settings.
    """
    if tiebreak not in (PREFER_LEFT, PREFER_RIGHT):
        raise ValueError(f"unknown tiebreak {tiebreak!r}")

    def solve(_, t: GameNode, solved_l, solved_r) -> tuple[FiniteStrategy, Mapping[str, int]]:
        (left, lu), (right, ru) = solved_l, solved_r
        mine_l, mine_r = lu[t.owner], ru[t.owner]
        if mine_l > mine_r:
            choice = Choice.L
        elif mine_r > mine_l:
            choice = Choice.R
        else:
            choice = Choice.L if tiebreak == PREFER_LEFT else Choice.R
        utility = lu if choice is Choice.L else ru
        return StrategyNode(t.owner, choice, left, right), utility

    return _fold(_preorder(g), lambda t: (t, t.payoffs), solve)[0]


def _agent_positions(order: list[Position], agent: str) -> list[int]:
    """Preorder slots of the agent's nodes."""
    return [slot for slot, (t, _, _) in enumerate(order) if not isinstance(t, Leaf) and t.owner == agent]


def _path(order: list[Position], slot: int) -> list[str]:
    """The choices from the root to the position in ``slot``."""
    path = []
    while order[slot][1] >= 0:
        path.append(order[slot][2].value)
        slot = order[slot][1]
    return path[::-1]


def _rewrite(order: list[Position], assignment: dict[int, Choice]) -> FiniteStrategy:
    """The strategy with the choice at each assigned preorder slot replaced."""
    return _fold(order, lambda t: t, lambda slot, t, left, right:
                 StrategyNode(t.owner, assignment.get(slot, t.choice), left, right))


def owners(t: FiniteGame | FiniteStrategy) -> set[str]:
    return {node.owner for node, _, _ in _preorder(t) if not isinstance(node, Leaf)}


def exhaustive_nash(s: FiniteStrategy) -> Verdict:
    """Literal Nash check: per agent, enumerate every rewrite of that
    agent's choices, evaluate, and compare.  Finite strategies always
    lead to a leaf, so every profile has a utility."""
    order = _preorder(s)
    for agent in sorted(owners(s)):
        positions = _agent_positions(order, agent)
        if 2 ** len(positions) > MAX_PROFILES:
            raise TooLargeError(
                f"{agent} owns {len(positions)} nodes: 2^{len(positions)} profiles "
                f"exceed the bound of {MAX_PROFILES}")
        base = finite_utility(s, agent)
        for choices in itertools.product((Choice.L, Choice.R), repeat=len(positions)):
            assignment = dict(zip(positions, choices))
            value = finite_utility(_rewrite(order, assignment), agent)
            if value > base:
                overrides = [
                    {"position": _path(order, slot), "choice": ch.value}
                    for slot, ch in assignment.items()
                ]
                return Verdict(False, {
                    "agent": agent,
                    "on_path_value": base,
                    "deviation_value": value,
                    "profile": overrides,
                }, f"{agent} improves {base} -> {value}")
    utilities = {a: finite_utility(s, a) for a in sorted(owners(s))}
    return Verdict(True, {"utilities": utilities}, "no profitable unilateral rewrite")


def finite_sgpe(s: FiniteStrategy) -> bool:
    """Recursive subgame perfection: at every node the owner's chosen
    branch weakly dominates the other, and both subtrees are again
    subgame perfect."""
    if isinstance(s, Leaf):
        return True
    if not (finite_sgpe(s.left) and finite_sgpe(s.right)):
        return False
    mine_l = finite_utility(s.left, s.owner)
    mine_r = finite_utility(s.right, s.owner)
    return mine_r <= mine_l if s.choice is Choice.L else mine_l <= mine_r


def embed(t: FiniteGame | FiniteStrategy) -> CoSystem:
    """Embed a finite tree as an acyclic, non-parametric equation system,
    one class per node in preorder.  The kind is inferred from the node
    types; a single leaf is a strategy."""
    order = _preorder(t)
    kids = [[0, 0] for _ in order]  # preorder slots of each node's two children
    for slot, (_, up, choice) in enumerate(order):
        if up >= 0:
            kids[up][choice is Choice.R] = slot
    kind = GAME if any(isinstance(node, GameNode) for node, _, _ in order) else STRATEGY
    roster: set[str] = set()
    classes: list[SysLeaf | SysNode] = []
    for (node, _, _), (left, right) in zip(order, kids):
        if isinstance(node, Leaf):
            roster.update(node.payoffs)
            classes.append(SysLeaf({a: Affine.const(v) for a, v in node.payoffs.items()}))
        else:
            roster.add(node.owner)
            choice = node.choice if isinstance(node, StrategyNode) else None
            classes.append(SysNode(node.owner, choice, Ref(left), Ref(right)))
    return CoSystem(kind, tuple(sorted(roster)), tuple(classes), Ref(0))
