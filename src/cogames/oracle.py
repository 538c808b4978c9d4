"""Brute-force ground truth on explicit finite trees.

Everything here is deliberately naive: recursive evaluation, literal
enumeration of deviation profiles, bottom-up optimal choice.  The engine
modules are validated against these independent computations on small
instances, so nothing in this module may share code with them.  Payoffs
are plain integers (finite trees need no index parameter); sizes are
capped on purpose.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Mapping, Union

from .system import Affine, Choice, CoSystem, GAME, Ref, STRATEGY
from .system import Leaf as SysLeaf
from .system import Node as SysNode
from .verdict import Verdict


class TooLargeError(ValueError):
    """Enumeration would exceed the configured profile bound."""


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


def erase_choices(s: FiniteStrategy) -> FiniteGame:
    if isinstance(s, Leaf):
        return s
    return GameNode(s.owner, erase_choices(s.left), erase_choices(s.right))


def backward_induction(g: FiniteGame, tiebreak: str = PREFER_LEFT) -> FiniteStrategy:
    """Bottom-up optimal choice; every subtree of the result is optimal.

    Ties between the two branch utilities are broken by the flag; the
    delicate properties downstream (weak-dominance subgame perfection)
    are exercised under both settings.
    """
    if tiebreak not in (PREFER_LEFT, PREFER_RIGHT):
        raise ValueError(f"unknown tiebreak {tiebreak!r}")

    def solve(t: FiniteGame) -> tuple[FiniteStrategy, Mapping[str, int]]:
        if isinstance(t, Leaf):
            return t, t.payoffs
        left, lu = solve(t.left)
        right, ru = solve(t.right)
        mine_l, mine_r = lu[t.owner], ru[t.owner]
        if mine_l > mine_r:
            choice = Choice.L
        elif mine_r > mine_l:
            choice = Choice.R
        else:
            choice = Choice.L if tiebreak == PREFER_LEFT else Choice.R
        utility = lu if choice is Choice.L else ru
        return StrategyNode(t.owner, choice, left, right), utility

    return solve(g)[0]


def _agent_positions(s: FiniteStrategy, agent: str, path: tuple[Choice, ...] = ()) -> list[tuple[Choice, ...]]:
    if isinstance(s, Leaf):
        return []
    here = [path] if s.owner == agent else []
    return (here
            + _agent_positions(s.left, agent, path + (Choice.L,))
            + _agent_positions(s.right, agent, path + (Choice.R,)))


def _rewrite(s: FiniteStrategy, assignment: dict[tuple[Choice, ...], Choice],
             path: tuple[Choice, ...] = ()) -> FiniteStrategy:
    if isinstance(s, Leaf):
        return s
    choice = assignment.get(path, s.choice)
    return StrategyNode(s.owner, choice,
                        _rewrite(s.left, assignment, path + (Choice.L,)),
                        _rewrite(s.right, assignment, path + (Choice.R,)))


def owners(t: FiniteGame | FiniteStrategy) -> set[str]:
    if isinstance(t, Leaf):
        return set()
    return {t.owner} | owners(t.left) | owners(t.right)


def exhaustive_nash(s: FiniteStrategy, max_profiles: int = 1 << 14) -> Verdict:
    """Literal Nash check: per agent, enumerate every rewrite of that
    agent's choices, evaluate, and compare.  Finite strategies always
    lead to a leaf, so every profile has a utility."""
    for agent in sorted(owners(s)):
        positions = _agent_positions(s, agent)
        if 2 ** len(positions) > max_profiles:
            raise TooLargeError(
                f"{agent} owns {len(positions)} nodes: {2 ** len(positions)} profiles "
                f"exceed the bound of {max_profiles}")
        base = finite_utility(s, agent)
        for choices in itertools.product((Choice.L, Choice.R), repeat=len(positions)):
            assignment = dict(zip(positions, choices))
            value = finite_utility(_rewrite(s, assignment), agent)
            if value > base:
                overrides = [
                    {"position": [c.value for c in pos], "choice": ch.value}
                    for pos, ch in assignment.items()
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


def embed(t: FiniteGame | FiniteStrategy, kind: str | None = None) -> CoSystem:
    """Embed a finite tree as an acyclic, non-parametric equation system,
    one class per node in preorder.  The kind is inferred from the node
    types unless the tree is a single leaf, in which case it defaults to
    strategy.  An explicit stack keeps deep trees off the call stack."""
    nodes: list[FiniteGame | FiniteStrategy] = []  # preorder
    kids: list[list[int]] = []  # preorder slots of each node's two children
    todo: list[tuple[FiniteGame | FiniteStrategy, int, int]] = [(t, -1, 0)]
    while todo:
        node, up, side = todo.pop()
        if up >= 0:
            kids[up][side] = len(nodes)
        nodes.append(node)
        kids.append([0, 0])
        if not isinstance(node, Leaf):
            todo += [(node.right, len(nodes) - 1, 1), (node.left, len(nodes) - 1, 0)]
    if kind is None:
        kind = GAME if any(isinstance(node, GameNode) for node in nodes) else STRATEGY
    roster: set[str] = set()
    classes: list[SysLeaf | SysNode] = []
    for node, (left, right) in zip(nodes, kids):
        if isinstance(node, Leaf):
            roster.update(node.payoffs)
            classes.append(SysLeaf({a: Affine.const(v) for a, v in node.payoffs.items()}))
        else:
            roster.add(node.owner)
            choice = node.choice if isinstance(node, StrategyNode) else None
            classes.append(SysNode(node.owner, choice, Ref(left), Ref(right)))
    return CoSystem(kind, tuple(sorted(roster)), tuple(classes), Ref(0))


def random_game(seed: int, max_depth: int = 3, payoff_range: tuple[int, int] = (-9, 9),
                roster: tuple[str, ...] = ("Alice", "Bob"), leaf_bias: float = 0.35) -> FiniteGame:
    """Deterministic-in-seed random finite game."""
    rng = random.Random(seed)

    def gen(depth: int) -> FiniteGame:
        if depth >= max_depth or rng.random() < leaf_bias:
            return Leaf({a: rng.randint(*payoff_range) for a in roster})
        return GameNode(rng.choice(roster), gen(depth + 1), gen(depth + 1))

    return gen(0)


def random_strategy(seed: int, max_depth: int = 3, payoff_range: tuple[int, int] = (-9, 9),
                    roster: tuple[str, ...] = ("Alice", "Bob"), leaf_bias: float = 0.35) -> FiniteStrategy:
    """Deterministic-in-seed random finite strategy (random choices)."""
    rng = random.Random(seed)

    def gen(depth: int) -> FiniteStrategy:
        if depth >= max_depth or rng.random() < leaf_bias:
            return Leaf({a: rng.randint(*payoff_range) for a in roster})
        return StrategyNode(rng.choice(roster), rng.choice((Choice.L, Choice.R)),
                            gen(depth + 1), gen(depth + 1))

    return gen(0)
