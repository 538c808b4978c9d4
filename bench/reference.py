"""Expected answers for every benchmark operation, computed without cogames.

This module imports nothing from the package under test.  Its answers
come from three independent sources:

* paper-families: the verdict table of Lescanne & Perrinel for the dollar
  auction and the centipede (always give up is a Nash equilibrium and an
  SGPE and always leads to a leaf; never give up is only vacuously Nash),
  the histories ``r`` and ``(l)^w``, and the paper's worked example;
* deep-chains: backward induction and linear best-response passes on the
  generator's own chain model;
* product-pairs: what each pair is by construction (the same tree drawn
  twice, or one known change).

An expected answer maps each report check name to a dict with its
``outcome`` and optional facts about its certificate or value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

AGENTS = ("Alice", "Bob")
Payoffs = dict[str, tuple[int, int]]  # agent -> (slope, intercept)

# Paper verdicts per canonical strategy; "ngu" is only vacuously Nash.
PAPER_TABLE = {
    "agu": {"ltl": "holds", "altl": "holds", "nash": "holds", "sgpe": "holds"},
    "ngu": {"ltl": "fails", "altl": "fails", "nash": "holds", "sgpe": "fails"},
}
PAPER_HISTORY = {"agu": "r", "ngu": "(l)^w"}


def expect(checks: dict[str, dict]) -> dict:
    """Expected report: exit 1 exactly when some check fails."""
    failing = any(c["outcome"] == "fails" for c in checks.values())
    return {"exit": 1 if failing else 0, "checks": checks}


def family_answers(strategy: str) -> dict:
    """The dollar auction and the centipede share the paper's verdict
    pattern.  Always give up stops at the root after one choice."""
    table = PAPER_TABLE[strategy]
    checks = {name: {"outcome": outcome} for name, outcome in table.items()}
    if strategy == "agu":
        checks["ltl"]["steps"] = 1
    return {
        "check": expect(checks),
        "history": expect({"history": {"outcome": "info", "value": PAPER_HISTORY[strategy]}}),
    }


def worked_example_answers() -> dict:
    """The paper's finite example: Alice goes right, Bob left, and the
    outcome (2, 2) is subgame perfect (Bob is indifferent)."""
    checks = {name: {"outcome": "holds"} for name in ("ltl", "altl", "nash", "sgpe")}
    checks["ltl"]["steps"] = 2
    return {
        "check": expect(checks),
        "history": expect({"history": {"outcome": "info", "value": "rl"}}),
    }


# ---------------------------------------------------------------------------
# chains


@dataclass(frozen=True)
class Chain:
    """Node i is reached only at index i.  It continues ("l") to node i+1
    or stops ("r") at its own leaf; after the last node comes ``end``."""

    owners: tuple[str, ...]
    choices: tuple[str, ...]
    stops: tuple[Payoffs, ...]
    end: Payoffs


def at(payoffs: Payoffs, n: int) -> dict[str, int]:
    return {a: s * n + b for a, (s, b) in payoffs.items()}


def sloped(values: dict[str, int], n: int, rng: random.Random) -> Payoffs:
    """Random slopes with intercepts chosen to give ``values`` at index n."""
    out = {}
    for a in AGENTS:
        slope = rng.randint(-3, 3)
        out[a] = (slope, values[a] - slope * n)
    return out


def solved_chain(length: int, stops: int, rng: random.Random) -> Chain:
    """A chain of ``length`` nodes whose choices are its backward-induction
    solution.  Payoffs are drawn bottom-up so that every owner strictly
    prefers one branch, and so that exactly ``stops`` nodes (at most the
    length) stop; with few stops the chosen walks are long."""
    stop_at = set(rng.sample(range(length), min(length, stops)))
    end = sloped({a: rng.randint(-50, 50) for a in AGENTS}, length, rng)
    owners, choices, stops = [], [], []
    cont = at(end, length)
    for i in reversed(range(length)):
        owner = rng.choice(AGENTS)
        gap = rng.randint(1, 9)
        values = {a: rng.randint(-60, 60) for a in AGENTS}
        values[owner] = cont[owner] + (gap if i in stop_at else -gap)
        stops.append(sloped(values, i, rng))
        owners.append(owner)
        choices.append("r" if values[owner] > cont[owner] else "l")
        if choices[-1] == "r":
            cont = values
    return Chain(tuple(reversed(owners)), tuple(reversed(choices)), tuple(reversed(stops)), end)


def first_stop(chain: Chain) -> int:
    """Index of the node where play stops, or the length for the end leaf."""
    return next((i for i, c in enumerate(chain.choices) if c == "r"), len(chain.choices))


def flip_one(chain: Chain, rng: random.Random) -> Chain:
    """Flip one choice, on the played path or off it with equal odds."""
    stop = first_stop(chain)
    n = len(chain.choices)
    on_path = rng.random() < 0.5 or stop + 1 >= n
    k = rng.randint(0, min(stop, n - 1)) if on_path else rng.randint(stop + 1, n - 1)
    choices = list(chain.choices)
    choices[k] = "l" if choices[k] == "r" else "r"
    return replace(chain, choices=tuple(choices))


def chain_answers(chain: Chain) -> dict:
    """Verdicts by linear passes over the chain, from the end backwards.

    ``outcome[i]``: payoffs when play starts at node i and follows the
    committed choices.  SGPE: at every node the owner's chosen branch is
    weakly better than the other.  Nash: for each agent, the best payoff
    it can reach by rewriting only its own choices (``best``) is no
    better than the played outcome."""
    n = len(chain.choices)
    outcome = at(chain.end, n)
    best = dict(outcome)
    sgpe = True
    for i in reversed(range(n)):
        owner = chain.owners[i]
        stop = at(chain.stops[i], i)
        cont = outcome
        chosen, other = (stop, cont) if chain.choices[i] == "r" else (cont, stop)
        sgpe = sgpe and chosen[owner] >= other[owner]
        for a in AGENTS:
            if a == owner:
                best[a] = max(stop[a], best[a])
            elif chain.choices[i] == "r":
                best[a] = stop[a]
        outcome = chosen
    nash = all(best[a] <= outcome[a] for a in AGENTS)
    return expect({
        "ltl": {"outcome": "holds", "steps": min(first_stop(chain) + 1, n)},
        "altl": {"outcome": "holds"},
        "nash": {"outcome": "holds" if nash else "fails"},
        "sgpe": {"outcome": "holds" if sgpe else "fails"},
    })


# ---------------------------------------------------------------------------
# rings


@dataclass(frozen=True)
class RingNode:
    """A node continuing (left child) to the next node at ``n + shift``,
    with its own leaf on the right."""

    owner: str
    choice: str
    shift: int
    leaf: Payoffs


@dataclass(frozen=True)
class Ring:
    """Prefix nodes followed by a cycle; the last node returns to the
    first cycle node."""

    prefix: tuple[RingNode, ...]
    cycle: tuple[RingNode, ...]


def const(rng: random.Random) -> Payoffs:
    return {a: (0, rng.randint(-9, 9)) for a in AGENTS}


def identical_rings(p: int, q: int, rng: random.Random) -> tuple[Ring, Ring]:
    """Rings of p and q identical nodes: the same tree.  With p, q coprime
    the product walk visits every (i, j) node pair and leaf pair."""
    node = RingNode(rng.choice(AGENTS), rng.choice("lr"), 0, const(rng))
    return Ring((), (node,) * p), Ring((), (node,) * q)


def parametric_rings(p: int, q: int, rng: random.Random) -> tuple[Ring, Ring]:
    """The same parametric tree twice: the q-ring advances the index by 1
    on every edge, the p-ring by a random 0/1/2 pattern summing to p, with
    leaf intercepts corrected so each leaf pays the same at every depth."""
    owner, choice = rng.choice(AGENTS), rng.choice("lr")
    payoffs = {a: (rng.choice((-2, -1, 1, 2)), rng.randint(-9, 9)) for a in AGENTS}
    shifts = []
    while len(shifts) + 1 < p:
        shifts.extend(rng.choice(((0, 2), (1, 1), (2, 0))))
    shifts.extend([1] * (p - len(shifts)))
    cycle, done = [], 0
    for i, step in enumerate(shifts):
        leaf = {a: (s, b + s * (i - done)) for a, (s, b) in payoffs.items()}
        cycle.append(RingNode(owner, choice, step, leaf))
        done += step
    plain = RingNode(owner, choice, 1, payoffs)
    return Ring((), tuple(cycle)), Ring((), (plain,) * q)


def random_node(rng: random.Random, owner: str | None = None) -> RingNode:
    return RingNode(owner or rng.choice(AGENTS), rng.choice("lr"), 0, const(rng))


def mutant_pair(kind: str, length: int, rng: random.Random) -> tuple[Ring, Ring]:
    """A pair that differs by one change, with rings of about ``length``.

    ``far_payoff``: identical rings of coprime lengths ``length`` and
    ``length + 1``; the last leaf of the second ring pays differently.
    ``prefix_flip``/``ring_flip``: Alice's choice flipped once in the
    prefix / in the cycle of an otherwise equal copy.  ``foreign_flip``:
    the same for one of Bob's nodes.  Flipped pairs use equal cycle
    lengths."""
    if kind == "far_payoff":
        a, b = identical_rings(length, length + 1, rng)
        last = b.cycle[-1]
        changed = {x: (0, y + rng.choice((-3, -2, -1, 1, 2, 3))) for x, (_, y) in last.leaf.items()}
        return a, replace(b, cycle=b.cycle[:-1] + (replace(last, leaf=changed),))
    owner = "Bob" if kind == "foreign_flip" else "Alice"
    prefix = [random_node(rng) for _ in range(rng.randint(2, 20))]
    cycle = [random_node(rng) for _ in range(length)]
    nodes = cycle if kind == "ring_flip" else prefix
    k = rng.randrange(len(nodes))
    nodes[k] = replace(nodes[k], owner=owner)
    flipped = list(nodes)
    flipped[k] = replace(nodes[k], choice="l" if nodes[k].choice == "r" else "r")
    a = Ring(tuple(prefix), tuple(cycle))
    if kind == "ring_flip":
        return a, Ring(tuple(prefix), tuple(flipped))
    return a, Ring(tuple(flipped), tuple(cycle))


def offset_moved(rng: random.Random) -> tuple[Ring, Ring]:
    """The ``n+100`` shape: one ring enters its cycle through an edge at
    ``n + D``; the other enters at ``n`` and adds the slope times D to
    every cycle leaf.  D exceeds the total class count of the pair."""
    p, q = rng.randint(3, 30), rng.randint(3, 30)
    entry = random_node(rng)
    slope = {a: rng.choice((-2, -1, 1, 2)) for a in AGENTS}
    base = {a: rng.randint(-9, 9) for a in AGENTS}
    plain = RingNode(rng.choice(AGENTS), rng.choice("lr"), 1, {a: (slope[a], base[a]) for a in AGENTS})
    offset = 2 * (p + q + 2) + rng.randint(100, 200)
    moved = replace(plain, leaf={a: (slope[a], base[a] + slope[a] * offset) for a in AGENTS})
    shifted = Ring((replace(entry, shift=offset),), (plain,) * p)
    return shifted, Ring((entry,), (moved,) * q)



def pair_answers(kind: str, a: Ring, b: Ring) -> tuple[dict, dict]:
    """(bisim, convert) answers by construction.  ``bisim`` is exact for
    non-parametric pairs and falls back to the CLI's depth-24 comparison
    for parametric ones."""
    p, q = len(a.cycle), len(b.cycle)
    if kind == "same":
        bisim = {"bisimilar": {"outcome": "holds", "relation_rows": 2 * p * q}}
        return expect(bisim), expect({"convertible": {"outcome": "holds", "class": "inductive"}})
    if kind in ("param", "offset_moved"):
        bisim = {"bisimilar_bounded[24]": {"outcome": "holds"}}
        return expect(bisim), expect({"convertible": {"outcome": "holds", "class": "inductive"}})
    if kind == "far_payoff":
        # the first difference: the leaf of the second ring's last node
        bisim = {"bisimilar": {"outcome": "fails", "reason": "leaf payoffs differ",
                               "path": ["l"] * (q - 1) + ["r"]}}
        conv = {"convertible": {"outcome": "fails", "class": "not_convertible"}}
        return expect(bisim), expect(conv)
    # flips: the first difference is the flipped node itself
    a_nodes, b_nodes = a.prefix + a.cycle, b.prefix + b.cycle
    depth = next(i for i, (x, y) in enumerate(zip(a_nodes, b_nodes)) if x != y)
    bisim = {"bisimilar": {"outcome": "fails", "reason": "choice differs", "path": ["l"] * depth}}
    conv_class = {"prefix_flip": "inductive", "ring_flip": "coinductive_only",
                  "foreign_flip": "not_convertible"}[kind]
    outcome = "fails" if conv_class == "not_convertible" else "holds"
    return expect(bisim), expect({"convertible": {"outcome": outcome, "class": conv_class}})
