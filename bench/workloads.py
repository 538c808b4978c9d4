"""Seeded input generators for the benchmark's workloads.

Each generator returns a :class:`Pool`: the ``.cog`` files to write and
the operations to run on them, one CLI invocation each, together with the
answers that ``reference.py`` derives from the generator's own model of
every input.  The only part of ``cogames`` used here is ``families``, for
the paper's payoffs.

Sizes are stratified: every pool holds one input per equal-probability
stratum of the workload's size distribution, jittered inside its stratum
by the seed.  Every seed therefore gives the same mix of small and large
inputs (and the same share of inputs that hit a known defect), while
payoffs, owners, choices, mutation sites, equation order and run order
all change with the seed.  The run order spreads sizes evenly, so any
prefix of it is a representative sample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import reference
from cogames import families

AGENTS = ("Alice", "Bob")
CHECK_FLAGS = ["--ltl", "--altl", "--nash", "--sgpe"]
GOLDEN = 0.6180339887498949


@dataclass
class Operation:
    """One CLI invocation: ``cogames --json <command> <files> <args>``.

    ``expect`` maps each report check name to its expected outcome and,
    optionally, facts about its certificate (see ``run.judge``).
    ``size`` orders operations for the run order; ``tag`` names the input
    family for the per-operation breakdown.
    """

    name: str
    command: str
    files: list[str]
    args: list[str]
    expect: dict
    size: int
    tag: str

    def argv(self, workdir: Path) -> list[str]:
        return ["--json", self.command, *(str(workdir / f) for f in self.files), *self.args]


@dataclass
class Pool:
    files: dict[str, str] = field(default_factory=dict)
    ops: list[Operation] = field(default_factory=list)


def log_sizes(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes, one per stratum of the log-uniform law on [lo, hi]."""
    return [round(lo * (hi / lo) ** ((k + rng.random()) / count)) for k in range(count)]


def spread_order(ops: list[Operation], rng: random.Random) -> list[Operation]:
    """Order operations so that every prefix samples all sizes: rank by
    size, then visit ranks along a golden-ratio sequence from a seeded
    start."""
    ranked = sorted(ops, key=lambda op: (op.size, op.name))
    start = rng.random()
    keyed = sorted(range(len(ranked)), key=lambda r: (start + r * GOLDEN) % 1.0)
    return [ranked[r] for r in keyed]


def affine(slope: int, intercept: int) -> str:
    """``.cog`` spelling with the sign glued to each literal (``-2*n-1``)."""
    if slope == 0:
        return str(intercept)
    return f"{slope}*n{intercept:+d}" if intercept else f"{slope}*n"


def leaf(payoffs: dict[str, tuple[int, int]]) -> str:
    return "leaf[" + ", ".join(f"{a}: {affine(*payoffs[a])}" for a in AGENTS) + "]"


def source(equations: list[tuple[str, str]], root: str, rng: random.Random | None = None) -> str:
    """A strategy file; equation order is shuffled when ``rng`` is given."""
    eqs = list(equations)
    if rng is not None:
        rng.shuffle(eqs)
    body = "".join(f"{name}(n) = {term}\n" for name, term in eqs)
    return f"strategy agents {' '.join(AGENTS)}\n{body}root {root}\n"


# ---------------------------------------------------------------------------
# paper-families: unrolled dollar auction and centipede

FAMILY_FILES = 120          # generated presentations per pool
FAMILY_MAX_PERIODS = 460    # largest ordinary unrolling
FAMILY_DEEP = (520, 530)    # unrollings past the sgpe recursion limit
FAMILY_DEEP_FILES = 8       # half of them always-give-up
SHIPPED = ("dollar_auction_agu", "dollar_auction_ngu", "centipede_agu", "centipede_ngu", "paper_s0")


def family_source(family: str, strategy: str, periods: int, rng: random.Random) -> str:
    """K = ``periods`` copies of the Alice/Bob period; period i stands for
    backbone position ``K*n + i`` and the last one loops back to period 0
    at ``n+1``.  Payoff slopes are scaled by K, so the system denotes
    exactly the tree of the family itself."""
    choice = "r" if strategy == "agu" else "l"
    k = periods
    alice_leaf, bob_leaf = family_leaves(family)
    eqs = []
    for i in range(k):
        nxt = f"alice{i + 1}(n)" if i + 1 < k else "alice0(n+1)"
        eqs.append((f"alice{i}", f"<Alice, {choice}, bob{i}(n), quit_a{i}(n)>"))
        eqs.append((f"bob{i}", f"<Bob, {choice}, {nxt}, quit_b{i}(n)>"))
        eqs.append((f"quit_a{i}", leaf(at_position(alice_leaf, k, i))))
        eqs.append((f"quit_b{i}", leaf(at_position(bob_leaf, k, i))))
    return source(eqs, "alice0", rng)


def family_leaves(family: str) -> tuple[dict, dict]:
    """The give-up leaves of Alice's and Bob's backbone nodes."""
    game = families.dollar_auction_game() if family == "dollar" else families.centipede_game()
    alice = game.classes[game.root.cls]
    bob = game.classes[alice.left.cls]
    return game.classes[alice.right.cls].payoffs, game.classes[bob.right.cls].payoffs


def at_position(payoffs: dict, k: int, i: int) -> dict[str, tuple[int, int]]:
    """A backbone payoff ``s*p + b`` at position ``p = k*n + i``."""
    return {a: (f.slope * k, f.slope * i + f.intercept) for a, f in payoffs.items()}


def paper_families(seed: int, games_dir: Path) -> Pool:
    """``check`` (all four predicates) and ``history`` on unrolled
    presentations of both families under both canonical strategies, plus
    the shipped strategy files.  Parsing dominates: every chosen walk is
    one or two steps long."""
    rng = random.Random(seed)
    pool = Pool()
    periods = log_sizes(rng, FAMILY_FILES - FAMILY_DEEP_FILES, 1, FAMILY_MAX_PERIODS)
    periods += [rng.randint(*FAMILY_DEEP) for _ in range(FAMILY_DEEP_FILES)]
    strategies = ["agu", "ngu"] * (len(periods) // 2)
    # pair each size with both strategies in turn; deep sizes stay half agu
    for idx, k in enumerate(periods):
        family = ("dollar", "centipede")[rng.randrange(2)]
        strategy = strategies[idx]
        fname = f"{family}_{strategy}_{k}_{idx}.cog"
        pool.files[fname] = family_source(family, strategy, k, rng)
        add_ops(pool, fname, reference.family_answers(strategy), k, f"{family}-{strategy}")
    for stem in SHIPPED:
        fname = f"shipped_{stem}.cog"
        pool.files[fname] = (games_dir / f"{stem}.cog").read_text()
        answers = (reference.worked_example_answers() if stem == "paper_s0"
                   else reference.family_answers(stem[-3:]))
        add_ops(pool, fname, answers, 1, "shipped")
    pool.ops = spread_order(pool.ops, rng)
    return pool


def add_ops(pool: Pool, fname: str, answers: dict, size: int, tag: str) -> None:
    """``check`` with all four predicates and ``history`` on one file."""
    pool.ops.append(Operation(f"check:{fname}", "check", [fname], CHECK_FLAGS,
                              answers["check"], size, tag))
    pool.ops.append(Operation(f"history:{fname}", "history", [fname], [],
                              answers["history"], size, tag))


# ---------------------------------------------------------------------------
# deep-chains: acyclic escalation chains solved by backward induction

CHAIN_SMALL = (8, 180)      # ordinary chains, 0 to 3 stops
CHAIN_SMALL_COUNT = 100
CHAIN_PLATEAU = (198, 202)  # chains that never stop: the slowest ordinary operations
CHAIN_PLATEAU_COUNT = 12
CHAIN_LARGE = (800, 850)    # one chain that never stops: well over the time limit
CHAIN_DEEP = (1100, 1250)   # one chain past the nash/sgpe recursion limit
CHAIN_DEEP_WALK = 20        # its mean walk length, so that it fails fast


def chain_source(chain: reference.Chain, rng: random.Random) -> str:
    """Node i stands at index i: it continues to node i+1 at ``n+1`` or
    takes its own leaf; the last node continues to the end leaf."""
    eqs = []
    n = len(chain.owners)
    for i in range(n):
        nxt = f"node{i + 1}(n+1)" if i + 1 < n else "end(n+1)"
        eqs.append((f"node{i}", f"<{chain.owners[i]}, {chain.choices[i]}, {nxt}, stop{i}(n)>"))
        eqs.append((f"stop{i}", leaf(chain.stops[i])))
    eqs.append(("end", leaf(chain.end)))
    return source(eqs, "node0", rng)


def deep_chains(seed: int) -> Pool:
    """``check`` (all four predicates) on chains whose chosen walks are
    long, so the per-class re-walks in semantics and the recursion in
    equilibria dominate.  Every size comes as a backward-induction
    solution and as a mutant with one choice flipped against its owner's
    strict preference."""
    rng = random.Random(seed)
    pool = Pool()
    sizes = [(n, rng.randint(0, 3)) for n in log_sizes(rng, CHAIN_SMALL_COUNT, *CHAIN_SMALL)]
    sizes += [(rng.randint(*CHAIN_PLATEAU), 0) for _ in range(CHAIN_PLATEAU_COUNT)]
    deep = rng.randint(*CHAIN_DEEP)
    sizes += [(rng.randint(*CHAIN_LARGE), 0), (deep, deep // CHAIN_DEEP_WALK)]
    for idx, (n, stops) in enumerate(sizes):
        chain = reference.solved_chain(n, stops, rng)
        for variant, model in (("bi", chain), ("mutant", reference.flip_one(chain, rng))):
            fname = f"chain_{n}_{idx}_{variant}.cog"
            pool.files[fname] = chain_source(model, rng)
            pool.ops.append(Operation(f"check:{fname}", "check", [fname], CHECK_FLAGS,
                                      reference.chain_answers(model), n, f"chain-{variant}"))
    pool.ops = spread_order(pool.ops, rng)
    return pool


# ---------------------------------------------------------------------------
# product-pairs: bisimilarity and convertibility on pairs of presentations

PRIMES = [p for p in range(3, 400) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
RING_PAIRS = 52             # coprime identical-node ring pairs of ordinary size
RING_STATES = (40, 10_000)  # range of p*q for ordinary pairs: well under the time limit
RING_PLATEAU = 12_000       # p*q of the slowest ordinary pairs
RING_PLATEAU_COUNT = 12
RING_HUGE = (124_000, 126_000)  # p*q of the largest pairs: well over the limit
RING_HUGE_COUNT = 2
PARAM_PAIRS = 12
MUTANT_PAIRS = 24
MUTANTS = (("far_payoff", 20, 90), ("prefix_flip", 20, 300), ("ring_flip", 20, 300),
           ("foreign_flip", 20, 300))   # kind and range of ring lengths
OFFSET_PAIRS = 4


def nearest_prime(x: float, other: int = 0) -> int:
    return min((p for p in PRIMES if p != other), key=lambda p: abs(p - x))


def ring_pair(rng: random.Random, states: int) -> tuple[int, int]:
    """Distinct primes p, q (hence coprime) with p*q close to ``states``."""
    p = nearest_prime(states ** 0.5 * 2 ** rng.uniform(-0.15, 0.15))
    return p, nearest_prime(states / p, other=p)


def ring_source(ring: reference.Ring, rng: random.Random) -> str:
    """``pre0 .. pre{m-1}`` lead into the ring ``ring0 .. ring{p-1}``;
    every node has its own leaf on the right."""
    eqs = []
    m, p = len(ring.prefix), len(ring.cycle)
    nodes = [(f"pre{i}", ring.prefix[i]) for i in range(m)] + \
            [(f"ring{i}", ring.cycle[i]) for i in range(p)]
    for j, (name, node) in enumerate(nodes):
        nxt = nodes[j + 1][0] if j + 1 < len(nodes) else "ring0"
        shift = f"+{node.shift}" if node.shift else ""
        eqs.append((name, f"<{node.owner}, {node.choice}, {nxt}(n{shift}), {name}_leaf(n)>"))
        eqs.append((f"{name}_leaf", leaf(node.leaf)))
    return source(eqs, nodes[0][0], rng)


def product_pairs(seed: int) -> Pool:
    """``bisim`` and ``convert --agent Alice`` on pairs that denote the
    same tree (product walk over about p*q states, large certificates),
    on parametric pairs, on single-change mutants and on pairs whose
    large offsets sit on different edges."""
    rng = random.Random(seed)
    pool = Pool()
    pairs: list[tuple[str, reference.Ring, reference.Ring, int]] = []
    targets = log_sizes(rng, RING_PAIRS, *RING_STATES) + [RING_PLATEAU] * RING_PLATEAU_COUNT
    targets += [rng.randint(*RING_HUGE) for _ in range(RING_HUGE_COUNT)]
    for target in targets:
        p, q = ring_pair(rng, target)
        a, b = reference.identical_rings(p, q, rng)
        pairs.append(("same", a, b, p * q))
    for target in log_sizes(rng, PARAM_PAIRS, 40, 4_000):
        p, q = ring_pair(rng, target)
        a, b = reference.parametric_rings(p, q, rng)
        pairs.append(("param", a, b, p * q))
    for kind, lo, hi in MUTANTS:
        for length in log_sizes(rng, MUTANT_PAIRS // len(MUTANTS), lo, hi):
            a, b = reference.mutant_pair(kind, length, rng)
            pairs.append((kind, a, b, len(a.prefix) + len(a.cycle) + len(b.cycle)))
    for _ in range(OFFSET_PAIRS):
        a, b = reference.offset_moved(rng)
        pairs.append(("offset_moved", a, b, 1))
    for idx, (kind, a, b, states) in enumerate(pairs):
        fa, fb = f"pair{idx}_{kind}_a.cog", f"pair{idx}_{kind}_b.cog"
        pool.files[fa] = ring_source(a, rng)
        pool.files[fb] = ring_source(b, rng)
        bisim, conv = reference.pair_answers(kind, a, b)
        pool.ops.append(Operation(f"bisim:{fa}", "bisim", [fa, fb], [], bisim, states, kind))
        pool.ops.append(Operation(f"convert:{fa}", "convert", [fa, fb], ["--agent", "Alice"],
                                  conv, states, kind))
    pool.ops = spread_order(pool.ops, rng)
    return pool


WORKLOADS = {
    "paper-families": lambda seed, games: paper_families(seed, games),
    "deep-chains": lambda seed, games: deep_chains(seed),
    "product-pairs": lambda seed, games: product_pairs(seed),
}
