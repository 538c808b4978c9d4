"""Tests of the benchmark's generators, reference and tail rule.

Run from the repository root with ``PYTHONPATH=src python -m pytest bench``.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import reference
import run
import workloads
from cogames import Choice, dsl, oracle, validate

GAMES = Path(__file__).resolve().parent.parent / "games"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_in_the_seed(name):
    first = workloads.WORKLOADS[name](7, GAMES)
    again = workloads.WORKLOADS[name](7, GAMES)
    other = workloads.WORKLOADS[name](8, GAMES)
    assert first.files == again.files
    assert first.ops == again.ops
    assert first.files != other.files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_generated_file_parses_and_validates(name):
    pool = workloads.WORKLOADS[name](3, GAMES)
    assert {f for op in pool.ops for f in op.files} == set(pool.files)
    for fname, text in pool.files.items():
        system = dsl.parse(text)
        assert validate(system).holds, fname


def finite_tree(chain: reference.Chain):
    """The chain as an explicit finite tree, payoffs evaluated at each
    node's index."""
    n = len(chain.owners)
    tree = oracle.Leaf(reference.at(chain.end, n))
    for i in reversed(range(n)):
        stop = oracle.Leaf(reference.at(chain.stops[i], i))
        choice = Choice.L if chain.choices[i] == "l" else Choice.R
        tree = oracle.StrategyNode(chain.owners[i], choice, tree, stop)
    return tree


def test_chain_reference_agrees_with_the_oracle():
    verdicts = set()
    for seed in range(60):
        rng = random.Random(seed)
        # at most 12 nodes per owner keeps exhaustive_nash under its 2^14 cap
        chain = reference.solved_chain(rng.randint(1, 12), rng.randint(0, 3), rng)
        for model in (chain, reference.flip_one(chain, rng)):
            checks = reference.chain_answers(model)["checks"]
            tree = finite_tree(model)
            sgpe, nash = checks["sgpe"]["outcome"] == "holds", checks["nash"]["outcome"] == "holds"
            assert sgpe == oracle.finite_sgpe(tree), seed
            assert nash == oracle.exhaustive_nash(tree).holds, seed
            verdicts.add((model is chain, nash, sgpe))
    # solutions are always equilibria; mutants never subgame perfect, Nash either way
    assert verdicts == {(True, True, True), (False, True, False), (False, False, False)}


def test_tail_percentile_keeps_ten_operations_beyond_it():
    assert run.tail_percentile(116) == 90
    assert run.tail_percentile(250) == 95
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(15) == 50
