"""Gates over the benchmark's seed-1 pools, over the source tree and over
the CI workflow."""

from __future__ import annotations

import ast
import json
import re
import sys
import textwrap
from pathlib import Path

import pytest

import helpers
from cogames import bisimilar, dsl, system
from cogames.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (bench/ is a directory of scripts, not a package)


@pytest.fixture(scope="module")
def pools():
    return {name: make(1, ROOT / "games") for name, make in workloads.WORKLOADS.items()}


# a change to the flat spelling must not send the benchmark's inputs or a
# wide roster through the token parser unnoticed, nor read them into a
# system other than the token parser's
@pytest.mark.parametrize("group", ["games", "backbones", *workloads.WORKLOADS])
def test_flat_reader_reads_every_input_into_the_token_parsers_system(pools, group):
    if group == "games":
        texts = {p.name: p.read_text() for p in sorted((ROOT / "games").glob("*.cog"))}
    elif group == "backbones":
        texts = {f"{width} agents": helpers.backbone_source(width) for width in (1, 3, 64, 200)}
    else:
        texts = pools[group].files
    given_up, differ = [], []
    for name, text in texts.items():
        flat = dsl._parse_flat(text)
        tokens = dsl._Parser(text).parse_file()
        if flat is None:
            given_up.append(name)
        elif flat != tokens or repr(flat) != repr(tokens):
            differ.append(name)
    assert (given_up, differ) == ([], [])


def sloped_leaf_reachable(s, c: int) -> bool:
    """Whether a leaf with a nonzero payoff slope is reachable from class
    ``c`` (``c`` included): a forward search from ``c`` alone over the
    child columns."""
    seen, todo = {c}, [c]
    while todo:
        v = todo.pop()
        if s.owner[v] is None:
            if any(s.payoff[v][0::2]):
                return True
            continue
        for w in (s.left[v], s.right[v]):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return False


# the sensitivity table skips its reverse pass when no leaf is sloped, as
# on every ring, flip and same-tree system of product-pairs; each entry must
# still be what a search from that class alone finds (test_system checks
# the same on random systems)
@pytest.mark.parametrize("group", ["games", "product-pairs"])
def test_sensitivity_table_is_per_class_reachability(pools, group):
    if group == "games":
        systems = [dsl.parse(p.read_text()) for p in sorted((ROOT / "games").glob("*.cog"))]
    else:
        systems = [dsl.parse(text) for text in pools[group].files.values()]
    sloped = flat = 0
    for s in systems:
        table = system._sensitive(s)
        assert table == [sloped_leaf_reachable(s, c) for c in range(len(s.owner))]
        sloped += any(table)
        flat += not any(table)
    assert sloped and flat


# the report writes a holding relation from the union-find's blocks and
# never builds its rows, so its text is checked against the rows' own json
# text, byte for byte
def test_bisim_reports_write_the_relation_as_json_writes_bisimilars_rows(pools, tmp_path, capsys):
    pool = pools["product-pairs"]
    for name, text in pool.files.items():
        (tmp_path / name).write_text(text)
    marker = '"certificate": {"relation": '
    relations, differ = 0, []
    for op in (op for op in pool.ops if op.command == "bisim"):
        main(op.argv(tmp_path))
        text = capsys.readouterr().out
        a, b = (dsl.parse(pool.files[name]) for name in op.files)
        rows = bisimilar(a, b).certificate.get("relation")
        if rows is None:
            ok = marker not in text
        else:
            relations += 1
            want = marker + json.dumps(rows) + "}"
            start = text.find(marker)
            ok = start >= 0 and text[start:start + len(want)] == want
        if not ok:
            differ.append(op.name)
    assert relations > 0 and differ == []


# spelled in two parts, so that this file holds no use of the name it looks for
UNCHECKED = "_from_" + "columns"
PRODUCERS = [("src/cogames/dsl.py", "_parse_flat"), ("src/cogames/system.py", "annotate"),
             ("src/cogames/system.py", "strategy_to_game"), ("src/cogames/system.py", "with_root")]


# CoSystem's unchecked constructor skips the validity check; each of its
# four callers states why its columns are valid, and a fifth must not slip in
def test_only_four_producers_build_a_system_past_the_constructors_check():
    uses = []
    for path in sorted(p for top in ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py")):
        # every function's own body, with the functions nested in it left out
        scopes = [("<module>", ast.parse(path.read_text(encoding="utf-8")))]
        while scopes:
            name, scope = scopes.pop()
            todo = list(ast.iter_child_nodes(scope))
            while todo:
                node = todo.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    scopes.append((getattr(node, "name", "<lambda>"), node))
                    continue
                if ((isinstance(node, ast.Attribute) and node.attr == UNCHECKED)
                        or (isinstance(node, ast.Name) and node.id == UNCHECKED)
                        or (isinstance(node, ast.Constant) and node.value == UNCHECKED)):
                    uses.append((path.relative_to(ROOT).as_posix(), name))
                todo.extend(ast.iter_child_nodes(node))
    assert sorted(uses) == PRODUCERS


TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"
GATING = {'python -m pip install -e ".[test]"', TIER1, "cogames demo dollar"}


def gating_steps(workflow: str) -> list[str]:
    """What each step of the ``tests`` job that is not
    ``continue-on-error`` uses or runs: its ``uses`` value, or its
    ``run`` text with a block dedented."""
    job = re.search(r"^  tests:\n(.*?)(?=^  \S|\Z)", workflow, re.M | re.S)[1]
    found = []
    for step in re.split(r"^      - ", job, flags=re.M)[1:]:
        step = " " * 8 + step
        if re.search(r"^ {8}continue-on-error: *true *$", step, re.M):
            continue
        # a value on the key's line, or a block of the lines indented past it
        for value, block in re.findall(r"^ {8}(?:uses|run): *(.*)\n((?:(?: {9}.*)?\n)*)", step,
                                       re.M):
            found.append(textwrap.dedent(block).strip() if value.startswith(("|", ">")) else value)
    return found


# a check that CI gates on belongs in this suite, so that passing the tier-1
# command is passing CI
def test_ci_gates_on_nothing_but_the_install_this_suite_and_the_entry_point():
    steps = gating_steps((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    assert TIER1 in steps
    assert [step for step in steps if step not in GATING
            and not step.startswith(("actions/checkout@", "actions/setup-python@"))] == []
