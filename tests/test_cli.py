import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

from cogames import STRATEGY, dsl
from cogames.cli import CHECKS, InputError, block_pieces, build_parser, main, unbounded_int_digits
from cogames.semantics import leads_to_leaf
from cogames.system import Blocks

import helpers

GAMES = Path(__file__).resolve().parent.parent / "games"
SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src" / "cogames" / "schemas" / "report-v1.json")
    .read_text())


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out = run(capsys, "--json", *argv)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["exit_code"] == code
    return code, report


class TestDemo:
    def test_dollar_matches_the_expected_pattern(self, capsys):
        code, report = run_json(capsys, "demo", "dollar")
        assert code == 0
        verdicts = {c["name"]: c["certificate"]["outcome"] for c in report["checks"]}
        assert verdicts == {
            "agu.ltl": "holds", "agu.altl": "holds", "agu.nash": "holds", "agu.sgpe": "holds",
            "ngu.ltl": "fails", "ngu.altl": "fails", "ngu.nash": "holds", "ngu.sgpe": "fails",
        }

    def test_a_verdict_off_the_expected_pattern_is_a_mismatch(self, capsys, monkeypatch):
        from cogames import cli

        monkeypatch.setitem(cli._DEMO_EXPECTED["agu"], "nash", False)
        code, out = run(capsys, "demo", "dollar")
        assert code == 1
        assert out.splitlines()[-1] == "MISMATCH with the expected pattern: agu.nash"

    def test_human_table(self, capsys):
        code, out = run(capsys, "demo", "centipede")
        assert code == 0
        assert "all verdicts match the expected pattern" in out
        assert "vacuous" in out
        lines = out.splitlines()
        assert lines[0].split() == ["strategy", *CHECKS]
        assert all(line == line.rstrip() for line in lines), "trailing spaces in the table"


class TestCheck:
    def test_ltl_failure_exit_code_and_witness(self, capsys):
        code, report = run_json(capsys, "check", str(GAMES / "dollar_auction_ngu.cog"), "--ltl")
        assert code == 1
        cert = report["checks"][0]["certificate"]
        assert cert == {"cycle": [0, 1], "entered_after": 0, "choices": ["l", "l"]}
        # the owners are the system's, read at the classes the cycle names
        s = dsl.parse((GAMES / "dollar_auction_ngu.cog").read_text())
        assert [s.owner[c] for c in cert["cycle"]] == ["Alice", "Bob"]

    def test_multiple_checks(self, capsys):
        code, report = run_json(capsys, "check", str(GAMES / "dollar_auction_agu.cog"),
                                "--ltl", "--altl", "--nash", "--sgpe")
        assert code == 0
        assert [c["outcome"] for c in report["checks"]] == ["holds"] * 4

    def test_one_chosen_walk_per_check(self, capsys, monkeypatch):
        # ltl, the altl failure, nash's vacuous holds and sgpe's failing
        # precondition all cite the walk from the root, which cycles
        import cogames.semantics as semantics

        walks = []
        walk = semantics._walk

        def counted(s, at):
            walks.append(at)
            return walk(s, at)

        monkeypatch.setattr(semantics, "_walk", counted)
        code, report = run_json(capsys, "check", str(GAMES / "dollar_auction_ngu.cog"),
                                "--ltl", "--altl", "--nash", "--sgpe")
        assert code == 1
        assert [c["outcome"] for c in report["checks"]] == ["fails", "fails", "holds", "fails"]
        assert len(walks) == 1
        cycle = report["checks"][0]["certificate"]
        altl = report["checks"][1]["certificate"]
        assert altl["cycle"] == cycle
        assert report["checks"][2]["certificate"] == {"leads_to_leaf": cycle}
        assert report["checks"][3]["certificate"] == {"alw_leads_to_leaf": altl}

    def test_one_tarjan_search_per_acyclic_check(self, capsys, monkeypatch, tmp_path):
        # 1 000 nodes, each with a side leaf: 2 000 classes and no cycle, so
        # the tree's condensation is the one search, and every projection
        # of it is settled without another
        import cogames.equilibria as equilibria
        import cogames.system as system

        lines = ["strategy agents A B"]
        for i in range(1000):
            lines.append(f"c{i}(n) = <{'AB'[i % 2]}, l, c{i + 1}(n+1), leaf[A: n, B: n]>")
        lines += ["c1000(n) = leaf[A: 5000, B: 5000]", "root c0"]
        path = tmp_path / "chain.cog"
        path.write_text("\n".join(lines) + "\n")
        calls = []
        sccs = system.sccs

        def counted(*args):
            calls.append(args)
            return sccs(*args)

        monkeypatch.setattr(system, "sccs", counted)
        monkeypatch.setattr(equilibria, "sccs", counted)
        code, report = run_json(capsys, "check", str(path), "--ltl", "--altl", "--nash", "--sgpe")
        assert code == 0
        assert len(report["checks"][3]["certificate"]["class"]) == 1000
        assert len(calls) == 1

    def test_sgpe_failure_names_an_index_the_class_occurs_at(self, capsys, tmp_path):
        # x occurs at even indices only; its margin 2 - n first turns
        # negative at one of them at 4 (the odd index 3 is not one)
        path = tmp_path / "even.cog"
        path.write_text("strategy agents A B\n"
                        "top(n) = <B, r, top(n+2), x(n)>\n"
                        "x(n) = <A, l, leaf[A: 0, B: 0], leaf[A: n-2, B: 0]>\n"
                        "root top\n")
        code, report = run_json(capsys, "check", str(path), "--sgpe")
        assert code == 1
        [check] = report["checks"]
        assert check["certificate"] == {"class": 1, "index": 4, "chosen_value": 0, "other_value": 2}
        assert check["note"] == "A prefers the other branch of class 1 at index 4"
        s = dsl.parse(path.read_text())
        assert (s.owner[1], s.choice[1].value) == ("A", "l")

    def test_no_flags_is_a_usage_error(self, capsys):
        assert main(["check", str(GAMES / "dollar_auction_agu.cog")]) == 2

    def test_no_certificate_copies_what_the_system_holds(self, capsys, tmp_path):
        # every check on the shipped strategies and on random cyclic ones,
        # parametric or not: no key at any depth of a report names an
        # owner, an override or a sum that the certificate already gives
        paths = [p for p in sorted(GAMES.glob("*.cog")) if p.read_text().startswith("strategy")]
        for parametric in (True, False):
            for seed in range(300):
                path = tmp_path / f"s{seed}_{parametric}.cog"
                s = helpers.random_system(seed, kind=STRATEGY, max_classes=8, parametric=parametric)
                path.write_text(dsl.render(s))
                paths.append(path)
        failures = collections.Counter()
        for path in paths:
            _, report = run_json(capsys, "check", str(path), "--ltl", "--altl", "--nash", "--sgpe")
            stack, keys = [report], set()
            while stack:
                node = stack.pop()
                if isinstance(node, dict):
                    keys.update(node)
                    stack.extend(node.values())
                elif isinstance(node, list):
                    stack.extend(node)
            assert not keys & {"owner", "owners", "overridden", "overrides", "total_shift"}, path
            failures.update(c["name"] for c in report["checks"] if c["outcome"] == "fails")
            failures.update("lasso" for c in report["checks"]
                            if c["name"] == "nash" and "cycle" in c["certificate"])
        assert min(failures[name] for name in (*CHECKS, "lasso")) > 0, failures


class TestEval:
    def test_worked_example_value(self, capsys):
        code, report = run_json(capsys, "eval", str(GAMES / "paper_s0.cog"), "--agent", "Alice")
        assert code == 0
        assert report["checks"][0]["value"] == 2

    def test_index_flag(self, capsys):
        code, report = run_json(capsys, "eval", str(GAMES / "dollar_auction_agu.cog"),
                                "--agent", "Alice", "--n", "3")
        assert code == 0
        assert report["checks"][0]["value"] == -7  # -(2*3+1)

    def test_negative_index_is_a_usage_error(self, capsys):
        assert main(["eval", str(GAMES / "dollar_auction_agu.cog"), "--agent", "Alice",
                     "--n", "-1"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_agent_outside_the_roster_is_an_input_error(self, capsys):
        path = str(GAMES / "dollar_auction_agu.cog")
        assert main(["eval", path, "--agent", "Zed"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: agent 'Zed' not in roster ['Alice', 'Bob']\n"

    def test_no_utility_exits_one(self, capsys):
        code, report = run_json(capsys, "eval", str(GAMES / "dollar_auction_ngu.cog"),
                                "--agent", "Alice")
        assert code == 1


class TestBisim:
    def test_exact_on_nonparametric(self, capsys):
        code, report = run_json(capsys, "bisim", str(GAMES / "paper_s0.cog"),
                                str(GAMES / "paper_s0.cog"))
        assert code == 0
        assert report["checks"][0]["name"] == "bisimilar"

    def test_parametric_falls_back_to_bounded(self, capsys):
        code, report = run_json(capsys, "bisim", str(GAMES / "dollar_auction.cog"),
                                str(GAMES / "centipede.cog"))
        check = report["checks"][0]
        assert check["name"] == "bisimilar_bounded[24]"
        assert check["note"] == ("parametric inputs, bounded to depth 24: "
                                 "distinguished: leaf payoffs differ")
        assert code == 1  # payoffs differ

    @pytest.mark.parametrize("a, b, passes", [("paper_s0", "paper_s0", 2),
                                              ("dollar_auction", "centipede", 1)])
    def test_each_input_is_checked_for_parameters_at_most_once(self, capsys, monkeypatch,
                                                                a, b, passes):
        from cogames import cli, system

        seen = []
        original = system.is_parametric

        def counted(sys_):
            seen.append(sys_)
            return original(sys_)

        # counted wherever it is called from, the command line included
        monkeypatch.setattr(system, "is_parametric", counted)
        monkeypatch.setattr(cli, "is_parametric", counted, raising=False)
        run_json(capsys, "bisim", str(GAMES / f"{a}.cog"), str(GAMES / f"{b}.cog"))
        assert len(seen) == passes

    @pytest.mark.parametrize("a, b, built", [("paper_s0", "paper_s0", 2),  # union-find
                                             ("chain_1", "chain_2", 2),  # walk
                                             ("dollar_auction", "centipede", 1)])  # bounded
    def test_each_input_sensitivity_table_is_built_once(self, capsys, monkeypatch, tmp_path,
                                                        a, b, built):
        from cogames import system

        for end in (1, 2):
            (tmp_path / f"chain_{end}.cog").write_text(shifted_constant_chain(30, end))
        paths = [(tmp_path if name.startswith("chain") else GAMES) / f"{name}.cog"
                 for name in (a, b)]
        reads = []
        original = system._sensitive

        def recorded(sys_):
            table = original(sys_)
            reads.append((sys_, table))
            return table

        # the command line reads it through is_parametric, the walk directly
        monkeypatch.setattr(system, "_sensitive", recorded)
        run_json(capsys, "bisim", *map(str, paths))
        tables: dict[int, list[bool]] = {}
        for sys_, table in reads:
            assert tables.setdefault(id(sys_), table) is table
        assert len(tables) == built and len(reads) >= built

    def test_shifts_over_constant_leaves_are_decided_exactly(self, capsys, tmp_path):
        # the two chains differ only at depth 30, past the bounded check's
        # depth; bisim and convert must agree that they differ there
        for name, end in (("a", 1), ("b", 2)):
            (tmp_path / f"{name}.cog").write_text(shifted_constant_chain(30, end))
        a, b = str(tmp_path / "a.cog"), str(tmp_path / "b.cog")
        code, report = run_json(capsys, "bisim", a, b)
        check = report["checks"][0]
        assert (code, check["name"], check["outcome"]) == (1, "bisimilar", "fails")
        assert check["certificate"] == {"path": ["l"] * 30, "reason": "leaf payoffs differ"}
        code, report = run_json(capsys, "convert", a, b, "--agent", "A")
        witness = report["checks"][0]["certificate"]["witness"]
        assert code == 1
        assert (witness["path"], witness["reason"]) == (["l"] * 30, "leaf payoffs differ for A")

    # 5/7 is small, 53/59 has class ids past 100, and 353/354 prints 249 924 rows
    @pytest.mark.parametrize("p, q", [(5, 7), (53, 59), (353, 354)])
    def test_coprime_rings_print_every_row(self, capsys, tmp_path, p, q):
        from cogames import bisimilar, dsl

        for length in (p, q):
            (tmp_path / f"{length}.cog").write_text(ring_source(length))
        a, b = str(tmp_path / f"{p}.cog"), str(tmp_path / f"{q}.cog")
        code, out = run(capsys, "--json", "bisim", a, b)
        expected = sorted([i, j] for i in range(2 * p) for j in range(2 * q) if i % 2 == j % 2)
        assert code == 0 and len(expected) == 2 * p * q
        # the report's bytes are json's own, and its rows are bisimilar's
        assert out == json.dumps(json.loads(out)) + "\n"
        rows = bisimilar(dsl.parse(ring_source(p)), dsl.parse(ring_source(q))).certificate["relation"]
        assert json.loads(out)["checks"][0]["certificate"] == {"relation": expected}
        assert expected == [list(row) for row in rows]
        assert f'"relation": {json.dumps(expected)}' in out

    @pytest.mark.parametrize("relation", [
        Blocks([], {}),
        Blocks([4], {4: [2]}),  # one row
        Blocks([0, 1, 0], {0: [0, 2], 1: []}),  # class 1's block has no partner
        Blocks([0, 1, 0], {0: [1, 2]}),  # class 1's block is not a key
        Blocks([3, 9, 3, 9], {9: [7], 3: [0, 5]}),  # classes of one block apart
        Blocks([1] * 8 + [2] * 113, {1: [7, 120], 2: [99]}),  # ids of one to three digits
        Blocks([0], {0: [10 ** 30]}),
    ])
    def test_block_pieces_are_the_text_json_writes(self, relation):
        assert "".join(block_pieces(relation)) == json.dumps(relation.rows())

    @pytest.mark.parametrize("seed", range(20))
    def test_block_pieces_of_random_partitions_are_the_text_json_writes(self, seed):
        # up to 250 classes a side, so ids of one to three digits; a block
        # may hold classes of one side only, and the last one has no
        # class of b, so some class of a has no partner
        rng = random.Random(seed)
        blocks = rng.randint(1, 12)
        block = [rng.randrange(blocks + 1) for _ in range(rng.randint(0, 250))]
        partners: dict[int, list[int]] = {}
        for j in range(rng.randint(0, 250)):
            partners.setdefault(rng.randrange(blocks), []).append(j)
        relation = Blocks(block, partners)
        rows = relation.rows()
        assert rows == sorted((i, j) for i, k in enumerate(block) for j in partners.get(k, ()))
        assert "".join(block_pieces(relation)) == json.dumps(rows)

    def test_ring_pair_report_holds_no_row(self, tmp_path):
        # 353/354 prints 249 924 rows: built as tuples they take about
        # 16 MB, and their text is 2.9 MB
        for length in (353, 354):
            (tmp_path / f"{length}.cog").write_text(ring_source(length))
        argv = ["--json", "bisim", str(tmp_path / "353.cog"), str(tmp_path / "354.cog")]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0 and peak < 2_000_000

    def test_paths_cannot_pose_as_the_relation(self, capsys, tmp_path, monkeypatch):
        # one path is a byte that is not UTF-8 alone, decoded to a lone
        # surrogate as the interpreter decodes argv; the other also has a
        # quote, a backslash, a non-ASCII letter and the text of the
        # placeholder's escape, in its directory and in its file name
        monkeypatch.chdir(tmp_path)
        byte = os.fsdecode(b"\xff")
        odd = 'q"b\\ä' + byte + "\\ud800"
        Path(odd).mkdir()
        paths = [byte, os.path.join(odd, odd)]
        for path, length in zip(paths, (5, 7)):
            Path(path).write_text(ring_source(length))
        code, out = run(capsys, "--json", "bisim", *paths)
        report = json.loads(out)
        assert code == 0 and out == json.dumps(report) + "\n"
        assert [item["path"] for item in report["inputs"]] == paths
        assert len(report["checks"][0]["certificate"]["relation"]) == 2 * 5 * 7

    def test_negative_depth_is_a_usage_error(self, capsys):
        # bisim has no --depth: parametric inputs are always compared to depth 24
        assert main(["bisim", str(GAMES / "dollar_auction.cog"), str(GAMES / "dollar_auction.cog"),
                     "--depth", "-1"]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments: --depth" in err

    def test_human_summary_prints_the_failing_witness(self, capsys):
        code, out = run(capsys, "bisim", str(GAMES / "dollar_auction.cog"), str(GAMES / "centipede.cog"))
        assert code == 1
        # the bounded search goes breadth first, left before right: the
        # give-up leaves pay (-1, 0) and (0, 0) at n = 0
        witness = {"path": ["r"], "reason": "leaf payoffs differ", "depth": 24}
        assert out == ("bisimilar_bounded[24]: fails - parametric inputs, bounded to depth 24: "
                       f"distinguished: leaf payoffs differ\n  witness: {json.dumps(witness)}\n")


class TestConvert:
    def test_reflexive_inductive(self, capsys):
        code, report = run_json(capsys, "convert", str(GAMES / "dollar_auction_agu.cog"),
                                str(GAMES / "dollar_auction_agu.cog"), "--agent", "Alice")
        assert code == 0
        assert report["checks"][0]["certificate"]["class"] == "inductive"

    def test_not_convertible_exits_one(self, capsys):
        code, report = run_json(capsys, "convert", str(GAMES / "dollar_auction_agu.cog"),
                                str(GAMES / "dollar_auction_ngu.cog"), "--agent", "Alice")
        assert code == 1
        assert report["checks"][0]["certificate"]["class"] == "not_convertible"


class TestHistory:
    def test_strategy_history_text(self, capsys):
        code, report = run_json(capsys, "history", str(GAMES / "dollar_auction_ngu.cog"))
        assert code == 0
        assert report["checks"][0]["value"] == "(l)^w"

    def test_membership_check(self, capsys):
        code, _ = run_json(capsys, "history", str(GAMES / "dollar_auction.cog"),
                           "--check", "l(ll)^w")
        assert code == 0
        code, _ = run_json(capsys, "history", str(GAMES / "dollar_auction.cog"),
                           "--check", "rr")
        assert code == 1

    def test_bad_lasso_text_is_a_usage_error(self, capsys):
        assert main(["history", str(GAMES / "dollar_auction.cog"), "--check", "xyz"]) == 2

    @pytest.mark.parametrize("stem, codes", [
        ("dollar_auction", [0, 0, 1, 0]),
        ("centipede", [0, 0, 1, 0]),
        ("paper_s0", [0, 1, 0, 1]),
    ])
    def test_membership_on_the_shipped_games(self, capsys, stem, codes):
        lassos = ["r", "(l)^w", "rl", "ll"]
        assert [main(["history", str(GAMES / f"{stem}.cog"), "--check", h]) for h in lassos] == codes


class TestTruncate:
    def test_emits_parseable_source(self, capsys):
        from cogames import dsl, validate

        code, report = run_json(capsys, "truncate", str(GAMES / "dollar_auction.cog"),
                                "--depth", "3")
        assert code == 0
        emitted = report["checks"][0]["value"]
        assert validate(dsl.parse(emitted)).holds

    def test_solve_reports_give_up_outcome(self, capsys):
        code, report = run_json(capsys, "truncate", str(GAMES / "dollar_auction.cog"),
                                "--depth", "4", "--solve")
        assert code == 0
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["backward_induction"]["value"]["root_choice"] == "r"
        assert by_name["backward_induction"]["value"]["utilities"] == {"Alice": -1, "Bob": 0}
        assert by_name["nash"]["outcome"] == by_name["sgpe"]["outcome"] == "holds"


    def test_negative_depth_is_a_usage_error(self, capsys):
        assert main(["truncate", str(GAMES / "dollar_auction.cog"), "--depth", "-1"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_deep_truncation_runs_without_recursion(self, capsys, tmp_path):
        path = tmp_path / "chain.cog"
        path.write_text(chain_source(3000))
        assert main(["truncate", str(path), "--depth", "2500"]) == 0
        assert capsys.readouterr().out.startswith("truncate: info - depth 2500, 5003 tree nodes")

    def test_solve_decides_nash_and_sgpe_where_enumeration_cannot(self, capsys, tmp_path):
        # A owns the 21 nodes above the horizon: 2^21 profiles to enumerate
        path = tmp_path / "chain.cog"
        path.write_text(chain_source(30))
        code, report = run_json(capsys, "truncate", str(path), "--depth", "20", "--solve")
        assert code == 0
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["backward_induction"]["value"] == {"root_choice": "l", "utilities": {"A": 20}}
        assert by_name["nash"]["outcome"] == by_name["sgpe"]["outcome"] == "holds"
        # no leaf pays A more than the one it reaches, and the chosen branch
        # is the better one at each of A's 21 nodes, classes 0..20 in preorder
        [alice] = by_name["nash"]["certificate"]["agents"]
        assert alice["on_path_value"] == alice["best_deviation_value"] == 20
        assert by_name["sgpe"]["certificate"]["class"] == list(range(21))

    def test_deep_solve_runs_without_recursion(self, capsys, tmp_path):
        path = tmp_path / "chain.cog"
        path.write_text(chain_source(6000))
        code, report = run_json(capsys, "truncate", str(path), "--depth", "1200", "--solve")
        assert code == 0
        by_name = {c["name"]: c for c in report["checks"]}
        # node 1200 sits on the horizon and closes with its own stop leaf
        assert by_name["backward_induction"]["value"] == {"root_choice": "l", "utilities": {"A": 1200}}
        assert by_name["nash"]["outcome"] == by_name["sgpe"]["outcome"] == "holds"
        assert len(by_name["sgpe"]["certificate"]["class"]) == 1201

    def test_tree_past_the_node_bound_is_an_input_error(self, capsys, tmp_path):
        # the tree doubles every two levels: about 2^30 nodes at depth 61
        path = tmp_path / "doubling.cog"
        path.write_text("game agents A\nx(n) = <A, y(n), y(n)>\ny(n) = <A, x(n), e(n)>\n"
                        "e(n) = leaf[A: 0]\nroot x\n")
        assert main(["truncate", str(path), "--depth", "61"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: the truncation to depth 61 has more than "
                                "65536 nodes\n")


def chain_source(length: int, flip: int | None = None) -> str:
    """One agent walks a chain of ``length`` nodes: continuing pays n+1 at
    the end, stopping at node i pays n.  Every node continues, except
    ``flip``, which stops."""
    lines = ["strategy agents A"]
    for i in range(length):
        nxt = f"c{i + 1}(n+1)" if i + 1 < length else "end(n+1)"
        lines.append(f"c{i}(n) = <A, {'r' if i == flip else 'l'}, {nxt}, stop{i}(n)>")
        lines.append(f"stop{i}(n) = leaf[A: n]")
    lines += ["end(n) = leaf[A: n+1]", "root c0"]
    return "\n".join(lines) + "\n"


def ring_source(length: int) -> str:
    """``length`` Alice nodes in a ring, each with its own leaf on the
    right: node ``i`` is class ``2*i`` and its leaf class ``2*i + 1``."""
    lines = ["game agents Alice"]
    for i in range(length):
        lines += [f"x{i}(n) = <Alice, x{(i + 1) % length}(n), e{i}(n)>", f"e{i}(n) = leaf[Alice: 0]"]
    return "\n".join(lines + ["root x0", ""])


def shifted_constant_chain(length: int, end: int) -> str:
    """Agent A continues down ``length`` nodes, each a level deeper
    (``n+1``), to a leaf paying ``end``; stopping pays 0.  Every leaf is
    constant, so the shifts change no observation."""
    lines = ["strategy agents A"]
    for i in range(length):
        nxt = f"c{i + 1}(n+1)" if i + 1 < length else "end(n+1)"
        lines.append(f"c{i}(n) = <A, l, {nxt}, z(n)>")
    lines += [f"end(n) = leaf[A: {end}]", "z(n) = leaf[A: 0]", "root c0"]
    return "\n".join(lines) + "\n"


def dollar_unrolling_source(periods: int, choice: str) -> str:
    """The dollar auction unrolled into a ring of ``periods`` Alice/Bob
    periods, each entering the next at n+1; every node plays ``choice``."""
    lines = ["strategy agents Alice Bob"]
    for k in range(periods):
        lines.append(f"a{k}(n) = <Alice, {choice}, b{k}(n), alice_quits(n)>")
        lines.append(f"b{k}(n) = <Bob, {choice}, a{(k + 1) % periods}(n+1), bob_quits(n)>")
    lines += ["alice_quits(n) = leaf[Alice: -2*n-1, Bob: -2*n]",
              "bob_quits(n) = leaf[Alice: -2*n-1, Bob: -2*n-2]", "root a0"]
    return "\n".join(lines) + "\n"


class TestHistoryFollowsTheColumns:
    # the history of each shipped strategy's committed choices
    SHIPPED = {"dollar_auction_agu": "r", "centipede_agu": "r", "dollar_auction_ngu": "(l)^w",
               "centipede_ngu": "(l)^w", "paper_s0": "rl"}

    def test_history_builds_no_graph_table(self, capsys, monkeypatch, tmp_path):
        from cogames import equilibria, histories, system

        paths = {str(GAMES / f"{stem}.cog"): value for stem, value in self.SHIPPED.items()}
        for choice, value in (("r", "r"), ("l", "(l)^w")):
            path = tmp_path / f"dollar_{choice}_530.cog"
            path.write_text(helpers.unrolled_dollar_auction(530, 7, choice))
            paths[str(path)] = value
        expected = {}
        for path in paths:
            code, report = run_json(capsys, "history", path)
            report.pop("timing_ms")
            expected[path] = (code, report)

        def refuse(*args):
            raise AssertionError("a graph table was built")

        # every name the condensation and the projections are read through
        for module, name in ((system, "condensation"), (equilibria, "condensation"),
                             (histories, "condensation"), (equilibria, "_projection")):
            monkeypatch.setattr(module, name, refuse)
        for path, value in paths.items():
            code, report = run_json(capsys, "history", path)
            report.pop("timing_ms")
            assert (code, report) == expected[path]
            assert code == 0 and report["checks"][0]["value"] == value, path
        # the refusal bites: a Nash check on the same file needs both tables
        code = main(["check", str(tmp_path / "dollar_r_530.cog"), "--nash"])
        assert code == 70
        assert "internal error: AssertionError: a graph table was built" in capsys.readouterr().err


class TestLargeInputs:
    @pytest.mark.parametrize("source, verdicts, history", [
        (chain_source(5000), ["holds"] * 4, "l" * 5000),
        (chain_source(5000, flip=4000), ["holds", "holds", "fails", "fails"], "l" * 4000 + "r"),
        (dollar_unrolling_source(1500, "r"), ["holds"] * 4, "r"),
        (dollar_unrolling_source(1500, "l"), ["fails", "fails", "holds", "fails"], "(l)^w"),
    ], ids=["chain", "chain-flipped", "dollar-agu", "dollar-ngu"])
    def test_deep_systems_run_without_recursion(self, capsys, tmp_path, source, verdicts, history):
        path = tmp_path / "big.cog"
        path.write_text(source)
        code, report = run_json(capsys, "check", str(path), "--ltl", "--altl", "--nash", "--sgpe")
        assert [c["outcome"] for c in report["checks"]] == verdicts
        assert code == (0 if verdicts == ["holds"] * 4 else 1)
        code, report = run_json(capsys, "history", str(path))
        assert code == 0 and report["checks"][0]["value"] == history

    def test_bounded_bisim_runs_without_recursion(self):
        from cogames import bisimilar_bounded, dsl

        chain = dsl.parse(chain_source(3000))
        v = bisimilar_bounded(chain, chain, 3000)
        assert (v.holds, v.certificate) == (True, {"depth": 3000})

    # a check report, and a holding bisim relation, which is written in pieces
    @pytest.mark.parametrize("command", ["check", "bisim"])
    def test_reader_closing_the_pipe_early_gets_no_traceback(self, tmp_path, command):
        if command == "check":
            path = tmp_path / "chain.cog"
            path.write_text(chain_source(5000))
            argv = ["check", str(path), "--ltl", "--altl"]
        else:
            argv = ["bisim"]
            for length in (101, 103):
                path = tmp_path / f"{length}.cog"
                path.write_text(ring_source(length))
                argv.append(str(path))
        proc = helpers.cli_process(["--json", *argv], stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE)
        try:
            assert len(proc.stdout.read(20)) == 20  # the report is far longer than a pipe holds
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0
        assert b"Traceback" not in err


class TestLongIntegers:
    """Integers past CPython's default int/str conversion limit (4 300
    digits) pass through ``main``, which lifts the limit while it runs."""

    def test_long_payoff(self, capsys, tmp_path):
        # a long payoff, then a long shift in a file each reader reads
        path = tmp_path / "long.cog"
        for source in helpers.PAST_THE_DIGIT_LIMIT:
            path.write_text(source)
            assert run(capsys, "check", str(path), "--ltl", "--nash")[0] == 0
            code, out = run(capsys, "--json", "check", str(path), "--ltl", "--nash")
            assert code == 0 and out.count("\n") == 1 and out.endswith("\n")

    def test_long_utility_in_the_report(self, capsys, tmp_path):
        nines = "9" * 3000
        path = tmp_path / "long.cog"
        path.write_text(f"strategy agents A\nc0(n) = <A, l, c1(n+{nines}), c1(n)>\n"
                        f"c1(n) = leaf[A: {nines}*n]\nroot c0\n")
        code, out = run(capsys, "--json", "check", str(path), "--ltl", "--nash", "--sgpe")
        assert code == 0 and out.count("\n") == 1 and out.endswith("\n")
        code, out = run(capsys, "--json", "eval", str(path), "--agent", "A")
        assert code == 0 and out.count("\n") == 1
        with unbounded_int_digits():
            assert json.loads(out)["checks"][0]["value"] == int(nines) ** 2

    @pytest.mark.parametrize("outcome, code", [(None, 0), (InputError("bad"), 2),
                                               (KeyError("boom"), 70)])
    def test_main_lifts_the_limit_and_restores_it(self, capsys, monkeypatch, outcome, code):
        seen = []

        def ltl(system):
            seen.append(sys.get_int_max_str_digits())
            if outcome is not None:
                raise outcome
            return leads_to_leaf(system)

        monkeypatch.setitem(CHECKS, "ltl", ltl)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert main(["check", str(GAMES / "paper_s0.cog"), "--ltl"]) == code
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(old)
        assert seen == [0]


class TestErrorsAndStability:
    def test_missing_file(self, capsys):
        assert main(["check", "no_such_file.cog", "--ltl"]) == 2

    # a NUL, and a lone surrogate that no file system encoding takes
    @pytest.mark.parametrize("path", ["a\x00b", "a\ud800b"])
    def test_path_the_file_system_cannot_hold_is_an_input_error(self, capsys, path):
        assert main(["check", path, "--ltl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path!r}: ") and "internal error" not in err

    def test_error_line_escapes_what_a_strict_stderr_cannot_encode(self, monkeypatch, tmp_path):
        # a missing file named by a byte that is not UTF-8 alone, decoded to
        # a lone surrogate as argv is; a strict UTF-8 stderr refuses that
        monkeypatch.chdir(tmp_path)
        err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        monkeypatch.setattr(sys, "stderr", err)
        assert main(["check", os.fsdecode(b"\xff"), "--ltl"]) == 2
        err.flush()
        assert err.buffer.getvalue().startswith(b"error: \\udcff: ")

    def test_internal_error_line_escapes_what_a_strict_stderr_cannot_encode(self, monkeypatch):
        def ltl(system):
            raise RuntimeError(os.fsdecode(b"\xff"))

        monkeypatch.setitem(CHECKS, "ltl", ltl)
        err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        monkeypatch.setattr(sys, "stderr", err)
        assert main(["check", str(GAMES / "paper_s0.cog"), "--ltl"]) == 70
        err.flush()
        assert err.buffer.getvalue() == b"internal error: RuntimeError: \\udcff\n"

    def test_usage_error_escapes_what_a_strict_stderr_cannot_encode(self, monkeypatch, capsys):
        # argparse's own message names the unrecognized argument, a byte
        # that is not UTF-8 alone, decoded to a lone surrogate as argv is
        argv = ["check", "x.cog", "--ltl", os.fsdecode(b"\xff")]
        assert main(argv) == 2
        plain = capsys.readouterr().err
        err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        monkeypatch.setattr(sys, "stderr", err)
        assert main(argv) == 2
        err.flush()
        text = err.buffer.getvalue()
        assert text.startswith(b"usage: cogames ")
        assert text.endswith(b"cogames: error: unrecognized arguments: \\udcff\n")
        # what a lenient stderr gets is argparse's own text, unchanged
        assert text == plain.encode("utf-8", "backslashreplace")

    def test_parse_error_is_positioned(self, capsys, tmp_path):
        bad = tmp_path / "bad.cog"
        bad.write_text("strategy agents A\nx(n) = <A l x(n), x(n)>\nroot x\n")
        assert main(["check", str(bad), "--ltl"]) == 2
        err = capsys.readouterr().err
        assert "2:" in err  # line number of the offending token

    def test_byte_order_mark_is_not_part_of_the_text(self, capsys, tmp_path):
        plain = GAMES / "paper_s0.cog"
        marked = tmp_path / "paper_s0_bom.cog"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        reports = []
        for path in (plain, marked):
            code, report = run_json(capsys, "check", str(path), "--ltl", "--altl", "--nash", "--sgpe")
            assert code == 0
            [meta] = report.pop("inputs")
            assert meta == {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
            del report["timing_ms"]
            reports.append(report)
        assert reports[0] == reports[1]

    def test_error_after_a_byte_order_mark_keeps_its_column(self, capsys, tmp_path):
        bad = tmp_path / "bad.cog"
        for text in ("strategy agents A $\n", "\ufeffstrategy agents A $\n"):
            bad.write_text(text, encoding="utf-8")
            assert main(["check", str(bad), "--ltl"]) == 2
            assert capsys.readouterr().err == f"error: {bad}: 1:19: unexpected character '$'\n"

    def test_invalid_system_rejected(self, capsys, tmp_path):
        # well formed, but a leaf misses an agent: the parser names it at the
        # leaf's closing bracket
        bad = tmp_path / "partial.cog"
        for text, where in (("game agents A B\ng(n) = leaf[A: 0]\nroot g\n", "2:17"),
                            (helpers.INCOMPLETE_LEAF, "2:18")):
            bad.write_text(text)
            assert main(["check", str(bad), "--ltl"]) == 2
            assert capsys.readouterr().err == f"error: {bad}: {where}: leaf gives no payoff to 'B'\n"

    # (arguments, with shipped file stems for paths; exit code)
    SHIPPED_RUNS = [
        *[(["check", stem, "--ltl", "--altl", "--nash", "--sgpe"], code)
          for stem, code in (("dollar_auction_agu", 0), ("centipede_agu", 0),
                             ("dollar_auction_ngu", 1), ("centipede_ngu", 1), ("paper_s0", 0))],
        (["eval", "dollar_auction_agu", "--agent", "Alice"], 0),
        (["eval", "dollar_auction_ngu", "--agent", "Alice"], 1),
        (["eval", "dollar_auction", "--agent", "Alice"], 2),
        (["bisim", "paper_s0", "paper_s0"], 0),
        (["bisim", "dollar_auction", "centipede"], 1),
        (["convert", "dollar_auction_agu", "dollar_auction_agu", "--agent", "Alice"], 0),
        (["convert", "dollar_auction_agu", "centipede_agu", "--agent", "Alice"], 1),
        (["history", "paper_s0"], 0),
        (["history", "dollar_auction", "--check", "r"], 0),
        (["history", "dollar_auction"], 2),
    ]

    @pytest.mark.parametrize("argv, code", SHIPPED_RUNS, ids=[" ".join(argv) for argv, _ in SHIPPED_RUNS])
    def test_no_command_validates_what_the_readers_return(self, capsys, monkeypatch, argv, code):
        from cogames import cli, system

        def refuse(sys_):
            raise AssertionError("the readers' systems are valid already")

        monkeypatch.setattr(system, "validate", refuse)
        monkeypatch.setattr(cli, "validate", refuse, raising=False)
        paths = [str(GAMES / f"{arg}.cog") if (GAMES / f"{arg}.cog").exists() else arg
                 for arg in argv]
        assert main(paths) == code

    def test_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["convert", "dollar_auction.cog", "dollar_auction_agu.cog", "--agent", "Alice"],
         "convertible expects two strategies"),
        (["bisim", "dollar_auction.cog", "paper_s0.cog"], "cannot compare game with strategy"),
        (["convert", "dollar_auction_agu.cog", "dollar_auction_ngu.cog", "--agent", "Zed"],
         "agent 'Zed' not in roster"),
    ], ids=["convert-kind", "bisim-kind", "convert-agent"])
    def test_library_errors_are_input_errors(self, capsys, argv, message):
        argv = [str(GAMES / a) if a.endswith(".cog") else a for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command", [["bisim"], ["convert", "--agent", "A"]])
    def test_roster_mismatch_is_an_input_error(self, capsys, tmp_path, command):
        paths = []
        for agent in ("A", "B"):
            paths.append(tmp_path / f"{agent}.cog")
            paths[-1].write_text(f"strategy agents {agent}\nx(n) = leaf[{agent}: 0]\nroot x\n")
        assert main([command[0], *map(str, paths), *command[1:]]) == 2
        assert "rosters differ" in capsys.readouterr().err

    def test_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch):
        def broken(system):
            raise KeyError("boom")

        monkeypatch.setitem(CHECKS, "nash", broken)
        assert main(["--json", "check", str(GAMES / "dollar_auction_agu.cog"), "--nash"]) == 70
        out, err = capsys.readouterr()
        assert (out, err) == ("", "internal error: KeyError: 'boom'\n")

    def test_report_is_one_line_of_compact_json(self, capsys):
        code, out = run(capsys, "--json", "bisim", str(GAMES / "paper_s0.cog"),
                        str(GAMES / "paper_s0.cog"))
        assert code == 0
        assert out == json.dumps(json.loads(out)) + "\n"

    def test_reports_identical_modulo_timing(self, capsys):
        def snap():
            code, report = run_json(capsys, "demo", "dollar")
            del report["timing_ms"]
            return report

        assert snap() == snap()


def digest_argvs(crlf: Path) -> list[list[str]]:
    """Commands whose reports record their inputs: ``check`` on each
    shipped strategy, ``history`` on each shipped file, ``bisim`` and
    ``convert`` on two different files each, and ``paper_s0`` beside
    ``crlf``, a copy of it with CRLF line ends, which this writes."""
    paths = sorted(str(p) for p in GAMES.glob("*.cog"))
    strategies = [p for p in paths if dsl.parse(Path(p).read_text()).kind == STRATEGY]
    plain = str(GAMES / "paper_s0.cog")
    crlf.write_bytes(Path(plain).read_bytes().replace(b"\n", b"\r\n"))
    return [*[["check", p, "--ltl"] for p in strategies],
            *[["history", p, "--check", "r"] for p in paths],
            ["bisim", str(GAMES / "dollar_auction.cog"), str(GAMES / "centipede.cog")],
            ["convert", str(GAMES / "dollar_auction_agu.cog"), str(GAMES / "centipede_agu.cog"),
             "--agent", "Alice"],
            ["check", str(crlf), "--ltl"], ["history", str(crlf)],
            ["bisim", plain, str(crlf)], ["convert", str(crlf), plain, "--agent", "Alice"]]


def hashlib_inputs(argv: list[str]) -> list[dict[str, str]]:
    """The ``inputs`` record of ``argv``'s report, digested by ``hashlib``."""
    return [{"path": a, "sha256": hashlib.sha256(Path(a).read_bytes()).hexdigest()}
            for a in argv if a.endswith(".cog")]


# runs main on each argv of the JSON list in argv[1] in a fresh interpreter,
# with the modules named by the later arguments blocked, and prints each
# report's inputs and which sha256 the cli bound
FRESH_DIGESTS = """
import contextlib, io, json, sys
for name in sys.argv[2:]:
    sys.modules[name] = None
from cogames import cli
inputs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["--json", *argv])
    inputs.append(json.loads(out.getvalue())["inputs"])
hashlib = sys.modules.get("hashlib")
print(json.dumps({"inputs": inputs, "openssl": "_hashlib" in sys.modules,
                  "fallback": hashlib is not None and cli.sha256 is hashlib.sha256}))
"""


class TestInputDigest:
    def test_each_input_is_digested_as_hashlib_digests_its_raw_bytes(self, capsys, tmp_path):
        argvs = digest_argvs(tmp_path / "paper_s0_crlf.cog")
        for argv in argvs:
            _, report = run_json(capsys, *argv)
            assert report["inputs"] == hashlib_inputs(argv)
        # the line ends are part of the digest
        [plain, crlf] = hashlib_inputs(argvs[-2])
        assert plain["sha256"] != crlf["sha256"]

    # a fresh interpreter maps OpenSSL only through the hashlib fallback,
    # which an interpreter without CPython's own SHA-256 module takes
    @pytest.mark.parametrize("blocked, openssl", [((), False), (("_sha2", "_sha256"), True)],
                             ids=["built-in", "hashlib fallback"])
    def test_a_fresh_process_digests_alike_without_openssl(self, tmp_path, blocked, openssl):
        argvs = digest_argvs(tmp_path / "paper_s0_crlf.cog")
        proc = helpers.python_process(["-c", FRESH_DIGESTS, json.dumps(argvs), *blocked],
                                      stdout=subprocess.PIPE, text=True)
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert json.loads(out) == {"inputs": [hashlib_inputs(argv) for argv in argvs],
                                   "openssl": openssl, "fallback": openssl}


# argv covering every subcommand: one valid line and one usage error each,
# plus the top level's own errors and help
PARSER_ARGVS = [
    ["--json", "check", "f.cog", "--ltl", "--nash"], ["check", "--ltl"],
    ["eval", "f.cog", "--agent", "A", "--n", "3"], ["eval", "f.cog"],
    ["bisim", "a.cog", "b.cog"], ["bisim", "a.cog", "b.cog", "--depth", "4"],
    ["convert", "a.cog", "b.cog", "--agent", "A"], ["convert", "a.cog", "b.cog"],
    ["history", "f.cog", "--check", "l(r)^w"], ["history", "f.cog", "g.cog"],
    ["truncate", "f.cog", "--depth", "3", "--solve", "--tiebreak", "prefer_right"],
    ["truncate", "f.cog", "--solve"],
    ["demo", "centipede"], ["demo", "chess"],
    [], ["--json"], ["frobnicate"], ["--help"], ["check", "--help"],
]


def parse_with(parser: argparse.ArgumentParser, argv: list[str]):
    """The namespace, or the exit code with the text printed on each stream."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parser.parse_args(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_shared_parser_answers_as_a_fresh_one(self):
        for argv in PARSER_ARGVS * 2:  # the shared parser has parsed every line before
            assert parse_with(build_parser(), argv) == parse_with(build_parser.__wrapped__(), argv)

    def test_errors_and_help_leave_later_calls_unchanged(self, capsys):
        argv = ["--json", "check", str(GAMES / "dollar_auction_ngu.cog"), "--ltl", "--nash"]
        build_parser.cache_clear()
        _, first = run_json(capsys, *argv)
        assert main(["check", "--ltl"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: cogames check")
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: cogames")
        _, again = run_json(capsys, *argv)
        del first["timing_ms"], again["timing_ms"]
        assert again == first

    def test_many_calls_build_the_parser_once(self, capsys, monkeypatch):
        builds = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            builds.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        build_parser.__wrapped__()
        one_build = len(builds)
        builds.clear()
        build_parser.cache_clear()
        for i in range(20):
            argv = ["eval", str(GAMES / "paper_s0.cog"), "--agent", "Alice"]
            main(argv if i % 2 else argv[:-2])
        capsys.readouterr()
        assert builds.count("cogames") == 1 and len(builds) == one_build
