"""Batch command line front end.

Subcommands parse ``.cog`` files, run the requested checks, and emit a
human summary or (with ``--json``) a stable machine report validating
against ``schemas/report-v1.json``.  Exit code 0 means every requested
check holds, 1 that some check fails, 2 a usage, parse, or validation
error.  Reports are deterministic for identical inputs apart from the
``timing_ms`` field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any

from . import __version__
from . import dsl, families, oracle
from .equilibria import Convertibility, convertible, nash_eq, sgpe
from .histories import format_lasso, is_history_of, parse_lasso, strategy_history
from .semantics import alw_leads_to_leaf, leads_to_leaf, s2u
from .system import CoSystem, GAME, STRATEGY, is_parametric, strategy_to_game, validate
from .system import bisimilar, bisimilar_bounded
from .verdict import Verdict

DEFAULT_BISIM_DEPTH = 24


class InputError(Exception):
    """Bad input file or arguments: reported on stderr, exit code 2."""


def _load(path: str) -> tuple[CoSystem, dict[str, str]]:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    digest = hashlib.sha256(data).hexdigest()
    try:
        system = dsl.parse(data.decode("utf-8"))
    except (UnicodeDecodeError, dsl.ParseError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    ok = validate(system)
    if not ok.holds:
        raise InputError(f"{path}: invalid system: {ok.note} ({ok.certificate})")
    return system, {"path": path, "sha256": digest}


def _check(name: str, verdict: Verdict) -> dict[str, Any]:
    item = verdict.to_json()
    item["name"] = name
    return item


def _info(name: str, note: str, value: Any = None) -> dict[str, Any]:
    return {"name": name, "outcome": "info", "note": note, "value": value}


# ---------------------------------------------------------------------------
# subcommands: each returns (checks, inputs)


def _cmd_check(args) -> tuple[list[dict], list[dict]]:
    system, meta = _load(args.file)
    wanted = [name for name, on in (("ltl", args.ltl), ("altl", args.altl),
                                    ("nash", args.nash), ("sgpe", args.sgpe)) if on]
    if not wanted:
        raise InputError("nothing to check: pass at least one of --ltl --altl --nash --sgpe")
    if system.kind != STRATEGY:
        raise InputError(f"{args.file}: these checks need a strategy file, got kind {system.kind!r}")
    runner = {"ltl": leads_to_leaf, "altl": alw_leads_to_leaf, "nash": nash_eq, "sgpe": sgpe}
    return [_check(name, runner[name](system)) for name in wanted], [meta]


def _cmd_eval(args) -> tuple[list[dict], list[dict]]:
    system, meta = _load(args.file)
    if system.kind != STRATEGY:
        raise InputError(f"{args.file}: eval needs a strategy file")
    if args.agent not in system.roster:
        raise InputError(f"agent {args.agent!r} not in roster {list(system.roster)}")
    utility = s2u(system, args.agent)
    if utility is None:
        verdict = Verdict(False, leads_to_leaf(system).certificate,
                          f"no utility: strategy does not lead to a leaf")
        return [_check("eval", verdict)], [meta]
    value = utility.at(args.n)
    verdict = Verdict(True, {"affine": utility.to_json(), "n": args.n}, f"utility {value}")
    item = _check("eval", verdict)
    item["value"] = value
    return [item], [meta]


def _cmd_bisim(args) -> tuple[list[dict], list[dict]]:
    sys_a, meta_a = _load(args.a)
    sys_b, meta_b = _load(args.b)
    if args.depth is not None:
        verdict = bisimilar_bounded(sys_a, sys_b, args.depth)
        name = f"bisimilar_bounded[{args.depth}]"
    elif is_parametric(sys_a) or is_parametric(sys_b):
        verdict = bisimilar_bounded(sys_a, sys_b, DEFAULT_BISIM_DEPTH)
        verdict = Verdict(verdict.holds, verdict.certificate,
                          f"parametric inputs, bounded to depth {DEFAULT_BISIM_DEPTH}: " + verdict.note)
        name = f"bisimilar_bounded[{DEFAULT_BISIM_DEPTH}]"
    else:
        verdict = bisimilar(sys_a, sys_b)
        name = "bisimilar"
    return [_check(name, verdict)], [meta_a, meta_b]


def _cmd_convert(args) -> tuple[list[dict], list[dict]]:
    sys_a, meta_a = _load(args.a)
    sys_b, meta_b = _load(args.b)
    result = convertible(sys_a, sys_b, args.agent)
    verdict = Verdict(result.value is not Convertibility.NOT_CONVERTIBLE,
                      {"class": result.value.value, "witness": result.witness},
                      result.note or result.value.value)
    return [_check("convertible", verdict)], [meta_a, meta_b]


def _cmd_history(args) -> tuple[list[dict], list[dict]]:
    system, meta = _load(args.file)
    if args.check is not None:
        try:
            lasso = parse_lasso(args.check)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        walkable = strategy_to_game(system) if system.kind == STRATEGY else system
        member = is_history_of(walkable, lasso)
        verdict = Verdict(member, {"history": format_lasso(lasso)},
                          "history of this system" if member else "not a history of this system")
        return [_check("is_history_of", verdict)], [meta]
    if system.kind != STRATEGY:
        raise InputError(f"{args.file}: need a strategy file to follow choices "
                         "(or pass --check LASSO for membership)")
    text = format_lasso(strategy_history(system))
    return [_info("history", "history of the committed choices", text)], [meta]


def _cmd_truncate(args) -> tuple[list[dict], list[dict]]:
    system, meta = _load(args.file)
    try:
        tree = families.truncate(system, args.depth)
    except families.NoLeafAtHorizonError as exc:
        raise InputError(str(exc)) from exc
    checks = [_info("truncate", f"depth {args.depth}, {oracle.size(tree)} tree nodes",
                    dsl.render(oracle.embed(tree)))]
    if args.solve:
        game = oracle.erase_choices(tree) if system.kind == STRATEGY else tree
        solved = oracle.backward_induction(game, args.tiebreak)
        utilities = {a: oracle.finite_utility(solved, a) for a in system.roster}
        root_choice = solved.choice.value if isinstance(solved, oracle.StrategyNode) else None
        checks.append(_info("backward_induction",
                            f"root choice {root_choice}, outcome {utilities}",
                            {"root_choice": root_choice, "utilities": utilities}))
        checks.append(_check("exhaustive_nash", oracle.exhaustive_nash(solved)))
    return checks, [meta]


_DEMO_EXPECTED = {"agu": {"ltl": True, "altl": True, "nash": True, "sgpe": True},
                  "ngu": {"ltl": False, "altl": False, "nash": True, "sgpe": False}}


def _cmd_demo(args) -> tuple[list[dict], list[dict]]:
    build = {"dollar": families.dollar_auction_strategy,
             "centipede": families.centipede_strategy}[args.family]
    runner = {"ltl": leads_to_leaf, "altl": alw_leads_to_leaf, "nash": nash_eq, "sgpe": sgpe}
    checks = []
    for kind in (families.AGU, families.NGU):
        strategy = build(kind)
        for name in ("ltl", "altl", "nash", "sgpe"):
            verdict = runner[name](strategy)
            expected = _DEMO_EXPECTED[kind][name]
            agreed = verdict.holds is expected
            note = f"expected {'holds' if expected else 'fails'}, computed {verdict.outcome}"
            if verdict.note:
                note += f" ({verdict.note})"
            checks.append({"name": f"{kind}.{name}",
                           "outcome": "holds" if agreed else "fails",
                           "note": note,
                           "certificate": verdict.to_json()})
    return checks, []


# ---------------------------------------------------------------------------


def natural(text: str) -> int:
    """argparse type of ``--depth``: a nonnegative integer."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogames",
        description="check equilibrium and history properties of finitely presented "
                    "infinite games (.cog files)")
    parser.add_argument("--json", action="store_true", help="emit the versioned machine report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run predicate checks on a strategy file")
    p.add_argument("file")
    p.add_argument("--ltl", action="store_true", help="leads-to-leaf from the root")
    p.add_argument("--altl", action="store_true", help="leads-to-leaf from every node")
    p.add_argument("--nash", action="store_true", help="Nash equilibrium")
    p.add_argument("--sgpe", action="store_true", help="subgame perfect equilibrium")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("eval", help="utility of an agent under a strategy")
    p.add_argument("file")
    p.add_argument("--agent", required=True)
    p.add_argument("--n", type=int, default=0, help="instantiation index (default 0, the root baseline)")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("bisim", help="bisimilarity of two systems")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--depth", type=natural, default=None,
                   help=f"bounded comparison depth (default: exact check; parametric inputs "
                        f"fall back to depth {DEFAULT_BISIM_DEPTH})")
    p.set_defaults(run=_cmd_bisim)

    p = sub.add_parser("convert", help="classify convertibility for a deviating agent")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--agent", required=True)
    p.set_defaults(run=_cmd_convert)

    p = sub.add_parser("history", help="history of a strategy, or lasso membership with --check")
    p.add_argument("file")
    p.add_argument("--check", metavar="LASSO", default=None,
                   help="test membership of a lasso like 'l(lr)^w' instead")
    p.set_defaults(run=_cmd_history)

    p = sub.add_parser("truncate", help="unroll to a finite tree; optionally solve it")
    p.add_argument("file")
    p.add_argument("--depth", type=natural, required=True)
    p.add_argument("--solve", action="store_true",
                   help="run backward induction and the exhaustive Nash check on the result")
    p.add_argument("--tiebreak", choices=(oracle.PREFER_LEFT, oracle.PREFER_RIGHT),
                   default=oracle.PREFER_LEFT)
    p.set_defaults(run=_cmd_truncate)

    p = sub.add_parser("demo", help="build a family and run the full verdict table")
    p.add_argument("family", choices=("dollar", "centipede"))
    p.set_defaults(run=_cmd_demo)
    return parser


def _print_human(command: str, checks: list[dict]) -> None:
    if command == "demo":
        names = ("ltl", "altl", "nash", "sgpe")
        by_name = {c["name"]: c for c in checks}
        print(f"{'strategy':<10}" + "".join(f"{n:<18}" for n in names))
        for kind in (families.AGU, families.NGU):
            row = [f"{kind:<10}"]
            for n in names:
                cell = by_name[f"{kind}.{n}"]["certificate"]
                text = cell["outcome"]
                if "vacuous" in (cell.get("note") or ""):
                    text += " (vacuous)"
                row.append(f"{text:<18}")
            print("".join(row).rstrip())
        bad = [c for c in checks if c["outcome"] == "fails"]
        if bad:
            print(f"MISMATCH with the expected pattern: {', '.join(c['name'] for c in bad)}")
        else:
            print("all verdicts match the expected pattern")
        return
    for c in checks:
        line = f"{c['name']}: {c['outcome']}"
        if c.get("note"):
            line += f" - {c['note']}"
        print(line)
        if c["outcome"] == "info" and isinstance(c.get("value"), str):
            print(c["value"], end="" if str(c["value"]).endswith("\n") else "\n")
        elif c["outcome"] == "fails" and c.get("certificate") is not None:
            print(f"  witness: {json.dumps(c['certificate'], default=str)}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        checks, inputs = args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    exit_code = 1 if any(c["outcome"] == "fails" for c in checks) else 0
    if args.json:
        report = {
            "report_version": 1,
            "tool": {"name": "cogames", "version": __version__},
            "command": args.command,
            "inputs": inputs,
            "checks": checks,
            "exit_code": exit_code,
            "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }
        print(json.dumps(report, indent=2))
    else:
        _print_human(args.command, checks)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
