"""Batch command line front end.

Subcommands parse ``.cog`` files, run the requested checks, and emit a
human summary or (with ``--json``) a stable machine report validating
against ``schemas/report-v1.json``, printed as one line of compact JSON
(pipe it through ``python -m json.tool`` for indented output).  Exit code
0 means every requested check holds, 1 that some check fails, 2 a usage
or input error (an invalid system is a parse error), and 70
(``EX_SOFTWARE``) an internal error: any other exception from a
subcommand is printed as one ``internal error:`` line on stderr, without
a traceback, so exit 1 always means a failing check.  ``error:`` and
``internal error:`` lines, and the usage errors of the argument parser,
write what stderr's encoding cannot hold (a path's or an argument's
undecodable byte) as a backslash escape.  Reports are
deterministic for identical inputs apart from the ``timing_ms`` field.
A reader that closes the pipe early gets no traceback; the exit code is
still the checks'.

``truncate`` unrolls a file to a finite tree, which is itself a system
(``families.truncate``).  ``--solve`` runs backward induction on it, and
then the ``nash`` and ``sgpe`` checks that ``check`` runs, so one engine
decides the finite games and the infinite ones, and no check is skipped.

Integers have no bound on their length, in input files, arguments and
reports alike.  CPython refuses int/str conversions past 4 300 digits by
default, a guard against quadratic conversion of untrusted input;
``main`` reads files that its user names, so it lifts that limit for its
own duration (``unbounded_int_digits``) and restores it on return.

Each report's ``inputs`` records every file it read: its path and the
SHA-256 of its raw bytes, a byte-order mark included.  The digest comes
from CPython's built-in SHA-256 module (``_sha2``, ``_sha256`` before
3.12), as ``random`` takes its ``sha512``: ``hashlib`` maps OpenSSL's
libcrypto, about 3.5 MB resident for the one hash a run makes, and the
built-in module gives the same digest.  ``hashlib.sha256`` is used only
on an interpreter built without that module.

The report is rendered with ``check_circular=False``.  It is acyclic:
each check builds its own certificate, and one that cites the chosen
walk (an ``altl`` failure, a vacuous ``nash`` hold) holds its own copy
of the ``leads_to_leaf`` certificate.  So json's guard against reference
cycles (an ``id`` inserted into and deleted from a dict for every list
and dict it writes) can find nothing, and is skipped.  A holding
``bisim`` relation is not written by ``json`` at all, and its rows are
never built: ``_cmd_bisim`` keeps the union-find's blocks
(``system.bisimilar_blocks``), and :func:`block_pieces` writes the text
``json.dumps`` gives for the rows, one piece per class of the first
system, from one template per block.

``main`` may be called many times in one process (batch drivers, the
benchmark's loop, the tests).  The argument parser is built on the first
call and then shared by every later one, so callers must not mutate the
parser that ``build_parser`` returns.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Iterator

from . import __version__
from . import dsl, families
from .equilibria import nash_eq, sgpe
from .histories import format_lasso, is_history_of, parse_lasso, strategy_history
from .semantics import alw_leads_to_leaf, leads_to_leaf, s2u
from .system import CoSystem, Convertibility, STRATEGY, KindMismatchError, RosterMismatchError
from .system import Blocks, bisimilar_blocks, bisimilar_bounded, convertible, is_parametric
from .verdict import Verdict

# lean first: hashlib loads OpenSSL (see the module docstring)
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

# the depth to which `bisim` compares parametric inputs
DEFAULT_BISIM_DEPTH = 24

# exit code of an unexpected exception (sysexits.h EX_SOFTWARE)
EXIT_INTERNAL = 70

# the strategy checks that `check` and `demo` run, by flag name
CHECKS = {"ltl": leads_to_leaf, "altl": alw_leads_to_leaf, "nash": nash_eq, "sgpe": sgpe}

# stands in a report's text for a relation's rows until they are written:
# a lone high surrogate, which no other string of a report can hold, since
# a path that holds one cannot be opened (argv decodes stray bytes to
# U+DC80..U+DCFF) and files are decoded strictly
_SPLICE = "\ud800"


@contextlib.contextmanager
def unbounded_int_digits():
    """Lift CPython's limit on int/str conversions for the block and
    restore it after.  The limit is process-wide, so this holds for every
    thread."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class InputError(Exception):
    """Bad input file or arguments: reported on stderr, exit code 2."""


def _load(path: str) -> tuple[CoSystem, dict[str, str]]:
    """The system in the file at ``path`` and its input record, whose
    ``sha256`` digests the raw bytes with the ``sha256`` bound at import
    (see the module docstring).  The readers in ``dsl`` reject every
    invalid file with a positioned error, and every ``CoSystem`` is
    valid by construction, so nothing here validates it again."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        # a path the file system cannot hold: a NUL, or a lone surrogate
        # that does not encode (UnicodeEncodeError); its repr is printable
        raise InputError(f"{path!r}: {exc}") from exc
    digest = sha256(data).hexdigest()
    try:
        # a byte-order mark is not part of the text; the digest covers the raw bytes
        system = dsl.parse(data.decode("utf-8-sig"))
    except (UnicodeDecodeError, dsl.ParseError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    return system, {"path": path, "sha256": digest}


def block_pieces(relation: Blocks) -> Iterator[str]:
    """The text of ``json.dumps(relation.rows())``, in pieces: one per
    class ``i`` of the first system with a partner, its rows' text.  Each
    block's rows are written once, as a template with a NUL where ``i``
    goes (``"[\\0, 4], [\\0, 9]"``), and a piece is its block's template
    with ``str(i)`` in place of each NUL, so no row is built and each
    class id is converted to text once.  No int's text holds a NUL."""
    templates = {k: ", ".join([f"[\0, {j}]" for j in js]) for k, js in relation.partners.items()}
    yield "["
    sep = ""
    for i, k in enumerate(relation.block):
        template = templates.get(k)
        if template:
            yield sep + template.replace("\0", str(i))
            sep = ", "
    yield "]"


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
    wanted = [name for name in CHECKS if getattr(args, name)]
    if not wanted:
        raise InputError("nothing to check: pass at least one of --ltl --altl --nash --sgpe")
    if system.kind != STRATEGY:
        raise InputError(f"{args.file}: these checks need a strategy file, got kind {system.kind!r}")
    return [_check(name, CHECKS[name](system)) for name in wanted], [meta]


def _cmd_eval(args) -> tuple[list[dict], list[dict]]:
    system, meta = _load(args.file)
    if system.kind != STRATEGY:
        raise InputError(f"{args.file}: eval needs a strategy file")
    if args.agent not in system.roster:
        raise InputError(f"{args.file}: agent {args.agent!r} not in roster {list(system.roster)}")
    utility = s2u(system, args.agent)
    if utility is None:
        verdict = Verdict(False, leads_to_leaf(system).certificate,
                          "no utility: strategy does not lead to a leaf")
        return [_check("eval", verdict)], [meta]
    value = utility.at(args.n)
    verdict = Verdict(True, {"affine": utility.to_json(), "n": args.n}, f"utility {value}")
    item = _check("eval", verdict)
    item["value"] = value
    return [item], [meta]


def _cmd_bisim(args) -> tuple[list[dict], list[dict]]:
    sys_a, meta_a = _load(args.a)
    sys_b, meta_b = _load(args.b)
    try:
        # bisimilar decides parametric pairs too, but the benchmark's
        # reference still pins the depth-bounded report for them
        if is_parametric(sys_a) or is_parametric(sys_b):
            verdict = bisimilar_bounded(sys_a, sys_b, DEFAULT_BISIM_DEPTH)
            verdict = Verdict(verdict.holds, verdict.certificate,
                              f"parametric inputs, bounded to depth {DEFAULT_BISIM_DEPTH}: "
                              + verdict.note)
            name = f"bisimilar_bounded[{DEFAULT_BISIM_DEPTH}]"
        else:
            verdict = bisimilar_blocks(sys_a, sys_b)
            name = "bisimilar"
    except (KindMismatchError, RosterMismatchError) as exc:
        raise InputError(f"{args.a} and {args.b}: {exc}") from exc
    return [_check(name, verdict)], [meta_a, meta_b]


def _cmd_convert(args) -> tuple[list[dict], list[dict]]:
    sys_a, meta_a = _load(args.a)
    sys_b, meta_b = _load(args.b)
    if args.agent not in sys_a.roster:
        raise InputError(f"{args.a}: agent {args.agent!r} not in roster {list(sys_a.roster)}")
    try:
        result = convertible(sys_a, sys_b, args.agent)
    except (KindMismatchError, RosterMismatchError) as exc:
        raise InputError(f"{args.a} and {args.b}: {exc}") from exc
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
        member = is_history_of(system, lasso)
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
    except (families.NoLeafAtHorizonError, families.TreeTooLargeError) as exc:
        raise InputError(f"{args.file}: {exc}") from exc
    checks = [_info("truncate", f"depth {args.depth}, {len(tree.owner)} tree nodes",
                    dsl.render(tree))]
    if args.solve:
        solved = families.backward_induction(tree, args.tiebreak)
        utilities = {a: s2u(solved, a).at(0) for a in system.roster}
        choice = solved.choice[solved.root.cls]
        root_choice = choice.value if choice else None
        checks.append(_info("backward_induction",
                            f"root choice {root_choice}, outcome {utilities}",
                            {"root_choice": root_choice, "utilities": utilities}))
        checks += [_check("nash", nash_eq(solved)), _check("sgpe", sgpe(solved))]
    return checks, [meta]


_DEMO_EXPECTED = {"agu": {"ltl": True, "altl": True, "nash": True, "sgpe": True},
                  "ngu": {"ltl": False, "altl": False, "nash": True, "sgpe": False}}


def _cmd_demo(args) -> tuple[list[dict], list[dict]]:
    build = {"dollar": families.dollar_auction_strategy,
             "centipede": families.centipede_strategy}[args.family]
    checks = []
    for kind in (families.AGU, families.NGU):
        strategy = build(kind)
        for name, run in CHECKS.items():
            verdict = run(strategy)
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
    """argparse type of ``--depth`` and ``--n``: a nonnegative integer."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``cogames`` argument parser, built on first use and then shared.

    ``main`` may run many times in one process, and every call parses
    with this one parser: ``parse_args`` returns a fresh ``Namespace``
    each time and no argument keeps state between calls.  Callers must
    not mutate the returned parser (add arguments, change defaults).
    """
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
    p.add_argument("--n", type=natural, default=0,
                   help="instantiation index (default 0, the root baseline)")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("bisim", help="bisimilarity of two systems (parametric ones compared "
                                     f"to depth {DEFAULT_BISIM_DEPTH})")
    p.add_argument("a")
    p.add_argument("b")
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
                   help="backward induction, then the Nash and SGPE checks on the result")
    p.add_argument("--tiebreak", choices=(families.PREFER_LEFT, families.PREFER_RIGHT),
                   default=families.PREFER_LEFT)
    p.set_defaults(run=_cmd_truncate)

    p = sub.add_parser("demo", help="build a family and run the full verdict table")
    p.add_argument("family", choices=("dollar", "centipede"))
    p.set_defaults(run=_cmd_demo)
    return parser


def _print_human(command: str, checks: list[dict]) -> None:
    if command == "demo":
        by_name = {c["name"]: c for c in checks}
        print((f"{'strategy':<10}" + "".join(f"{n:<18}" for n in CHECKS)).rstrip())
        for kind in (families.AGU, families.NGU):
            row = [f"{kind:<10}"]
            for n in CHECKS:
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


def _emit(args, checks: list[dict], inputs: list[dict], exit_code: int, started: float) -> None:
    """Print the JSON report or the human summary.  A reader that has
    closed the pipe gets nothing more.

    ``json.dumps`` writes the report with ``_SPLICE`` in place of each
    holding ``bisim`` relation, which is :class:`Blocks`, and
    :func:`block_pieces` writes the relation's rows where the
    placeholder stood, piece by piece, so the rows' text is never held
    whole."""
    try:
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
            relations = []

            def splice(relation: Blocks) -> str:
                relations.append(relation)
                return _SPLICE

            # acyclic: json's per-container id bookkeeping buys nothing
            text = json.dumps(report, check_circular=False, default=splice)
            for relation in relations:
                head, _, text = text.partition(json.dumps(_SPLICE))
                sys.stdout.write(head)
                sys.stdout.writelines(block_pieces(relation))
            print(text)
        else:
            _print_human(args.command, checks)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: drop the rest of the output, here and at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print_err(line: str) -> None:
    """Print ``line`` on stderr, with each character that stderr's
    encoding cannot hold (the lone surrogate that stands for an
    undecodable byte of a path) written as a backslash escape."""
    encoding = getattr(sys.stderr, "encoding", None) or "utf-8"
    print(line.encode(encoding, "backslashreplace").decode(encoding), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    with unbounded_int_digits():
        parser = build_parser()
        usage = io.StringIO()
        try:
            with contextlib.redirect_stderr(usage):
                args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse prints its usage errors itself: pass them on escaped
            if usage.getvalue():
                _print_err(usage.getvalue().removesuffix("\n"))
            return int(exc.code or 0)
        started = time.perf_counter()
        try:
            checks, inputs = args.run(args)
            exit_code = 1 if any(c["outcome"] == "fails" for c in checks) else 0
            _emit(args, checks, inputs, exit_code, started)
        except InputError as exc:
            _print_err(f"error: {exc}")
            return 2
        except Exception as exc:
            _print_err(f"internal error: {type(exc).__name__}: {exc}")
            return EXIT_INTERNAL
        return exit_code


if __name__ == "__main__":
    sys.exit(main())
