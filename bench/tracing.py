"""Traced replay of CLI operations, one span per call into a layer.

The replay calls the public functions that ``cogames.cli`` calls, in the
same order, and builds the same report.  The operation is the parent
span; each layer call is a child span named ``<module>.<function>``.
File loading is ``cli.load`` (read, sha256, decode) with ``dsl.parse``
and ``system.validate`` as its children.  A nested call inside the
package (``alw_leads_to_leaf`` inside ``sgpe``, for instance) counts in
its caller's span.  Spans stay in memory and are summarised at the end.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from cogames import __version__, cli, dsl
from cogames.equilibria import Convertibility, convertible, nash_eq, sgpe
from cogames.histories import format_lasso, strategy_history
from cogames.semantics import alw_leads_to_leaf, leads_to_leaf
from cogames.system import bisimilar, bisimilar_bounded, is_parametric, reachable, validate
from cogames.verdict import Verdict

CHECKS = {
    "ltl": ("semantics.leads_to_leaf", leads_to_leaf),
    "altl": ("semantics.alw_leads_to_leaf", alw_leads_to_leaf),
    "nash": ("equilibria.nash_eq", nash_eq),
    "sgpe": ("equilibria.sgpe", sgpe),
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0


@dataclass
class Tracer:
    """Spans and counters of one replay pass."""

    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        span = Span(name, self.stack[-1] if self.stack else None, time.perf_counter())
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if not hasattr(exc, "bench_span"):  # count once, in the innermost span
                exc.bench_span = name
                self.count(f"errors.{name}.{type(exc).__name__}")
            raise
        finally:
            span.end = time.perf_counter()
            self.stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the duration of its children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s.name] = out.get(s.name, 0.0) + t
        return out


def _check(name: str, verdict: Verdict) -> dict[str, Any]:
    item = verdict.to_json()
    item["name"] = name
    return item


class Replay:
    """Runs operations the way ``cli.main`` does, recording spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.systems: list = []

    def load(self, path: str):
        return self.tracer.call("cli.load", self._load, path)

    def _load(self, path: str):
        data = Path(path).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        text = data.decode("utf-8")
        system = self.tracer.call("dsl.parse", dsl.parse, text)
        self.tracer.count("dsl.parse.bytes", len(data))
        ok = self.tracer.call("system.validate", validate, system)
        if not ok.holds:
            raise cli.InputError(f"{path}: invalid system: {ok.note}")
        self.systems.append(system)
        return system, {"path": path, "sha256": digest}

    def check(self, args) -> tuple[list, list]:
        system, meta = self.load(args.file)
        wanted = [n for n in CHECKS if getattr(args, n)]
        return [_check(n, self.tracer.call(CHECKS[n][0], CHECKS[n][1], system)) for n in wanted], [meta]

    def history(self, args) -> tuple[list, list]:
        system, meta = self.load(args.file)
        text = format_lasso(self.tracer.call("histories.strategy_history", strategy_history, system))
        return [{"name": "history", "outcome": "info", "note": "history of the committed choices",
                 "value": text}], [meta]

    def bisim(self, args) -> tuple[list, list]:
        sys_a, meta_a = self.load(args.a)
        sys_b, meta_b = self.load(args.b)
        call = self.tracer.call
        if call("system.is_parametric", is_parametric, sys_a) or \
                call("system.is_parametric", is_parametric, sys_b):
            depth = cli.DEFAULT_BISIM_DEPTH
            verdict = call("system.bisimilar_bounded", bisimilar_bounded, sys_a, sys_b, depth)
            name = f"bisimilar_bounded[{depth}]"
        else:
            verdict = call("system.bisimilar", bisimilar, sys_a, sys_b)
            name = "bisimilar"
            if verdict.holds:
                self.tracer.count("system.bisimilar.product_states", len(verdict.certificate["relation"]))
        return [_check(name, verdict)], [meta_a, meta_b]

    def convert(self, args) -> tuple[list, list]:
        sys_a, meta_a = self.load(args.a)
        sys_b, meta_b = self.load(args.b)
        result = self.tracer.call("equilibria.convertible", convertible, sys_a, sys_b, args.agent)
        verdict = Verdict(result.value is not Convertibility.NOT_CONVERTIBLE,
                          {"class": result.value.value, "witness": result.witness},
                          result.note or result.value.value)
        return [_check("convertible", verdict)], [meta_a, meta_b]

    def run(self, argv: list[str]) -> tuple[int, str]:
        """One operation as a parent span; returns (exit code, report text)."""
        return self.tracer.call("op", self._run, argv)

    def _run(self, argv: list[str]) -> tuple[int, str]:
        started = time.perf_counter()
        args = self.tracer.call("cli.args", lambda: cli.build_parser().parse_args(argv))
        checks, inputs = getattr(self, args.command)(args)
        exit_code = 1 if any(c["outcome"] == "fails" for c in checks) else 0
        report = {
            "report_version": 1,
            "tool": {"name": "cogames", "version": __version__},
            "command": args.command,
            "inputs": inputs,
            "checks": checks,
            "exit_code": exit_code,
            "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }
        text = self.tracer.call("cli.render", json.dumps, report, indent=2)
        self.tracer.count("cli.report_bytes", len(text) + 1)
        return exit_code, text

    def count_work(self) -> None:
        """Work counters for the systems loaded so far (outside every span)."""
        for system in self.systems:
            self.tracer.count("work.classes", len(system.classes))
            self.tracer.count("work.reachable_classes", len(reachable(system)))
        self.systems.clear()
