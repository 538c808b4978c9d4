"""Benchmark of the cogames CLI: time to verdict, checked against an
independent reference.

Usage, from the repository root::

    python3 bench/run.py --limit-ms 300 --workload paper-families --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --limit-ms 300 --workload all --seed 1 --seconds 20 --trace 1

One run generates the workload's inputs from the seed, measures set-up
in fresh interpreters, then calls ``cogames.cli.main([... "--json" ...])``
in process as one closed-loop caller (the next operation starts when the
previous one returns) for ``--seconds``.  Every report is validated
against the report schema and every verdict against ``reference.py``,
outside the timed region.  ``--trace 1`` also replays one pass over the
operations with a span around every call into a layer (``tracing.py``)
and reports the per-layer metrics instead of the end-to-end ones.
``--workload all`` runs each workload in a fresh interpreter.  The last
line of standard output is the JSON result; ``bench/README.md`` explains
the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("paper-families", "deep-chains", "product-pairs")
SETUP_REPS = 11
# The host's speed drifts by up to 2x within minutes, and a fixed pure-Python
# loop slows down with it.  Times are reported at reference speed: wall time
# times CALIB_REF_MS over the loop's median time around the measurement.
CALIB_LOOP = 40_000
CALIB_REF_MS = 2.0
CALIB_WINDOW = 10  # calibrations on each side of an operation
MIN_PASSES = 2
TAIL_LADDER = (50, 75, 90, 95, 99)
TAIL_BEYOND = 10

KNOWN_DEFECTS = {
    "tarjan-recursion": "equilibria._tarjan recurses once per class on a path, so nash_eq or "
                        "sgpe raise RecursionError once an SCC search goes about 1000 classes "
                        "deep: sgpe on always-give-up unrollings past ~490 periods, nash_eq "
                        "and sgpe on chains past ~1000 nodes",
    "convert-drift-cap": "convertible caps the offset drift at |S|+|T| classes, so two "
                         "presentations of one tree whose large offset sits on different "
                         "edges come back not_convertible (false negative)",
}

END_TO_END_UNITS = {"verdict_ms_p50": "ms", "verdict_ms_tail": "ms", "decided_share": "fraction",
                    "failed_share": "fraction", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_SPANS = ("cli.args", "cli.load", "cli.render", "dsl.parse", "system.validate",
               "system.is_parametric", "semantics.leads_to_leaf", "semantics.alw_leads_to_leaf",
               "equilibria.nash_eq", "equilibria.sgpe", "equilibria.convertible",
               "system.bisimilar", "system.bisimilar_bounded", "histories.strategy_history")
MODULES = ("cli", "dsl", "system", "semantics", "equilibria", "histories")
COUNTERS = {"cli.report_bytes": "bytes", "system.bisimilar.product_states": "count",
            "work.classes": "count", "work.reachable_classes": "count", "work.cert_rows": "count",
            "errors.equilibria.nash_eq.RecursionError": "count",
            "errors.equilibria.sgpe.RecursionError": "count", "errors.other": "count",
            "wrong_verdicts": "count", "trace.ops": "count"}

FACTS = {
    "steps": lambda c: len(c["certificate"]["choices"]),
    "value": lambda c: c["value"],
    "relation_rows": lambda c: len(c["certificate"]["relation"]),
    "reason": lambda c: c["certificate"]["reason"],
    "path": lambda c: c["certificate"]["path"],
    "class": lambda c: c["certificate"]["class"],
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--limit-ms", type=float, required=True,
                   help="per-operation time limit for decided_share")
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def calibrate() -> float:
    """Wall time in ms of a fixed pure-Python loop: the host's speed now."""
    started = time.perf_counter()
    total = 0
    for i in range(CALIB_LOOP):
        total += i * i
    return (time.perf_counter() - started) * 1000.0


def at_reference_speed(ms: float, calib_ms: float) -> float:
    return ms * CALIB_REF_MS / calib_ms


# ---------------------------------------------------------------------------
# set-up: generation, file writing and ``import cogames`` in a fresh process


def setup_only(args: argparse.Namespace) -> None:
    calib = [calibrate() for _ in range(5)]
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import cogames  # noqa: F401  (counted: users pay it on every run)
    import workloads

    pool = workloads.WORKLOADS[args.workload](args.seed, ROOT / "games")
    workdir = Path(args.setup_only)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in pool.files.items():
        (workdir / name).write_text(text)
    manifest = {"workload": args.workload, "seed": args.seed, "ops": [asdict(op) for op in pool.ops]}
    (workdir / "manifest.json").write_text(json.dumps(manifest))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    calib += [calibrate() for _ in range(5)]
    print(at_reference_speed(elapsed_ms, statistics.median(calib)) / 1000.0)


def measure_setup(args: argparse.Namespace, workdir: Path) -> list[float]:
    """Set-up times of SETUP_REPS fresh interpreters, at reference speed;
    the files of the last one are the run's inputs."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--limit-ms", "0",
             "--setup-only", str(workdir)],
            capture_output=True, text=True, timeout=150, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# judging one report against the reference


def raised_in(exc: BaseException) -> tuple[str, set[str]]:
    """The package function the CLI called when ``exc`` escaped, and every
    package function on the traceback."""
    entry, names = "cli.main", set()
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = Path(frame.f_code.co_filename)
        if path.parent.name != "cogames":
            continue
        name = f"{path.stem}.{frame.f_code.co_name}"
        if entry == "cli.main" and path.stem != "cli":
            entry = name
        names.add(name)
    return entry, names


def judge(op, code: int | None, stdout: str, exc: BaseException | None, validator) -> dict | None:
    """None when the operation returned every expected verdict, else the
    failure with its cause and, when it matches one, the known defect."""
    if exc is not None:
        entry, names = raised_in(exc)
        defect = "tarjan-recursion" if (isinstance(exc, RecursionError)
                                        and "equilibria._tarjan" in names) else None
        return {"cause": f"{type(exc).__name__} escaped main from {entry}", "defect": defect}
    try:
        report = json.loads(stdout)
    except ValueError:
        return {"cause": "report is not JSON", "defect": None}
    problem = next(validator.iter_errors(report), None)
    if problem is not None:
        return {"cause": f"report fails the schema: {problem.message[:200]}", "defect": None}
    checks = {c["name"]: c for c in report["checks"]}
    if set(checks) != set(op.expect["checks"]):
        return {"cause": f"checks {sorted(checks)}, expected {sorted(op.expect['checks'])}",
                "defect": None}
    for name, want in op.expect["checks"].items():
        got = checks[name]
        for fact, value in want.items():
            seen = got["outcome"] if fact == "outcome" else FACTS[fact](got)
            if seen != value:
                defect = None
                if name == "convertible" and "drift" in str(got["certificate"]):
                    defect = "convert-drift-cap"
                return {"cause": f"wrong verdict: {name} {fact} {seen!r}, expected {value!r}",
                        "defect": defect, "wrong_verdict": True}
    if code != op.expect["exit"] or code != report["exit_code"]:
        return {"cause": f"exit code {code}, report says {report['exit_code']}, "
                         f"expected {op.expect['exit']}", "defect": None}
    return None


# ---------------------------------------------------------------------------
# the timed loop


def call_cli(main, argv: list[str]) -> tuple[float, int | None, str, BaseException | None]:
    out, err = io.StringIO(), io.StringIO()
    exc = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = main(argv)
        except Exception as e:  # an escaping exception is a failed operation
            exc = e
        elapsed = time.perf_counter() - started
    return elapsed, code, out.getvalue(), exc


def timed_loop(ops, workdir: Path, seconds: float, validator) -> list[dict]:
    """Closed loop, one caller: run the operations in their seeded order
    until ``seconds`` have passed and at least MIN_PASSES passes are done,
    then finish the pass, so that every operation of the pool counts
    equally often.  Each operation's ``ms`` is at reference speed,
    ``wall_ms`` as measured."""
    from cogames.cli import main

    call_cli(main, ops[0].argv(workdir))  # warm-up, not counted
    records = []
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds or len(records) % len(ops)
           or len(records) < MIN_PASSES * len(ops)):
        op = ops[len(records) % len(ops)]
        calib_ms = calibrate()
        elapsed, code, stdout, exc = call_cli(main, op.argv(workdir))
        failure = judge(op, code, stdout, exc, validator)
        del exc
        records.append({"op": op, "wall_ms": elapsed * 1000.0, "calib_ms": calib_ms,
                        "failure": failure})
    calibs = [r["calib_ms"] for r in records]
    for i, r in enumerate(records):
        near = calibs[max(0, i - CALIB_WINDOW):i + CALIB_WINDOW + 1]
        r["ms"] = at_reference_speed(r["wall_ms"], statistics.median(near))
    return records


def nearest_rank(values: list[float], p: float) -> float:
    return values[max(1, math.ceil(p / 100.0 * len(values))) - 1]


def tail_percentile(pool: int) -> int:
    """The highest ladder percentile with TAIL_BEYOND operations of the
    pool beyond it.  It depends on the pool, not on speed, so a faster
    program is not judged at a higher percentile."""
    return next((p for p in reversed(TAIL_LADDER)
                 if pool - math.ceil(p / 100.0 * pool) >= TAIL_BEYOND), TAIL_LADDER[0])


def per_op_ms(records: list[dict], pool: int, failed_ms: float | None = None) -> list[float]:
    """Time of each pool operation in the faster of the first MIN_PASSES
    passes, in pool order.  Interference from the host only adds time, so
    the faster pass is the less disturbed one; a fixed number of passes
    keeps the estimate from depending on how many passes fit in a run.  A
    failed attempt counts as ``failed_ms`` when given."""
    per_op: list[list[float]] = [[] for _ in range(min(pool, len(records)))]
    for i, r in enumerate(records[:MIN_PASSES * pool]):
        per_op[i % pool].append(failed_ms if r["failure"] and failed_ms is not None else r["ms"])
    return [min(ms) for ms in per_op]


def end_to_end(records: list[dict], pool: int, limit_ms: float, setup: list[float],
               run_ms: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the facts behind them.

    The time of an operation is its faster of the first two passes; a
    failure counts as taking the whole run, past every limit.  The shares
    count every attempt."""
    times = sorted(per_op_ms(records, pool, failed_ms=run_ms))
    n = len(records)
    failed = sum(1 for r in records if r["failure"])
    decided = sum(1 for r in records if not r["failure"] and r["ms"] <= limit_ms)
    tail_p = tail_percentile(len(times))
    values = {
        "verdict_ms_p50": nearest_rank(times, 50),
        "verdict_ms_tail": nearest_rank(times, tail_p),
        "decided_share": decided / n,
        "failed_share": failed / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    return values, {"tail_percentile": tail_p, "samples": n, "operations": len(times),
                    "failed": failed}


def describe_failures(records: list[dict]) -> list[str]:
    groups: dict[tuple, list[dict]] = {}
    for r in records:
        if r["failure"]:
            key = (r["failure"]["defect"], r["failure"]["cause"], r["op"].tag)
            groups.setdefault(key, []).append(r)
    lines = []
    for (defect, cause, tag), rs in sorted(groups.items(), key=lambda kv: str(kv[0])):
        sizes = sorted({r["op"].size for r in rs})
        label = f"known defect {defect}" if defect else "UNEXPECTED"
        lines.append(f"  {len(rs):4d} x {tag} (sizes {sizes[0]}..{sizes[-1]}): {cause} [{label}]")
    for defect in sorted({r["failure"]["defect"] for r in records if r["failure"]} - {None}):
        lines.append(f"  cause of {defect}: {KNOWN_DEFECTS[defect]}")
    return lines


# ---------------------------------------------------------------------------
# the traced pass


def cert_rows(check: dict) -> int:
    """List items in a certificate, through nested objects (not lists)."""
    stack, rows = [check.get("certificate")], 0
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            rows += len(item)
    return rows


def traced_pass(ops, workdir: Path, validator) -> tuple[dict, float, list[dict]]:
    """Replay ``ops`` once with spans; returns per-layer values, the
    traced total in ms (both at reference speed) and the failures."""
    import tracing

    tracer = tracing.Tracer()
    replay = tracing.Replay(tracer)
    failures, calibs = [], []
    for op in ops:
        calibs.append(calibrate())
        exc = code = None
        text = ""
        try:
            code, text = replay.run(op.argv(workdir))
        except Exception as e:  # counted by the tracer; judged below
            exc = e
        replay.count_work()
        failure = judge(op, code, text + "\n", exc, validator)
        del exc
        if failure:
            failures.append(failure)
            tracer.count("wrong_verdicts", int(failure.get("wrong_verdict", False)))
        else:
            tracer.count("work.cert_rows", sum(cert_rows(c) for c in json.loads(text)["checks"]))
    tracer.count("trace.ops", len(ops))
    speed = CALIB_REF_MS / statistics.median(calibs)
    own = {name: t * speed for name, t in tracer.self_times().items()}
    total_ms = sum(s.end - s.start for s in tracer.spans if s.parent is None) * 1000.0 * speed
    values: dict[str, float] = {}
    for name in LAYER_SPANS:
        values[f"{name}.self_ms"] = own.get(name, 0.0) * 1000.0
    values["cli.main.self_ms"] = own.get("op", 0.0) * 1000.0
    parse_s = own.get("dsl.parse", 0.0)
    values["dsl.parse.kb_per_s"] = tracer.counters.get("dsl.parse.bytes", 0) / 1024.0 / parse_s if parse_s else 0.0
    for module in MODULES:
        spent = sum(t for name, t in own.items() if name.split(".")[0] == module)
        if module == "cli":
            spent += own.get("op", 0.0)
        values[f"{module}.self_share"] = spent * 1000.0 / total_ms if total_ms else 0.0
    known_errors = {k for k in COUNTERS if k.startswith("errors.") and k != "errors.other"}
    for name in COUNTERS:
        values[name] = tracer.counters.get(name, 0)
    values["errors.other"] = sum(v for k, v in tracer.counters.items()
                                 if k.startswith("errors.") and k not in known_errors)
    return values, total_ms, failures


def layer_units() -> dict[str, str]:
    units = {f"{name}.self_ms": "ms" for name in LAYER_SPANS}
    units["cli.main.self_ms"] = "ms"
    units["dsl.parse.kb_per_s"] = "kB/s"
    units.update({f"{m}.self_share": "fraction" for m in MODULES})
    units.update(COUNTERS)
    units["trace.overhead_ms"] = "ms"
    return units


# ---------------------------------------------------------------------------


def run_workload(args: argparse.Namespace) -> int:
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = measure_setup(args, workdir)
        sys.path.insert(0, str(SRC))
        import jsonschema
        import workloads

        manifest = json.loads((workdir / "manifest.json").read_text())
        ops = [workloads.Operation(**op) for op in manifest["ops"]]
        schema = json.loads((SRC / "cogames" / "schemas" / "report-v1.json").read_text())
        validator = jsonschema.Draft7Validator(schema)

        started = time.perf_counter()
        records = timed_loop(ops, workdir, args.seconds, validator)
        run_ms = (time.perf_counter() - started) * 1000.0
        values, facts = end_to_end(records, len(ops), args.limit_ms, setup, run_ms)
        unexpected = [r for r in records if r["failure"] and not r["failure"]["defect"]]
        calib = statistics.median(r["calib_ms"] for r in records)
        print(f"{args.workload}, seed {args.seed}: {facts['samples']} operations in "
              f"{run_ms / 1000.0:.1f} s, closed loop with one caller; pool of {len(ops)}")
        print(f"host speed: calibration loop {calib:.3f} ms (median), reference "
              f"{CALIB_REF_MS} ms; times are at reference speed")
        if args.trace:
            first = records[:len(ops)]
            layer, traced_ms, traced_failures = traced_pass([r["op"] for r in first], workdir, validator)
            layer["trace.overhead_ms"] = traced_ms - sum(per_op_ms(records, len(ops)))
            units = layer_units()
            width = max(map(len, units))
            for name in sorted(units):
                print(f"  {name:<{width}} {layer[name]:14.3f} {units[name]}")
            metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
            correct = not unexpected and all(f["defect"] for f in traced_failures)
        else:
            for name, unit in END_TO_END_UNITS.items():
                note = ""
                if name == "verdict_ms_tail":
                    note = (f"  (p{facts['tail_percentile']} of {facts['operations']} operations, "
                            f"{facts['samples']} samples)")
                elif name == "decided_share":
                    note = f"  (limit {args.limit_ms:g} ms)"
                elif name == "setup_s":
                    note = f"  (median of {len(setup)} fresh interpreters)"
                print(f"  {name:<16} {values[name]:12.4f} {unit}{note}")
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
            correct = not unexpected
        print("failures:" if facts["failed"] else "failures: none")
        for line in describe_failures(records):
            print(line)
        print(json.dumps({"correct": correct, "attempted": facts["samples"],
                          "failed": facts["failed"], "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter, then one table."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--limit-ms", str(args.limit_ms)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':<16} {'metric':<42} {'value':>14} unit")
    combined = {}
    for workload, result in results.items():
        for name, m in result["metrics"].items():
            print(f"{workload:<16} {name:<42} {m['value']:14.4f} {m['unit']}")
            combined[f"{workload}/{name}"] = m
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": combined}))
    return 0


def main(argv: list[str]) -> int:
    # on SIGTERM, unwind: subprocess.run kills its child and the work
    # directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    if not (SRC / "cogames" / "__init__.py").is_file():
        print(f"error: the cogames sources are not at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.setup_only:
        setup_only(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
