"""Property test: the command line answers every mutated source with a
report or a one-line input error.

The mutated sources are those of ``test_dsl_fuzz``.  Each example writes
two of them to files and runs every file-reading command on them through
``main``: exit 0 or 1 must come with one line of JSON on stdout that
validates against the report schema, and exit 2 with one ``error: PATH:
...`` line on stderr that names the input file (or both, for a pair that
cannot be compared).  Any other exit code fails the test, so an
unexpected exception, which ``main`` reports as an internal error with
exit 70, fails it too.  The mutated sources hold digit runs past
CPython's default int/str conversion limit, which ``main`` lifts while it
runs and which the test lifts only to read a report back.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import jsonschema
import pytest

from cogames.cli import main, unbounded_int_digits

from test_cli import SCHEMA
from test_dsl_fuzz import SOURCES, mutated_sources

VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

COMMANDS = [
    lambda a, b, agent: ["check", a, "--ltl", "--altl", "--nash", "--sgpe"],
    lambda a, b, agent: ["history", a],
    lambda a, b, agent: ["eval", a, "--agent", agent],
    lambda a, b, agent: ["bisim", a, b],
    lambda a, b, agent: ["convert", a, b, "--agent", "Alice"],
]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--json", *argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mutated_sources(), mutated_sources(), st.sampled_from(["Alice", "Ann"]))
@example(SOURCES[-1], SOURCES[-2], "Ann")  # integers past the default int/str limit
def test_every_command_reports_or_names_the_bad_input(text_a, text_b, agent):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a.cog", Path(tmp) / "b.cog"
        a.write_text(text_a, encoding="utf-8")
        b.write_text(text_b, encoding="utf-8")
        for command in COMMANDS:
            argv = command(str(a), str(b), agent)
            code, out, err = run(argv)
            if code in (0, 1):
                assert err == "" and out.endswith("\n") and out.count("\n") == 1, argv
                with unbounded_int_digits():  # a report may hold ints past 4 300 digits
                    report = json.loads(out)
                VALIDATOR.validate(report)
                assert report["exit_code"] == code
            else:
                assert code == 2 and out == "", argv
                assert err.count("\n") == 1 and err.endswith("\n"), err
                assert err.startswith((f"error: {a}: ", f"error: {b}: ",
                                       f"error: {a} and {b}: ")), err
