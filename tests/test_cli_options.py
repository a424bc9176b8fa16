"""Each subcommand takes only the options its handler reads, and a usage
error is a ParseError on stdout (exit 1), not an argparse exit."""

import argparse
import io
import json
import sys
from pathlib import Path

import pytest

from vnalg.cli import build_parser, main

PAYLOAD = {"--in", "--out", "--tol"}
# The options of each subcommand.  An option that no handler reads accepts a
# value and silently ignores it, so one may be added only with the code that
# reads it.
OPTIONS = {
    "spectrum": PAYLOAD,
    "sqrt": PAYLOAD | {"--f"},
    "abs": PAYLOAD | {"--f"},
    "ceil": PAYLOAD,
    "floor": PAYLOAD,
    "support": PAYLOAD,
    "range": PAYLOAD,
    "join": PAYLOAD,
    "meet": PAYLOAD,
    "csupport": PAYLOAD,
    "polar": PAYLOAD,
    "pinv": PAYLOAD,
    "divide": PAYLOAD | {"--left", "--right"},
    "seqquot": PAYLOAD,
    "checkmap": PAYLOAD | {"--cp", "--miu", "--carrier"},
    "choi": {"--in", "--out"},
    "corner": PAYLOAD,
    "filter": PAYLOAD,
    "bracket": PAYLOAD,
    "purity": PAYLOAD,
    "seqprod": PAYLOAD,
    "check-axioms": {"--out", "--seed", "--tol", "--op", "--algebra", "--trials"},
    "tensor": {"--out", "--algebras"},
    "tensor-el": {"--in", "--out"},
    "dup-check": {"--out", "--seed", "--tol", "--algebra", "--samples"},
    "bang": {"--out", "--algebra"},
    "wedderburn": PAYLOAD | {"--seed"},
    "gelfand": PAYLOAD | {"--seed"},
    "gns": PAYLOAD,
    "verify-suite": {"--out", "--level"},
    "gen": {"--out", "--seed", "--kind", "--algebra", "--count"},
}


def _subcommands() -> dict:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _options(subparser) -> set:
    return {s for a in subparser._actions if not isinstance(a, argparse._HelpAction)
            for s in a.option_strings}


def test_each_subcommand_takes_exactly_its_table_options():
    got = {name: _options(p) for name, p in _subcommands().items()}
    assert got == OPTIONS


def test_option_action_count():
    assert sum(len(_options(p)) for p in _subcommands().values()) == 104


def run_cli(argv, stdin_text=""):
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin_text), io.StringIO()
    try:
        code = main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    return code, out


DATA = Path(__file__).parent / "data" / "cli"


@pytest.mark.parametrize("argv, payload", [
    (["spectrum", "--bogus"], "effect_2+1"),
    (["spectrum", "--seed", "3"], "effect_2+1"),
    (["gns", "--state", str(DATA / "state_2+1.in.json")], "state_2+1"),
    (["check-axioms", "--algebra", "2"], None),
    (["check-axioms", "--op", "nope", "--algebra", "2"], None),
    (["gen", "--kind", "effect", "--algebra", "2", "--count", "two"], None),
    (["no-such-command"], None),
    ([], None),
])
def test_usage_errors_are_parse_errors_on_stdout(argv, payload, capfd):
    # Each payload is valid, so only the command line can be at fault.
    stdin = (DATA / f"{payload}.in.json").read_text() if payload else ""
    code, out = run_cli(argv, stdin)
    assert code == 1
    assert json.loads(out)["error"] == "ParseError"
    assert capfd.readouterr().err == ""


def test_help_still_exits_zero(capsys):
    assert main(["spectrum", "--help"]) == 0
    assert "--tol" in capsys.readouterr().out


# The options each subcommand needs besides --tol.
REQUIRED = {"check-axioms": ["--op", "std", "--algebra", "2"], "dup-check": ["--algebra", "2"]}


@pytest.mark.parametrize("name", sorted(n for n, opts in OPTIONS.items() if "--tol" in opts))
def test_a_bad_tol_is_a_usage_error_before_the_payload_is_read(name):
    # The payload [] is malformed too, so a handler that read it first would
    # report the payload instead.  A tolerance of 1 or more would make every
    # element equal to 0.
    for value in ("0", "nan", "inf", "1", "1e300"):
        code, out = run_cli([name, *REQUIRED.get(name, []), "--tol", value], "[]")
        assert code == 1
        err = json.loads(out)
        assert err["error"] == "ParseError" and "--tol" in err["message"], (value, err)
