"""Argv drawn from every subcommand's options, exact and mutated: options
abbreviated, written --opt=value or with their value apart, values that
start with '-', repeated options, store_true=x, unknown flags and stray
words, missing required options, bad choices, unconvertible numbers, --
and --help.  A command's option table, cli._Options, either declines argv
or parses it to the full parser's namespace, and where the full parser
exits, cli.main exits with its code and texts."""

import argparse

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from pavekit import cli  # noqa: E402

from test_cli_boundary import SUBCOMMANDS, _table_agrees  # noqa: E402

SUBPARSERS = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)).choices
OPTIONS = {name: SUBPARSERS[name]._actions[1:]      # after argparse's -h
           for name in SUBCOMMANDS}
VALUES = ("1", "2", " 3 ", "0.5", "-1", "-1.5", "1,2", "-1,2", "0,1;2",
          "1+2j,0", "", "x", "nan", "1e999", "real", "-", "--k", "-h")
STRAYS = ("--", "--help", "-h", "--bogus", "--bogus=1", "extra", "--=1",
          "--version", "-", "")
FORMS = ("apart",) * 3 + ("equals",) * 2 + ("abbreviated", "dropped")


def _reads(action, value):
    """Whether the action's type reads value."""
    try:
        action.type(value)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return False
    return True


GOOD = {action: action.choices or [v for v in VALUES
                                   if action.type is None or
                                   _reads(action, v)]
        for options in OPTIONS.values() for action in options}


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(SUBCOMMANDS))
    options = OPTIONS[name]
    chosen = [a for a in options if a.required or draw(st.booleans())] + \
        draw(st.lists(st.sampled_from(options), max_size=2))
    argv = [name]
    for action in draw(st.permutations(chosen)):
        flag, form = action.option_strings[0], draw(st.sampled_from(FORMS))
        if form == "dropped":
            continue
        if form == "abbreviated" and len(flag) > 3:
            flag = flag[:draw(st.integers(2, len(flag) - 1))]
        if action.nargs == 0:       # store_true
            argv.append(flag + draw(st.sampled_from(["", "", "=x", "="])))
            continue
        pool = GOOD[action] if draw(st.integers(0, 3)) else VALUES
        value = draw(st.sampled_from(pool))
        argv += [f"{flag}={value}"] if form == "equals" else [flag, value]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(STRAYS)))
    return argv


@hypothesis.settings(max_examples=800, deadline=None, derandomize=True)
@hypothesis.given(argvs())
def test_the_table_declines_or_parses_as_the_full_parser(argv):
    hypothesis.event("parsed" if _table_agrees(argv) else "declined")
