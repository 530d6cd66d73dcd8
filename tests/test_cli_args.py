"""The command-line table against the ``argparse`` parser it replaced.

``workloads.build_parser`` is that parser. Drawn argument lists must be
read alike: accepted with the same values, or refused with exit 4 and one
``usage error:`` line. Four differences are on purpose, and are the only
ones: an option's value is the next argument even when it starts with
``-`` (argparse refused ``--clear -x``); ``-h`` or ``--help`` anywhere
prints help, where argparse could report an error first; an option is
never abbreviated (argparse read ``--pol`` as ``--policy``); and a ``--``
that ends the line is ignored (argparse refused ``state --``).
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from eaclab import cli
from workloads import ReferenceUsageError, build_parser

REFERENCE = build_parser()
COMMANDS = ["validate", "plan", "run", "state", "resume"]
OPTIONS = ["--lab", "--policy", "--seed", "--inject", "--out", "--run", "--clear"]
VALUES = ["spec.json", "fifo", "batched", "7", "-1", "-25", "-0.5", "", "\n", "two\nlines"]
JUNK = ["--bogus", "extra", "-h", "--help", "--"]

TOKENS = st.one_of(
    st.sampled_from(OPTIONS + VALUES + JUNK),
    st.builds("{}={}".format, st.sampled_from(OPTIONS + ["--bogus"]), st.sampled_from(VALUES)),
)
ARGV = st.one_of(
    st.builds(lambda command, rest: [command, *rest],
              st.sampled_from(COMMANDS), st.lists(TOKENS, max_size=6)),
    st.lists(st.one_of(st.sampled_from(JUNK), TOKENS), max_size=3),
)


def _as_argparse_reads_it(argv):
    """argv with each option of its command joined by ``=`` to a next
    argument that starts with ``-``, which argparse then takes as the value,
    as the table does without the ``=``; and without a ``--`` that ends it."""
    options = cli.COMMANDS[argv[0]][3] if argv and argv[0] in cli.COMMANDS else {}
    joined, rest = [], iter(argv)
    for arg in rest:
        if arg == "--":
            after = list(rest)
            joined += ["--", *after] if after else []
            break
        following = next(rest, None) if arg in options else None
        if following is not None and following.startswith("-"):
            joined.append(f"{arg}={following}")
        else:
            joined += [arg] if following is None else [arg, following]
    return joined


def _reference(argv):
    """(command, values) as argparse reads argv, or None if it refuses it."""
    try:
        values = vars(REFERENCE.parse_args(_as_argparse_reads_it(argv)))
    except ReferenceUsageError:
        return None
    return values.pop("command"), values


def _table(argv):
    """(command, values) as ``cli.parse_args`` reads argv, or None if it refuses it."""
    try:
        handler, args = cli.parse_args(argv)
    except cli._Usage:
        return None
    command = next(name for name, entry in cli.COMMANDS.items() if entry[0] is handler)
    return command, vars(args)


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_help(argv):
    code, out, err = _main(argv)
    assert (code, err) == (0, "")
    command = argv[0] if argv[0] in cli.COMMANDS else "{validate,plan,run,state,resume}"
    assert out.startswith(f"usage: eaclab {command}")


def _assert_refused(argv):
    code, out, err = _main(argv)
    assert (code, out) == (4, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1


@settings(max_examples=600, deadline=None)
@given(ARGV)
def test_the_table_reads_a_command_line_as_argparse_did(argv):
    if "-h" in argv or "--help" in argv:
        _assert_help(argv)
        return
    expected = _reference(argv)
    assert _table(argv) == expected
    if expected is None:
        _assert_refused(argv)


@pytest.mark.parametrize("argv", [
    ["run", "spec.json", "--seed", "-1", "--out", ""],
    ["run", "--seed=-7", "spec.json", "--policy=fifo", "--policy", "batched"],
    ["resume", "--clear", "", "runs/r"],
    ["state", "--run=runs/r=1"],
    ["validate", "--", "-spec.json"],
    ["validate", "-0.5", "--lab", "two\nlines"],
])
def test_examples_read_alike(argv):
    assert _table(argv) == _reference(argv) is not None


@pytest.mark.parametrize("argv, reason", [
    ([], "the following arguments are required: command"),
    (["explode"], "argument command: invalid choice: 'explode' "
                  "(choose from 'validate', 'plan', 'run', 'state', 'resume')"),
    (["resume"], "the following arguments are required: run_dir"),
    (["plan", "s", "--policy", "x"],
     "argument --policy: invalid choice: 'x' (choose from 'fifo', 'batched')"),
    (["run", "s", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
    (["run", "s", "--out"], "argument --out: expected one argument"),
    (["state", "extra"], "unrecognized arguments: extra"),
    (["validate", "s", "--seed", "1"], "unrecognized arguments: --seed"),
    (["validate", "s", "-x"], "unrecognized arguments: -x"),
])
def test_a_refusal_keeps_argparses_wording(capsys, argv, reason):
    assert _reference(argv) is None
    assert cli.main(argv) == 4
    assert capsys.readouterr().err == f"usage error: {reason}\n"


def test_a_value_that_starts_with_a_dash_is_taken_as_given():
    argv = ["resume", "runs/r", "--clear", "-x"]
    assert _reference(argv[:2] + ["--clear=-x"]) == _table(argv)
    with pytest.raises(ReferenceUsageError, match="expected one argument"):
        REFERENCE.parse_args(argv)


def test_a_dash_dash_that_ends_the_line_is_ignored():
    assert _table(["state", "--"]) == _reference(["state"])
    with pytest.raises(ReferenceUsageError, match="unrecognized arguments"):
        REFERENCE.parse_args(["state", "--"])


def test_an_abbreviated_option_is_unknown(capsys):
    argv = ["plan", "spec.json", "--pol", "fifo"]
    assert _reference(argv)[1]["policy"] == "fifo"
    assert cli.main(argv) == 4
    assert capsys.readouterr().err == "usage error: unrecognized arguments: --pol\n"


@pytest.mark.parametrize("argv", [
    ["explode", "-h"], ["plan", "s", "--policy", "x", "--help"], ["resume", "--clear", "-h"],
])
def test_help_anywhere_wins_over_an_error(argv):
    with pytest.raises(ReferenceUsageError):
        REFERENCE.parse_args(argv)
    _assert_help(argv)


def test_help_of_a_command_lists_its_own_options(capsys):
    assert cli.main(["plan", "--help"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: eaclab plan SPEC [--lab LAB] [--policy {fifo,batched}]\n")
    assert "--policy" in text and "--seed" not in text
    for command, (_, summary, _, options) in cli.COMMANDS.items():
        assert cli.main([command, "-h"]) == 0
        text = capsys.readouterr().out
        assert summary in text
        assert {option for option in OPTIONS if option + " " in text} == set(options)
    assert cli.main(["--help"]) == 0
    text = capsys.readouterr().out
    assert all(f"  {command}" in text for command in COMMANDS)
