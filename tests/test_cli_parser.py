"""The parser main builds for one argv agrees with the parser of every command.

``build_parser(argv)`` registers only the commands argv names.  For any argv,
it must give the same namespace as ``build_parser()``, or exit with the same
code, stdout and stderr.  No handler runs.
"""

from __future__ import annotations

import argparse
import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnsheaf.cli import COMMANDS, _join_negative_values, build_parser


def _words(table: dict):
    for name, (_, *entry) in table.items():
        yield name
        if len(entry) == 1:
            yield from _words(entry[0])
        else:
            yield from (flag for flag, _ in entry[1] if flag.startswith("-"))


VOCABULARY = sorted({
    *_words(COMMANDS), "--format", "--seed", "-h", "--help", "--bogus",
    "3", "-1", "-1,-2", "1:3", "json", "xml", "O(1)", "x",
})


def _parse(parser: argparse.ArgumentParser, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(VOCABULARY), max_size=6))
@example([])
@example(["-h", "cohomology"])
@example(["cohomology", "O(1) on P^2", "extra"])
@example(["pfaff", "singular", "--file", "form.txt", "extra"])
def test_parser_for_argv_matches_the_full_parser(argv):
    argv = _join_negative_values(argv)
    assert _parse(build_parser(argv), argv) == _parse(build_parser(), argv)


def _top_level_choices(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_only_the_named_command_is_built():
    assert list(_top_level_choices(build_parser(["chi", "O(1) on P^2"]))) == ["chi"]
    assert len(_top_level_choices(build_parser([]))) == 9
