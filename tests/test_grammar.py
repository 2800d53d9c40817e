"""The trailing 'on P^n' of an expression: split by a string scan, parsed once."""

from __future__ import annotations

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnsheaf import split_ambient
from pnsheaf.cli import main


def _regex_split_ambient(text: str) -> tuple[str, int | None]:
    """The regular expression split_ambient once used, kept as its oracle."""
    m = re.search(r"\bon\s+P\^(\d+)\s*$", text)
    if not m:
        return text, None
    return text[: m.start()].strip(), int(m.group(1))


PIECES = [
    "on", "o", "n", "P^", "P", "^", " ", "  ", "\t", "\n", " ", " ",
    "3", "12", "007", "٣", "²", "_", "x", "é", "T", "O(1)", "(", ")",
    "Pon", "on P^2", "on P^", "P^3 ",
]


@settings(derandomize=True, database=None, max_examples=1500, deadline=None)
@given(st.one_of(st.lists(st.sampled_from(PIECES), max_size=10).map("".join), st.text()))
@example("T on P^3")
@example("T on P^3 on P^3")
@example("on P^3")
@example(" on\tP^12 \n")
@example("Ton P^3")
@example("T_on P^3")
@example("Téon P^3")
@example("T(on P^3")
@example("T onP^3")
@example("T on P^3x")
@example("T on P^٣")
@example("T on P^²")
def test_split_ambient_matches_the_regular_expression(text):
    assert split_ambient(text) == _regex_split_ambient(text)


def test_a_doubled_ambient_is_a_parse_error(capsys):
    assert main(["chi", "T on P^3 on P^3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unexpected 'on' at position 2 (expected EOF)\n"
