"""main reads a well-formed argv straight from the command table.

``_table_args(argv)`` builds the namespace of a well-formed argv from
``cli.COMMANDS`` without argparse; for anything else it returns None, and
main builds the argparse parser, which decides that argv and writes its help
or error.  Wherever the fast path answers, its namespace must equal the one
argparse gives.  Every golden-corpus run that computes something must take
the fast path, and a well-formed run in a fresh interpreter must import
neither argparse nor locale.  No handler runs in the agreement checks.

Run as a script, ``PYTHONPATH=src python tests/test_cli_parser.py`` checks
the golden-corpus argvs fast-vs-full with the standard library only, for
interpreters that have neither pytest nor hypothesis.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

from pnsheaf.cli import COMMANDS, _join_negative_values, _table_args, build_parser

CORPUS_PATH = pathlib.Path(__file__).parent / "golden" / "cli_corpus.json"
GOLDEN_CASES = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))["cases"]
# the runs that compute something: every exit 0 or 1 except --help
COMPUTING = [c for c in GOLDEN_CASES if c["exit"] in (0, 1) and "--help" not in c["argv"]]


def _full(argv: list[str]):
    """vars() of argparse's namespace, or (exit code, stdout, stderr) if it exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _agrees(argv: list[str]) -> bool:
    """Is the fast path silent on argv, or equal to argparse there?"""
    argv = _join_negative_values(argv)
    fast = _table_args(argv)
    return fast is None or vars(fast) == _full(argv)


if __name__ == "__main__":
    wrong = [c["argv"] for c in GOLDEN_CASES if not _agrees(c["argv"])]
    missed = [c["argv"] for c in COMPUTING if _table_args(_join_negative_values(c["argv"])) is None]
    for argv in wrong:
        print(f"fast path disagrees with argparse: {argv}")
    for argv in missed:
        print(f"computing run not on the fast path: {argv}")
    print(f"Python {sys.version.split()[0]}: {len(GOLDEN_CASES)} golden argvs, "
          f"{len(wrong)} disagree, {len(missed)} computing runs off the fast path")
    sys.exit(1 if wrong or missed else 0)


import subprocess  # noqa: E402
from unittest import mock  # noqa: E402

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_golden_cli import _run  # noqa: E402


def _words(table: dict):
    for name, (_, *entry) in table.items():
        yield name
        if len(entry) == 1:
            yield from _words(entry[0])
        else:
            yield from (flag for flag, _ in entry[1] if flag.startswith("-"))


def _paths(table: dict):
    for name, (_, *entry) in table.items():
        if len(entry) == 1:
            yield from ([name, *path] for path in _paths(entry[0]))
        else:
            yield [name]


VOCABULARY = sorted({
    *_words(COMMANDS), "--format", "--seed", "-h", "--help", "--bogus",
    "3", "-1", "-1,-2", "1:3", "json", "xml", "O(1)", "x",
    "--format=json", "--n=3", "--form", "--", "-1 on P^2",
})

# a command path then any words, or any words at all
ARGVS = st.one_of(
    st.builds(lambda path, rest: path + rest,
              st.sampled_from(list(_paths(COMMANDS))),
              st.lists(st.sampled_from(VOCABULARY), max_size=8)),
    st.lists(st.sampled_from(VOCABULARY), max_size=6),
)


def _golden_examples(test):
    for case in GOLDEN_CASES:
        test = example(case["argv"])(test)
    return test


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(ARGVS)
@example([])
@example(["cohomology", "x", "--format=json", "--n=3"])
@example(["cohomology", "x", "--form", "json"])
@example(["cohomology", "--", "x"])
@example(["cohomology", "x", "--n", "3", "--n", "3"])
@example(["cohomology", "-1 on P^2"])
@example(["certificate", "T", "--n", "3", "O(1)"])
@example(["en-resolution", "T", "O(1)", "--twisted", "--n=3"])
@example(["en-resolution", "T", "O(1)", "--twisted=yes", "--n=3"])
@example(["chi", "x", "--format", "xml"])
@example(["chi", "x", "--n", "x"])
@_golden_examples
def test_fast_path_agrees_with_argparse(argv):
    assert _agrees(argv)


def test_fast_path_answers_every_computing_golden_run(tmp_path):
    def refuse():
        raise AssertionError("argparse was built")

    with mock.patch("pnsheaf.cli.build_parser", refuse):
        for case in COMPUTING:
            assert _run(case["argv"], tmp_path)[0] == case["exit"], case["argv"]


def test_fresh_interpreter_imports_neither_argparse_nor_locale():
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from pnsheaf.cli import main\n"
        "code = main(['chi', 'O(1) on P^2', '--format', 'json'])\n"
        "print(code, sorted({'argparse', 'locale'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"
