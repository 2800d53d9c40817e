"""Golden CLI corpus: stdout, stderr and exit code of fixed invocations.

Every subcommand runs in text and JSON format through ``main(argv)``, and
its output must match ``golden/cli_corpus.json`` byte for byte.  The
pfaff cases read the corpus's form files, written to a temporary directory:
the ``{form}`` placeholder in an argv stands for the path of ``form_file``,
and ``{name}`` for the path of ``extra_form_files[name]`` or of
``bad_form_files[name]``, the forms that only refusal cases read.  The front-end
cases pin ``--help`` of every parser and argparse's usage errors; argparse
wraps that text to the terminal width, so every case runs at 200 columns.

A refactoring must leave the corpus unchanged.  After an intended output
change, re-record with ``PYTHONPATH=src python tests/test_golden_cli.py``
and review the diff of the data file.  With ``--check``, the script compares
every case instead, with the standard library only, and exits 1 on any
difference.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile
from unittest import mock

from pnsheaf.cli import main

CORPUS_PATH = pathlib.Path(__file__).parent / "golden" / "cli_corpus.json"
CORPUS = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


def _run(argv: list[str], form_dir: pathlib.Path) -> tuple[int, str, str]:
    paths = {}
    forms = {"form": CORPUS["form_file"], **CORPUS["extra_form_files"], **CORPUS["bad_form_files"]}
    for name, text in forms.items():
        paths["{" + name + "}"] = path = form_dir / f"{name}.form"
        path.write_text(text, encoding="utf-8")
    argv = [str(paths.get(arg, arg)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps help and usage to the terminal width; pin it
    with (
        mock.patch.dict(os.environ, {"COLUMNS": "200"}),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def pytest_generate_tests(metafunc):
    # pytest's own hook parametrizes the test, so the module imports no pytest
    if "case" in metafunc.fixturenames:
        metafunc.parametrize("case", CORPUS["cases"], ids=[c["id"] for c in CORPUS["cases"]])


def test_cli_output_matches_golden(case, tmp_path):
    assert _run(case["argv"], tmp_path) == (case["exit"], case["stdout"], case["stderr"])


def _record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for case in CORPUS["cases"]:
            case["exit"], case["stdout"], case["stderr"] = _run(case["argv"], pathlib.Path(tmp))
    CORPUS_PATH.write_text(json.dumps(CORPUS, indent=1) + "\n", encoding="utf-8")


def differing(cases: list[dict]) -> list[str]:
    """The ids of the cases whose run differs from the corpus."""
    with tempfile.TemporaryDirectory() as tmp:
        return [
            case["id"]
            for case in cases
            if _run(case["argv"], pathlib.Path(tmp))
            != (case["exit"], case["stdout"], case["stderr"])
        ]


def _check() -> int:
    """Compare every case; print the ids that differ and return 1 if any does."""
    differ = differing(CORPUS["cases"])
    for case_id in differ:
        print(f"differs from the golden corpus: {case_id}")
    print(f"Python {sys.version.split()[0]}: {len(CORPUS['cases'])} golden cases,"
          f" {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(_check())
    if sys.argv[1:]:
        print("usage: test_golden_cli.py [--check]", file=sys.stderr)
        sys.exit(2)
    _record()
