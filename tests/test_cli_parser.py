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
interpreters that have neither pytest nor hypothesis, and pins the import
set of a fresh run: ``fractions`` (with ``decimal`` and ``numbers``) loads
only inside a request that prints a Fraction (``chern``), and ``heapq``
never.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import pathlib
import subprocess
import sys
import tempfile

from pnsheaf.cli import COMMANDS, _join_negative_values, _table_args, build_parser

CORPUS_PATH = pathlib.Path(__file__).parent / "golden" / "cli_corpus.json"
CORPUS = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
GOLDEN_CASES = CORPUS["cases"]
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


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
# modules a CLI run loads only when its request builds a Fraction (fractions
# imports decimal and numbers), and heapq, which no run needs
DEFERRED = {"fractions", "decimal", "numbers", "heapq"}


def _fresh(code: str) -> str:
    """The stdout of code in a fresh ``python -I`` with src first on sys.path."""
    code = f"import sys; sys.path.insert(0, {SRC!r})\n{code}"
    done = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    return done.stdout


def _fresh_golden_run(prefix: list[str]) -> list[str]:
    """Run the first JSON golden case whose argv starts with prefix through main
    in a fresh interpreter, check its exit code and bytes, and return which
    DEFERRED modules it loaded."""
    case = next(c for c in COMPUTING if c["argv"][:len(prefix)] == prefix and "json" in c["argv"])
    with tempfile.TemporaryDirectory() as tmp:
        form = pathlib.Path(tmp) / "form.form"
        form.write_text(CORPUS["form_file"], encoding="utf-8")
        argv = [str(form) if word == "{form}" else word for word in case["argv"]]
        code = (
            "import io\n"
            "from pnsheaf.cli import main\n"
            "sys.stdout, sys.stderr = out, err = io.StringIO(), io.StringIO()\n"
            f"code = main({argv!r})\n"
            f"loaded = sorted({sorted(DEFERRED)!r} & sys.modules.keys())\n"
            "sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__\n"
            "print(repr((code, out.getvalue(), err.getvalue(), loaded)))\n"
        )
        code, out, err, loaded = ast.literal_eval(_fresh(code))
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"]), case["argv"]
    return loaded


def test_fresh_sweep_cohomology_and_pfaff_runs_load_no_fraction_or_heap():
    for prefix in (["sweep", "codim1"], ["cohomology"], ["pfaff", "singular"]):
        assert _fresh_golden_run(prefix) == [], prefix


def test_fresh_chern_run_loads_fractions_only_in_its_request():
    # the golden bytes, from a Fraction made after the import of pnsheaf.cli
    assert _fresh_golden_run(["chern"]) == ["decimal", "fractions", "numbers"]


def test_fresh_chi_and_porteous_runs_load_no_fraction():
    # Riemann-Roch and the Porteous class stay in int; only chern prints a Fraction
    for prefix in (["chi"], ["porteous"]):
        assert _fresh_golden_run(prefix) == [], prefix


def test_size_check_refuses_a_fraction_made_after_the_cli_import():
    code = (
        "from pnsheaf.cli import _check_size\n"
        "from pnsheaf.bundles import MAX_OUTPUT_BITS\n"
        "from pnsheaf.errors import ScaleExceeded\n"
        "print('fractions' in sys.modules)\n"
        "from fractions import Fraction\n"
        "_check_size({'x': [Fraction(3, 2)]})\n"
        "try:\n"
        "    _check_size({'x': [Fraction(3, 1 << MAX_OUTPUT_BITS)]})\n"
        "except ScaleExceeded as exc:\n"
        "    print(exc)\n"
    )
    assert _fresh(code) == (
        "False\na result has 14285 bits; the output bound is 14284 bits (4300 digits)\n"
    )


IMPORT_SET_CHECKS = (
    test_fresh_sweep_cohomology_and_pfaff_runs_load_no_fraction_or_heap,
    test_fresh_chern_run_loads_fractions_only_in_its_request,
    test_fresh_chi_and_porteous_runs_load_no_fraction,
    test_size_check_refuses_a_fraction_made_after_the_cli_import,
)


if __name__ == "__main__":
    failed = []
    for check in IMPORT_SET_CHECKS:
        try:
            check()
        except AssertionError as exc:
            failed.append(check.__name__)
            print(f"{check.__name__} failed: {exc}")
    wrong = [c["argv"] for c in GOLDEN_CASES if not _agrees(c["argv"])]
    missed = [c["argv"] for c in COMPUTING if _table_args(_join_negative_values(c["argv"])) is None]
    for argv in wrong:
        print(f"fast path disagrees with argparse: {argv}")
    for argv in missed:
        print(f"computing run not on the fast path: {argv}")
    print(f"Python {sys.version.split()[0]}: {len(GOLDEN_CASES)} golden argvs, "
          f"{len(wrong)} disagree, {len(missed)} computing runs off the fast path; "
          f"{len(failed)} of {len(IMPORT_SET_CHECKS)} import-set checks fail")
    sys.exit(1 if wrong or missed or failed else 0)


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

CHECK_NAMES = sorted(COMMANDS["check"][1]) + ["bogus"]
CHECK_WORDS = sorted({*_words(COMMANDS["check"][1]), "3", "-1", "T", "O(1)"} - set(CHECK_NAMES))

# a command path then any words, any words at all, or check misuse: check
# flags and values around a check name or an unknown one
ARGVS = st.one_of(
    st.builds(lambda path, rest: path + rest,
              st.sampled_from(list(_paths(COMMANDS))),
              st.lists(st.sampled_from(VOCABULARY), max_size=8)),
    st.lists(st.sampled_from(VOCABULARY), max_size=6),
    st.builds(lambda before, name, after: ["check", *before, name, *after],
              st.lists(st.sampled_from(CHECK_WORDS), max_size=3),
              st.sampled_from(CHECK_NAMES),
              st.lists(st.sampled_from(CHECK_WORDS), max_size=8)),
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
@example(["check", "thm-1-4", "--n", "3", "--r", "5", "--k", "2"])  # a flag it does not read
@example(["check", "thm-1-2", "--n", "3", "--k", "2"])  # a required flag missing
@example(["check", "bogus", "--n", "3"])  # an unknown id
@example(["check", "--n", "3", "thm-1-4", "--r", "5"])  # flags before the id
@example(["check", "map", "--E", "T", "--G", "O(1)"])  # --n is optional for thm-1-1
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
    # nor dataclasses and inspect, which pnsheaf's records do without, nor
    # json, whose C string encoder the writer takes from _json; each costs
    # every CLI run its import time
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from pnsheaf.cli import main\n"
        "code = main(['chi', 'O(1) on P^2', '--format', 'json'])\n"
        "unwanted = {'argparse', 'locale', 'dataclasses', 'inspect', 'json'}\n"
        "print(code, sorted(unwanted & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"


def test_well_formed_requests_compile_no_regular_expression(tmp_path):
    # each CLI process starts with an empty re cache, so a pattern compiled
    # per request is paid by every request; the module-level patterns are not
    cases = [c for c in COMPUTING if c["argv"][0] in ("chi", "cohomology", "porteous")
             or c["argv"][:2] == ["sweep", "certificate"]]
    assert {c["argv"][0] for c in cases} == {"chi", "cohomology", "porteous", "sweep"}

    def refuse(*args, **kwargs):
        raise AssertionError(f"re._compile{args}")

    with mock.patch("re._compile", refuse):
        for case in cases:
            assert _run(case["argv"], tmp_path)[0] == case["exit"], case["argv"]
