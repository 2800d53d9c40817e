"""Every function in ``src/pnsheaf`` is entered by a golden CLI case, or
ALLOWED names it with the reason it stays.  A reason starts with one of
TAGS: an oracle the tests compare against, an API of the README Library
example, a name perfbench reads, code that runs at import, or the console
entry point.  Anything else leaves ``src/``: an oracle for ``tests/oracles.py``,
the rest deleted.

The check clears every pnsheaf ``lru_cache``, so that a cache warmed by an
earlier test cannot hide a function body, then runs the golden corpus
through ``main`` under ``sys.setprofile`` and records each code object the
cases enter.  A code object is matched to its ``def`` by file and first
line; CPython gives a decorated function the line of its first decorator.
It fails on a ``def`` that no case enters and ALLOWED does not name, and on
an ALLOWED entry that a case does enter or whose reason has no tag.  It
needs the standard library only: ``PYTHONPATH=src python tests/test_reach.py``
runs the same check and exits 1 on a failure.
"""

from __future__ import annotations

import ast
import pathlib
import sys
import tempfile

import pnsheaf

from test_cache_bounds import clear_all
from test_golden_cli import CORPUS, _run

SRC = pathlib.Path(pnsheaf.__file__).parent

TAGS = ("oracle:", "library example:", "perfbench:", "import:", "entry:")

RECORD = "import: the record helper runs at import, and tests/test_records.py pins it"
EXAMPLE = "library example: the README Library example builds its forms with it"
EQUALITY = "oracle: value equality of a Poly and of each record holding one; tests compare with it"

# module.qualname -> why the def stays although no golden case enters it
ALLOWED = {
    "_record._delattr": RECORD,
    "_record._repr": RECORD,
    "_record._setattr": RECORD,
    "_record.record": RECORD,
    "chow.ChowClass.__str__":
        "library example: the README prints a Porteous class; the CLI has its own renderer",
    "chow.todd_class": "perfbench: its tests name the cached pnsheaf.chow.todd_class",
    "cli.entry": "entry: the console-script entry point; tests/test_cli.py runs it",
    "linalg._check_width": "perfbench: input check of kernel_basis",
    "linalg._int_row": "perfbench: row clearing of kernel_basis",
    "linalg.kernel_basis": "perfbench: its traced test reads pnsheaf.pfaff.kernel_basis",
    "pfaff.log_form": EXAMPLE,
    "polyideal.Poly.__eq__": EQUALITY,
    "polyideal.Poly.__hash__": EQUALITY,
    "polyideal.Poly.constant": "library example: log_form builds each weight as a constant",
    "polyideal.Poly.terms": "perfbench: the tracer reads coefficient sizes through it (_coeff_bits)",
    "polyideal.Poly.variable": EXAMPLE,
    "polyideal.Poly.zero": "library example: log_form starts each coefficient at zero",
}


def defs() -> dict[tuple[str, int], str]:
    """(file, first line) -> module.qualname of every def under SRC."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(path, line)] = name
                walk(child, path, name)
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem)
    return found


def entered() -> set[tuple[str, int]]:
    """(file, first line) of every code object under SRC the golden cases enter."""
    seen = set()
    root = str(SRC)

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(root):
                seen.add((code.co_filename, code.co_firstlineno))

    clear_all()
    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            for case in CORPUS["cases"]:
                _run(case["argv"], pathlib.Path(tmp))
        finally:
            sys.setprofile(None)
    return seen


def failures() -> list[str]:
    found = defs()
    names, allowed = set(found.values()), set(ALLOWED)
    reached = {found[key] for key in entered() if key in found}
    out = [f"not entered by any golden case: {name}" for name in sorted(names - reached - allowed)]
    out += [f"allowed but entered: {name}" for name in sorted(allowed & reached)]
    out += [f"allowed but not a def: {name}" for name in sorted(allowed - names)]
    out += [f"allowed without a tag: {name}" for name, why in sorted(ALLOWED.items())
            if not why.startswith(TAGS)]
    return out


def test_every_function_is_reached_or_allowed():
    assert not failures()


def test_the_readme_library_example_runs(capsys):
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(example, {})
    assert capsys.readouterr().out == "4*h^2\n"


if __name__ == "__main__":
    lines = failures()
    for line in lines:
        print(line)
    print(f"Python {sys.version.split()[0]}: {len(defs())} defs, {len(ALLOWED)} allowed,"
          f" {len(lines)} failures")
    sys.exit(1 if lines else 0)
