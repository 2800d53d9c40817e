"""Every function in ``src/pnsheaf`` is entered by a golden CLI case, or
ALLOWED names it with the reason it stays.

The check clears every pnsheaf ``lru_cache``, so that a cache warmed by an
earlier test cannot hide a function body, then runs the golden corpus
through ``main`` under ``sys.setprofile`` and records each code object the
cases enter.  A code object is matched to its ``def`` by file and first
line; CPython gives a decorated function the line of its first decorator.
It fails on a ``def`` that no case enters and ALLOWED does not name, and on
an ALLOWED entry that a case does enter.  It needs the standard library
only: ``PYTHONPATH=src python tests/test_reach.py`` runs the same check and
exits 1 on a failure.
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

POLY = "Poly helper; tests/test_poly_reference.py checks it against its reference type"
CHOW = "ChowClass arithmetic; tests/test_chow.py builds its reference classes with it"
RECORD = "record contract: runs at import, and tests/test_records.py pins it"

# module.qualname -> why the def stays although no golden case enters it
ALLOWED = {
    "_record._delattr": RECORD,
    "_record._repr": RECORD,
    "_record._setattr": RECORD,
    "_record.field.__init__": RECORD,
    "_record.record": RECORD,
    "bundles.IrreducibleBundle.rank": "tests/test_bundle_algebra.py sums it against rank()",
    "bundles.twist": "builds the twisted inputs of the oracle tests (helpers.random_expression)",
    "chow.ChowClass.__add__": CHOW,
    "chow.ChowClass.__mul__": CHOW,
    "chow.ChowClass.__str__": "library text of a class; the CLI has its own, test_chow pins this",
    "chow.ChowClass.__sub__": CHOW,
    "chow.ChowClass._match": CHOW,
    "chow.ChowClass.coefficient": CHOW,
    "chow.ChowClass.scale": CHOW,
    "chow.chern_difference": "oracle: tests/test_chow.py checks it against an inverse series",
    "chow.chow_unit": CHOW,
    "cli.entry": "the console-script entry point; tests/test_cli.py runs it",
    "cohomology.CohomologyTable.is_zero": "tests/test_cohomology.py asserts vanishing with it",
    "cohomology.bott_closed_form": "oracle: the classical table of Omega^k(s), against Bott's",
    "cohomology.serre_dual_check": "oracle: Serre duality of every table the tests draw",
    "linalg._check_width": "input check of kernel_basis and in_row_span",
    "linalg._int_row": "row clearing of kernel_basis and in_row_span",
    "linalg.in_row_span": "oracle: tests/test_linalg_oracle.py checks it against sympy",
    "linalg.kernel_basis": "perfbench reads pnsheaf.pfaff.kernel_basis; a sympy-checked oracle",
    "pfaff.form_coefficient_vector": "oracle: tests/test_pfaff.py checks section spaces with it",
    "pfaff.log_form": "the README Library example builds a logarithmic form with it",
    "pfaff.section_space_contains": "oracle: the acceptance tests check section spaces with it",
    "polyideal.Poly.__eq__": POLY,
    "polyideal.Poly.__hash__": POLY,
    "polyideal.Poly.constant": POLY,
    "polyideal.Poly.leading_coefficient": POLY,
    "polyideal.Poly.leading_monomial": POLY,
    "polyideal.Poly.monic": POLY,
    "polyideal.Poly.one": POLY,
    "polyideal.Poly.primitive": POLY,
    "polyideal.Poly.scale": POLY,
    "polyideal.Poly.terms": "perfbench's tracer reads coefficient sizes through it (_coeff_bits)",
    "polyideal.Poly.variable": "the README Library example builds its linear forms with it",
    "polyideal.Poly.zero": POLY,
    "polyideal.membership_on_charts": "oracle: the acceptance tests check membership with it",
    "polyideal.monomial_key": "oracle: tests/test_polyideal.py pins degrevlex order with it",
    "polyideal.normal_form": "oracle: the Buchberger reference tests reduce with it",
    "polyideal.s_polynomial": "oracle: the Buchberger reference tests build S-pairs with it",
    "polyideal.unit_ideal": "oracle input: tests/test_pfaff.py reads full section spaces off it",
    "weights.dotted_weyl_reduce": "oracle: tests/test_bwb_closed_form.py places Bott's groups",
    "weights.rho_weight": "oracle: the dotted Weyl action of tests/test_bwb_closed_form.py",
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
    return out


def test_every_function_is_reached_or_allowed():
    assert not failures()


if __name__ == "__main__":
    lines = failures()
    for line in lines:
        print(line)
    print(f"Python {sys.version.split()[0]}: {len(defs())} defs, {len(ALLOWED)} allowed,"
          f" {len(lines)} failures")
    sys.exit(1 if lines else 0)
