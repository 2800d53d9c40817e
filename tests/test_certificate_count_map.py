"""Eagon-Northcott certificates read off count maps against the tree path.

``vanishing_certificate`` tensors each term M_(g+i) = wedge^g(E*) (x)
wedge^(g+i)(E) (x) Sym^i(G*), and its endomorphism space wedge^g(E*) (x)
wedge^g(E), on count maps, and builds the expression tree of a term only
when it is printed.  The reference kept here is the path it replaced:
``cohomology_table`` of the ``_en_term`` tree and of ``tensor(wedge(g,
dual(E)), wedge(g, E))``.  Both must give the same dims, ok flags, verdict,
chase and endomorphism dimension, and the same rendered terms, for E = T or
Omega^1 plus line bundles and G a sum of line bundles on P^2..P^9 at several
twists.  A refused certificate must keep naming the first factor the tree
would have refused, and the sweeps and checkers that never print a term
must never build one.

Run as a script, ``PYTHONPATH=src python tests/test_certificate_count_map.py``
makes every check with the standard library only.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from unittest import mock

from pnsheaf import (
    BundleExpr,
    cohomology_table,
    direct_sum,
    dual,
    o,
    omega,
    rank,
    split_bundle,
    tangent,
    tensor,
    twist,
    vanishing_certificate,
    wedge,
)
from pnsheaf import complexes
from pnsheaf.cli import main
from pnsheaf.grammar import render_expression

from test_golden_cli import CORPUS, differing

SEED = 212121
AMBIENTS = range(2, 10)
TWISTS = (-2, 0, 1, 3)

# refused certificates: argv, and the one error line each must print
REFUSALS = (
    (["certificate", "sym(2, T)", "O(1)", "--n", "3"],
     "error: wedge(2, S(2,0,0)Q(2)) is outside the supported summand classes\n"),
    (["certificate", "T (+) sym(2,T)", "O(1) (+) O(2)", "--n", "3"],
     "error: wedge(2, S(2,2,0)Q(-4)) is outside the supported summand classes\n"),
    (["check", "thm-1-1", "--E", "wedge(2, T)", "--G", "O(1)", "--n", "4"],
     "error: wedge(2, S(1,1,0,0)Q(2)) is outside the supported summand classes\n"),
)

# golden cases whose output reads a certificate but prints none of its terms
UNPRINTED = (
    "sweep-codim1-text", "sweep-codim1-json", "sweep-split-text", "sweep-split-json",
    "sweep-certificate-text", "sweep-certificate-json",
    "check-thm-1-4-text", "check-thm-1-4-json",
)
PRINTED = ("certificate-text", "certificate-json")


def pairs() -> list[tuple[BundleExpr, BundleExpr]]:
    """Seeded (E, G): E = T or Omega^1 plus line bundles, G a sum of line bundles."""
    rng = random.Random(SEED)
    out = []
    for n in AMBIENTS:
        for _ in range(5):
            base = tangent(n) if rng.random() < 0.5 else omega(1, n)
            lines = [o(rng.randint(-3, 3), n) for _ in range(rng.randint(0, 2))]
            E = twist(direct_sum(base, *lines), rng.randint(-1, 1))
            width = rng.randint(1, min(3, rank(E)))
            degrees = [rng.randint(-3, 5) for _ in range(width)]
            out += [(E, twist(split_bundle(degrees, n), t)) for t in TWISTS]
    return out


def reference(E: BundleExpr, G: BundleExpr) -> dict:
    """The certificate's fields through cohomology_table of the trees."""
    e, g = rank(E), rank(G)
    required, failed = [], []
    for i in range(1, e - g + 1):
        expr = complexes._en_term(E, G, g + i, g, True)
        table = cohomology_table(expr)
        if table.h(i):
            failed.append(i)
        required.append((i, render_expression(expr), table.dims, not table.h(i)))
    verdict = not failed
    return {
        "required": required,
        "verdict": verdict,
        "chain_trace": complexes._chain_trace(e, g, verdict, tuple(failed)),
        "endomorphism_dim": cohomology_table(tensor(wedge(g, dual(E)), wedge(g, E))).h(0),
    }


def observed(E: BundleExpr, G: BundleExpr) -> dict:
    cert = vanishing_certificate(E, G)
    return {
        "required": [
            (r.i, render_expression(r.expr), r.table.dims, r.ok) for r in cert.required
        ],
        "verdict": cert.verdict,
        "chain_trace": cert.chain_trace,
        "endomorphism_dim": cert.endomorphism_dim,
    }


def check_pairs() -> tuple[list[str], int, set[bool]]:
    """(failures, required groups compared, verdicts seen)."""
    failures, groups, verdicts = [], 0, set()
    for E, G in pairs():
        ref = reference(E, G)
        if observed(E, G) != ref:
            failures.append(f"{render_expression(E)} -> {render_expression(G)}: differs")
        groups += len(ref["required"])
        verdicts.add(ref["verdict"])
    return failures, groups, verdicts


def _main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_refusals() -> list[str]:
    failures = []
    for argv, line in REFUSALS:
        got = _main(argv)
        if got != (3, "", line):
            failures.append(f"{' '.join(argv)}: {got!r}")
    return failures


def check_golden(ids) -> list[str]:
    """The golden cases named by ids, each against its recorded output."""
    cases = [c for c in CORPUS["cases"] if c["id"] in ids]
    if len(cases) != len(ids):
        return [f"golden cases missing from the corpus: {sorted(ids)}"]
    return [f"{case_id}: differs from the golden corpus" for case_id in differing(cases)]


def check_trees_only_when_printed() -> list[str]:
    def refuse(*args):
        raise AssertionError("an Eagon-Northcott term tree was built but never printed")

    with mock.patch.object(complexes, "_en_term", refuse):
        failures = check_golden(UNPRINTED)
    return failures + check_golden(PRINTED)


def test_certificates_match_the_tree_path():
    failures, groups, verdicts = check_pairs()
    assert not failures, failures[:10]
    assert groups == 728 and verdicts == {True, False}


def test_refused_certificates_name_the_first_refused_factor():
    assert not check_refusals()


def test_term_trees_are_built_only_when_printed():
    assert not check_trees_only_when_printed()


def test_certificate_tables_carry_no_expression():
    cert = vanishing_certificate(tangent(4), o(6, 4))
    assert [r.table.expr for r in cert.required] == [None] * 3
    assert cert.required[0].expr == complexes._en_term(tangent(4), o(6, 4), 2, 1, True)


if __name__ == "__main__":
    failures, groups, verdicts = check_pairs()
    failures += check_refusals() + check_trees_only_when_printed()
    for line in failures:
        print(line)
    print(f"Python {sys.version.split()[0]}: {len(pairs())} certificates, {groups} required"
          f" groups, verdicts {sorted(verdicts)}, {len(REFUSALS)} refusals,"
          f" {len(UNPRINTED) + len(PRINTED)} golden cases, {len(failures)} failures")
    sys.exit(1 if failures else 0)
