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

Twisting G by O(t) twists every summand of M_(g+i) by O(-i*t), so the
certificate reads each term's twist-free part from one cache per (E, G up
to twist).  Twist families G (x) O(t), with G a split bundle or a twist of
T or Omega^1 plus line bundles, are compared with the tree path once in one
warm process, where every point after the first reads that cache, and once
with every cache cleared before each certificate; a family computes each
twist-free part once.

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
    vanishing_certificate,
    wedge,
)
from pnsheaf import complexes
from pnsheaf.cli import main
from pnsheaf.grammar import render_expression

from helpers import twist
from test_golden_cli import CORPUS, differing

SEED = 212121
AMBIENTS = range(2, 10)
TWISTS = (-2, 0, 1, 3)
FAMILY_TWISTS = range(-3, 5)
FAMILY_GROUPS = 600

# refused certificates: argv, and the one error line each must print
REFUSALS = (
    (["certificate", "sym(2, T)", "O(1)", "--n", "3"],
     "error: wedge(2, S(2,0,0)Q(2)) is outside the supported summand classes\n"),
    (["certificate", "T (+) sym(2,T)", "O(1) (+) O(2)", "--n", "3"],
     "error: wedge(2, S(2,2,0)Q(-4)) is outside the supported summand classes\n"),
    (["check", "thm-1-1", "--E", "wedge(2, T)", "--G", "O(1)", "--n", "4"],
     "error: wedge(2, S(1,1,0,0)Q(2)) is outside the supported summand classes\n"),
    # Sym^2(G*) names G*'s own twist, not the one of its twist-free part,
    # whether or not the refused summand is the one that sets the twist
    (["certificate", "T (+) 3*O(1)", "sym(2, T) (x) O(3)", "--n", "2"],
     "error: sym(2, S(2,0)Q(-7)) is outside the supported summand classes\n"),
    (["certificate", "T (+) 4*O(1)", "O(2) (+) sym(2, T) (x) O(3)", "--n", "2"],
     "error: sym(2, S(2,0)Q(-7)) is outside the supported summand classes\n"),
    # at i = 2 both wedge^(g+2)(E) and Sym^2(G*) are refused; the tree
    # normalizes the wedge power first
    (["certificate", "1000000*O(1)", "sym(2, T) (+) 277*O(1)", "--n", "2"],
     "error: wedge^282 has rank above 10^1000, the bound\n"),
    # a sweep stops at its first refused point, t = 2
    (["sweep", "certificate", "--E", "T (+) 3*O(1)", "--G", "sym(2, T)", "--n", "2",
      "--twist", "2:5"],
     "error: sym(2, S(2,0)Q(-6)) is outside the supported summand classes\n"),
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


def family_pairs() -> list[tuple[BundleExpr, BundleExpr]]:
    """Seeded (E, G), G a split bundle or a twist of T or Omega^1 plus line bundles."""
    rng = random.Random(SEED + 1)
    out = []
    for n in AMBIENTS:
        for _ in range(2):
            base = tangent(n) if rng.random() < 0.5 else omega(1, n)
            lines = [o(rng.randint(-3, 3), n) for _ in range(rng.randint(0, 4))]
            E = twist(direct_sum(base, *lines), rng.randint(-1, 1))
            if rng.random() < 0.5:
                G = split_bundle([rng.randint(-3, 5) for _ in range(rng.randint(1, 3))], n)
            else:
                q = tangent(n) if rng.random() < 0.5 else omega(1, n)
                # at most rank(E) - 2 for G, so that Sym^2(G*) is reached
                extra = [o(rng.randint(-3, 3), n) for _ in range(rng.randint(0, len(lines) - 2))]
                G = direct_sum(twist(q, rng.randint(-2, 2)), *extra)
            out.append((E, G))
    return out


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name == "pnsheaf" or name.startswith("pnsheaf."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_info", None)):
                    obj.cache_clear()


def reference(E: BundleExpr, G: BundleExpr) -> dict:
    """The certificate's fields through cohomology_table of the trees."""
    e, g = rank(E), rank(G)
    required, failed = [], []
    for i in range(1, e - g + 1):
        expr = complexes._en_term(E, G, g + i, g, True)
        table = cohomology_table(expr)
        nonzero = i < len(table.dims) and table.dims[i]
        if nonzero:
            failed.append(i)
        required.append((i, render_expression(expr), table.dims, not nonzero))
    verdict = not failed
    return {
        "required": required,
        "verdict": verdict,
        "chain_trace": complexes._chain_trace(e, g, verdict, tuple(failed)),
        "endomorphism_dim": cohomology_table(tensor(wedge(g, dual(E)), wedge(g, E))).dims[0],
    }


def observed(E: BundleExpr, G: BundleExpr) -> dict:
    cert = vanishing_certificate(E, G)
    return {
        "required": [
            (r.i, render_expression(cert.term(r.i)), r.dims, r.ok) for r in cert.required
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


def check_families(cold: bool) -> tuple[list[str], int, set[bool]]:
    """(failures, required groups compared, verdicts seen) over the twist
    families, with every cache cleared before each certificate if cold."""
    failures, groups, verdicts = [], 0, set()
    for E, G in family_pairs():
        for t in FAMILY_TWISTS:
            Gt = tensor(G, o(t, E.ambient))
            if cold:
                clear_caches()
            got = observed(E, Gt)
            ref = reference(E, Gt)
            if got != ref:
                failures.append(f"{render_expression(E)} -> {render_expression(Gt)}: differs")
            groups += len(ref["required"])
            verdicts.add(ref["verdict"])
    return failures, groups, verdicts


def check_family_sharing() -> list[str]:
    """Each family computes its e - g twist-free terms and its endomorphism
    space once, whatever the number of twists."""
    failures = []
    for E, G in family_pairs():
        clear_caches()
        for t in FAMILY_TWISTS:
            cert = vanishing_certificate(E, tensor(G, o(t, E.ambient)))
        misses = complexes._en_bracket.cache_info().misses
        if misses != cert.e - cert.g + 1:
            failures.append(f"{render_expression(E)} -> {render_expression(G)}: {misses} misses")
    return failures


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


def test_twist_families_match_the_tree_path_warm():
    failures, groups, verdicts = check_families(cold=False)
    assert not failures, failures[:10]
    assert groups == FAMILY_GROUPS and verdicts == {True, False}


def test_twist_families_match_the_tree_path_cold():
    failures, groups, verdicts = check_families(cold=True)
    assert not failures, failures[:10]
    assert groups == FAMILY_GROUPS and verdicts == {True, False}


def test_a_twist_family_computes_each_twist_free_term_once():
    assert not check_family_sharing()


def test_refused_certificates_name_the_first_refused_factor():
    assert not check_refusals()


def test_term_trees_are_built_only_when_printed():
    assert not check_trees_only_when_printed()


def test_certificate_terms_are_rendered_only_on_term():
    with mock.patch.object(complexes, "_en_term", None):
        cert = vanishing_certificate(tangent(4), o(6, 4))
    assert all(set(vars(r)) == {"i", "dims", "ok"} for r in cert.required)
    assert cert.term(1) == complexes._en_term(tangent(4), o(6, 4), 2, 1, True)


if __name__ == "__main__":
    failures, groups, verdicts = check_pairs()
    family_groups = 0
    for cold in (False, True):
        found, count, seen = check_families(cold)
        failures += found
        family_groups += count
        verdicts |= seen
    failures += check_family_sharing() + check_refusals() + check_trees_only_when_printed()
    for line in failures:
        print(line)
    families = len(family_pairs())
    print(f"Python {sys.version.split()[0]}: {len(pairs())} certificates, {groups} required"
          f" groups; {families} twist families of {len(FAMILY_TWISTS)} twists, warm and cold,"
          f" {family_groups} required groups; verdicts {sorted(verdicts)}, {len(REFUSALS)}"
          f" refusals, {len(UNPRINTED) + len(PRINTED)} golden cases, {len(failures)} failures")
    sys.exit(1 if failures else 0)
