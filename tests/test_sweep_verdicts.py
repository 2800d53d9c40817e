"""A sweep point's verdict against the full report of the same input.

A sweep prints only a verdict per point (and, for ``endo``, a dimension),
so its points read their certificate's h-vectors off one Bott pass and build
no cohomology table, record, chase or endomorphism lookup.  The reference
kept here is the full path: ``check_codim1_generic``,
``check_split_distribution``, ``check_endomorphism_space`` (and
``cohomology_table`` of its tree), ``check_map_recovery`` and
``vanishing_certificate``.  Both must give the same verdict, and the same
dimension, over a seeded grid on P^2..P^9 with twists of both signs, split
degrees, and E among T, Omega^1 and these plus line bundles; and a refused
input must raise the same error on both paths, so that the CLI prints the
same line with the same exit code.  Under patches that make
``CohomologyTable``, ``RequiredVanishing``, ``ENCertificate``,
``TheoremReport``, ``ConditionCheck``, ``GroupDim``, the chase and the
endomorphism bracket fail, every sweep point of the grid and every sweep
golden case must still run.  A check prints its report but no certificate,
so it too reads one Bott pass: with the certificate's pieces, the chase and
the endomorphism bracket made to fail, every ``check_*`` call of the grid and
every ``check`` and ``pfaff uniqueness`` golden case must still run.

Run as a script, ``PYTHONPATH=src python tests/test_sweep_verdicts.py``
makes every check with the standard library only.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from unittest import mock

from pnsheaf import (
    check_codim1_generic,
    check_endomorphism_space,
    check_map_recovery,
    check_split_distribution,
    cohomology_table,
    direct_sum,
    o,
    omega,
    rank,
    split_bundle,
    tangent,
    tensor,
    vanishing_certificate,
    wedge,
)
from pnsheaf import checkers, cli, cohomology, complexes
from pnsheaf.cli import main
from pnsheaf.errors import PnsheafError
from pnsheaf.grammar import render_expression

from test_golden_cli import CORPUS, differing

SEED = 343434
AMBIENTS = range(2, 10)
TWISTS = range(-3, 4)

# (sweep argv, argv of the full report of its first point): each pair must
# exit with the same code and print the same error line
CLI_REFUSALS = (
    # the shape check of Sym^2(G*), at the first twist
    (["sweep", "certificate", "--E", "T (+) 3*O(1)", "--G", "sym(2, T)", "--n", "2",
      "--twist", "2:5"],
     ["certificate", "T (+) 3*O(1)", "sym(2, T) (x) O(2)", "--n", "2"]),
    # the bracket bound
    (["sweep", "certificate", "--E", "T (+) T", "--G", "O(1) (+) O(1)", "--n", "50",
      "--twist", "0"],
     ["certificate", "T (+) T", "O(1) (+) O(1)", "--n", "50"]),
    # a zero-rank G
    (["sweep", "certificate", "--E", "T", "--G", "wedge(3,T)", "--n", "2", "--twist", "0:2"],
     ["certificate", "T", "wedge(3,T) (x) O(0)", "--n", "2"]),
    # n < 2
    (["sweep", "codim1", "--n", "1:3", "--r", "5"], ["check", "thm-1-4", "--n", "1", "--r", "5"]),
)

# (sweep point, full report) that a sweep grid never reaches, since its
# ranges filter k to 1..n and 0..n; each must raise the same error
POINT_REFUSALS = (
    (lambda: checkers.split_verdict(3, 4, (0,) * 4),
     lambda: check_split_distribution(3, 4, (0,) * 4)),
    (lambda: checkers.split_verdict(3, 0, ()), lambda: check_split_distribution(3, 0, ())),
    (lambda: checkers.split_verdict(3, 2, (-1,)), lambda: check_split_distribution(3, 2, (-1,))),
    (lambda: cli._sweep_task_endo(3, 4), lambda: check_endomorphism_space(4, 3)),
    (lambda: cli._sweep_task_endo(3, -1), lambda: check_endomorphism_space(-1, 3)),
    (lambda: cli._sweep_task_codim1(1, 3), lambda: check_codim1_generic(1, 3)),
    (lambda: cli._sweep_task_certificate(tangent(2), wedge(3, tangent(2)), 1),
     lambda: check_map_recovery(tangent(2), tensor(wedge(3, tangent(2)), o(1, 2)))),
)

SWEEP_CASES = ("sweep-codim1-text", "sweep-codim1-json", "sweep-split-text", "sweep-split-json",
               "sweep-endo-text", "sweep-endo-json", "sweep-certificate-text",
               "sweep-certificate-json")

CHECK_CASES = tuple(c["id"] for c in CORPUS["cases"] if c["argv"][:1] == ["check"]
                    or c["argv"][:2] == ["pfaff", "uniqueness"])

# what a check must not build, by module; a sweep point builds no report either
CERTIFICATE = ((cohomology, "CohomologyTable"), (complexes, "RequiredVanishing"),
               (complexes, "ENCertificate"), (complexes, "_chain_trace"))
UNBUILT = CERTIFICATE + ((checkers, "TheoremReport"), (checkers, "ConditionCheck"),
                         (checkers, "GroupDim"))


def grid() -> list[tuple[str, tuple]]:
    """Seeded sweep points (kind, point) on P^2..P^9, in the order a sweep runs them."""
    rng = random.Random(SEED)
    out = []
    for n in AMBIENTS:
        out += [("codim1", (n, r)) for r in range(-2, n + 5)]
        for k in range(1, n + 1):
            out += [("split", (n, k, d)) for d in sorted(rng.sample(range(-n - 3, 3), 3))]
        out += [("endo", (n, k)) for k in range(n + 1)]
        for _ in range(3):
            base = tangent(n) if rng.random() < 0.5 else omega(1, n)
            E = direct_sum(base, *(o(rng.randint(-3, 3), n) for _ in range(rng.randint(0, 2))))
            width = rng.randint(1, min(3, rank(E)))
            G = split_bundle([rng.randint(-2, 4) for _ in range(width)], n)
            out += [("certificate", (E, G, t)) for t in TWISTS]
    return out


def full_report(kind: str, point: tuple):
    """The check report of a sweep point."""
    if kind == "codim1":
        return check_codim1_generic(*point)
    if kind == "split":
        n, k, d = point
        return check_split_distribution(n, k, (d,) * k)
    if kind == "endo":
        n, k = point
        return check_endomorphism_space(k, n)
    E, G, t = point
    return check_map_recovery(E, tensor(G, o(t, E.ambient)))


def reference(kind: str, point: tuple) -> dict:
    """What the full path prints for a sweep point."""
    report = full_report(kind, point)
    if kind == "endo":
        n, k = point
        tree = cohomology_table(tensor(wedge(k, tangent(n)), omega(k, n))).dims[0]
        if report.groups[0].dim != tree:
            return {"dim": "the report disagrees with the tree"}
        return {"dim": tree, "verdict": report.verdict}
    if kind == "certificate":
        E, G, t = point
        if (report.verdict == checkers.HOLD) != vanishing_certificate(
                E, tensor(G, o(t, E.ambient))).verdict:
            return {"verdict": "the report disagrees with the certificate"}
    return {"verdict": report.verdict}


def observed(kind: str, point: tuple) -> dict:
    """A sweep point's result, without the inputs it echoes."""
    result = getattr(cli, f"_sweep_task_{kind}")(*point)
    return {key: result[key] for key in ("dim", "verdict") if key in result}


def _name(kind: str, point: tuple) -> str:
    return f"{kind} {tuple(render_expression(x) if hasattr(x, 'ambient') else x for x in point)}"


def check_grid() -> tuple[list[str], dict[str, set]]:
    """(failures, verdicts seen per kind) over the seeded grid."""
    failures, seen = [], {}
    for kind, point in grid():
        got, ref = observed(kind, point), reference(kind, point)
        if got != ref:
            failures.append(f"{_name(kind, point)}: sweep {got}, report {ref}")
        seen.setdefault(kind, set()).add(ref.get("verdict"))
    return failures, seen


def _main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _raised(call) -> tuple[type, str] | None:
    try:
        call()
    except PnsheafError as exc:
        return type(exc), str(exc)
    return None


def check_refusals() -> list[str]:
    failures = []
    for sweep, full in CLI_REFUSALS:
        got, ref = _main(sweep), _main(full)
        if got != ref or ref[0] not in (2, 3) or not ref[2].startswith("error: "):
            failures.append(f"{' '.join(sweep)}: {got!r}, report {ref!r}")
    for number, (point, full) in enumerate(POINT_REFUSALS):
        got, ref = _raised(point), _raised(full)
        if got != ref or ref is None:
            failures.append(f"point refusal {number}: {got!r}, report {ref!r}")
    return failures


def check_nothing_built(run, unbuilt, case_ids: tuple[str, ...]) -> list[str]:
    """Every run(kind, point) of the grid and every golden case of case_ids
    runs with the names of unbuilt and the endomorphism bracket made to fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("built part of a certificate or report")

    bracket = complexes._en_bracket

    def en_bracket(E, G0_dual, g, i):
        if not i:
            raise AssertionError("looked up its endomorphism space")
        return bracket(E, G0_dual, g, i)

    failures = []
    with contextlib.ExitStack() as stack:
        for module, name in unbuilt:
            stack.enter_context(mock.patch.object(module, name, refuse))
        stack.enter_context(mock.patch.object(complexes, "_en_bracket", en_bracket))
        for kind, point in grid():
            try:
                run(kind, point)
            except AssertionError as exc:
                failures.append(f"{_name(kind, point)}: {exc}")
        cases = [c for c in CORPUS["cases"] if c["id"] in case_ids]
        if len(cases) != len(case_ids):
            return failures + [f"golden cases missing from the corpus: {case_ids}"]
        for case in cases:
            try:
                if differing([case]):
                    failures.append(f"{case['id']}: differs from the golden corpus")
            except AssertionError as exc:
                failures.append(f"{case['id']}: {exc}")
    return failures


def check_sweeps_built_nothing() -> list[str]:
    return check_nothing_built(observed, UNBUILT, SWEEP_CASES)


def check_checks_built_no_certificate() -> list[str]:
    return check_nothing_built(full_report, CERTIFICATE, CHECK_CASES)


def test_sweep_points_match_the_full_reports():
    failures, seen = check_grid()
    assert not failures, failures[:10]
    both = {"hypotheses-hold", "hypotheses-fail"}
    # the endomorphism space is one-dimensional on every P^n
    assert seen == {"codim1": both, "split": both, "endo": {"hypotheses-hold"},
                    "certificate": both}, seen


def test_sweep_points_refuse_as_the_full_reports_do():
    assert not check_refusals()


def test_a_sweep_point_builds_no_report():
    assert not check_sweeps_built_nothing()


def test_a_check_builds_no_certificate():
    assert not check_checks_built_no_certificate()


if __name__ == "__main__":
    failures, seen = check_grid()
    failures += check_refusals() + check_sweeps_built_nothing()
    failures += check_checks_built_no_certificate()
    for line in failures:
        print(line)
    print(f"Python {sys.version.split()[0]}: {len(grid())} sweep points, verdicts"
          f" {({kind: sorted(v) for kind, v in seen.items()})}, {len(CLI_REFUSALS)} CLI and"
          f" {len(POINT_REFUSALS)} point refusals, {len(SWEEP_CASES)} sweep and"
          f" {len(CHECK_CASES)} check golden cases,"
          f" {len(failures)} failures")
    sys.exit(1 if failures else 0)
