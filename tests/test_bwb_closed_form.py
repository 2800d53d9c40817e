"""Bott's closed form per summand against the sort-and-count reduction.

``cohomology._bott`` places the cohomology of S_lam(Q)(t) on P^n without
sorting: with a_k = lam_k + n + 1 - k and x = -t, the group vanishes when x
is some a_k, and otherwise sits in degree #{k : a_k < x} with dimension
weyl_dim(lam, n) * prod |a_k - x| / n!.  The reference kept here is the
dotted Weyl action it replaced: ``dotted_weyl_reduce`` of (lam, x) against
rho = (n, ..., 0), then ``weyl_dim`` of the reduced weight on GL(n + 1), both
from ``tests/oracles.py``.
The grid is n = 1..7, every normalized lam with |lam| <= 8 and every twist
in [-25, 24].  The golden ``cohomology`` and ``chi`` runs must not reach the
reference at all, and four summands on P^100000 must each take under 1 s.

Run as a script, ``PYTHONPATH=src python tests/test_bwb_closed_form.py``
checks the whole grid, the golden runs and the timings with the standard
library only.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import time
from unittest import mock

from pnsheaf import IrreducibleBundle, cohomology_table, parse_expression, weyl_dim
from pnsheaf.cli import main
from pnsheaf.cohomology import _bott
from pnsheaf.grammar import split_ambient
from pnsheaf.weights import _weyl_dim_cached, binom, partitions

import oracles
from oracles import bott_closed_form, dotted_weyl_reduce, rho_weight

CORPUS_PATH = pathlib.Path(__file__).parent / "golden" / "cli_corpus.json"
BIG = 100000


def reference(b: IrreducibleBundle) -> tuple[int, int] | None:
    """(degree, dim) by the dotted Weyl action on GL(n + 1), or None."""
    n = b.ambient
    res = dotted_weyl_reduce(b.lam + (-b.twist,), rho_weight(n + 1))
    if res is None:
        return None
    inversions, reduced = res
    return inversions, weyl_dim(reduced, n + 1)


def cases():
    """Every IrreducibleBundle of the grid."""
    for n in range(1, 8):
        for size in range(9):
            for nu in partitions(size, n - 1, size):
                for t in range(-25, 25):
                    yield IrreducibleBundle(n, nu + (0,), t)


def check_grid() -> tuple[list[str], int, set]:
    """(failures, number of cases, the (n, degree) of every summand, with
    degree None when every group vanishes)."""
    failures, count, outcomes = [], 0, set()
    for b in cases():
        got = _bott(b.ambient, b.lam, b.twist)
        want = reference(b)
        if got != want:
            failures.append(f"{b} on P^{b.ambient}: closed form {got}, reference {want}")
        count += 1
        outcomes.add((b.ambient, want and want[0]))
    return failures, count, outcomes


def _every_outcome(outcomes: set) -> bool:
    """Every P^n of the grid has vanishing summands and groups in every degree."""
    return outcomes == {(n, p) for n in range(1, 8) for p in (None, *range(n + 1))}


def _parse(text: str):
    body, n = split_ambient(text)
    return parse_expression(body, n)


def timed_tables() -> list[tuple[str, float, bool]]:
    """(expression, seconds, matches the expected table) on P^100000, each
    from cold caches."""
    expected = {
        f"O(3) on P^{BIG}": bott_closed_form(0, 3, BIG).dims,
        f"T on P^{BIG}": ((BIG + 1) ** 2 - 1,) + (0,) * BIG,
        f"O(-{BIG + 5}) on P^{BIG}": (0,) * BIG + (binom(BIG + 4, 4),),
        f"Omega^7 (x) O(-3) on P^{BIG}": bott_closed_form(7, -3, BIG).dims,
    }
    out = []
    for text, dims in expected.items():
        e = _parse(text)
        _bott.cache_clear()
        _weyl_dim_cached.cache_clear()
        start = time.perf_counter()
        table = cohomology_table(e)
        out.append((text, time.perf_counter() - start, table.dims == dims))
    return out


def _computing_golden_cases() -> list[dict]:
    corpus = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    return [
        case for case in corpus["cases"]
        if case["argv"][:1] in (["cohomology"], ["chi"]) and case["exit"] == 0
        and "--help" not in case["argv"]
    ]


def golden_without_reference() -> tuple[list[str], int]:
    """(ids whose output differs, number of cases) with the reference patched
    to raise."""

    def refuse(*args):
        raise AssertionError("the cohomology engine reached dotted_weyl_reduce")

    failures, cases_run = [], _computing_golden_cases()
    with mock.patch.object(oracles, "dotted_weyl_reduce", refuse):
        for case in cases_run:
            _bott.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(case["argv"]))
            if (code, out.getvalue(), err.getvalue()) != (
                case["exit"], case["stdout"], case["stderr"]
            ):
                failures.append(case["id"])
    return failures, len(cases_run)


def test_closed_form_matches_the_dotted_weyl_action():
    failures, count, outcomes = check_grid()
    assert not failures, failures[:10]
    assert count == 12650 and _every_outcome(outcomes)


def test_large_ambient_summands_are_fast():
    for text, seconds, ok in timed_tables():
        assert ok, text
        assert seconds < 1.0, (text, seconds)


def test_golden_cohomology_and_chi_never_reach_the_reference():
    failures, count = golden_without_reference()
    assert not failures, failures
    assert count >= 15


if __name__ == "__main__":
    failures, count, outcomes = check_grid()
    if not _every_outcome(outcomes):
        failures.append("the grid misses an outcome")
    golden_failures, golden_count = golden_without_reference()
    failures += [f"golden {case}: output differs" for case in golden_failures]
    for text, seconds, ok in timed_tables():
        print(f"{text}: {seconds:.3f} s")
        if not ok or seconds >= 1.0:
            failures.append(f"{text}: {'wrong table' if not ok else 'too slow'}")
    for line in failures:
        print(line)
    print(f"Python {sys.version.split()[0]}: {count} summands,"
          f" {golden_count} golden runs, {len(failures)} failures")
    sys.exit(1 if failures else 0)
