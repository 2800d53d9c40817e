"""Cohomology tables read off the count map against the per-summand path.

``cohomology_table`` reads the engine's normal form, ((lam, twist),
multiplicity) pairs, with one cached Bott lookup per summand, and builds its
``contributions`` only when they are read.  The reference kept here is the
path it replaced: every summand of the normal form validated as an
``IrreducibleBundle``, Bott's group of each one, and ``Contribution``s
sorted by (degree, lam, twist).  Both must give the same ``dims`` and the same
contributions (degree, summand, multiplicity, dim) in the same order, for
T, Omega^p, line bundles, sums, tensors and wedge/sym of sums on P^1..P^6
with twists -12..12, for zero bundles, and for ``bott_closed_form`` tables,
whose contributions are empty.

Run as a script, ``PYTHONPATH=src python tests/test_cohomology_count_map.py``
makes every comparison with the standard library only.
"""

from __future__ import annotations

import random
import sys

from pnsheaf import (
    BundleExpr,
    IrreducibleBundle,
    cohomology_table,
    direct_sum,
    dual,
    o,
    omega,
    sym,
    tangent,
    tensor,
    wedge,
)
from pnsheaf.bundles import _normalize_cached
from pnsheaf.cohomology import Contribution, _bott

from helpers import random_expression, twist
from oracles import bott_closed_form

SEED = 191919
TWISTS = range(-12, 13)
AMBIENTS = range(1, 7)


def reference(e: BundleExpr) -> tuple[tuple[int, ...], tuple[Contribution, ...]]:
    """(dims, contributions) through validated summands, _bott and a full sort."""
    n = e.ambient
    dims = [0] * (n + 1)
    contributions = []
    for (lam, d), mult in _normalize_cached(e):
        b = IrreducibleBundle(n, lam, d)
        group = _bott(n, b.lam, b.twist)
        if group is None:
            continue
        degree, dim = group
        dims[degree] += mult * dim
        contributions.append(Contribution(degree, b, mult, dim))
    contributions.sort(key=lambda c: (c.degree, c.summand.lam, c.summand.twist))
    return tuple(dims), tuple(contributions)


def grid() -> list[BundleExpr]:
    """Atoms, sums, tensors and wedge/sym of sums, each at every twist."""
    out = []
    for n in AMBIENTS:
        bases = [o(0, n), tangent(n), *(omega(p, n) for p in range(1, n + 1))]
        bases += [
            direct_sum(tangent(n), o(1, n)),
            direct_sum(omega(1, n), o(-1, n), o(2, n)),
            tensor(tangent(n), omega(1, n)),
            tensor(omega(min(2, n), n), dual(direct_sum(tangent(n), o(3, n)))),
            wedge(2, direct_sum(tangent(n), o(1, n))),
            sym(2, direct_sum(omega(1, n), o(-1, n))),
            sym(3, direct_sum(tangent(n), omega(1, n))),
            wedge(3, direct_sum(tangent(n), tangent(n), o(2, n))),
        ]
        out += [twist(b, t) for b in bases for t in TWISTS]
    return out


def zero_bundles() -> list[BundleExpr]:
    """Wedge powers above the rank: the empty normal form."""
    out = []
    for n in AMBIENTS:
        out += [wedge(n + 1, tangent(n)), wedge(3, direct_sum(o(1, n), o(-2, n)))]
        out += [tensor(wedge(n + 2, omega(1, n)), o(t, n)) for t in (-12, 0, 12)]
    return out


def random_cases(count: int = 300) -> list[BundleExpr]:
    rng = random.Random(SEED)
    return [
        twist(random_expression(rng, rng.choice(AMBIENTS), 2), rng.choice(TWISTS))
        for _ in range(count)
    ]


def check_tables(exprs: list[BundleExpr]) -> tuple[list[str], int, int]:
    """(failures, tables compared, contributions compared)."""
    failures, contributions = [], 0
    for e in exprs:
        table = cohomology_table(e)
        dims, contribs = reference(e)
        if table.dims != dims:
            failures.append(f"{e}: dims {table.dims}, reference {dims}")
        if table.contributions != contribs:
            failures.append(f"{e}: contributions differ from the reference")
        contributions += len(contribs)
    return failures, len(exprs), contributions


def check_zero_bundles() -> list[str]:
    failures = []
    for e in zero_bundles():
        table = cohomology_table(e)
        if _normalize_cached(e) or any(table.dims) or table.contributions:
            failures.append(f"{e}: not the zero table")
    return failures


def check_closed_form_tables() -> tuple[list[str], int]:
    """bott_closed_form agrees with the reference and has no contributions."""
    failures, count = [], 0
    for n in AMBIENTS:
        for k in range(n + 1):
            for s in TWISTS:
                table = bott_closed_form(k, s, n)
                if table.contributions != ():
                    failures.append(f"Omega^{k}({s}) on P^{n}: closed form has contributions")
                if table.dims != reference(table.expr)[0]:
                    failures.append(f"Omega^{k}({s}) on P^{n}: closed form differs")
                count += 1
    return failures, count


def test_tables_match_the_decomposition_path_on_the_grid():
    failures, count, contributions = check_tables(grid())
    assert not failures, failures[:10]
    assert count == 2025 and contributions > count


def test_tables_match_the_decomposition_path_on_random_expressions():
    print(f"count-map table seed {SEED}")
    failures, count, contributions = check_tables(random_cases())
    assert not failures, failures[:10]
    assert count == 300 and contributions > 0


def test_zero_bundles_have_empty_tables():
    assert not check_zero_bundles()


def test_closed_form_tables_match_and_have_no_contributions():
    failures, count = check_closed_form_tables()
    assert not failures, failures[:10]
    assert count == 27 * 25


def test_contributions_are_built_once_per_table():
    table = cohomology_table(sym(3, direct_sum(tangent(3), omega(1, 3))))
    assert table.contributions is table.contributions


if __name__ == "__main__":
    failures, count, contributions = check_tables(grid() + random_cases())
    failures += check_zero_bundles()
    closed_failures, closed_count = check_closed_form_tables()
    failures += closed_failures
    for line in failures:
        print(line)
    print(f"Python {sys.version.split()[0]}: {count} tables, {contributions} contributions,"
          f" {closed_count} closed-form tables, {len(failures)} failures")
    sys.exit(1 if failures else 0)
