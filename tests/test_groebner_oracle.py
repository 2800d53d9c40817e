"""Chart Groebner bases against sympy's, an independent implementation."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from pnsheaf import Poly, log_form, parse_poly, random_pencil_form, singular_scheme

from oracles import monomial_key

sympy = pytest.importorskip("sympy")


def _to_sympy(p: Poly, xs):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[x**e for x, e in zip(xs, expo)])
        for expo, c in p.terms.items()
    ])


def _from_sympy(g, xs) -> Poly:
    terms = {
        tuple(int(e) for e in expo): Fraction(int(c.p), int(c.q))
        for expo, c in sympy.Poly(g, *xs).terms()
    }
    # sympy's own monic() divides by the lex leading coefficient, so take
    # pnsheaf's degrevlex one instead
    lc = terms[max(terms, key=monomial_key)]
    return Poly(len(xs), {expo: c / lc for expo, c in terms.items()})


def _sorted(basis):
    return sorted(basis, key=lambda g: max(map(monomial_key, g.terms)))


def _forms():
    for seed in (1, 2, 3):
        yield random_pencil_form(2, 2, seed)
    yield random_pencil_form(2, 3, 7)
    yield random_pencil_form(2, 4, 7)
    yield random_pencil_form(3, 2, 7)
    quadric = parse_poly("x0^2 + 2*x1*x2 - 3*x2^2", 3)
    yield log_form([parse_poly("x0", 3), parse_poly("x1 - x2", 3), quadric], [2, 2, -2])


@pytest.mark.parametrize(
    "form",
    list(_forms()),
    ids=["pencil-1", "pencil-2", "pencil-3", "pencil-2-3", "pencil-2-4", "pencil-3-2", "log"],
)
def test_chart_bases_match_sympy(form):
    scheme = singular_scheme(form)
    ideal = scheme.ideal
    gens = [c for c in form.coeffs if c]
    xs = sympy.symbols(f"x0:{ideal.nvars - 1}")
    dims = []
    for i, chart in enumerate(ideal.charts):
        dehoms = [_to_sympy(g.dehomogenize(i), xs) for g in gens]
        oracle = sympy.groebner(dehoms, *xs, order="grevlex", domain="QQ")
        assert _sorted(chart) == _sorted(_from_sympy(g, xs) for g in oracle.exprs), i
        leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in oracle.exprs]
        dims.append(_staircase_dimension(leads, len(xs)))
        assert oracle.is_zero_dimensional == (dims[-1] == 0), i
    assert max(dims) == scheme.dimension


def _staircase_dimension(leads, nvars: int) -> int:
    """The size of the largest variable set containing the support of no
    leading monomial; -1 for the unit ideal, whose lead 1 has empty support."""
    supports = [{v for v in range(nvars) if lead[v]} for lead in leads]
    for size in range(nvars, -1, -1):
        for chosen in map(set, combinations(range(nvars), size)):
            if not any(support <= chosen for support in supports):
                return size
    return -1
