"""Chart Groebner bases against sympy's, an independent implementation."""

from __future__ import annotations

from fractions import Fraction

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
    ideal = singular_scheme(form).ideal
    gens = [c for c in form.coeffs if c]
    xs = sympy.symbols(f"x0:{ideal.nvars - 1}")
    for i, chart in enumerate(ideal.charts):
        dehoms = [_to_sympy(g.dehomogenize(i), xs) for g in gens]
        oracle = sympy.groebner(dehoms, *xs, order="grevlex", domain="QQ")
        assert _sorted(chart) == _sorted(_from_sympy(g, xs) for g in oracle.exprs), i
