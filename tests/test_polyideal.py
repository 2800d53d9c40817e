"""Exact polynomial arithmetic, division, and Groebner machinery."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pnsheaf import (
    InputError,
    ParseError,
    Poly,
    ScaleExceeded,
    buchberger,
    ideal_presentation,
    parse_poly,
    projective_dimension,
    staircase_dimension,
)
from pnsheaf.polyideal import monomials_of_degree

from oracles import membership_on_charts, monomial_key, normal_form, s_polynomial, unit_ideal


def _p(text: str, nvars: int) -> Poly:
    return parse_poly(text, nvars)


def _random_poly(rng: random.Random, nvars: int, maxdeg: int = 3) -> Poly:
    terms = {}
    for _ in range(rng.randint(1, 5)):
        expo = [0] * nvars
        for _ in range(rng.randint(0, maxdeg)):
            expo[rng.randrange(nvars)] += 1
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if c:
            terms[tuple(expo)] = terms.get(tuple(expo), Fraction(0)) + c
    return Poly(nvars, terms)


# ---------------------------------------------------------------------------
# ring arithmetic


def test_non_int_exponent_is_rejected_not_truncated():
    with pytest.raises(InputError, match=r"bad exponent vector \(1\.5, 0\)"):
        Poly(2, {(1.5, 0): 1})


def test_square_of_binomial():
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    assert (x + y) * (x + y) == _p("x0^2 + 2*x0*x1 + x1^2", 2)


def test_partial_derivatives():
    f = _p("x0^3*x1 - 2*x1^2 + 7", 2)
    assert f.diff(0) == _p("3*x0^2*x1", 2)
    assert f.diff(1) == _p("x0^3 - 4*x1", 2)


def test_degree_and_homogeneity():
    assert Poly.zero(3).degree() == -1
    assert Poly.constant(1, 3).degree() == 0
    f = _p("x0^2*x1 - x2^3", 3)
    assert f.degree() == 3 and f.is_homogeneous()
    assert not _p("x0^2 + x1", 2).is_homogeneous()


def test_dehomogenize_drops_variable():
    f = _p("x0^2*x2 - x1^3 + x0*x1*x2", 3)
    assert f.dehomogenize(2) == _p("x0^2 - x1^3 + x0*x1", 2)


# ---------------------------------------------------------------------------
# monomial order


def test_order_on_quadratics_in_three_variables():
    got = monomials_of_degree(3, 2)
    want = [
        (2, 0, 0),  # x0^2
        (1, 1, 0),  # x0*x1
        (0, 2, 0),  # x1^2
        (1, 0, 1),  # x0*x2
        (0, 1, 1),  # x1*x2
        (0, 0, 2),  # x2^2
    ]
    assert got == want


def test_order_refines_total_degree():
    assert monomial_key((0, 0, 3)) > monomial_key((2, 0, 0))
    assert monomial_key((1, 1, 0)) > monomial_key((0, 2, 0))


# ---------------------------------------------------------------------------
# parse / print


def test_parse_literal_and_round_trip():
    text = "3/2*x0^2*x1 - x2 + 5"
    f = _p(text, 3)
    assert f.terms[(2, 1, 0)] == Fraction(3, 2)
    assert f.terms[(0, 0, 1)] == Fraction(-1)
    assert f.terms[(0, 0, 0)] == Fraction(5)
    assert str(f) == text
    assert _p(str(f), 3) == f


def test_round_trip_on_random_polynomials():
    seed = 818181
    print(f"poly round-trip seed {seed}")
    rng = random.Random(seed)
    for _ in range(100):
        nvars = rng.randint(1, 4)
        f = _random_poly(rng, nvars)
        assert parse_poly(str(f), nvars) == f


def test_parse_rejects_out_of_range_variable():
    with pytest.raises(ParseError):
        parse_poly("x3 + 1", 3)


def test_parse_rejects_rational_exponent():
    with pytest.raises(ParseError):
        parse_poly("x0^1/2", 2)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_poly("x0 + ?", 2)


# ---------------------------------------------------------------------------
# division


def test_normal_form_of_basis_elements_is_zero():
    basis = [_p("x0^2 - x1", 2), _p("x0*x1 - 1", 2)]
    for g in basis:
        assert not normal_form(g, basis)


def test_normal_form_is_linear():
    seed = 929292
    print(f"division seed {seed}")
    rng = random.Random(seed)
    basis = buchberger([_p("x0^2 - x1", 2), _p("x0*x1 - 1", 2)])
    for _ in range(40):
        f, g = _random_poly(rng, 2), _random_poly(rng, 2)
        lhs = normal_form(f + g, basis)
        rhs = normal_form(f, basis) + normal_form(g, basis)
        assert lhs == rhs


def test_normal_form_examples():
    assert normal_form(Poly.constant(1, 2), [_p("x0", 2), _p("x1", 2)]) == Poly.constant(1, 2)
    assert normal_form(_p("x0^2*x1", 2), [_p("x0^2 - x1", 2)]) == _p("x1^2", 2)


# ---------------------------------------------------------------------------
# Groebner bases


def test_buchberger_reference_fixture():
    basis = buchberger([_p("x0^2 - x1", 2), _p("x0*x1 - 1", 2)])
    rendered = sorted(map(str, basis))
    assert rendered == ["x0*x1 - 1", "x0^2 - x1", "x1^2 - x0"]
    assert not normal_form(_p("x1^3 - 1", 2), basis)


def test_buchberger_is_idempotent():
    basis = buchberger([_p("x0^2 - x1", 2), _p("x0*x1 - 1", 2)])
    again = buchberger(list(basis))
    assert set(map(str, again)) == set(map(str, basis))


def test_every_s_pair_reduces_to_zero():
    fixtures = [
        [_p("x0^2 - x1", 2), _p("x0*x1 - 1", 2)],
        [_p("x0^3 - x1^2", 2), _p("x0^2*x1 - x0", 2)],
        [_p("x0 + x1 + x2", 3), _p("x0*x1 + x1*x2 + x0*x2", 3), _p("x0*x1*x2 - 1", 3)],
    ]
    for gens in fixtures:
        basis = buchberger(gens)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert not normal_form(s_polynomial(basis[i], basis[j]), basis)


def test_buchberger_guards_scale():
    with pytest.raises(ScaleExceeded):
        buchberger([_p("x0^9 - x1", 2)])
    with pytest.raises(ScaleExceeded):
        buchberger([Poly.variable(0, 5)])


def test_presentation_guards_degree_before_any_chart(monkeypatch):
    # every dehomogenization has degree 6, so only the guard on the
    # homogeneous generators can refuse it
    charts = []
    monkeypatch.setattr("pnsheaf.polyideal.buchberger", lambda gens: charts.append(gens))
    with pytest.raises(ScaleExceeded, match="degree 9"):
        ideal_presentation([_p("x0^3*x1^3*x2^3", 3)])
    assert charts == []


# ---------------------------------------------------------------------------
# projective ideals


def test_presentation_requires_homogeneous_generators():
    with pytest.raises(InputError):
        ideal_presentation([_p("x0^2 + x1", 3)])
    with pytest.raises(InputError):
        ideal_presentation([Poly.zero(3)])


def test_membership_accepts_generators_and_multiples():
    gens = [_p("x0*x1 - x2^2", 3), _p("x0^2 - x1*x2", 3)]
    ideal = ideal_presentation(gens)
    for g in gens:
        assert membership_on_charts(g, ideal)
        for i in range(3):
            assert membership_on_charts(g * Poly.variable(i, 3), ideal)


def test_membership_rejects_nonmembers():
    ideal = ideal_presentation([_p("x0*x1 - x2^2", 3), _p("x0^2 - x1*x2", 3)])
    assert not membership_on_charts(_p("x0^2", 3), ideal)
    assert not membership_on_charts(_p("x0 - x1", 3), ideal)


def test_membership_on_random_combinations():
    seed = 434343
    print(f"membership seed {seed}")
    rng = random.Random(seed)
    gens = [_p("x0*x1 - x2^2", 3), _p("x0^2 - x1*x2", 3)]
    ideal = ideal_presentation(gens)
    for _ in range(50):
        # homogeneous multiplier of each degree-2 generator
        d = rng.randint(0, 2)
        combo = Poly.zero(3)
        for g in gens:
            mult = Poly.zero(3)
            for expo in monomials_of_degree(3, d):
                mult = mult + Poly(3, {expo: Fraction(rng.randint(-2, 2))})
            combo = combo + mult * g
        if combo:
            assert combo.is_homogeneous()
            assert membership_on_charts(combo, ideal)


def test_membership_requires_homogeneous_probe():
    ideal = ideal_presentation([_p("x0", 3)])
    with pytest.raises(InputError):
        membership_on_charts(_p("x0 + 1", 3), ideal)


def test_unit_ideal_contains_everything():
    ideal = unit_ideal(3)
    assert membership_on_charts(_p("x0 - x1", 3), ideal)
    assert projective_dimension(ideal) == -1


# ---------------------------------------------------------------------------
# dimension from the staircase


def test_staircase_dimension_extremes():
    assert staircase_dimension([Poly.constant(1, 3)], 3) == -1
    assert staircase_dimension([], 3) == 3


def test_projective_dimension_of_points_and_hyperplanes():
    point = ideal_presentation([_p("x0", 3), _p("x1", 3)])
    assert projective_dimension(point) == 0
    line = ideal_presentation([_p("x0", 3)])
    assert projective_dimension(line) == 1


def test_projective_dimension_of_plane_conic():
    conic = ideal_presentation([_p("x0*x2 - x1^2", 3)])
    assert projective_dimension(conic) == 1
