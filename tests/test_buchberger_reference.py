"""Buchberger's pair handling against a first-in, first-out reference.

The reduced Groebner basis of an ideal is unique for a fixed order, so
Gebauer and Moeller's update with the normal strategy must give the same
basis as the plain strategy it replaced: every pair queued in order of
creation, only pairs with coprime leading monomials skipped.  That strategy
is kept here as the reference.  The work pin counts the S-pairs that reduce
to zero, which the pair criteria exist to avoid.
"""

from __future__ import annotations

import json
import pathlib
import time
from collections import deque
from itertools import combinations
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from pnsheaf import (
    Poly,
    buchberger,
    log_form,
    parse_poly,
    random_pencil_form,
    singular_scheme,
)
from pnsheaf import polyideal
from pnsheaf.pfaff import parse_form_file
from pnsheaf.polyideal import _divide, _pack, _reduce_basis, _reducer, _unpack

from oracles import normal_form, s_polynomial

CORPUS_PATH = pathlib.Path(__file__).parent / "golden" / "cli_corpus.json"


def _fifo_buchberger(gens) -> tuple[Poly, ...]:
    gens = [g for g in gens if g]
    if not gens:
        return ()
    nvars = gens[0].nvars
    basis = [_reducer(g._terms, nvars) for g in gens]
    expos = [_unpack(g[1], nvars) for g in basis]
    pairs = deque((i, j) for i in range(len(basis)) for j in range(i + 1, len(basis)))
    while pairs:
        i, j = pairs.popleft()
        if not any(x and y for x, y in zip(expos[i], expos[j])):
            continue  # coprime leading monomials reduce to zero
        _, f_lm, f_lc, f_tail = basis[i]
        _, g_lm, g_lc, g_tail = basis[j]
        lcm_key = _pack(tuple(map(max, expos[i], expos[j])))
        h = gcd(f_lc, g_lc)
        s_poly = {}
        for tail, shift, c in ((f_tail, lcm_key - f_lm, g_lc // h),
                               (g_tail, lcm_key - g_lm, -f_lc // h)):
            for k, v in tail:
                k += shift
                s_poly[k] = s_poly.get(k, 0) + c * v
        rem, _ = _divide(s_poly, basis, nvars)
        if rem:
            basis.append(_reducer(rem, nvars))
            expos.append(_unpack(basis[-1][1], nvars))
            pairs.extend((t, len(basis) - 1) for t in range(len(basis) - 1))
    return _reduce_basis(basis, nvars)


def _corpus_forms():
    corpus = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    for text in (corpus["form_file"], *corpus["extra_form_files"].values()):
        yield parse_form_file(text)
    for seed in (1, 2, 3):
        yield random_pencil_form(2, 2, seed)
    quadric = parse_poly("x0^2 + 2*x1*x2 - 3*x2^2", 3)
    yield log_form([parse_poly("x0", 3), parse_poly("x1 - x2", 3), quadric], [2, 2, -2])


def test_chart_bases_match_fifo_reference_on_corpus_forms():
    for form in _corpus_forms():
        gens = [c for c in form.coeffs if c]
        for i in range(form.ambient + 1):
            dehoms = [g.dehomogenize(i) for g in gens]
            assert buchberger(dehoms) == _fifo_buchberger(dehoms), (str(form), i)


def _polys(nvars: int):
    # a term is a coefficient and a multiset of at most 3 variables
    term = st.tuples(
        st.integers(-5, 5).filter(bool), st.lists(st.integers(0, nvars - 1), max_size=3)
    )

    def build(terms) -> Poly:
        out: dict = {}
        for c, factors in terms:
            expo = tuple(factors.count(v) for v in range(nvars))
            out[expo] = out.get(expo, 0) + c
        return Poly(nvars, out)

    return st.lists(term, min_size=1, max_size=4).map(build)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(2, 3).flatmap(lambda n: st.lists(_polys(n), min_size=1, max_size=3)))
def test_buchberger_matches_fifo_reference_on_drawn_ideals(gens):
    assert buchberger(gens) == _fifo_buchberger(gens)


def test_few_s_pairs_of_the_quartic_pencil_reduce_to_zero(monkeypatch):
    zeros: list[bool] = []

    def counting(terms, reducers, nvars):
        rem, scale = _divide(terms, reducers, nvars)
        zeros.append(not rem)
        return rem, scale

    monkeypatch.setattr(polyideal, "_divide", counting)
    singular_scheme(random_pencil_form(2, 4, 7))
    # the first-in, first-out strategy reduces 235 S-pairs to zero on this pencil
    assert sum(zeros) <= 30


def test_pencil_of_cubic_surfaces_is_fast_and_complete():
    start = time.perf_counter()
    charts = singular_scheme(random_pencil_form(3, 3, 7)).ideal.charts
    # the first-in, first-out strategy runs for more than 120 s on this pencil
    assert time.perf_counter() - start < 5.0
    for basis in charts:
        for f, g in combinations(basis, 2):
            assert not normal_form(s_polynomial(f, g), basis)
