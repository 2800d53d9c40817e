"""Eagon-Northcott terms, vanishing certificates, and the Euler chase."""

from __future__ import annotations

import pytest

from pnsheaf import (
    InputError,
    ScaleExceeded,
    cohomology_table,
    direct_sum,
    en_resolution,
    o,
    omega,
    parse_expression,
    rank,
    tangent,
    vanishing_certificate,
)


def _split(n: int, *degrees: int):
    return direct_sum(*[o(d, n) for d in degrees])


# ---------------------------------------------------------------------------
# resolution terms


def test_term_count_is_rank_difference_plus_one():
    fixtures = [
        (omega(1, 3), _split(3, 1, 1)),
        (tangent(3), o(5, 3)),
        (_split(2, 1, 1, 2, 2), _split(2, 0, 0)),
    ]
    for E, G in fixtures:
        rep = en_resolution(E, G)
        assert len(rep.terms) == rep.e - rep.g + 1
        assert rep.e == rank(E) and rep.g == rank(G)


def test_resolution_stops_at_its_first_refused_term():
    # a million terms, of which wedge^282 is the first above the rank guard
    E = parse_expression("1000000*O(1)", 2)
    with pytest.raises(ScaleExceeded, match=r"^wedge\^282 has rank above 10\^1000, the bound$"):
        en_resolution(E, o(2, 2))


def test_equal_ranks_give_single_term():
    rep = en_resolution(_split(2, 1, 2), _split(2, 0, 0))
    assert len(rep.terms) == 1


def test_frozen_ranks_untwisted():
    rep = en_resolution(omega(1, 3), _split(3, 1, 1))
    assert [rank(t) for t in rep.terms] == [3, 2]


def test_frozen_ranks_twisted():
    rep = en_resolution(omega(1, 3), _split(3, 1, 1), twisted=True)
    assert [rank(t) for t in rep.terms] == [9, 6]


def test_untwisted_terms_differ_from_twisted_by_determinant():
    untwisted = en_resolution(omega(1, 3), _split(3, 1, 1))
    twisted = en_resolution(omega(1, 3), _split(3, 1, 1), twisted=True)
    assert untwisted.twisted is False and twisted.twisted is True
    assert len(untwisted.terms) == len(twisted.terms)


def test_resolution_rejects_rank_deficit():
    with pytest.raises(InputError):
        en_resolution(o(1, 3), _split(3, 0, 0))


def test_resolution_rejects_mixed_ambient():
    with pytest.raises(InputError):
        en_resolution(omega(1, 3), o(1, 2))


# ---------------------------------------------------------------------------
# certificates


def test_certificate_positive_case():
    cert = vanishing_certificate(omega(1, 3), _split(3, 1, 1))
    assert cert.verdict is True
    assert len(cert.required) == cert.e - cert.g == 1
    assert all(r.ok for r in cert.required)
    assert any("H^1(F_2) = 0" in line for line in cert.chain_trace)
    assert cert.endomorphism_dim == 1


def test_certificate_negative_case():
    cert = vanishing_certificate(omega(1, 3), _split(3, 0, -1))
    assert cert.verdict is False
    failing = [(r.i, max(p for p, d in enumerate(r.dims) if d)) for r in cert.required if not r.ok]
    assert failing  # at least one required group is nonzero
    assert any("hypothesis not satisfied" in line for line in cert.chain_trace)


def test_certificate_vacuous_when_ranks_match():
    cert = vanishing_certificate(_split(2, 1, 2), _split(2, 0, 0))
    assert cert.verdict is True
    assert cert.required == ()
    assert any("nothing to chase" in line for line in cert.chain_trace)


def test_certificate_two_step_descending_induction():
    cert = vanishing_certificate(tangent(3), o(5, 3))
    assert cert.e - cert.g == 2
    assert cert.verdict is True
    assert any("descending induction" in line for line in cert.chain_trace)


def test_certificate_required_tables_are_reproducible():
    cert = vanishing_certificate(omega(1, 3), _split(3, 1, 1))
    for r in cert.required:
        assert r.dims == cohomology_table(cert.term(r.i)).dims
        assert r.ok == (r.dims[r.i] == 0)


def test_certificate_rejects_rank_deficit():
    with pytest.raises(InputError):
        vanishing_certificate(o(1, 3), _split(3, 0, 0))


def test_certificate_json_schema_keys():
    cert = vanishing_certificate(omega(1, 3), _split(3, 1, 1))
    d = cert.to_json_dict()
    assert set(d) == {"e", "g", "n", "required", "assumptions", "verdict"}
    assert d["assumptions"] == ["purity"]
    assert d["verdict"] is True
    for entry in d["required"]:
        assert set(entry) == {"i", "expr", "h", "ok"}
        assert isinstance(entry["expr"], str)
        assert len(entry["h"]) == d["n"] + 1



def test_bracket_work_is_the_sum_over_pairs_of_tableau_weights():
    # the charge sums n * (|lam| + |mu|) * lam_1 * mu_1 over the distinct pairs
    # whose product needs an LR tableau enumeration, in one pass per side
    from pnsheaf.bundles import _normalize_cached
    from pnsheaf.complexes import _product_work

    for n, left, right in [
        (5, "wedge(2, dual(T (+) T))", "wedge(4, T (+) T)"),
        (4, "wedge(3, dual(3*T)) (+) O(1)", "sym(2, T) (+) wedge(2, T) (+) O(2)"),
        (6, "wedge(2, dual(Omega^1 (+) T))", "wedge(5, Omega^1 (+) T (+) O(1))"),
        (3, "T (+) O(1)", "wedge(2, 2*T)"),
    ]:
        a = _normalize_cached(parse_expression(left, n))
        b = _normalize_cached(parse_expression(right, n))
        lams = [{lam for (lam, _), _ in terms if lam[0] > 1} for terms in (a, b)]
        pairs = sum(n * (sum(x) + sum(y)) * x[0] * y[0] for x in lams[0] for y in lams[1])
        assert _product_work(a, b, n) == pairs
