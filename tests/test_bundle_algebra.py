"""Expression algebra and normalization to irreducible summands."""

from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnsheaf import (
    Cotangent,
    DirectSum,
    Dual,
    InputError,
    IrreducibleBundle,
    LineBundle,
    Sym,
    Tangent,
    Tensor,
    UnsupportedPlethysm,
    ScaleExceeded,
    Wedge,
    cohomology_table,
    det_bundle,
    direct_sum,
    dual,
    hrr_chi,
    o,
    omega,
    rank,
    split_bundle,
    sym,
    tangent,
    tensor,
    total_chern,
    wedge,
)
from pnsheaf.bundles import _normalize_cached
from pnsheaf.weights import binom, lr_product, weyl_dim

from helpers import random_expression, twist
from oracles import serre_dual_check


def _terms(e) -> dict:
    return dict(_normalize_cached(e))


# ---------------------------------------------------------------------------
# normal forms of the basic bundles


def test_line_bundle_tensor():
    assert _terms(tensor(o(3, 2), o(-5, 2))) == {((0, 0), -2): 1}


def test_tangent_normal_form():
    # on P^1 the weight collapses into the twist: T = O(2)
    assert _terms(tangent(1)) == {((0,), 2): 1}
    for n in range(2, 6):
        assert _terms(tangent(n)) == {((1,) + (0,) * (n - 1), 1): 1}


def test_cotangent_normal_form_and_rank():
    for n in range(2, 6):
        for p in range(1, n + 1):
            lam = (1,) * (n - p) + (0,) * p
            assert _terms(omega(p, n)) == {(lam, -p - 1): 1}
            assert rank(omega(p, n)) == binom(n, p)


def test_dual_of_tangent_is_cotangent():
    for n in range(1, 6):
        assert _normalize_cached(dual(tangent(n))) == _normalize_cached(omega(1, n))


def test_dual_involution_on_random_expressions():
    seed = 98123
    print(f"dual involution seed {seed}")
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(1, 4)
        e = random_expression(rng, n)
        assert _normalize_cached(dual(dual(e))) == _normalize_cached(e)


def test_twist_shifts_every_summand():
    for d in (-3, 0, 2):
        base = _normalize_cached(tensor(tangent(3), omega(2, 3)))
        shifted = _normalize_cached(twist(tensor(tangent(3), omega(2, 3)), d))
        assert {(lam, t + d): m for (lam, t), m in base} == dict(shifted)


# ---------------------------------------------------------------------------
# split bundles against a brute-force expansion


def test_wedge_of_split_sum():
    e = wedge(2, split_bundle((1, 2, 3), 2))
    assert _terms(e) == {((0, 0), 3): 1, ((0, 0), 4): 1, ((0, 0), 5): 1}


def test_split_powers_match_brute_force():
    seed = 55001
    print(f"split brute force seed {seed}")
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 4)
        width = rng.randint(1, 4)
        degrees = [rng.randint(-3, 3) for _ in range(width)]
        k = rng.randint(0, width + 1)
        split = split_bundle(degrees, n)

        got_wedge = _terms(wedge(k, split))
        want_wedge: dict = {}
        for combo in combinations(degrees, k):
            key = ((0,) * n, sum(combo))
            want_wedge[key] = want_wedge.get(key, 0) + 1
        assert got_wedge == want_wedge

        got_sym = _terms(sym(k, split))
        want_sym: dict = {}
        for combo in combinations_with_replacement(degrees, k):
            key = ((0,) * n, sum(combo))
            want_sym[key] = want_sym.get(key, 0) + 1
        assert got_sym == want_sym


def test_powers_of_sums_with_repeated_summands():
    seed = 61003
    print(f"repeated summand powers seed {seed}")
    rng = random.Random(seed)
    for n in range(2, 6):
        for _ in range(3):
            a, b, c = rng.randint(2, 3), rng.randint(2, 3), rng.randint(1, 3)
            d = rng.randint(-3, 3)
            e = DirectSum(n, (tangent(n), omega(1, n), o(d, n)), (a, b, c))
            r = (a + b) * n + c
            assert rank(e) == r
            for k in range(4):
                assert rank(wedge(k, e)) == binom(r, k), (n, a, b, c, d, k)
                assert rank(sym(k, e)) == binom(r + k - 1, k), (n, a, b, c, d, k)


def test_power_of_a_large_multiplicity():
    e = DirectSum(2, (o(1, 2), o(2, 2)), (600, 600))
    assert rank(wedge(2, e)) == binom(1200, 2)
    assert rank(sym(2, e)) == binom(1201, 2)


def test_split_tensor_elementary_expansion():
    e = tensor(split_bundle((1, 2), 2), split_bundle((0, -1), 2))
    assert _terms(e) == {((0, 0), 1): 2, ((0, 0), 0): 1, ((0, 0), 2): 1}


# ---------------------------------------------------------------------------
# ranks and determinants


def test_rank_of_tangent_and_wedges():
    for n in range(1, 6):
        assert rank(tangent(n)) == n
        for k in range(n + 2):
            assert rank(wedge(k, tangent(n))) == binom(n, k)


def test_rank_respects_sum_and_tensor():
    seed = 7321
    print(f"rank algebra seed {seed}")
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_expression(rng, n, depth=2)
        b = random_expression(rng, n, depth=2)
        assert rank(direct_sum(a, b)) == rank(a) + rank(b)
        assert rank(tensor(a, b)) == rank(a) * rank(b)


def test_decomposition_rank_matches_weyl_dimensions():
    seed = 90909
    print(f"decomposition rank seed {seed}")
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 4)
        e = random_expression(rng, n)
        summands = [(IrreducibleBundle(n, lam, d), m) for (lam, d), m in _normalize_cached(e)]
        assert sum(m * weyl_dim(b.lam, n) for b, m in summands) == rank(e)


def test_determinants():
    assert det_bundle(split_bundle((2, 5), 3)) == IrreducibleBundle(3, (0, 0, 0), 7)
    for n in range(1, 6):
        assert det_bundle(tangent(n)).twist == n + 1
        assert det_bundle(omega(1, n)).twist == -n - 1
        assert det_bundle(tangent(n)).is_line_bundle()


def test_determinant_is_the_first_chern_class():
    # c_1 comes from the Chern character, independently of the det rule;
    # every summand weighs with its multiplicity
    assert det_bundle(DirectSum(3, (o(2, 3), tangent(3)), (2, 3))).twist == 16
    seed = 272727
    print(f"determinant seed {seed}")
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(1, 4)
        e = random_expression(rng, n)
        assert det_bundle(e).twist == total_chern(e).coeffs[1]


def test_top_wedge_is_the_determinant():
    for n in range(1, 5):
        assert _normalize_cached(wedge(n, tangent(n))) == _normalize_cached(o(n + 1, n))
        assert _normalize_cached(omega(n, n)) == _normalize_cached(o(-n - 1, n))


# ---------------------------------------------------------------------------
# zero bundle and unsupported inputs


def test_wedge_beyond_rank_is_zero():
    e = wedge(4, tangent(3))
    assert _normalize_cached(e) == ()
    assert rank(e) == 0
    assert _terms(direct_sum(e, o(1, 3))) == {((0, 0, 0), 1): 1}


def test_sym_and_wedge_zero_and_unit_powers():
    assert _terms(wedge(0, tangent(3))) == {((0, 0, 0), 0): 1}
    assert _terms(sym(0, omega(2, 3))) == {((0, 0, 0), 0): 1}
    assert _normalize_cached(sym(1, tangent(3))) == _normalize_cached(tangent(3))
    assert _normalize_cached(wedge(1, omega(2, 3))) == _normalize_cached(omega(2, 3))


def test_unsupported_plethysm_names_the_summand():
    with pytest.raises(UnsupportedPlethysm) as err:
        _normalize_cached(wedge(2, sym(2, tangent(3))))
    assert "S(2,0,0)Q(2)" in str(err.value)
    with pytest.raises(UnsupportedPlethysm):
        _normalize_cached(sym(2, wedge(2, tangent(4))))


def test_supported_plethysm_of_twisted_fundamentals():
    # wedge^2 of a twisted cotangent summand stays inside the supported classes
    e = wedge(2, twist(omega(1, 3), 2))
    assert _normalize_cached(e) == _normalize_cached(twist(omega(2, 3), 4))
    s = sym(2, twist(tangent(2), -1))
    assert _terms(s) == {((2, 0), 0): 1}


def test_mixed_ambient_is_rejected():
    with pytest.raises(InputError):
        tensor(o(1, 2), o(1, 3))
    with pytest.raises(InputError):
        direct_sum(tangent(2), tangent(3))


def test_huge_ambient_is_refused_before_any_weight_is_built():
    with pytest.raises(ScaleExceeded, match=r"on P\^100001 are refused; the bound is P\^100000"):
        o(1, 100001)
    assert rank(o(1, 100000)) == 1


def test_cotangent_power_out_of_range():
    with pytest.raises(InputError):
        omega(4, 3)
    with pytest.raises(InputError):
        omega(-1, 3)


def test_normal_form_weight_is_normalized():
    seed = 171717
    print(f"normal form invariant seed {seed}")
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 4)
        for (lam, d), mult in _normalize_cached(random_expression(rng, n)):
            b = IrreducibleBundle(n, lam, d)
            assert mult >= 1
            assert len(b.lam) == n
            assert all(x >= y for x, y in zip(b.lam, b.lam[1:]))
            assert b.lam == () or b.lam[-1] == 0


def test_cached_normal_form_is_not_changed_by_a_larger_expression():
    inner = wedge(2, direct_sum(tangent(3), o(1, 3)))
    first = _normalize_cached(inner)
    _normalize_cached(sym(2, direct_sum(inner, inner, omega(1, 3))))
    _normalize_cached(tensor(inner, dual(inner)))
    assert _normalize_cached(inner) == first


# ---------------------------------------------------------------------------
# reference: the per-copy expansion the engine used to run, every
# intermediate power a tuple of validated (IrreducibleBundle, multiplicity)
# summands, largest first


def _ref_freeze(n, acc):
    terms = [(IrreducibleBundle(n, lam, d), mult) for (lam, d), mult in acc.items() if mult]
    terms.sort(key=lambda t: (t[0].lam, t[0].twist), reverse=True)
    return tuple(terms)


def _ref_terms(summands):
    """The reference's summands as the engine's normal form: ((lam, twist),
    multiplicity) pairs, ascending."""
    return tuple(((b.lam, b.twist), mult) for b, mult in reversed(summands))


def _ref_canon(lam, d):
    low = lam[-1]
    return tuple(x - low for x in lam), d + low


def _ref_unit(n):
    return _ref_freeze(n, {((0,) * n, 0): 1})


def _ref_tensor_into(acc, a, b):
    for x, mx in a:
        for y, my in b:
            for nu, c in lr_product(x.lam, y.lam):
                key = _ref_canon(nu, x.twist + y.twist)
                acc[key] = acc.get(key, 0) + mx * my * c
    return acc


def _ref_wedge_single(b, j):
    n = b.ambient
    if j == 0:
        return _ref_unit(n)
    if j == 1:
        return _ref_freeze(n, {(b.lam, b.twist): 1})
    if b.is_line_bundle():
        return ()
    if b.lam == (1,) + (0,) * (n - 1):
        if j > n:
            return ()
        return _ref_freeze(n, {_ref_canon((1,) * j + (0,) * (n - j), j * b.twist): 1})
    if b.lam == (1,) * (n - 1) + (0,):
        if j > n:
            return ()
        key = _ref_canon((1,) * (n - j) + (0,) * j, j * b.twist + j - 1)
        return _ref_freeze(n, {key: 1})
    raise UnsupportedPlethysm(f"wedge({j}, {b}) is outside the supported summand classes")


def _ref_sym_single(b, j):
    n = b.ambient
    if j == 0:
        return _ref_unit(n)
    if j == 1:
        return _ref_freeze(n, {(b.lam, b.twist): 1})
    if b.is_line_bundle():
        return _ref_freeze(n, {((0,) * n, j * b.twist): 1})
    if b.lam == (1,) + (0,) * (n - 1):
        return _ref_freeze(n, {_ref_canon((j,) + (0,) * (n - 1), j * b.twist): 1})
    if b.lam == (1,) * (n - 1) + (0,):
        return _ref_freeze(n, {_ref_canon((j,) * (n - 1) + (0,), j * b.twist): 1})
    raise UnsupportedPlethysm(f"sym({j}, {b}) is outside the supported summand classes")


def _ref_graded_power(n, summands, k, single):
    if k == 0:
        return _ref_unit(n)
    items = [b for b, m in summands for _ in range(m)]
    tail = [_ref_unit(n)] + [()] * k
    for summand in reversed(items):
        firsts = [single(summand, a) for a in range(k + 1)]
        powers = []
        for j in range(k + 1):
            acc: dict = {}
            for a in range(j + 1):
                _ref_tensor_into(acc, firsts[a], tail[j - a])
            powers.append(_ref_freeze(n, acc))
        tail = powers
    return tail[k]


def _ref_normalize(e):
    n = e.ambient
    if isinstance(e, LineBundle):
        return _ref_freeze(n, {((0,) * n, e.degree): 1})
    if isinstance(e, Tangent):
        return _ref_freeze(n, {_ref_canon((1,) + (0,) * (n - 1), 1): 1})
    if isinstance(e, Cotangent):
        p = e.power
        return _ref_freeze(n, {_ref_canon((1,) * (n - p) + (0,) * p, -p - 1): 1})
    acc: dict = {}
    if isinstance(e, Dual):
        for b, mult in _ref_normalize(e.child):
            top = b.lam[0]
            key = _ref_canon(tuple(top - x for x in reversed(b.lam)), -b.twist - top)
            acc[key] = acc.get(key, 0) + mult
        return _ref_freeze(n, acc)
    if isinstance(e, DirectSum):
        for child, cmult in zip(e.children, e.multiplicities):
            for b, mult in _ref_normalize(child):
                acc[(b.lam, b.twist)] = acc.get((b.lam, b.twist), 0) + cmult * mult
        return _ref_freeze(n, acc)
    if isinstance(e, Tensor):
        left, right = _ref_normalize(e.left), _ref_normalize(e.right)
        return _ref_freeze(n, _ref_tensor_into(acc, left, right))
    assert isinstance(e, (Wedge, Sym))
    single = _ref_wedge_single if isinstance(e, Wedge) else _ref_sym_single
    return _ref_graded_power(n, _ref_normalize(e.child), e.power, single)


def _atoms(n):
    return st.one_of(
        st.builds(o, st.integers(-4, 4), st.just(n)),
        st.just(tangent(n)),
        st.builds(omega, st.integers(1, n), st.just(n)),
    )


def _sums(parts, n):
    def build(children, mults):
        if len(children) == 1 and mults[0] == 1:
            return children[0]
        return DirectSum(n, tuple(children), tuple(mults[: len(children)]))

    mults = st.lists(st.integers(1, 3), min_size=3, max_size=3)
    return st.builds(build, st.lists(parts, min_size=1, max_size=3), mults)


def _power_bases(n):
    fundamentals = st.one_of(
        st.builds(o, st.integers(-4, 4), st.just(n)), st.just(tangent(n)), st.just(omega(1, n))
    )
    return _sums(fundamentals, n)


def _expressions(n, depth):
    """Depth-`depth` trees; a node below the root may also be an atom."""
    if depth == 0:
        return _atoms(n)
    sub = st.one_of(_atoms(n), _expressions(n, depth - 1))
    # a wedge/sym of an arbitrary subexpression can leave the supported classes
    bases = st.one_of(_power_bases(n), _power_bases(n), sub)
    powers = st.sampled_from((2, 3, 1, 0))
    return st.one_of(
        st.builds(wedge, powers, bases),
        st.builds(sym, powers, bases),
        st.builds(tensor, sub, sub),
        _sums(sub, n),
        st.builds(dual, sub),
    )


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: _expressions(n, 3)))
def test_normal_form_matches_the_per_copy_reference(e):
    try:
        want = _ref_normalize(e)
    except UnsupportedPlethysm as exc:
        with pytest.raises(UnsupportedPlethysm) as err:
            _normalize_cached(e)
        assert str(err.value) == str(exc)
        return
    assert _normalize_cached(e) == _ref_terms(want)
    assert hrr_chi(e) == cohomology_table(e).euler_characteristic()
    assert serre_dual_check(e)


def _repeated_power_cases():
    """wedge^k and sym^k of m*X, alone and next to a second distinct summand."""
    for n in range(1, 5):
        xs = (tangent(n), omega(1, n), o(1, n), o(-2, n))
        seconds = (None, o(3, n), twist(tangent(n), -1))
        for x in xs:
            for second in seconds:
                for m in range(1, 5):
                    children, mults = (x,) if second is None else (x, second), (m, 1)
                    base = DirectSum(n, children, mults[: len(children)])
                    for k in range(7):
                        yield wedge(k, base)
                        yield sym(k, base)


def test_repeated_summand_powers_match_the_per_copy_reference():
    cases = list(_repeated_power_cases())
    assert len(cases) == 2688
    for e in cases:
        assert _normalize_cached(e) == _ref_terms(_ref_normalize(e)), e


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.builds(
            lambda power, k, children, mults: power(
                k, DirectSum(n, tuple(children), tuple(mults[: len(children)]))
            ),
            st.sampled_from((wedge, sym)),
            st.integers(0, 6),
            st.lists(
                st.one_of(
                    st.builds(o, st.integers(-4, 4), st.just(n)),
                    st.just(tangent(n)),
                    st.just(omega(1, n)),
                ),
                min_size=1,
                max_size=2,
            ),
            st.lists(st.integers(1, 4), min_size=2, max_size=2),
        )
    )
)
def test_powers_of_repeated_summands_match_the_per_copy_reference(e):
    assert _normalize_cached(e) == _ref_terms(_ref_normalize(e))
