"""Chern/Todd/Riemann-Roch arithmetic and degeneracy classes."""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from pnsheaf import (
    ChowClass,
    ConsistencyError,
    InputError,
    ScaleExceeded,
    chern_character,
    cohomology_table,
    direct_sum,
    hrr_chi,
    hyperplane_power,
    o,
    omega,
    porteous_class,
    sym,
    tangent,
    tensor,
    todd_class,
    total_chern,
)
from pnsheaf.bundles import _normalize_cached
from pnsheaf.chow import (
    MAX_CHOW_AMBIENT,
    _ch_schur_q,
    _chern_classes,
    _difference_classes,
    _skew_dims,
)
from pnsheaf.weights import binom, weyl_dim

from helpers import random_expression, weights_in_box
from oracles import series_power


def _fr(*values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


# Chow-ring arithmetic on plain coefficient tuples (1, h, ..., h^n)


def _unit(n: int) -> tuple[Fraction, ...]:
    return _fr(1, *[0] * n)


def _add(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _scale(c, a) -> tuple:
    return tuple(c * x for x in a)


def _mul(a, b) -> tuple:
    """The product truncated at h^n, n + 1 = len(a) = len(b)."""
    out = [Fraction(0)] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b[: len(a) - i]):
            out[i + j] += x * y
    return tuple(out)


# ---------------------------------------------------------------------------
# Chern character


def test_character_of_line_bundle_is_truncated_exponential():
    for n in range(1, 5):
        for d in range(-3, 4):
            ch = chern_character(o(d, n))
            expected = tuple(
                Fraction(d) ** i / math.factorial(i) for i in range(n + 1)
            )
            assert ch.coeffs == expected


def test_character_of_tangent_plane():
    assert chern_character(tangent(2)).coeffs == _fr(2, 3, Fraction(3, 2))


def test_character_is_additive_and_multiplicative():
    seed = 515151
    print(f"character ring seed {seed}")
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = random_expression(rng, n, depth=2)
        b = random_expression(rng, n, depth=2)
        cha, chb = chern_character(a), chern_character(b)
        assert chern_character(direct_sum(a, b)).coeffs == _add(cha.coeffs, chb.coeffs)
        assert chern_character(tensor(a, b)).coeffs == _mul(cha.coeffs, chb.coeffs)


def test_character_of_cotangent_powers_satisfies_euler_recursion():
    # 0 -> Omega^p -> O(-p)^C(n+1, p) -> Omega^(p-1) -> 0
    for n in range(1, 5):
        prev = _unit(n)
        for p in range(1, n + 1):
            middle = _scale(binom(n + 1, p), chern_character(o(-p, n)).coeffs)
            actual = chern_character(omega(p, n)).coeffs
            assert actual == _sub(middle, prev), (n, p)
            prev = actual


# ---------------------------------------------------------------------------
# Fraction reference: Jacobi-Trudi over coefficient tuples, Newton's
# identities over Fraction, Riemann-Roch as the full product ch * td


def _ref_line(d: int, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(d) ** i / math.factorial(i) for i in range(n + 1))


def _ref_sym_q(m: int, n: int) -> tuple[Fraction, ...]:
    if m < 0:
        return _fr(*[0] * (n + 1))
    if m == 0:
        return _unit(n)
    return _sub(_scale(binom(n + m, n), _unit(n)), _scale(binom(n + m - 1, n), _ref_line(-1, n)))


def _ref_det(mat: list[list[tuple]], n: int) -> tuple[Fraction, ...]:
    """Laplace expansion along the last row, memoised on column subsets."""
    zero = _fr(*[0] * (n + 1))
    memo = {0: _unit(n)}

    def minor(cols: int, row: int) -> tuple[Fraction, ...]:
        if cols not in memo:
            total, sign = zero, -1 if (row - 1) % 2 else 1
            for j in (j for j in range(len(mat)) if cols >> j & 1):
                term = _mul(mat[row - 1][j], minor(cols & ~(1 << j), row - 1))
                total = _add(total, term) if sign > 0 else _sub(total, term)
                sign = -sign
            memo[cols] = total
        return memo[cols]

    return minor((1 << len(mat)) - 1, len(mat))


def _ref_schur_q(lam: tuple[int, ...], n: int) -> tuple[Fraction, ...]:
    size = len(lam)
    return _ref_det([[_ref_sym_q(lam[i] - i + j, n) for j in range(size)] for i in range(size)], n)


def _ref_character(e) -> tuple[Fraction, ...]:
    n = e.ambient
    total = _fr(*[0] * (n + 1))
    for (lam, twist), mult in _normalize_cached(e):
        total = _add(total, _scale(mult, _mul(_ref_schur_q(lam, n), _ref_line(twist, n))))
    return total


def _ref_chern(ch: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    p = [c * math.factorial(i) for i, c in enumerate(ch)]
    c = [Fraction(1)]
    for k in range(1, len(p)):
        c.append(sum((-1) ** (i - 1) * c[k - i] * p[i] for i in range(1, k + 1)) / k)
    return tuple(c)


def test_schur_characters_match_fraction_reference():
    for n in range(1, 7):
        for lam in weights_in_box(n, 3):
            expected = _ref_schur_q(lam, n)
            p = _ch_schur_q(lam, n, 0)
            assert tuple(Fraction(pk, math.factorial(k)) for k, pk in enumerate(p)) == expected
            assert _chern_classes(p) == _ref_chern(expected), lam


def test_skew_dimensions_match_weyl_dimensions():
    # v_0 = s_lam(1^(n+1)) is a GL(n+1) dimension, and sum_j v_j = p_0 is the
    # rank of S_lam(Q), a GL(n) dimension
    for n in range(1, 13):
        for lam in weights_in_box(n, 3):
            v = _skew_dims(lam, n)
            assert len(v) == 1 + sum(1 for x in lam if x), lam
            assert v[0] == weyl_dim(lam + (0,), n + 1), lam
            assert sum(v) == weyl_dim(lam, n), lam


def test_character_chern_and_chi_match_fraction_reference():
    seed = 848484
    print(f"reference seed {seed}")
    rng = random.Random(seed)
    for i in range(48):
        n = rng.randint(1, 6) if i < 40 else 7 + i % 2
        e = random_expression(rng, n, depth=2)
        ch = _ref_character(e)
        assert chern_character(e).coeffs == ch, e
        assert total_chern(e).coeffs == _ref_chern(ch), e
        assert hrr_chi(e) == _mul(ch, todd_class(n).coeffs)[n], e


def test_power_sums_of_no_bundle_fail_the_integrality_check():
    # c_1 = p_1 = 1, then 2 c_2 = c_1 p_1 - p_2 = 1 is odd
    with pytest.raises(ConsistencyError, match="c_2 came out non-integral: 1/2"):
        _chern_classes((1, 1, 0))
    assert _chern_classes((2, 1, 1)) == (1, 1, 0)  # O (+) O(1)


# ---------------------------------------------------------------------------
# total Chern class


def test_total_chern_of_line_bundle():
    for n in range(1, 5):
        for d in range(-3, 4):
            c = total_chern(o(d, n))
            assert c.coeffs == (Fraction(1), Fraction(d)) + (Fraction(0),) * (n - 1)


def test_total_chern_of_tangent_is_binomial_row():
    for n in range(1, 6):
        c = total_chern(tangent(n))
        expected = tuple(Fraction(binom(n + 1, i)) for i in range(n + 1))
        assert c.coeffs == expected


def test_total_chern_of_cotangent_alternates_signs():
    c = total_chern(omega(1, 2))
    assert c.coeffs == _fr(1, -3, 3)


def test_chern_difference_inverts_correctly():
    seed = 626262
    print(f"difference seed {seed}")
    rng = random.Random(seed)
    for _ in range(30):
        n = rng.randint(1, 4)
        e = random_expression(rng, n, depth=2)
        g = random_expression(rng, n, depth=2)
        diff = _difference_classes(e, g)
        assert _mul(diff, total_chern(g).coeffs) == total_chern(e).coeffs


def test_chern_difference_matches_the_inverse_series_product():
    # the oracle is c(E) * c(G)^-1 over Fraction, the inverse by Miller's
    # recurrence; _difference_classes takes Newton's identities of p(E) - p(G)
    seed = 909090
    print(f"difference oracle seed {seed}")
    rng = random.Random(seed)
    for _ in range(600):
        n = rng.randint(1, 9)
        e = random_expression(rng, n)
        g = random_expression(rng, n)
        # Fractions: with int coefficients, a_0 ** -1 would be a float
        inverse = series_power([Fraction(c) for c in total_chern(g).coeffs], -1)
        assert _difference_classes(e, g) == _mul(total_chern(e).coeffs, inverse), (e, g)


# ---------------------------------------------------------------------------
# Todd class and Riemann-Roch


def test_todd_class_small_planes():
    assert todd_class(2).coeffs == _fr(1, Fraction(3, 2), 1)
    assert todd_class(3).coeffs == _fr(1, 2, Fraction(11, 6), 1)


def _ref_todd(n: int) -> tuple[Fraction, ...]:
    """(h / (1 - e^(-h)))^(n+1) as n + 1 products of one inverted series."""
    denom = [Fraction((-1) ** i, math.factorial(i + 1)) for i in range(n + 1)]
    inv = [Fraction(1)]
    for k in range(1, n + 1):
        inv.append(-sum(denom[j] * inv[k - j] for j in range(1, k + 1)))
    out = _unit(n)
    for _ in range(n + 1):
        out = _mul(out, tuple(inv))
    return out


def test_todd_class_matches_product_reference():
    for n in range(1, 21):
        assert todd_class(n).coeffs == _ref_todd(n), n


def test_large_characters_and_todd_classes_are_fast():
    # a 15 x 16 skew Jacobi-Trudi solve, and the Todd class at the bound
    todd_class.cache_clear()
    _skew_dims.cache_clear()
    start = time.perf_counter()
    c = total_chern(sym(20, omega(1, 16)))
    assert time.perf_counter() - start < 1.0
    # c_1(Sym^k E) = k rank(Sym^k E) c_1(E) / rank(E), and c_1(Omega^1) = -(n+1)
    assert c.coeffs[1] == -binom(35, 15) * 20 * 17 // 16
    start = time.perf_counter()
    td = todd_class(MAX_CHOW_AMBIENT)
    assert time.perf_counter() - start < 1.0
    assert td.coeffs[MAX_CHOW_AMBIENT] == 1  # chi(O) = 1


def test_chi_forms_no_fraction_chow_class_or_todd_class(monkeypatch):
    # n! chi is one integer dot product of the power sums and the chi row
    for name in ("fractions.Fraction", "pnsheaf.chow.ChowClass", "pnsheaf.chow.todd_class"):
        monkeypatch.setattr(name, lambda *args: pytest.fail(f"chi called {name}"))
    e = tensor(tangent(3), omega(2, 3))
    assert hrr_chi(e) == cohomology_table(e).euler_characteristic()


def test_chi_of_line_bundles_is_binomial():
    for n in range(1, 6):
        for d in range(0, 6):
            assert hrr_chi(o(d, n)) == binom(n + d, n)
        for d in range(-n, 0):
            assert hrr_chi(o(d, n)) == 0


def test_chi_of_tangent_plane():
    assert hrr_chi(tangent(2)) == 8


def test_chi_matches_cohomology_alternating_sum():
    seed = 737373
    print(f"chi seed {seed}")
    rng = random.Random(seed)
    for _ in range(50):
        n = rng.randint(1, 4)
        e = random_expression(rng, n)
        assert hrr_chi(e) == cohomology_table(e).euler_characteristic()


def test_chow_layer_runs_at_its_ambient_bound():
    n = MAX_CHOW_AMBIENT
    assert total_chern(o(1, n)).coeffs[:3] == _fr(1, 1, 0)
    assert chern_character(tangent(n)).coeffs[:2] == _fr(n, n + 1)


@pytest.mark.parametrize(
    "compute",
    [
        lambda n: chern_character(o(1, n)),
        lambda n: total_chern(tangent(n)),
        lambda n: todd_class(n),
        lambda n: hrr_chi(o(1, n)),
        lambda n: _difference_classes(tangent(n), o(1, n)),
        lambda n: porteous_class(tangent(n), o(1, n)),
    ],
)
def test_chow_layer_refuses_larger_ambients_before_it_starts(compute):
    for n in (MAX_CHOW_AMBIENT + 1, 1200):
        start = time.perf_counter()
        with pytest.raises(ScaleExceeded, match=f"on P\\^{n} is refused"):
            compute(n)
        assert time.perf_counter() - start < 1.0


def test_chern_character_runs_one_largest_skew_solve():
    # a single summand with 63 nonzero parts and entries of at most 125 bits:
    # work 20,297,466 <= 64^3 * 512
    c = total_chern(sym(2, omega(1, MAX_CHOW_AMBIENT)))
    assert c.coeffs[1] == -2 * 65 * (64 * 65 // 2) // 64


@pytest.mark.parametrize("compute", [chern_character, total_chern, hrr_chi])
def test_chern_character_refuses_large_skew_solves_before_they_start(compute, monkeypatch):
    # 11 distinct summands with 63 nonzero parts each: work 279,024,669
    monkeypatch.setattr("pnsheaf.chow._kernel", lambda rows, ncols: pytest.fail("a kernel started"))
    n = MAX_CHOW_AMBIENT
    start = time.perf_counter()
    with pytest.raises(ScaleExceeded, match="work 279024669 .* the bound is 134217728"):
        compute(tensor(sym(20, omega(1, n)), sym(10, tangent(n))))
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# degeneracy loci


def _oracle_porteous_degree(E, G) -> tuple[int, Fraction]:
    """Permutation-expansion determinant of the Chern-difference matrix."""
    n = E.ambient
    cG = list(total_chern(G).coeffs)
    cE = list(total_chern(E).coeffs)
    # series inverse of cE by direct convolution
    inv = [Fraction(0)] * (n + 1)
    inv[0] = Fraction(1)
    for i in range(1, n + 1):
        inv[i] = -sum(cE[j] * inv[i - j] for j in range(1, i + 1))
    diff = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            diff[i + j] += cG[i] * inv[j]

    from pnsheaf import rank

    size = rank(E) - rank(G) + 1

    def entry(i, j):
        m = 1 + j - i
        return diff[m] if 0 <= m <= n else Fraction(0)

    det = Fraction(0)
    for perm in itertools.permutations(range(size)):
        sign = 1
        for a in range(size):
            for b in range(a + 1, size):
                if perm[a] > perm[b]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(size):
            term *= entry(i, perm[i])
        det += term
    return size, det


def test_porteous_simplest_pencil():
    e = direct_sum(o(0, 2), o(0, 2))
    g = o(1, 2)
    res = porteous_class(e, g)
    assert res.codim == 2
    assert res.degree == 1
    assert res.within_ambient
    assert res.cls.coeffs == hyperplane_power(2, 2, 1).coeffs


def test_porteous_matches_permutation_oracle():
    fixtures = [
        (direct_sum(o(0, 2), o(0, 2)), o(1, 2)),
        (tangent(4), direct_sum(o(2, 4), o(2, 4), o(2, 4))),
        (tangent(5), direct_sum(*[o(2, 5)] * 4)),
        (direct_sum(*[o(1, 3)] * 3), o(3, 3)),
    ]
    for E, G in fixtures:
        res = porteous_class(E, G)
        size, det = _oracle_porteous_degree(E, G)
        assert res.codim == size
        assert Fraction(res.degree) == det


def test_porteous_frozen_geometry_fixtures():
    castelnuovo = porteous_class(tangent(4), direct_sum(*[o(2, 4)] * 3))
    assert castelnuovo.codim == 2
    assert castelnuovo.ambient - castelnuovo.codim == 2
    assert castelnuovo.degree == 4
    palatini = porteous_class(tangent(5), direct_sum(*[o(2, 5)] * 4))
    assert palatini.codim == 2
    assert palatini.ambient - palatini.codim == 3
    assert palatini.degree == 7


def test_porteous_excess_codimension_is_flagged():
    res = porteous_class(direct_sum(*[o(0, 2)] * 5), o(1, 2))
    assert res.codim == 5
    assert not res.within_ambient
    assert res.degree == 0
    assert res.cls.coeffs == (Fraction(0),) * 3


def test_porteous_rejects_rank_deficit():
    with pytest.raises(InputError):
        porteous_class(o(1, 3), direct_sum(o(0, 3), o(0, 3)))


# ---------------------------------------------------------------------------
# ring sanity


def test_chow_class_text():
    assert str(ChowClass(2, (1, 2, 0))) == "1 + 2*h"
    assert str(ChowClass(3, (0, 1, Fraction(-1, 2), 1))) == "h + -1/2*h^2 + h^3"
    assert str(hyperplane_power(2, 3)) == "0"


def test_chow_classes_keep_their_coefficient_types():
    # Chern and Porteous classes hold ints, equal to the Fractions they replace
    for cls in (total_chern(tangent(3)), porteous_class(tangent(4), direct_sum(*[o(2, 4)] * 3)).cls,
                hyperplane_power(3, 1, 5), ChowClass(2, (1, 2, 0))):
        assert {type(c) for c in cls.coeffs} == {int}, cls
        twin = ChowClass(cls.ambient, _fr(*cls.coeffs))
        assert (twin, hash(twin), str(twin)) == (cls, hash(cls), str(cls))
    assert [type(c) for c in ChowClass(1, (Fraction(1, 2), 1)).coeffs] == [Fraction, int]


def test_chow_class_length_validation():
    with pytest.raises(InputError):
        ChowClass(2, (Fraction(1), Fraction(1)))
