"""Weight combinatorics: dimensions, products of Schur functors, sort-and-count."""

from __future__ import annotations

import random
import time
from itertools import combinations_with_replacement, product

import pytest

from pnsheaf import InputError, lr_product, weyl_dim
from pnsheaf.weights import (
    _lr_tableaux,
    _lr_terms,
    binom,
    conjugate,
    partitions,
    schur_dim,
)

from helpers import weights_in_box
from oracles import dotted_weyl_reduce, rho_weight


# ---------------------------------------------------------------------------
# independent oracle: Schur polynomials by explicit tableau enumeration


def _ssyt_weights(shape: tuple[int, ...], nvars: int):
    """Yield the content vector of every semistandard tableau of the shape.

    Rows weakly increase left to right, columns strictly increase top to
    bottom, entries lie in 1..nvars.  This is a deliberately naive
    enumeration, independent of the production algorithm.
    """
    rows = [r for r in shape if r > 0]
    if not rows:
        yield (0,) * nvars
        return

    tableau: list[list[int]] = [[] for _ in rows]

    def fill(r: int, c: int):
        if r == len(rows):
            weight = [0] * nvars
            for row in tableau:
                for value in row:
                    weight[value - 1] += 1
            yield tuple(weight)
            return
        if c == rows[r]:
            yield from fill(r + 1, 0)
            return
        lo = tableau[r][c - 1] if c > 0 else 1
        if r > 0 and c < rows[r - 1]:
            lo = max(lo, tableau[r - 1][c] + 1)
        for value in range(lo, nvars + 1):
            tableau[r].append(value)
            yield from fill(r, c + 1)
            tableau[r].pop()

    yield from fill(0, 0)


def _schur_monomials(shape: tuple[int, ...], nvars: int) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for weight in _ssyt_weights(shape, nvars):
        out[weight] = out.get(weight, 0) + 1
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _decompose_into_schur(poly: dict, nvars: int) -> dict[tuple[int, ...], int]:
    """Greedy expansion of a symmetric polynomial in the Schur basis."""
    work = dict(poly)
    out: dict[tuple[int, ...], int] = {}
    while True:
        support = [m for m, c in work.items() if c]
        if not support:
            return out
        lead = max(support)
        assert all(a >= b for a, b in zip(lead, lead[1:])), lead
        coeff = work[lead]
        out[lead] = coeff
        for mono, c in _schur_monomials(lead, nvars).items():
            work[mono] = work.get(mono, 0) - coeff * c
    return out


# ---------------------------------------------------------------------------
# dimensions


def test_weyl_dim_small_cases():
    assert weyl_dim((1, 0, 0), 3) == 3
    assert weyl_dim((1, 1, 0), 3) == 3
    assert weyl_dim((0, 0, 0), 3) == 1
    assert weyl_dim((2, 1, 0), 3) == 8
    assert weyl_dim((1, 1, 1), 3) == 1


def test_weyl_dim_symmetric_powers():
    for n_amb in range(2, 6):
        for d in range(6):
            mu = (d,) + (0,) * (n_amb - 1)
            assert weyl_dim(mu, n_amb) == binom(n_amb - 1 + d, d)


def test_weyl_dim_exterior_powers():
    for n_amb in range(2, 6):
        for k in range(n_amb + 1):
            mu = (1,) * k + (0,) * (n_amb - k)
            assert weyl_dim(mu, n_amb) == binom(n_amb, k)


def test_weyl_dim_shift_invariance():
    # adding a constant to every entry multiplies by a determinant character
    assert weyl_dim((3, 2, 1), 3) == weyl_dim((2, 1, 0), 3)
    assert weyl_dim((0, -1, -2), 3) == weyl_dim((2, 1, 0), 3)


def test_weyl_dim_on_a_large_ambient_is_fast():
    # the pairs of equal entries contribute nothing and are skipped, and a
    # pair of runs of equal entries costs as many factors as its shorter run
    start = time.perf_counter()
    assert weyl_dim((1,) + (0,) * 1200, 1201) == 1201
    assert weyl_dim((1, 1, 1) + (0,) * 298, 301) == binom(301, 3)
    assert weyl_dim((2, 1) + (0,) * 599, 601) == 2 * binom(602, 3)
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    assert weyl_dim((1,) + (0,) * 20000, 20001) == 20001
    assert weyl_dim((0,) * 20000 + (-1,), 20001) == 20001
    assert weyl_dim((2, 1) + (0,) * 19999, 20001) == 2 * binom(20002, 3)
    assert time.perf_counter() - start < 1.0


def test_schur_dim_is_the_padded_weyl_dim():
    for m in range(1, 6):
        for size in range(7):
            for nu in partitions(size, min(m, size), size):
                assert schur_dim(nu, m) == weyl_dim(nu + (0,) * (m - len(nu)), m), (nu, m)
    start = time.perf_counter()
    assert schur_dim((2,), 10**9) == binom(10**9 + 1, 2)
    assert schur_dim((1, 1, 1), 10**9) == binom(10**9, 3)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(InputError):
        schur_dim((1, 1, 1), 2)


def test_weyl_dim_length_mismatch():
    with pytest.raises(InputError):
        weyl_dim((1, 0), 3)


# ---------------------------------------------------------------------------
# products


def test_product_pieri_rule():
    assert lr_product((1, 0), (1, 0)) == (((2, 0), 1), ((1, 1), 1))


def test_product_identity():
    lam = (3, 1, 0)
    assert lr_product(lam, (0, 0, 0)) == ((lam, 1),)


def test_product_rejects_negative_entries():
    with pytest.raises(InputError):
        lr_product((1, -1), (1, 0))


def test_product_rejects_malformed_weights():
    # not weakly decreasing (either factor), negative, or of different lengths
    for lam, mu in [((1, 2), (1, 0)), ((1, 0), (0, 1)), ((0, -2), (1, 0)), ((1, 0), (1, 0, 0))]:
        with pytest.raises(InputError):
            lr_product(lam, mu)


def test_product_terms_sorted_descending():
    keys = [w for w, _ in lr_product((2, 1, 0), (2, 1, 0))]
    assert keys == sorted(keys, reverse=True)


def test_product_box_count_and_total_dimension():
    lam = (2, 1, 0)
    expansion = lr_product(lam, lam)
    assert all(sum(w) == 6 for w, _ in expansion)
    total = sum(m * weyl_dim(w, 3) for w, m in expansion)
    assert total == weyl_dim(lam, 3) ** 2 == 64


def test_product_matches_tableau_oracle():
    seed = 20240817
    print(f"schur oracle seed {seed}")
    rng = random.Random(seed)
    for _ in range(12):
        n_amb = rng.randint(2, 3)
        lam = tuple(sorted((rng.randint(0, 3) for _ in range(n_amb)), reverse=True))
        mu = tuple(sorted((rng.randint(0, 3) for _ in range(n_amb)), reverse=True))
        got = dict(lr_product(lam, mu))
        product = _poly_mul(_schur_monomials(lam, n_amb), _schur_monomials(mu, n_amb))
        want = _decompose_into_schur(product, n_amb)
        assert got == want, (lam, mu, got, want)


def test_product_symmetry_and_dim_multiplicativity_exhaustive():
    for n_amb in (2, 3):
        shapes = [tuple(p) for p in weights_in_box(n_amb, 4)]
        for lam, mu in combinations_with_replacement(shapes, 2):
            forward = lr_product(lam, mu)
            assert forward == lr_product(mu, lam)
            total = sum(m * weyl_dim(w, n_amb) for w, m in forward)
            assert total == weyl_dim(lam, n_amb) * weyl_dim(mu, n_amb), (lam, mu)


def test_pieri_rule_matches_the_tableau_enumeration():
    # every pair in the box N <= 6, sizes <= 6, where one factor is a column
    # 1^b (b = 0 is the zero weight), in both orders
    pairs = capped = 0
    for n_amb in range(7):
        shapes = [w for size in range(7) for w in partitions(size, n_amb, size)]
        for lam in shapes:
            for b in range(n_amb + 1):
                column = (1,) * b + (0,) * (n_amb - b)
                for left, right in ((lam, column), (column, lam)):
                    want = _lr_tableaux(left, right)
                    assert _lr_terms(left, right) == want, (left, right)
                    pairs += 1
                # the strip below lam's last nonzero row has more than N rows
                capped += sum(1 for x in lam if x) + b > n_amb
    assert pairs == 1348 and capped > 100


def test_pieri_rule_on_the_empty_weight():
    assert lr_product((), ()) == (((), 1),)


# ---------------------------------------------------------------------------
# sort-and-count reduction


def test_reduce_already_strict():
    assert dotted_weyl_reduce((0, 0, 0), (2, 1, 0)) == (0, (0, 0, 0))


def test_reduce_counts_transpositions():
    inversions, reduced = dotted_weyl_reduce((0, 0, 3), (2, 1, 0))
    assert inversions == 2
    assert reduced == (1, 1, 1)


def test_reduce_degenerate_carries_the_repeat():
    # (0, 1, 0) + rho = (2, 2, 0) repeats an entry
    assert dotted_weyl_reduce((0, 1, 0), (2, 1, 0)) is None


def test_reduce_length_mismatch():
    with pytest.raises(InputError):
        dotted_weyl_reduce((0, 0), (2, 1, 0))


def test_reduce_inversion_count_matches_sorting_permutation():
    seed = 424242
    print(f"inversion seed {seed}")
    rng = random.Random(seed)
    for _ in range(200):
        length = rng.randint(2, 6)
        w = tuple(rng.randint(-5, 5) for _ in range(length))
        rho = rho_weight(length)
        result = dotted_weyl_reduce(w, rho)
        dotted = tuple(a + b for a, b in zip(w, rho))
        if len(set(dotted)) < length:
            assert result is None
            continue
        inversions, reduced = result
        expected = sum(
            1
            for i in range(length)
            for j in range(i + 1, length)
            if dotted[i] < dotted[j]
        )
        assert inversions == expected
        assert tuple(x - r for x, r in zip(sorted(dotted, reverse=True), rho)) == reduced


def test_rho_weight_is_staircase():
    assert rho_weight(4) == (3, 2, 1, 0)
    assert rho_weight(1) == (0,)


def test_partitions_fill_the_box_once_each():
    for rows in range(5):
        for cols in range(5):
            for size in range(-1, rows * cols + 2):
                got = list(partitions(size, rows, cols))
                want = [
                    mu for mu in product(range(cols + 1), repeat=rows)
                    if sum(mu) == size and all(a >= b for a, b in zip(mu, mu[1:]))
                ]
                assert sorted(got) == sorted(want), (size, rows, cols)
                for mu in got:
                    nu = conjugate(mu, cols)
                    assert sum(nu) == size and conjugate(nu, rows) == mu
