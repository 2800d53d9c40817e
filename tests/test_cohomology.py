"""Cohomology engine against the closed-form oracle and duality."""

from __future__ import annotations

import random

import pytest

from pnsheaf import (
    InputError,
    IrreducibleBundle,
    cohomology_table,
    direct_sum,
    o,
    omega,
    tangent,
    tensor,
    wedge,
)
from pnsheaf.cohomology import _bott
from pnsheaf.weights import binom

from helpers import random_expression, twist
from oracles import bott_closed_form, serre_dual_check


def _omega_twisted(k: int, s: int, n: int):
    if k == 0:
        return o(s, n)
    return twist(omega(k, n), s)


# ---------------------------------------------------------------------------
# convention anchors


def test_sections_of_line_bundles():
    for n in range(1, 6):
        for d in range(0, 5):
            table = cohomology_table(o(d, n))
            assert table.dims[0] == binom(n + d, n)
            assert all(table.dims[p] == 0 for p in range(1, n + 1))


def test_canonical_bundle_top_cohomology():
    for n in range(1, 6):
        table = cohomology_table(o(-n - 1, n))
        assert table.dims[n] == 1
        assert all(table.dims[p] == 0 for p in range(n))


def test_intermediate_negative_twists_vanish_entirely():
    for n in range(1, 6):
        for d in range(-n, 0):
            assert not any(cohomology_table(o(d, n)).dims)


def test_tangent_bundle_global_sections():
    # dim PGL(n+1) = (n+1)^2 - 1
    for n in range(1, 5):
        table = cohomology_table(tangent(n))
        assert table.dims == ((n + 1) ** 2 - 1,) + (0,) * n


def test_cotangent_middle_cohomology():
    for n in range(1, 6):
        for k in range(1, n + 1):
            table = cohomology_table(omega(k, n))
            expected = tuple(1 if p == k else 0 for p in range(n + 1))
            assert table.dims == expected


def test_twisted_cotangent_examples():
    assert cohomology_table(_omega_twisted(1, 2, 2)).dims == (3, 0, 0)
    assert cohomology_table(_omega_twisted(1, -2, 2)).dims == (0, 0, 3)


# ---------------------------------------------------------------------------
# closed-form oracle


def test_closed_form_spot_values():
    assert bott_closed_form(1, 2, 2).dims == (3, 0, 0)
    assert bott_closed_form(2, 0, 2).dims == (0, 0, 1)
    assert bott_closed_form(1, -2, 2).dims == (0, 0, 3)
    assert bott_closed_form(0, 3, 3).dims == (20, 0, 0, 0)
    # Omega^3(-5) on P^3 is O(-9); h^3 = h^0(O(5)) by duality
    assert bott_closed_form(3, -5, 3).dims == (0, 0, 0, 56)


def test_closed_form_rejects_bad_power():
    with pytest.raises(InputError):
        bott_closed_form(4, 0, 3)


def test_engine_matches_closed_form_everywhere():
    for n in range(1, 7):
        for k in range(n + 1):
            for s in range(-12, 13):
                engine = cohomology_table(_omega_twisted(k, s, n))
                oracle = bott_closed_form(k, s, n)
                assert engine.dims == oracle.dims, (n, k, s)


# ---------------------------------------------------------------------------
# structure of the engine output


def test_each_summand_supports_one_degree():
    seed = 13131
    print(f"one-degree seed {seed}")
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randint(1, 5)
        lam = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
        lam = tuple(x - lam[-1] for x in lam)
        b = IrreducibleBundle(n, lam, rng.randint(-8, 8))
        group = _bott(b.ambient, b.lam, b.twist)
        if group is not None:
            degree, dim = group
            assert 0 <= degree <= n
            assert dim >= 1


def test_tables_add_over_direct_sums():
    e1 = tensor(omega(1, 3), o(-1, 3))
    e2 = o(2, 3)
    combined = cohomology_table(direct_sum(e1, e2))
    separate = [cohomology_table(e1), cohomology_table(e2)]
    assert combined.dims == tuple(
        a + b for a, b in zip(separate[0].dims, separate[1].dims)
    )


def test_zero_bundle_has_zero_table():
    assert not any(cohomology_table(wedge(5, tangent(4))).dims)


def test_contributions_account_for_every_dimension():
    table = cohomology_table(tensor(tangent(3), omega(1, 3)))
    totals = [0] * 4
    for c in table.contributions:
        totals[c.degree] += c.multiplicity * c.dim
    assert tuple(totals) == table.dims


def test_euler_characteristic_is_alternating_sum():
    table = cohomology_table(tensor(omega(1, 2), o(-2, 2)))
    assert table.dims == (0, 0, 3)
    assert table.euler_characteristic() == 3


# ---------------------------------------------------------------------------
# duality


def test_duality_for_line_bundles():
    for n in range(1, 5):
        for d in range(-6, 7):
            assert serre_dual_check(o(d, n))


def test_duality_for_twisted_cotangent_powers():
    for n in range(1, 5):
        for k in range(n + 1):
            for s in range(-4, 5):
                assert serre_dual_check(_omega_twisted(k, s, n))


def test_duality_on_random_expressions():
    seed = 321321
    print(f"duality seed {seed}")
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(1, 4)
        e = random_expression(rng, n)
        assert serre_dual_check(e)
