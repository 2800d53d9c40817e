"""Acceptance suite: the nine binding criteria, each with exact tolerances.

Every test prints a single PASS/FAIL line for its criterion.  All
comparisons are exact (integer or rational equality); there are no numeric
tolerances anywhere.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction

from pnsheaf import (
    FAIL,
    HOLD,
    Poly,
    check_split_distribution,
    cohomology_table,
    direct_sum,
    endomorphism_space_dim,
    hrr_chi,
    ideal_presentation,
    log_form,
    o,
    omega,
    parse_poly,
    porteous_class,
    random_pencil_form,
    singular_scheme,
    tangent,
    tensor,
    vanishing_section_space,
    wedge,
)
from pnsheaf.polyideal import monomials_of_degree

from helpers import random_expression, section_space_contains, twist
from oracles import (
    bott_closed_form,
    membership_on_charts,
    normal_form,
    s_polynomial,
    serre_dual_check,
)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description}")


def _omega_twisted(k: int, s: int, n: int):
    return o(s, n) if k == 0 else twist(omega(k, n), s)


# ---------------------------------------------------------------------------
# 1. engine vs closed form, exhaustively


def test_criterion_1_engine_matches_closed_form():
    with criterion(1, "engine equals the closed form on every h^p for "
                      "1 <= n <= 6, 0 <= k <= n, -12 <= s <= 12 (exact)"):
        cases = 0
        for n in range(1, 7):
            for k in range(n + 1):
                for s in range(-12, 13):
                    engine = cohomology_table(_omega_twisted(k, s, n))
                    oracle = bott_closed_form(k, s, n)
                    assert engine.dims == oracle.dims, (n, k, s)
                    cases += 1
        assert cases == 675
        print(f"checked {cases} (n, k, s) tables")


# ---------------------------------------------------------------------------
# 2. the endomorphism line and the chase


def test_criterion_2_endomorphism_line_and_chase():
    with criterion(2, "h^0(wedge^k T (x) Omega^k) = 1 and the Euler chase is "
                      "dimension 1 at every step, 0 <= k <= n <= 6 (exact)"):
        for n in range(0, 7):
            for k in range(n + 1):
                assert endomorphism_space_dim(k, n) == 1, (k, n)
                if n == 0:
                    continue
                # H^i(wedge^(k-i) T (x) Omega^k), i = 0..k, linked by the
                # connecting maps of the wedge-power Euler sequences, whose
                # middle terms Omega^k(j) have no H^i or H^(i+1)
                for i in range(k + 1):
                    step = cohomology_table(tensor(wedge(k - i, tangent(n)), omega(k, n)))
                    assert step.dims[i] == 1, (k, n, i)
                for i in range(k):
                    middle = cohomology_table(tensor(omega(k, n), o(k - i, n)))
                    assert middle.dims[i] == middle.dims[i + 1] == 0, (k, n, i)


# ---------------------------------------------------------------------------
# 3. split-bundle vanishing fixtures


SPLIT_FIXTURES = [
    (3, 2, (-1, -1)),
    (3, 2, (-2, -2)),
    (3, 2, (-1, -2)),
    (3, 1, (-2,)),
    (3, 1, (-3,)),
    (4, 2, (-2, -2)),
    (4, 2, (-3, -2)),
    (4, 3, (-1, -1, -1)),
    (4, 3, (-2, -1, -1)),
    (4, 1, (-3,)),
    (5, 2, (-3, -3)),
    (5, 3, (-2, -2, -2)),
    (5, 4, (-1, -1, -1, -1)),
    (5, 4, (-2, -1, -1, -1)),
    (5, 1, (-4,)),
    (6, 3, (-3, -3, -3)),
    (6, 4, (-2, -2, -2, -2)),
    (6, 5, (-1, -1, -1, -1, -1)),
    (6, 2, (-4, -4)),
    (6, 5, (-2, -2, -1, -1, -1)),
]


def test_criterion_3_split_fixtures_hold_and_counterexample_fails():
    with criterion(3, "20 split fixtures meeting an ampleness condition have "
                      "every group vanish; the O(0)(+)O(1) type fails (exact)"):
        assert len(SPLIT_FIXTURES) == 20
        for n, k, degrees in SPLIT_FIXTURES:
            report = check_split_distribution(n, k, degrees)
            assert any(c.ok for c in report.conditions), (n, k, degrees)
            assert all(g.dim == 0 for g in report.groups), (n, k, degrees)
            assert report.verdict == HOLD, (n, k, degrees)
        counter = check_split_distribution(3, 2, (0, 1))
        assert counter.verdict == FAIL
        print(f"all {len(SPLIT_FIXTURES)} fixtures hold; counterexample fails")


# ---------------------------------------------------------------------------
# 4. proof-step vanishings for the codimension-one statement


def test_criterion_4_codim1_proof_vanishings():
    with criterion(4, "H^i(Omega^1 (x) wedge^(i+1)T (x) O(-i*r)) = 0 for "
                      "1 <= i <= n-1, 2 <= n <= 6, n+2 <= r <= n+6 (exact)"):
        checked = 0
        for n in range(2, 7):
            for r in range(n + 2, n + 7):
                for i in range(1, n):
                    e = tensor(
                        tensor(omega(1, n), wedge(i + 1, tangent(n))), o(-i * r, n)
                    )
                    assert cohomology_table(e).dims[i] == 0, (n, r, i)
                    checked += 1
        print(f"checked {checked} groups")


# ---------------------------------------------------------------------------
# 5. duality and Riemann-Roch on random expressions


def test_criterion_5_duality_and_riemann_roch_properties():
    seed = 20250825
    with criterion(5, "Serre duality and chi-by-Riemann-Roch hold on 100 "
                      "seeded random expressions per n in {2, 3, 4} (exact)"):
        print(f"property seed {seed}")
        rng = random.Random(seed)
        for n in (2, 3, 4):
            for _ in range(100):
                e = random_expression(rng, n)
                assert serre_dual_check(e)
                assert hrr_chi(e) == cohomology_table(e).euler_characteristic()


# ---------------------------------------------------------------------------
# 6. degeneracy-locus classes


def test_criterion_6_degeneracy_locus_fixtures():
    with criterion(6, "expected codimension is e-g+1 on all fixtures; the two "
                      "frozen geometric loci have dimensions 2 and 3 and "
                      "degrees 4 and 7 (exact)"):
        fixtures = [
            (direct_sum(o(0, 2), o(0, 2)), o(1, 2)),
            (direct_sum(*[o(1, 3)] * 3), o(3, 3)),
            (tangent(4), direct_sum(*[o(2, 4)] * 3)),
            (tangent(5), direct_sum(*[o(2, 5)] * 4)),
        ]
        from pnsheaf import rank

        for E, G in fixtures:
            res = porteous_class(E, G)
            assert res.codim == rank(E) - rank(G) + 1, (E, G)

        castelnuovo = porteous_class(tangent(4), direct_sum(*[o(2, 4)] * 3))
        assert castelnuovo.ambient - castelnuovo.codim == 2
        assert castelnuovo.degree == 4
        palatini = porteous_class(tangent(5), direct_sum(*[o(2, 5)] * 4))
        assert palatini.ambient - palatini.codim == 3
        assert palatini.degree == 7


# ---------------------------------------------------------------------------
# 7. non-uniqueness for three general linear forms


def test_criterion_7_log_form_family_is_not_unique():
    with criterion(7, "three general linear forms on P^2 and P^3 give section "
                      "spaces of dimension >= 2 containing the weighted "
                      "family (exact)"):
        fixtures = [
            (2, [parse_poly("x0", 3), parse_poly("x1", 3), parse_poly("x0 + x1 + x2", 3)]),
            (3, [parse_poly("x0", 4), parse_poly("x1 + x3", 4), parse_poly("x2 - x3", 4)]),
        ]
        for n, forms in fixtures:
            base = log_form(forms, (1, 1, -2))
            scheme = singular_scheme(base)
            space = vanishing_section_space(n, base.twist, scheme)
            assert space.dim >= 2, (n, space.dim)
            for lam in [(1, 1, -2), (1, -2, 1), (-2, 1, 1), (3, -1, -2)]:
                member = log_form(forms, lam)
                assert section_space_contains(space, member), (n, lam)
            print(f"P^{n}: section space dimension {space.dim}")


# ---------------------------------------------------------------------------
# 8. uniqueness for certified pencils


PENCIL_SEEDS = (7, 11, 23, 31, 42)


def test_criterion_8_certified_pencils_are_determined():
    with criterion(8, "5 seeded twist-4 pencils on P^2 with certified "
                      "zero-dimensional singular scheme have section space "
                      "dimension exactly 1"):
        for seed in PENCIL_SEEDS:
            w = random_pencil_form(2, 2, seed)
            assert w.twist == 4
            scheme = singular_scheme(w)
            assert scheme.dimension == 0, seed  # certification, not assumption
            space = vanishing_section_space(2, 4, scheme)
            assert space.dim == 1, (seed, space.dim)
            assert section_space_contains(space, w), seed
        print(f"seeds {PENCIL_SEEDS}")


# ---------------------------------------------------------------------------
# 9. Groebner soundness


def _ideal_fixtures() -> list[list[Poly]]:
    coordinate_log = log_form(
        [Poly.variable(i, 3) for i in range(3)], (1, 1, -2)
    )
    pencil = random_pencil_form(2, 2, 7)
    return [
        [parse_poly("x0*x2 - x1^2", 4), parse_poly("x1*x3 - x2^2", 4),
         parse_poly("x0*x3 - x1*x2", 4)],                      # twisted cubic
        [parse_poly("x0*x2 - x1^2", 3)],                       # plane conic
        [parse_poly("x0", 3), parse_poly("x1", 3)],            # one point
        [c for c in coordinate_log.coeffs if c],               # 3 points
        [c for c in pencil.coeffs if c],                       # pencil scheme
        [parse_poly("x0^2", 3), parse_poly("x0*x1", 3)],       # non-reduced
    ]


def test_criterion_9_groebner_soundness():
    seed = 777
    with criterion(9, "every S-polynomial of every chart basis reduces to "
                      "zero; membership accepts all generators and 50 random "
                      "combinations per fixture (exact)"):
        print(f"combination seed {seed}")
        rng = random.Random(seed)
        for gens in _ideal_fixtures():
            ideal = ideal_presentation(gens)
            for basis in ideal.charts:
                for i in range(len(basis)):
                    for j in range(i + 1, len(basis)):
                        rem = normal_form(s_polynomial(basis[i], basis[j]), basis)
                        assert not rem, (gens, i, j)
            for g in gens:
                assert membership_on_charts(g, ideal), g
            nvars = ideal.nvars
            for _ in range(50):
                spread = rng.randint(0, 1)
                target = max(g.degree() for g in gens) + spread
                combo = Poly.zero(nvars)
                for g in gens:
                    d = target - g.degree()
                    if d < 0:
                        continue
                    mult = Poly.zero(nvars)
                    for expo in monomials_of_degree(nvars, d):
                        mult = mult + Poly(nvars, {expo: Fraction(rng.randint(-3, 3))})
                    combo = combo + mult * g
                assert combo.is_homogeneous()
                assert membership_on_charts(combo, ideal)
