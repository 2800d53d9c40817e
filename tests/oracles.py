"""Reference computations that only the tests compare the calculator against.

Each is independent of the path the CLI runs, so it can be an oracle for it:
Bott's closed form for Omega^k(s) and Serre duality against the cohomology
engine, the sort-and-count dotted Weyl action against the closed form the
engine uses, and division, S-polynomials and chart membership against the
Groebner bases and section spaces.  The bodies are the library's former
ones, unchanged except that ``unit_ideal`` builds 1 with ``Poly.constant``.
It needs the standard library and pnsheaf only, so the plain-script tests
can import it.
"""

from __future__ import annotations

from bisect import bisect_right, insort

from pnsheaf import (
    BundleExpr,
    CohomologyTable,
    IdealPresentation,
    InputError,
    Poly,
    cohomology_table,
    dual,
    o,
    omega,
    tensor,
)
from pnsheaf.polyideal import (
    _BITS,
    _divide,
    _lcm_key,
    _raw,
    _reducer,
    _reducers,
    _s_pair,
    _top_bits,
)
from pnsheaf.weights import binom

# ---------------------------------------------------------------------------
# cohomology


def bott_closed_form(k: int, s: int, n: int) -> CohomologyTable:
    """Closed-form table for Omega^k(s) on P^n; independent of the engine.

    h^0 = C(s+n-k, s) * C(s-1, k)        if 0 <= k <= n and s > k
    h^k = 1                               if 0 <= k = p <= n and s = 0
    h^n = C(-s+k, -s) * C(-s-1, n-k)      if 0 <= k <= n and s < k - n
    and every other group is zero.
    """
    if not 0 <= k <= n:
        raise InputError(f"Omega^{k} is not a bundle on P^{n}")
    dims = [0] * (n + 1)
    if s > k:
        dims[0] = binom(s + n - k, s) * binom(s - 1, k)
    elif s == 0:
        dims[k] = 1
    elif s < k - n:
        dims[n] = binom(-s + k, -s) * binom(-s - 1, n - k)
    expr = omega(k, n) if s == 0 else tensor(omega(k, n), o(s, n))
    if k == 0:
        expr = o(s, n)
    return CohomologyTable(n, tuple(dims), expr)


def serre_dual_check(e: BundleExpr) -> bool:
    """h^i(E) == h^(n-i)(E* (x) O(-n-1)) for every i."""
    n = e.ambient
    left = cohomology_table(e)
    right = cohomology_table(tensor(dual(e), o(-n - 1, n)))
    return all(left.dims[i] == right.dims[n - i] for i in range(n + 1))


# ---------------------------------------------------------------------------
# weights


def dotted_weyl_reduce(
    w: tuple[int, ...], rho: tuple[int, ...]
) -> tuple[int, tuple[int, ...]] | None:
    """Sort w + rho strictly decreasing, counting the swaps.

    Returns (inversions, sorted - rho), or None when w + rho has a repeated
    entry.
    """
    if len(w) != len(rho):
        raise InputError(f"length mismatch: {w} vs rho {rho}")
    shifted = tuple(a + b for a, b in zip(w, rho))
    if len(set(shifted)) < len(shifted):
        return None
    # pairs i < j with shifted[i] < shifted[j], counted from the right
    inversions, seen = 0, []
    for x in reversed(shifted):
        inversions += len(seen) - bisect_right(seen, x)
        insort(seen, x)
    ordered = sorted(shifted, reverse=True)
    return inversions, tuple(a - b for a, b in zip(ordered, rho))


def rho_weight(n_amb: int) -> tuple[int, ...]:
    """The staircase (N-1, N-2, ..., 0) used by the dotted Weyl action."""
    return tuple(range(n_amb - 1, -1, -1))


# ---------------------------------------------------------------------------
# polynomials


def monomial_key(expo: tuple[int, ...]):
    """Sort key: larger key = larger monomial in degrevlex."""
    return (sum(expo), tuple(-e for e in reversed(expo)))


def normal_form(f: Poly, basis) -> Poly:
    """Remainder of f under multivariate division by an ordered basis."""
    rem, scale = _divide(f._terms, _reducers(basis, f.nvars), f.nvars)
    return Poly._of(f.nvars, rem, f._den * scale)


def s_polynomial(f: Poly, g: Poly) -> Poly:
    """(L / lt(f)) * f - (L / lt(g)) * g, L the lcm of the leading monomials."""
    f._match(g)
    nvars = f.nvars
    span = _BITS * nvars
    lcm_key = _lcm_key(_raw(f._lead(), span), _raw(g._lead(), span), span, _top_bits(nvars))
    # it does not change when f or g is scaled, so take their primitive reducers
    return Poly._of(nvars, *_s_pair(_reducer(f._terms, nvars), _reducer(g._terms, nvars), lcm_key))


def unit_ideal(nvars: int) -> IdealPresentation:
    one = Poly.constant(1, nvars)
    return IdealPresentation(
        nvars, (one,), tuple((Poly.constant(1, nvars - 1),) for _ in range(nvars))
    )


def membership_on_charts(f: Poly, ideal: IdealPresentation) -> bool:
    """True when f reduces to zero on every chart; this tests membership in
    the saturation of the generated ideal, which is the right notion for
    subschemes of projective space."""
    if f.nvars != ideal.nvars:
        raise InputError("polynomial and ideal over different variable counts")
    if not f.is_homogeneous():
        raise InputError(f"membership test needs a homogeneous polynomial, got {f}")
    for i in range(ideal.nvars):
        if normal_form(f.dehomogenize(i), ideal.charts[i]):
            return False
    return True
