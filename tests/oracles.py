"""Reference computations that only the tests compare the calculator against.

Each is independent of the path the CLI runs, so it can be an oracle for it:
Bott's closed form for Omega^k(s) and Serre duality against the cohomology
engine, the sort-and-count dotted Weyl action against the closed form the
engine uses, a Bareiss solve of the skew Jacobi-Trudi system and of the
Porteous determinant against the kernel vectors and Newton's identities of
the Chow ring, Miller's series power for the Todd class against its integer
Riemann-Roch row, and division, S-polynomials and chart membership against the
Groebner bases and section spaces.  The bodies are the library's former
ones, unchanged except that ``unit_ideal`` builds 1 with ``Poly.constant``.
It needs the standard library and pnsheaf only, so the plain-script tests
can import it.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from fractions import Fraction

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
    rank,
    tensor,
)
from pnsheaf.chow import _chern_classes, _power_sums
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
# Chow ring


def bareiss_solve(rows: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """det A and det(A) A^-1 c for the integer rows [A | c], which it
    overwrites, by Bareiss's fraction-free Gauss-Jordan elimination (Math.
    Comp. 22, 1968): after step k the pivot is a (k+1)-minor of A and every
    division by the previous pivot is exact.  A singular A gives (0, 0...)."""
    size, det, sign = len(rows), 1, 1
    for k in range(size):
        p = next((i for i in range(k, size) if rows[i][k]), None)
        if p is None:
            return 0, (0,) * size
        if p != k:
            rows[k], rows[p], sign = rows[p], rows[k], -sign
        pivot = rows[k]
        for i, row in enumerate(rows):
            if i != k:
                f, a = row[k], pivot[k]
                row[k + 1 :] = [(a * x - f * y) // det for x, y in zip(row[k + 1 :], pivot[k + 1 :])]
        det = pivot[k]
    return sign * det, tuple(sign * row[-1] for row in rows)


def skew_dims(lam: tuple[int, ...], n: int) -> tuple[int, ...]:
    """v_j = (-1)^j s_(lam/1^j)(1^(n+1)), j = 0..l, for the l nonzero parts of lam.

    With h_m = C(n+m, n), the skew Jacobi-Trudi determinant s_(lam/1^j) is the
    maximal minor without column j of N = [h_(lam_a - a + b - 1)], a l x (l+1)
    matrix (Macdonald, Symmetric Functions, I.(5.4)); so v spans the kernel of
    N = [c | A], and v = (det A, -det(A) A^-1 c).
    """
    lam = tuple(x for x in lam if x)
    size = len(lam)
    h = [[binom(n + lam[a] - a + b - 1, n) for b in range(size + 1)] for a in range(size)]
    det, x = bareiss_solve([row[1:] + row[:1] for row in h])
    return (det,) + tuple(-y for y in x)


def porteous_degree(E: BundleExpr, G: BundleExpr) -> int:
    """The determinant of the (e-g+1) x (e-g+1) matrix with (i, j) entry
    c_(1+j-i)(G - E), for e - g + 1 <= n, by one Bareiss solve; c(G - E)
    comes from Newton's identities of p(G) - p(E)."""
    codim = rank(E) - rank(G) + 1
    diff = _chern_classes(tuple(a - b for a, b in zip(_power_sums(G), _power_sums(E))))
    rows = [[diff[1 + j - i] if j + 1 >= i else 0 for j in range(codim)] + [0] for i in range(codim)]
    det, _ = bareiss_solve(rows)
    return det


def series_power(a: list[Fraction], m: int) -> list[Fraction]:
    """a^m truncated to len(a) terms, for a_0 != 0, by J. C. P. Miller's
    recurrence k a_0 b_k = sum_(i=1..k) ((m+1) i - k) a_i b_(k-i)
    (Knuth, TAOCP vol. 2, 4.7).  a holds Fractions, so every b_k is one."""
    b = [a[0] ** m]
    for k in range(1, len(a)):
        b.append(sum(((m + 1) * i - k) * a[i] * b[k - i] for i in range(1, k + 1)) / (k * a[0]))
    return b


def todd_series(n: int) -> tuple[Fraction, ...]:
    """td(P^n) = (h / (1 - e^(-h)))^(n+1), truncated at degree n, as the
    (-(n+1))-th power of (1 - e^(-h)) / h = sum_(i>=0) (-h)^i / (i+1)!."""
    series = [Fraction((-1) ** i, math.factorial(i + 1)) for i in range(n + 1)]
    return tuple(series_power(series, -(n + 1)))


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
