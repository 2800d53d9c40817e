"""Sheaf cohomology of homogeneous bundle expressions on P^n.

Bott's theorem in closed form, per irreducible summand S_lam(Q)(t): with
a_k = lam_k + n + 1 - k and x = -t, the summand has no cohomology when x is
some a_k, and otherwise one nonzero group, in degree #{k : a_k < x}, of
dimension rank(S_lam(Q)) * prod_k |a_k - x| / n! (the Weyl dimension of
the dotted-Weyl reduction of (lam, x), without sorting it).  The classical
closed form for twisted p-forms is kept alongside as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import groupby

from .bundles import (
    BundleExpr,
    IrreducibleBundle,
    dual,
    normalize,
    o,
    omega,
    tensor,
)
from .errors import ConsistencyError, InputError
from .weights import binom


@dataclass(frozen=True)
class BWBGroup:
    """The single nonzero cohomology group of an irreducible summand."""

    degree: int
    dim: int


@dataclass(frozen=True)
class Contribution:
    degree: int
    summand: IrreducibleBundle
    multiplicity: int
    dim: int


@dataclass(frozen=True)
class CohomologyTable:
    ambient: int
    dims: tuple[int, ...]
    expr: BundleExpr | None = None
    contributions: tuple[Contribution, ...] = field(default=())

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * d for p, d in enumerate(self.dims))

    def h(self, p: int) -> int:
        return self.dims[p] if 0 <= p <= self.ambient else 0

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)


@lru_cache(maxsize=None)
def bwb_cohomology(b: IrreducibleBundle) -> BWBGroup | None:
    """Cohomology of one summand; None when every group vanishes."""
    n, x = b.ambient, -b.twist
    # Over a run of L equal entries, the a's are the L consecutive integers
    # lo..lo+L-1, so prod |a - x| = L! * comb(top, L), and the L!'s turn n!
    # into the multinomial prod comb(rows so far, L).
    degree, num, den, rows = 0, 1, 1, 0
    for v, run in groupby(b.lam):
        length = len(list(run))
        rows += length
        lo = v + n + 1 - rows
        if x < lo:
            top = lo + length - 1 - x
        elif x >= lo + length:
            degree += length
            top = x - lo
        else:
            return None
        num *= math.comb(top, length)
        den *= math.comb(rows, length)
    num *= b.rank  # only a summand with cohomology pays its Weyl dimension
    if num % den:
        raise ConsistencyError(f"Bott's formula produced a non-integer for {b}")
    return BWBGroup(degree, num // den)


def cohomology_table(e: BundleExpr) -> CohomologyTable:
    """Full table (h^0, ..., h^n) of a normalizable expression."""
    n = e.ambient
    dims = [0] * (n + 1)
    contributions = []
    for b, mult in normalize(e).terms:
        g = bwb_cohomology(b)
        if g is None:
            continue
        dims[g.degree] += mult * g.dim
        contributions.append(Contribution(g.degree, b, mult, g.dim))
    contributions.sort(key=lambda c: (c.degree, c.summand.lam, c.summand.twist))
    return CohomologyTable(n, tuple(dims), e, tuple(contributions))


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
