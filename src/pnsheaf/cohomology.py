"""Sheaf cohomology of homogeneous bundle expressions on P^n.

The engine runs one sort-and-count reduction per irreducible summand: append
minus the twist to the weight, add the staircase rho = (n, ..., 1, 0), and
either hit a repeated entry (no cohomology at all) or sort and count swaps
(one nonzero group, in that degree, of Weyl dimension).  The classical
closed form for twisted p-forms is kept alongside as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .bundles import (
    BundleExpr,
    IrreducibleBundle,
    dual,
    normalize,
    o,
    omega,
    tensor,
)
from .errors import InputError
from .weights import binom, dotted_weyl_reduce, rho_weight, weyl_dim


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
    n = b.ambient
    seq = b.lam + (-b.twist,)
    res = dotted_weyl_reduce(seq, rho_weight(n + 1))
    if res is None:
        return None
    inversions, reduced = res
    return BWBGroup(inversions, weyl_dim(reduced, n + 1))


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
