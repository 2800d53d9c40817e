"""Sheaf cohomology of homogeneous bundle expressions on P^n.

Bott's theorem in closed form, per irreducible summand S_lam(Q)(t): with
a_k = lam_k + n + 1 - k and x = -t, the summand has no cohomology when x is
some a_k, and otherwise one nonzero group, in degree #{k : a_k < x}, of
dimension rank(S_lam(Q)) * prod_k |a_k - x| / n! (the Weyl dimension of
the dotted-Weyl reduction of (lam, x), without sorting it).  An h-vector
is read straight off the engine's count map of (lam, twist) pairs, with one
cached Bott lookup (_bott) per summand.  A table reads its count map from the
normal-form cache; the public IrreducibleBundle and Contribution objects are
built from its groups, looked up again, only when its contributions are read.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from itertools import groupby

from ._record import record
from .bundles import BundleExpr, IrreducibleBundle, Terms, _normalize_cached
from .errors import ConsistencyError
from .weights import weyl_dim


@record
class Contribution:
    degree: int
    summand: IrreducibleBundle
    multiplicity: int
    dim: int


@record
class CohomologyTable:
    """(h^0, ..., h^n) of expr; reads its count map from the normal-form
    cache, and looks it up again only for contributions."""

    ambient: int
    dims: tuple[int, ...]
    expr: BundleExpr

    @cached_property
    def contributions(self) -> tuple[Contribution, ...]:
        """Each summand with cohomology, by (degree, lam, twist); built on first read."""
        n = self.ambient
        groups = sorted((group[0], lam, twist, mult, group[1])
                        for (lam, twist), mult in _normalize_cached(self.expr)
                        if (group := _bott(n, lam, twist)) is not None)
        return tuple(Contribution(degree, IrreducibleBundle(n, lam, twist), mult, dim)
                     for degree, lam, twist, mult, dim in groups)

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * d for p, d in enumerate(self.dims))


@lru_cache(maxsize=4096)  # a benchmark or golden request fills at most 744
def _bott(n: int, lam: tuple[int, ...], twist: int) -> tuple[int, int] | None:
    """(degree, dim) of the one nonzero group of S_lam(Q)(twist) on P^n, or None."""
    x = -twist
    # Over a run of L equal entries, the a's are the L consecutive integers
    # lo..lo+L-1, so prod |a - x| = L! * comb(top, L), and the L!'s turn n!
    # into the multinomial prod comb(rows so far, L).
    degree, num, den, rows = 0, 1, 1, 0
    for v, run in groupby(lam):
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
    num *= weyl_dim(lam, n)  # only a summand with cohomology pays its Weyl dimension
    if num % den:
        raise ConsistencyError(
            f"Bott's formula produced a non-integer for {IrreducibleBundle(n, lam, twist)}"
        )
    return degree, num // den


def _count_map_dims(n: int, terms: Terms, shift: int = 0) -> list[int]:
    """(h^0, ..., h^n) of a count map on P^n, its twists shifted, with no table."""
    dims = [0] * (n + 1)
    for (lam, twist), mult in terms:
        if (group := _bott(n, lam, twist + shift)) is not None:
            dims[group[0]] += mult * group[1]
    return dims


def cohomology_dims(e: BundleExpr) -> list[int]:
    """(h^0, ..., h^n) of a normalizable expression, building no table."""
    return _count_map_dims(e.ambient, _normalize_cached(e))


def cohomology_table(e: BundleExpr) -> CohomologyTable:
    """Full table (h^0, ..., h^n) of a normalizable expression.

    Reads the engine's normal form summand by summand, one Bott lookup
    each; no Contribution is built unless the contributions are read.
    """
    return CohomologyTable(e.ambient, tuple(cohomology_dims(e)), e)
