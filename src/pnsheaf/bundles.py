"""Homogeneous bundle expressions on P^n and their irreducible decompositions.

Every supported expression normalizes to a finite sum of summands
S_lam(Q) (x) O(d), where Q is the rank-n tautological quotient bundle,
lam is a weakly decreasing nonnegative weight of length n with last entry 0
(the determinant of Q is O(1) and gets absorbed into the twist), and d is an
integer.  The normal form is what the cohomology and Chow modules consume.

Inside this module a normal form is a count map {(lam, twist): multiplicity}
of plain tuples and ints.  Tensor products, sums, duals and wedge/sym powers
(m copies of a summand at once, by the Cauchy identities) all work on count
maps; _normalize_cached keeps one per expression node, frozen into an
immutable tuple of ((lam, twist), multiplicity) pairs, ascending by
(lam, twist).  Ranks, determinants, cohomology tables and Chern characters
read that tuple directly; a validated IrreducibleBundle is built only where
a result or a message names a summand.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._record import record
from .errors import ConsistencyError, InputError, ScaleExceeded, UnsupportedPlethysm
from .weights import conjugate, lr_product, partitions, schur_dim, weyl_dim

# A wedge/sym power is refused when its expansion would take more than this
# many steps (tensor steps and partitions; see _graded_power).
MAX_POWER_STEPS = 10**6

# A wedge/sym power is refused when a lower bound on its rank, which bounds
# every multiplicity in it, is above 10 to this power; the ranks let through
# stay below 10^2500 (Python prints ints of at most 4300 digits).
MAX_RANK_DIGITS = 1000

# Expressions on P^n with n above this are refused before any weight is built.
MAX_AMBIENT = 10**5

# CPython turns no int of more than 4,300 digits into text (its default
# int-to-str limit); an int of at most 14,284 bits has at most 4,300 digits
MAX_OUTPUT_BITS = 14_284

# A normal form as the engine keeps it: ((lam, twist), multiplicity) pairs,
# ascending by (lam, twist), every multiplicity positive.
Terms = tuple[tuple[tuple[tuple[int, ...], int], int], ...]


# ---------------------------------------------------------------------------
# expression AST


@record
class BundleExpr:
    """Base node; ambient is the n of P^n and is shared by the whole tree."""

    ambient: int

    def __str__(self):
        from .grammar import render_expression  # grammar imports this module

        return render_expression(self)

    def __post_init__(self):
        if self.ambient < 1:
            raise InputError(f"ambient projective space P^{self.ambient} is not supported")
        if self.ambient > MAX_AMBIENT:
            raise ScaleExceeded(
                f"bundle expressions on P^{self.ambient} are refused; the bound is P^{MAX_AMBIENT}"
            )

    def _check_children(self, *children: "BundleExpr"):
        for c in children:
            if c.ambient != self.ambient:
                raise InputError(
                    f"mixed ambients: P^{self.ambient} vs P^{c.ambient} in one expression"
                )


@record
class LineBundle(BundleExpr):
    degree: int


@record
class Tangent(BundleExpr):
    pass


@record
class Cotangent(BundleExpr):
    """The sheaf of p-forms, 1 <= p <= n."""

    power: int

    def __post_init__(self):
        BundleExpr.__post_init__(self)
        if not 1 <= self.power <= self.ambient:
            raise InputError(
                f"Omega^{self.power} is not a bundle on P^{self.ambient}; need 1 <= p <= n"
            )


@record
class Dual(BundleExpr):
    child: BundleExpr

    def __post_init__(self):
        BundleExpr.__post_init__(self)
        self._check_children(self.child)


@record
class Tensor(BundleExpr):
    left: BundleExpr
    right: BundleExpr

    def __post_init__(self):
        BundleExpr.__post_init__(self)
        self._check_children(self.left, self.right)


@record
class DirectSum(BundleExpr):
    children: tuple[BundleExpr, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        BundleExpr.__post_init__(self)
        if not self.children:
            raise InputError("direct sum needs at least one child")
        if len(self.children) != len(self.multiplicities):
            raise InputError("direct sum children and multiplicities differ in length")
        if any(m < 1 for m in self.multiplicities):
            raise InputError("direct sum multiplicities must be positive")
        self._check_children(*self.children)


@record
class _Power(BundleExpr):
    """Wedge or Sym: the power-th exterior or symmetric power of child."""

    power: int
    child: BundleExpr

    def __post_init__(self):
        BundleExpr.__post_init__(self)
        if self.power < 0:
            raise InputError(f"{type(self).__name__.lower()} power must be nonnegative")
        self._check_children(self.child)


@record
class Wedge(_Power):
    pass


@record
class Sym(_Power):
    pass


# convenience constructors ---------------------------------------------------


def o(degree: int, n: int) -> LineBundle:
    return LineBundle(n, degree)


def tangent(n: int) -> Tangent:
    return Tangent(n)


def omega(p: int, n: int) -> BundleExpr:
    """Omega^p as an expression; p = 0 collapses to the trivial line bundle."""
    if p == 0:
        return LineBundle(n, 0)
    return Cotangent(n, p)


def dual(e: BundleExpr) -> Dual:
    return Dual(e.ambient, e)


def tensor(*exprs: BundleExpr) -> BundleExpr:
    if not exprs:
        raise InputError("tensor of nothing")
    out = exprs[0]
    for e in exprs[1:]:
        out = Tensor(out.ambient, out, e)
    return out


def direct_sum(*exprs: BundleExpr) -> BundleExpr:
    """Associative sum in the same flattened shape the parser produces."""
    if not exprs:
        raise InputError("direct sum of nothing")
    children: list[BundleExpr] = []
    mults: list[int] = []
    for e in exprs:
        if isinstance(e, DirectSum):
            children.extend(e.children)
            mults.extend(e.multiplicities)
        else:
            children.append(e)
            mults.append(1)
    if len(children) == 1 and mults[0] == 1:
        return children[0]
    return DirectSum(exprs[0].ambient, tuple(children), tuple(mults))


def wedge(k: int, e: BundleExpr) -> Wedge:
    return Wedge(e.ambient, k, e)


def sym(k: int, e: BundleExpr) -> Sym:
    return Sym(e.ambient, k, e)


def split_bundle(degrees, n: int) -> BundleExpr:
    """Direct sum of line bundles with the given degrees."""
    degs = tuple(degrees)
    if not degs:
        raise InputError("split bundle needs at least one degree")
    return direct_sum(*[LineBundle(n, d) for d in degs])


# ---------------------------------------------------------------------------
# normal form


@record
class IrreducibleBundle:
    """S_lam(Q) (x) O(twist) with lam of length n, weakly decreasing, lam_n = 0."""

    ambient: int
    lam: tuple[int, ...]
    twist: int

    def __post_init__(self):
        if len(self.lam) != self.ambient:
            raise InputError(f"weight {self.lam} must have length {self.ambient}")
        for a, b in zip(self.lam, self.lam[1:]):
            if a < b:
                raise InputError(f"weight {self.lam} is not weakly decreasing")
        if self.lam and self.lam[-1] != 0:
            raise InputError(f"weight {self.lam} must be normalized to last entry 0")

    def is_line_bundle(self) -> bool:
        return all(x == 0 for x in self.lam)

    def __str__(self):
        if self.is_line_bundle():
            return f"O({self.twist})"
        body = "S(" + ",".join(str(x) for x in self.lam) + ")Q"
        if self.twist == 0:
            return body
        return f"{body}({self.twist})"


def _terms(acc: dict[tuple[tuple[int, ...], int], int]) -> Terms:
    return tuple(sorted(acc.items()))


def _line(n: int, d: int) -> Terms:
    return ((((0,) * n, d), 1),)


def _canon_summand(lam: tuple[int, ...], d: int) -> tuple[tuple[int, ...], int]:
    """Push det Q powers into the twist so the last entry of lam is 0."""
    low = lam[-1]
    if low:
        lam = tuple(x - low for x in lam)
        d += low
    return lam, d


@lru_cache(maxsize=512)  # a benchmark or golden request fills at most 125
def _normalize_cached(e: BundleExpr) -> Terms:
    n = e.ambient
    if isinstance(e, LineBundle):
        return _line(n, e.degree)
    if isinstance(e, Tangent):
        # Euler sequence: T = Q(1); on P^1 the weight itself collapses into the twist
        return ((_canon_summand((1,) + (0,) * (n - 1), 1), 1),)
    if isinstance(e, Cotangent):
        p = e.power
        return ((_canon_summand((1,) * (n - p) + (0,) * p, -p - 1), 1),)
    if isinstance(e, Dual):
        acc: dict = {}
        for (lam, d), mult in _normalize_cached(e.child):
            key = _canon_summand(*_dual_summand(lam, d))
            acc[key] = acc.get(key, 0) + mult
        return _terms(acc)
    if isinstance(e, DirectSum):
        acc = {}
        for child, cmult in zip(e.children, e.multiplicities):
            for key, mult in _normalize_cached(child):
                acc[key] = acc.get(key, 0) + cmult * mult
        return _terms(acc)
    if isinstance(e, Tensor):
        return _terms(_tensor_into({}, _normalize_cached(e.left), _normalize_cached(e.right)))
    if isinstance(e, _Power):
        return _graded_power(_normalize_cached(e.child), n, e.power, isinstance(e, Wedge))
    raise InputError(f"unknown expression node {type(e).__name__}")


def _dual_summand(lam: tuple[int, ...], d: int) -> tuple[tuple[int, ...], int]:
    """Dual of S_lam(Q) (x) O(d): reverse-complement lam, using det Q = O(1)."""
    top = lam[0] if lam else 0
    rev = tuple(top - x for x in reversed(lam))
    return rev, -d - top


def _tensor_into(acc: dict, a: Terms, b: Terms) -> dict:
    """Add the summands of a (x) b into acc, keyed by (lam, twist); return acc.

    A line-bundle factor (lam[0] == 0, so lam is all zeros) only shifts the
    twist of the other one.
    """
    for (lx, dx), mx in a:
        for (ly, dy), my in b:
            if not ly[0]:
                key = (lx, dx + dy)
                acc[key] = acc.get(key, 0) + mx * my
            elif not lx[0]:
                key = (ly, dx + dy)
                acc[key] = acc.get(key, 0) + mx * my
            else:
                for nu, c in lr_product(lx, ly):
                    key = _canon_summand(nu, dx + dy)
                    acc[key] = acc.get(key, 0) + mx * my * c
    return acc


# wedge/sym powers -------------------------------------------------------------
#
# Supported summand shapes (lam up to the det-twist normalization):
#   * (0,...,0)        -- line bundles
#   * (1,0,...,0)      -- twists of Q (covers T)
#   * (1,...,1,0)      -- twists of Q* (covers Omega^1)
# Everything else would be a genuine plethysm and is out of scope; the shape
# is checked before any expansion.


def _check_power_shapes(terms: Terms, n: int, is_wedge: bool) -> None:
    """UnsupportedPlethysm naming the first summand of terms that is not a line
    bundle or a twist of Q or Q*; a twist too long to print (above
    MAX_OUTPUT_BITS) is named by its bit length."""
    for (lam, d), _ in terms:
        if lam[0] and lam not in ((1,) + (0,) * (n - 1), (1,) * (n - 1) + (0,)):
            summand = (
                IrreducibleBundle(n, lam, d) if d.bit_length() <= MAX_OUTPUT_BITS
                else f"S({','.join(map(str, lam))})Q(a twist of {d.bit_length()} bits)"
            )
            raise UnsupportedPlethysm(
                f"{'wedge' if is_wedge else 'sym'}(2, {summand}) is outside the"
                " supported summand classes"
            )


def _copies_power(lam: tuple[int, ...], d: int, m: int, j: int, is_wedge: bool) -> Terms:
    """wedge^j or sym^j of m copies of a supported summand V = S_lam(Q) (x) O(d), unsorted.

    By the Cauchy identities (Macdonald, Symmetric Functions, I.4),
    Sym^j(V (x) C^m) = sum_mu S_mu V (x) S_mu C^m and wedge^j(V (x) C^m) =
    sum_mu S_mu V (x) S_mu' C^m over the partitions mu of j.  V of rank 1
    takes only mu = (j); S_mu(Q(d)) = S_mu Q (x) O(jd), and S_mu(Q*(d+1)),
    lam = (1,...,1,0), is the dual of S_mu(Q(-d-1)).
    """
    n = len(lam)
    if not lam[0]:
        mult = math.comb(m, j) if is_wedge else math.comb(m + j - 1, j)
        return (((lam, j * d), mult),) if mult else ()
    if m == 1:  # one copy: the only partition is (j) for sym, (1^j) for wedge
        nus = [(j,)] if j <= n or not is_wedge else []
    else:  # the GL(m) weights nu: mu for sym, mu' (at most n columns) for wedge
        nus = partitions(j, min(m, j), n) if is_wedge else partitions(j, min(n, m, j), j)
    acc: dict = {}
    for nu in nus:
        mu = conjugate(nu, n) if is_wedge else nu + (0,) * (n - len(nu))
        key = _canon_summand(*_dual_summand(mu, -(d + 1) * j) if lam[1] else (mu, j * d))
        acc[key] = acc.get(key, 0) + (schur_dim(nu, m) if m > 1 else 1)
    return tuple(acc.items())


def _graded_power(terms: Terms, n: int, k: int, is_wedge: bool) -> Terms:
    """wedge^k or sym^k of a normal form.

    The m copies of one summand expand at once (_copies_power); distinct
    summands combine by wedge^k(A + B) = sum_{i+j=k} wedge^i A (x) wedge^j B,
    and likewise for sym.  A wedge power above the rank is zero.  Refused
    before it starts above MAX_POWER_STEPS steps: D (k+1)(k+2)/2 tensor steps
    for D > 1 distinct summands, plus, per summand of multiplicity m > 1 that
    is not a line bundle, a bound on its partitions into r = min(n, m, k)
    parts: C(k+r-1, r-1) of degree k if D = 1, C(k+r, r) of degree <= k else.
    Refused first when the rank of the power, which bounds every multiplicity
    in it, is above 10^MAX_RANK_DIGITS by the bound C(a, b) >= (a / b)^b.
    """
    name = "wedge" if is_wedge else "sym"
    if k < 2:
        return _line(n, 0) if k == 0 else terms
    _check_power_shapes(terms, n, is_wedge)
    # every summand is now a line bundle (rank 1) or a twist of Q or Q* (rank n)
    size = sum(m * (n if lam[0] else 1) for (lam, _), m in terms)
    if not size or is_wedge and k > size:
        return ()
    distinct = len(terms)
    # the rank, C(top, k) = C(top, kk) >= (top / kk)^kk, bounds every multiplicity
    top = size if is_wedge else size + k - 1
    kk = min(k, top - k)
    if kk and kk > MAX_RANK_DIGITS / (math.log10(top) - math.log10(kk)):
        raise ScaleExceeded(f"{name}^{k} has rank above 10^{MAX_RANK_DIGITS}, the bound")
    steps = distinct * (k + 1) * (k + 2) // 2 if distinct > 1 else 0
    for (lam, _), m in terms:
        if lam[0] and m > 1:
            # partitions of k, or of every degree up to k, into at most r parts
            r = min(n, m, k)
            steps += math.comb(k + r, r) if distinct > 1 else math.comb(k + r - 1, r - 1)
    if steps > MAX_POWER_STEPS:
        raise ScaleExceeded(
            f"{name}^{k} of a sum of {sum(m for _, m in terms)} summands needs {steps}"
            f" expansion steps; the bound is {MAX_POWER_STEPS}"
        )
    if len(terms) == 1:
        (lam, d), m = terms[0]
        return tuple(sorted(_copies_power(lam, d, m, k, is_wedge)))
    # tail[j] is the degree-j power of the summands expanded so far; after
    # the last summand only degree k is needed
    tail: list[Terms] = [_line(n, 0)] + [()] * k
    for i, ((lam, d), m) in enumerate(terms):
        firsts = [_copies_power(lam, d, m, a, is_wedge) for a in range(k + 1)]
        powers = []
        for j in (k,) if i == distinct - 1 else range(k + 1):
            acc: dict = {}
            for a in range(j + 1):
                _tensor_into(acc, firsts[a], tail[j - a])
            powers.append(tuple(acc.items()))
        tail = powers
    return tuple(sorted(tail[-1]))


# ---------------------------------------------------------------------------
# rank and determinant


def rank(e: BundleExpr) -> int:
    """The rank of e; a tensor product's is its factors' product, formed without LR."""
    if isinstance(e, Tensor):
        return rank(e.left) * rank(e.right)
    return sum(mult * weyl_dim(lam, e.ambient) for (lam, _), mult in _normalize_cached(e))


def _map_ranks(E: BundleExpr, G: BundleExpr) -> tuple[int, int]:
    """Ranks e, g of a map E -> G, checked for a common ambient, g >= 1 and
    e >= g; a rank too long to print (above MAX_OUTPUT_BITS) is named by its
    bit length."""
    e, g = rank(E), rank(G)
    if E.ambient != G.ambient:
        raise InputError("E and G live on different ambients")
    if g < 1:
        raise InputError("G must have positive rank")
    if e < g:
        e_text, g_text = (
            str(r) if r.bit_length() <= MAX_OUTPUT_BITS else f"a rank of {r.bit_length()} bits"
            for r in (e, g)
        )
        raise InputError(f"need rank(E) >= rank(G); got {e_text} < {g_text}")
    return e, g


def det_bundle(e: BundleExpr) -> IrreducibleBundle:
    """Top exterior power as a line bundle O(d).

    Each summand S_lam(Q) (x) O(t) of rank r contributes |lam| * r / n + r * t
    to d (det Q = O(1), and the weight multiset of S_lam spreads |lam| * r
    evenly over the n coordinates).
    """
    n = e.ambient
    total = 0
    for (lam, t), mult in reversed(_normalize_cached(e)):
        r = weyl_dim(lam, n)
        boxes = sum(lam)
        if (boxes * r) % n:
            raise ConsistencyError(
                f"determinant exponent of {IrreducibleBundle(n, lam, t)} is not integral"
            )
        total += mult * ((boxes * r) // n + r * t)
    return IrreducibleBundle(n, (0,) * n, total)
