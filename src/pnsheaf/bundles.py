"""Homogeneous bundle expressions on P^n and their irreducible decompositions.

Every supported expression normalizes to a finite sum of summands
S_lam(Q) (x) O(d), where Q is the rank-n tautological quotient bundle,
lam is a weakly decreasing nonnegative weight of length n with last entry 0
(the determinant of Q is O(1) and gets absorbed into the twist), and d is an
integer.  The normal form is what the cohomology and Chow modules consume.

Inside this module a normal form is a count map {(lam, twist): multiplicity}
of plain tuples and ints.  Tensor products, sums, duals and the wedge/sym
expansion all work on count maps; _normalize_cached keeps one per expression
node, frozen into an immutable tuple of ((lam, twist), multiplicity) pairs.
The public Decomposition, whose IrreducibleBundle summands are validated, is
built once per normalize call, by _freeze.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InputError, ScaleExceeded, UnsupportedPlethysm
from .weights import lr_product, weyl_dim

# A wedge/sym power of a sum is refused when its expansion would take more
# than this many tensor steps: (k+1)(k+2)/2 for each copy of a summand.
MAX_POWER_STEPS = 10**6

# A normal form as the engine keeps it: ((lam, twist), multiplicity) pairs,
# ascending by (lam, twist), every multiplicity positive.
Terms = tuple[tuple[tuple[tuple[int, ...], int], int], ...]


# ---------------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class BundleExpr:
    """Base node; ambient is the n of P^n and is shared by the whole tree."""

    ambient: int

    def __post_init__(self):
        if self.ambient < 1:
            raise InputError(f"ambient projective space P^{self.ambient} is not supported")


@dataclass(frozen=True)
class LineBundle(BundleExpr):
    degree: int


@dataclass(frozen=True)
class Tangent(BundleExpr):
    pass


@dataclass(frozen=True)
class Cotangent(BundleExpr):
    """The sheaf of p-forms, 1 <= p <= n."""

    power: int

    def __post_init__(self):
        BundleExpr.__post_init__(self)
        if not 1 <= self.power <= self.ambient:
            raise InputError(
                f"Omega^{self.power} is not a bundle on P^{self.ambient}; need 1 <= p <= n"
            )


@dataclass(frozen=True)
class Dual(BundleExpr):
    child: BundleExpr

    def __post_init__(self):
        BundleExpr.__post_init__(self)
        _check_same_ambient(self, self.child)


@dataclass(frozen=True)
class Tensor(BundleExpr):
    left: BundleExpr
    right: BundleExpr

    def __post_init__(self):
        BundleExpr.__post_init__(self)
        _check_same_ambient(self, self.left, self.right)


@dataclass(frozen=True)
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
        _check_same_ambient(self, *self.children)


@dataclass(frozen=True)
class Wedge(BundleExpr):
    power: int
    child: BundleExpr

    def __post_init__(self):
        BundleExpr.__post_init__(self)
        if self.power < 0:
            raise InputError("wedge power must be nonnegative")
        _check_same_ambient(self, self.child)


@dataclass(frozen=True)
class Sym(BundleExpr):
    power: int
    child: BundleExpr

    def __post_init__(self):
        BundleExpr.__post_init__(self)
        if self.power < 0:
            raise InputError("sym power must be nonnegative")
        _check_same_ambient(self, self.child)


def _check_same_ambient(parent: BundleExpr, *children: BundleExpr):
    for c in children:
        if c.ambient != parent.ambient:
            raise InputError(
                f"mixed ambients: P^{parent.ambient} vs P^{c.ambient} in one expression"
            )


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


def twist(e: BundleExpr, d: int) -> BundleExpr:
    return e if d == 0 else Tensor(e.ambient, e, LineBundle(e.ambient, d))


def split_bundle(degrees, n: int) -> BundleExpr:
    """Direct sum of line bundles with the given degrees."""
    degs = tuple(degrees)
    if not degs:
        raise InputError("split bundle needs at least one degree")
    return direct_sum(*[LineBundle(n, d) for d in degs])


# ---------------------------------------------------------------------------
# normal form


@dataclass(frozen=True)
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

    @property
    def rank(self) -> int:
        return weyl_dim(self.lam, self.ambient)

    def is_line_bundle(self) -> bool:
        return all(x == 0 for x in self.lam)

    def __str__(self):
        if self.is_line_bundle():
            return f"O({self.twist})"
        body = "S(" + ",".join(str(x) for x in self.lam) + ")Q"
        if self.twist == 0:
            return body
        return f"{body}({self.twist})"


@dataclass(frozen=True)
class Decomposition:
    """Multiset of irreducible summands; empty means the zero bundle."""

    ambient: int
    terms: tuple[tuple[IrreducibleBundle, int], ...]

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def rank(self) -> int:
        return sum(mult * b.rank for b, mult in self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for b, mult in self.terms:
            bits.append(str(b) if mult == 1 else f"{mult}*{b}")
        return " + ".join(bits)


def _freeze(n: int, terms: Terms) -> Decomposition:
    """The public Decomposition of a normal form: each summand validated, largest first."""
    return Decomposition(
        n, tuple((IrreducibleBundle(n, lam, d), mult) for (lam, d), mult in reversed(terms))
    )


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


def normalize(e: BundleExpr) -> Decomposition:
    """Decompose an expression into irreducible summands.

    Raises UnsupportedPlethysm when a wedge/sym is applied to a summand that
    is not a line bundle or a twisted copy of Q or its dual (the cases that
    cover split bundles, T and Omega^1), and ScaleExceeded when a wedge/sym
    power would take more than MAX_POWER_STEPS expansion steps.
    """
    return _freeze(e.ambient, _normalize_cached(e))


@lru_cache(maxsize=None)
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
    if isinstance(e, (Wedge, Sym)):
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
                for nu, c in lr_product(lx, ly).terms:
                    key = _canon_summand(nu.entries, dx + dy)
                    acc[key] = acc.get(key, 0) + mx * my * c
    return acc


# wedge/sym of a single irreducible summand ----------------------------------
#
# Supported summand shapes (lam up to the det-twist normalization):
#   * (0,...,0)        -- line bundles
#   * (1,0,...,0)      -- twists of Q (covers T)
#   * (1,...,1,0)      -- twists of Q* (covers Omega^1)
# Everything else would be a genuine plethysm and is out of scope; the shape
# is checked before either function is called.


def _is_supported(lam: tuple[int, ...]) -> bool:
    n = len(lam)
    return not lam[0] or lam in ((1,) + (0,) * (n - 1), (1,) * (n - 1) + (0,))


def _wedge_single(lam: tuple[int, ...], d: int, n: int, j: int) -> Terms:
    if j == 0:
        return _line(n, 0)
    if j == 1:
        return (((lam, d), 1),)
    if not lam[0] or j > n:
        return ()
    if lam == (1,) + (0,) * (n - 1):
        return ((_canon_summand((1,) * j + (0,) * (n - j), j * d), 1),)
    # S_lam(Q) = Q*(1), so wedge powers dualize the standard ones
    return ((_canon_summand((1,) * (n - j) + (0,) * j, j * d + j - 1), 1),)


def _sym_single(lam: tuple[int, ...], d: int, n: int, j: int) -> Terms:
    if j == 0:
        return _line(n, 0)
    if j == 1:
        return (((lam, d), 1),)
    if not lam[0]:
        return _line(n, j * d)
    if lam == (1,) + (0,) * (n - 1):
        return ((_canon_summand((j,) + (0,) * (n - 1), j * d), 1),)
    # Sym^j(Q*(c)) = (Sym^j Q)*(jc), and the dual reverses the weight
    return ((_canon_summand((j,) * (n - 1) + (0,), j * d), 1),)


def _graded_power(terms: Terms, n: int, k: int, is_wedge: bool) -> Terms:
    """wedge^k or sym^k of a normal form via the binomial expansion.

    wedge^k(A + B) = sum_{i+j=k} wedge^i A (x) wedge^j B, and likewise for
    sym; a summand of multiplicity m counts as m copies.  A single summand,
    or a wedge power above the rank, needs no expansion.  Otherwise the
    expansion is a loop over the copies, so a large multiplicity cannot
    exhaust the stack, and it is refused before it starts when it would take
    more than MAX_POWER_STEPS tensor steps.
    """
    name, single = ("wedge", _wedge_single) if is_wedge else ("sym", _sym_single)
    if k == 0:
        return _line(n, 0)
    if k >= 2:
        for (lam, d), _ in terms:
            if not _is_supported(lam):
                raise UnsupportedPlethysm(
                    f"{name}(2, {IrreducibleBundle(n, lam, d)}) is outside the"
                    " supported summand classes"
                )
    if len(terms) == 1 and terms[0][1] == 1:
        (lam, d), _ = terms[0]
        return single(lam, d, n, k)
    if is_wedge and k > _rank(terms, n):
        return ()
    copies = sum(mult for _, mult in terms)
    steps = copies * (k + 1) * (k + 2) // 2
    if steps > MAX_POWER_STEPS:
        raise ScaleExceeded(
            f"{name}^{k} of a sum of {copies} summands needs {steps} expansion"
            f" steps; the bound is {MAX_POWER_STEPS}"
        )
    # tail[j] is the degree-j power of the copies expanded so far
    tail: list[Terms] = [_line(n, 0)] + [()] * k
    for (lam, d), mult in terms:
        firsts = [single(lam, d, n, a) for a in range(k + 1)]
        for _ in range(mult):
            powers = []
            for j in range(k + 1):
                acc: dict = {}
                for a in range(j + 1):
                    _tensor_into(acc, firsts[a], tail[j - a])
                powers.append(tuple(acc.items()))
            tail = powers
    return tuple(sorted(tail[k]))


# ---------------------------------------------------------------------------
# rank and determinant


def rank(e: BundleExpr) -> int:
    return _rank(_normalize_cached(e), e.ambient)


def _rank(terms: Terms, n: int) -> int:
    return sum(mult * weyl_dim(lam, n) for (lam, _), mult in terms)


def det_bundle(e: BundleExpr) -> IrreducibleBundle:
    """Top exterior power as a line bundle O(d).

    Each summand S_lam(Q) (x) O(t) of rank r contributes |lam| * r / n + r * t
    to d (det Q = O(1), and the weight multiset of S_lam spreads |lam| * r
    evenly over the n coordinates).
    """
    dec = normalize(e)
    n = dec.ambient
    total = 0
    for b, mult in dec.terms:
        r = b.rank
        boxes = sum(b.lam)
        if (boxes * r) % n:
            raise InputError(f"determinant exponent of {b} is not integral")
        total += mult * ((boxes * r) // n + r * b.twist)
    return IrreducibleBundle(n, (0,) * n, total)
