"""Exact intersection theory on P^n.

The Chow ring is Q[h]/(h^(n+1)); a public class (``ChowClass``) is the
vector of Fraction coefficients of 1, h, ..., h^n.  Chern characters are
computed over int, as the power sums p_k = k! ch_k of the Chern roots:
those of irreducible summands come from Jacobi-Trudi determinants in the
characters of Sym^m Q, and Newton's identities turn them into Chern classes.
The Todd class comes from the exact power series h/(1 - e^(-h)), and Euler
characteristics from the degree-n coefficient of ch * td.  Maximal-minor
degeneracy classes use the determinantal formula det[c_{1+j-i}(G - E)] of
size e - g + 1."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .bundles import BundleExpr, normalize, rank
from .errors import ConsistencyError, InputError, ScaleExceeded
from .weights import binom

# Chow-ring work is refused above this P^n, before it starts; todd_class(64) takes ~1 s.
MAX_CHOW_AMBIENT = 64


def _check_ambient(n: int) -> None:
    if n > MAX_CHOW_AMBIENT:
        raise ScaleExceeded(
            f"Chow-ring arithmetic on P^{n} is refused; the bound is P^{MAX_CHOW_AMBIENT}"
        )


@dataclass(frozen=True)
class ChowClass:
    """Coefficients of (1, h, ..., h^n) in the degree-truncated ring."""

    ambient: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.ambient + 1:
            raise InputError("Chow class needs exactly n+1 coefficients")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._match(other)
        return ChowClass(self.ambient, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        self._match(other)
        return ChowClass(self.ambient, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, ChowClass):
            self._match(other)
            out = [Fraction(0)] * (self.ambient + 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if i + j > self.ambient:
                        break
                    out[i + j] += a * b
            return ChowClass(self.ambient, tuple(out))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "ChowClass":
        c = Fraction(c)
        return ChowClass(self.ambient, tuple(c * a for a in self.coeffs))

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i]

    def _match(self, other: "ChowClass"):
        if self.ambient != other.ambient:
            raise InputError("Chow classes over different ambients")

    def __str__(self):
        bits = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                bits.append(str(c))
            elif i == 1:
                bits.append(f"{c}*h" if c != 1 else "h")
            else:
                bits.append(f"{c}*h^{i}" if c != 1 else f"h^{i}")
        return " + ".join(bits) if bits else "0"


def chow_zero(n: int) -> ChowClass:
    return ChowClass(n, tuple(Fraction(0) for _ in range(n + 1)))


def chow_unit(n: int) -> ChowClass:
    return ChowClass(n, tuple(Fraction(int(i == 0)) for i in range(n + 1)))


def hyperplane_power(n: int, i: int, c=1) -> ChowClass:
    coeffs = [Fraction(0)] * (n + 1)
    if 0 <= i <= n:
        coeffs[i] = Fraction(c)
    return ChowClass(n, tuple(coeffs))


# ---------------------------------------------------------------------------
# Chern character


class _PowerSums(tuple):
    """The power sums p_k = k! ch_k of the Chern roots, k = 0..n, as ints.

    ch = sum p_k h^k / k! is an exponential generating function, so a sum
    of bundles adds the p_k and a tensor product is the binomial
    convolution (p q)_k = sum_i C(k, i) p_i q_(k-i) (Fulton, Intersection
    Theory, Ex. 3.2.3).
    """

    __slots__ = ()

    def __add__(self, other: "_PowerSums") -> "_PowerSums":
        return _PowerSums(a + b for a, b in zip(self, other))

    def __sub__(self, other: "_PowerSums") -> "_PowerSums":
        return _PowerSums(a - b for a, b in zip(self, other))

    def __mul__(self, other: "_PowerSums") -> "_PowerSums":
        return _PowerSums(
            sum(map(mul, map(mul, row, self), other[k::-1]))
            for k, row in enumerate(_pascal(len(self) - 1))
        )

    def scale(self, c: int) -> "_PowerSums":
        return _PowerSums(c * a for a in self)


@lru_cache(maxsize=None)
def _pascal(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n of Pascal's triangle."""
    return tuple(tuple(math.comb(k, i) for i in range(k + 1)) for k in range(n + 1))


@lru_cache(maxsize=None)
def _ch_line(d: int, n: int) -> _PowerSums:
    """exp(d*h): every Chern root is d."""
    return _PowerSums(d**k for k in range(n + 1))


@lru_cache(maxsize=None)
def _ch_sym_q(m: int, n: int) -> _PowerSums:
    """Character of Sym^m of the tautological quotient Q.

    From the symmetric powers of the Euler sequence:
    [Sym^m Q] = C(n+m, n) * 1 - C(n+m-1, n) * [O(-1)]; zero for m < 0.
    """
    if m < 0:
        return _PowerSums((0,) * (n + 1))
    a, b = binom(n + m, n), binom(n + m - 1, n)
    return _PowerSums(a * (k == 0) - b * (-1) ** k for k in range(n + 1))


def _det(mat: list[list], zero, one):
    """Determinant over any commutative ring, expanding along rows with a
    bitmask DP over column subsets; zero and one are the ring's constants."""
    memo = {0: one}

    def minor(cols: int, row: int):
        if cols in memo:
            return memo[cols]
        total = zero
        sign = -1 if (row - 1) % 2 else 1  # expansion along the last row
        c = cols
        while c:
            j = (c & -c).bit_length() - 1
            sub = cols & ~(1 << j)
            entry = mat[row - 1][j]
            if entry != zero:
                term = entry * minor(sub, row - 1)
                total = total + term if sign > 0 else total - term
            sign = -sign
            c &= c - 1
        memo[cols] = total
        return total

    size = len(mat)
    return minor((1 << size) - 1, size)


@lru_cache(maxsize=None)
def _ch_schur_q(lam: tuple[int, ...], n: int) -> _PowerSums:
    """Jacobi-Trudi (Macdonald, Symmetric Functions, I.(3.4)):
    ch S_lam(Q) = det[ ch Sym^(lam_i - i + j) Q ]."""
    size = len(lam)
    mat = [[_ch_sym_q(lam[i] - i + j, n) for j in range(size)] for i in range(size)]
    return _det(mat, _ch_sym_q(-1, n), _ch_line(0, n))  # the ring's 0 and 1


def _power_sums(e: BundleExpr) -> _PowerSums:
    _check_ambient(e.ambient)
    dec = normalize(e)
    n = dec.ambient
    total = _PowerSums((0,) * (n + 1))
    for b, mult in dec.terms:
        total = total + (_ch_schur_q(b.lam, n) * _ch_line(b.twist, n)).scale(mult)
    return total


def chern_character(e: BundleExpr) -> ChowClass:
    p = _power_sums(e)
    return ChowClass(e.ambient, tuple(Fraction(pk, math.factorial(k)) for k, pk in enumerate(p)))


# ---------------------------------------------------------------------------
# Todd class and Hirzebruch-Riemann-Roch


@lru_cache(maxsize=None)
def todd_class(n: int) -> ChowClass:
    """td(P^n) = (h / (1 - e^(-h)))^(n+1), exactly, truncated at degree n."""
    _check_ambient(n)
    # h / (1 - e^{-h}) = 1 / sum_{i>=0} (-h)^i / (i+1)!
    denom = [Fraction((-1) ** i, math.factorial(i + 1)) for i in range(n + 1)]
    inv = _series_inverse(denom)
    term = ChowClass(n, tuple(inv))
    out = chow_unit(n)
    for _ in range(n + 1):
        out = out * term
    return out


def _series_inverse(a: list[Fraction]) -> list[Fraction]:
    if not a or a[0] == 0:
        raise InputError("cannot invert a power series with zero constant term")
    size = len(a)
    b = [Fraction(0)] * size
    b[0] = 1 / Fraction(a[0])
    for k in range(1, size):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += Fraction(a[j]) * b[k - j]
        b[k] = -acc / Fraction(a[0])
    return b


def hrr_chi(e: BundleExpr) -> int:
    """Euler characteristic by Hirzebruch-Riemann-Roch; exact, must be integral."""
    n = e.ambient
    chi = sum(a * b for a, b in zip(chern_character(e).coeffs, reversed(todd_class(n).coeffs)))
    if chi.denominator != 1:
        raise ConsistencyError(f"chi({e}) came out non-integral: {chi}")
    return int(chi)


# ---------------------------------------------------------------------------
# Chern classes


def total_chern(e: BundleExpr) -> ChowClass:
    """1 + c_1 h + ... from the Chern character via Newton's identities.

    Every c_i of an actual bundle is an integer multiple of h^i; a
    non-integer is an internal consistency failure.
    """
    return ChowClass(e.ambient, _chern_classes(_power_sums(e)))


def _chern_classes(p: tuple[int, ...]) -> tuple[int, ...]:
    """Elementary symmetric functions of the roots with power sums p:
    k c_k = sum_(i=1..k) (-1)^(i-1) c_(k-i) p_i, each division exact."""
    c = [1]
    for k in range(1, len(p)):
        acc = sum((-1) ** (i - 1) * c[k - i] * p[i] for i in range(1, k + 1))
        if acc % k:
            raise ConsistencyError(f"Chern class c_{k} came out non-integral: {Fraction(acc, k)}")
        c.append(acc // k)
    return tuple(c)


def chern_difference(E: BundleExpr, G: BundleExpr) -> ChowClass:
    """Total Chern class of the virtual difference G - E: c(G) / c(E)."""
    if E.ambient != G.ambient:
        raise InputError("bundles live on different ambients")
    n = E.ambient
    cG = total_chern(G)
    cE = total_chern(E)
    inv = _series_inverse(list(cE.coeffs))
    return cG * ChowClass(n, tuple(inv))


@dataclass(frozen=True)
class PorteousResult:
    ambient: int
    codim: int
    cls: ChowClass
    degree: int
    within_ambient: bool


def porteous_class(E: BundleExpr, G: BundleExpr) -> PorteousResult:
    """Class of the locus where a generic map E -> G drops to rank < rank(G).

    Expected codimension is e - g + 1; the class is the determinant of the
    (e-g+1) x (e-g+1) matrix with (i, j) entry c_(1+j-i)(G - E).  When the
    codimension exceeds n the zero class is returned and flagged.
    """
    e = rank(E)
    g = rank(G)
    n = E.ambient
    if e < g:
        raise InputError(f"need rank(E) >= rank(G); got {e} < {g}")
    codim = e - g + 1
    diff = chern_difference(E, G)

    def c(m: int) -> Fraction:
        if m < 0 or m > n:
            return Fraction(0)
        return diff.coefficient(m)

    if codim > n:
        return PorteousResult(n, codim, chow_zero(n), 0, False)
    size = codim
    mat = [[c(1 + j - i) for j in range(size)] for i in range(size)]
    det = _det(mat, Fraction(0), Fraction(1))
    if det.denominator != 1:
        raise ConsistencyError(f"degeneracy class came out non-integral: {det}")
    cls = hyperplane_power(n, codim, det)
    return PorteousResult(n, codim, cls, int(det), True)

