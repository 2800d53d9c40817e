"""Exact intersection theory on P^n.

The Chow ring is Q[h]/(h^(n+1)); classes are held as coefficient vectors of
1, h, ..., h^n over Fraction.  Chern characters of irreducible summands come
from Jacobi-Trudi determinants in the classes of Sym^m Q, the Todd class from
the exact power series h/(1 - e^(-h)), and Euler characteristics from the
degree-n coefficient of ch * td.  Maximal-minor degeneracy classes use the
determinantal formula det[c_{1+j-i}(G - E)] of size e - g + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bundles import BundleExpr, normalize, rank
from .errors import ConsistencyError, InputError
from .weights import binom


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


@lru_cache(maxsize=None)
def _ch_line(d: int, n: int) -> ChowClass:
    """Truncated exp(d*h)."""
    coeffs = [Fraction(d) ** i / math.factorial(i) for i in range(n + 1)]
    return ChowClass(n, tuple(coeffs))


@lru_cache(maxsize=None)
def _ch_sym_q(m: int, n: int) -> ChowClass:
    """Character of Sym^m of the tautological quotient Q.

    From the symmetric powers of the Euler sequence:
    [Sym^m Q] = C(n+m, n) * 1 - C(n+m-1, n) * [O(-1)]; zero for m < 0.
    """
    if m < 0:
        return chow_zero(n)
    if m == 0:
        return chow_unit(n)
    return chow_unit(n).scale(binom(n + m, n)) - _ch_line(-1, n).scale(binom(n + m - 1, n))


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
def _ch_schur_q(lam: tuple[int, ...], n: int) -> ChowClass:
    """Jacobi-Trudi: ch S_lam(Q) = det[ ch Sym^(lam_i - i + j) Q ]."""
    size = len(lam)
    mat = [[_ch_sym_q(lam[i] - (i + 1) + (j + 1), n) for j in range(size)] for i in range(size)]
    return _det(mat, chow_zero(n), chow_unit(n))


def chern_character(e: BundleExpr) -> ChowClass:
    dec = normalize(e)
    n = dec.ambient
    total = chow_zero(n)
    for b, mult in dec.terms:
        piece = _ch_schur_q(b.lam, n) * _ch_line(b.twist, n)
        total = total + piece.scale(mult)
    return total


# ---------------------------------------------------------------------------
# Todd class and Hirzebruch-Riemann-Roch


@lru_cache(maxsize=None)
def todd_class(n: int) -> ChowClass:
    """td(P^n) = (h / (1 - e^(-h)))^(n+1), exactly, truncated at degree n."""
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
    cls = chern_character(e) * todd_class(n)
    chi = cls.coefficient(n)
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
    ch = chern_character(e)
    n = e.ambient
    return _chern_from_character(tuple(ch.coeffs), n)


def _chern_from_character(coeffs: tuple[Fraction, ...], n: int) -> ChowClass:
    p = [coeffs[i] * math.factorial(i) for i in range(n + 1)]  # power sums
    e_list = [Fraction(1)] + [Fraction(0)] * n
    for k in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e_list[k - i] * p[i]
        e_list[k] = acc / k
    for k in range(1, n + 1):
        if e_list[k].denominator != 1:
            raise ConsistencyError(f"Chern class c_{k} came out non-integral: {e_list[k]}")
    return ChowClass(n, tuple(e_list))


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

