"""Exact intersection theory on P^n.

The Chow ring is Q[h]/(h^(n+1)); a public class (``ChowClass``) is the
vector of coefficients of 1, h, ..., h^n, Fractions only in ch and td.  A
Chern character is kept as the power sums p_k = k! ch_k of the Chern roots.
As Q = (n+1) O - O(-1) in K-theory, S_lam(Q)(t) has the character
sum_j v_j e^((t-j)h), where v_j = (-1)^j s_(lam/1^j)(1^(n+1)) spans the kernel
of a skew Jacobi-Trudi matrix (``linalg._kernel``), scaled to sum to the rank;
Newton's identities turn power sums into Chern classes, of a bundle or, from
p(E) - p(G), of E - G.  As chi(O(a)) = C(a+n, n), n! chi(E) = sum_k p_k s_k
for (a+1)...(a+n) = sum_k s_k a^k, and td_(n-k) = k! s_k / n! (Fulton, 15.1).
The maximal-minor degeneracy class det[c_(1+j-i)(G - E)] of size
k = e - g + 1 is h_k(G - E) = (-1)^k c_k(E - G) by the dual Jacobi-Trudi
identity (Macdonald, I.3), so no determinant is formed."""

from __future__ import annotations

import math
from functools import lru_cache

from ._record import record
from .bundles import BundleExpr, _map_ranks, _normalize_cached
from .errors import ConsistencyError, InputError, ScaleExceeded
from .linalg import _kernel
from .weights import binom, weyl_dim

# Chow-ring work is refused above this P^n, before it starts; at the bound,
# todd_class(64) takes about 0.001 s (2 CPUs, Python 3.11).
MAX_CHOW_AMBIENT = 64
# A Chern character is refused before any skew Jacobi-Trudi kernel when the
# sum of l^2 * (b_1 + ... + b_l) over the distinct partitions of its summands,
# l their numbers of nonzero parts and b_a the bits of row a's largest entry,
# exceeds this.  Fitted to measured time (2 CPUs, Python 3.11), a unit takes
# 0.6-1.5 ns for l >= 31, so the bound (63 rows of 540 bits) takes 0.1-0.2 s.
MAX_SKEW_WORK = MAX_CHOW_AMBIENT**3 * 512


def _check_ambient(n: int) -> None:
    if n > MAX_CHOW_AMBIENT:
        raise ScaleExceeded(
            f"Chow-ring arithmetic on P^{n} is refused; the bound is P^{MAX_CHOW_AMBIENT}"
        )


@record
class ChowClass:
    """Coefficients of (1, h, ..., h^n) in the degree-truncated ring."""

    ambient: int
    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.ambient + 1:
            raise InputError("Chow class needs exactly n+1 coefficients")

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
    return ChowClass(n, (0,) * (n + 1))


def hyperplane_power(n: int, i: int, c=1) -> ChowClass:
    coeffs = [0] * (n + 1)
    if 0 <= i <= n:
        coeffs[i] = c
    return ChowClass(n, tuple(coeffs))


# ---------------------------------------------------------------------------
# Chern character


@lru_cache(maxsize=256)  # a benchmark or golden request fills at most 40
def _skew_dims(lam: tuple[int, ...], n: int) -> tuple[int, ...]:
    """v_j = (-1)^j s_(lam/1^j)(1^(n+1)), j = 0..l, for the l nonzero parts of lam.

    With h_m = C(n+m, n), the skew Jacobi-Trudi determinant s_(lam/1^j) is the
    maximal minor without column j of N = [h_(lam_a - a + b - 1)], a l x (l+1)
    matrix of rank l (Macdonald, Symmetric Functions, I.(5.4)); so v is N's one
    kernel vector, scaled so that sum_j v_j = rank S_lam(Q) = weyl_dim(lam, n).
    """
    size = sum(1 for x in lam if x)
    rows = [{b: h for b in range(size + 1) if (h := binom(n + lam[a] - a + b - 1, n))}
            for a in range(size)]
    ((vec, _),) = _kernel(rows, size + 1)
    scale = weyl_dim(lam, n) // sum(vec.values())
    return tuple(scale * vec.get(j, 0) for j in range(size + 1))


def _ch_schur_q(lam: tuple[int, ...], n: int, t: int) -> tuple[int, ...]:
    """Power sums p_k = k! ch_k of S_lam(Q)(t), k = 0..n.

    In K-theory Q = (n+1) O - O(-1), so ch S_lam(Q) = sum_j v_j e^(-jh)
    (Macdonald, I.3), and p_k = sum_j v_j (t - j)^k with v from _skew_dims.
    """
    v = _skew_dims(lam, n)
    return tuple(sum(x * (t - j) ** k for j, x in enumerate(v)) for k in range(n + 1))


def _power_sums(e: BundleExpr) -> tuple[int, ...]:
    _check_ambient(e.ambient)
    n = e.ambient
    terms = _normalize_cached(e)
    sizes = {lam: sum(1 for x in lam if x) for (lam, _), _ in terms}
    # the largest entry of row a of a kernel's matrix is h_(lam_a - a + l - 1)
    work = sum(l * l * sum(binom(n + lam[a] - a + l - 1, n).bit_length() for a in range(l))
               for lam, l in sizes.items())
    if work > MAX_SKEW_WORK:
        raise ScaleExceeded(
            f"the Chern character of {len(sizes)} distinct summands needs skew Jacobi-Trudi"
            f" solves of work {work} (squared lengths times row bits); the bound is {MAX_SKEW_WORK}"
        )
    total = [0] * (n + 1)
    for (lam, t), mult in terms:
        total = [a + mult * p for a, p in zip(total, _ch_schur_q(lam, n, t))]
    return tuple(total)


def chern_character(e: BundleExpr) -> ChowClass:
    from fractions import Fraction
    p = _power_sums(e)
    return ChowClass(e.ambient, tuple(Fraction(pk, math.factorial(k)) for k, pk in enumerate(p)))


# ---------------------------------------------------------------------------
# Todd class and Hirzebruch-Riemann-Roch


def _chi_row(n: int) -> list[int]:
    """s_0..s_n with sum_k s_k a^k = (a+1)(a+2)...(a+n) = n! chi(O(a)) on P^n."""
    s = [1] + [0] * n
    for j in range(1, n + 1):
        s = [j * s[0]] + [j * s[k] + s[k - 1] for k in range(1, n + 1)]
    return s


@lru_cache(maxsize=16)  # a benchmark or golden request fills at most 1
def todd_class(n: int) -> ChowClass:
    """td(P^n) = (h / (1 - e^(-h)))^(n+1) to degree n, exactly: td_(n-k) = k! s_k / n!."""
    _check_ambient(n)
    from fractions import Fraction
    s, top = _chi_row(n), math.factorial(n)
    return ChowClass(n, tuple(Fraction(math.factorial(k) * s[k], top) for k in range(n, -1, -1)))


def hrr_chi(e: BundleExpr) -> int:
    """Euler characteristic by Hirzebruch-Riemann-Roch; exact, must be integral."""
    n = e.ambient
    total = sum(p * s for p, s in zip(_power_sums(e), _chi_row(n)))
    chi, rest = divmod(total, math.factorial(n))
    if rest:
        from fractions import Fraction
        raise ConsistencyError(f"chi({e}) came out non-integral: {Fraction(total, math.factorial(n))}")
    return chi


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
            from fractions import Fraction
            raise ConsistencyError(f"Chern class c_{k} came out non-integral: {Fraction(acc, k)}")
        c.append(acc // k)
    return tuple(c)


def _difference_classes(E: BundleExpr, G: BundleExpr) -> tuple[int, ...]:
    """c_0, ..., c_n of E - G from p(E) - p(G); G's power sums are taken
    first, so that a refusal of both names G."""
    return _chern_classes(tuple(b - a for a, b in zip(_power_sums(G), _power_sums(E))))


@record
class PorteousResult:
    ambient: int
    codim: int
    cls: ChowClass
    degree: int
    within_ambient: bool


def porteous_class(E: BundleExpr, G: BundleExpr) -> PorteousResult:
    """Class of the locus where a generic map E -> G drops to rank < rank(G).

    Expected codimension is k = e - g + 1; the class is the determinant of
    the k x k matrix with (i, j) entry c_(1+j-i)(G - E), which is
    h_k(G - E) = (-1)^k c_k(E - G) (Fulton, Intersection Theory, 14.4).
    When the codimension exceeds n the zero class is returned and flagged.
    """
    e, g = _map_ranks(E, G)
    n = E.ambient
    codim = e - g + 1
    c = _difference_classes(E, G)
    if codim > n:
        return PorteousResult(n, codim, chow_zero(n), 0, False)
    degree = (-1) ** codim * c[codim]
    return PorteousResult(n, codim, hyperplane_power(n, codim, degree), degree, True)
