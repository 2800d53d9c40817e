"""Multivariate polynomials, an integer Buchberger kernel, and chart membership.

``Poly`` is the public polynomial type, with exact Fraction coefficients.
Buchberger and multivariate division run underneath on primitive integer
polynomials with packed monomials and a heap of pending terms, and go back
to Fractions only at the boundary: the reduced basis is made monic when it
is emitted, and ``normal_form`` divides out the scalar its pseudo-division
carried.  Buchberger drops useless S-pairs by Gebauer and Moeller's
criteria and reduces the pair of least lcm first.  Monomial order is
degree-reverse-lexicographic with x0 > x1 > ... > x_n.
Saturation-related questions are handled chart by chart: a homogeneous ideal
is presented through the reduced Groebner bases of its dehomogenizations on
every affine chart x_i = 1, and membership means reduction to zero on each
chart.  A deliberate desk-scale guard refuses more than 4 variables per
chart or generators of degree above 8.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm

from .errors import InputError, ParseError, ScaleExceeded, read_int

MAX_CHART_VARS = 4
MAX_GENERATOR_DEGREE = 8


def monomial_key(expo: tuple[int, ...]):
    """Sort key: larger key = larger monomial in degrevlex."""
    return (sum(expo), tuple(-e for e in reversed(expo)))


def monomial_div(b: tuple[int, ...], a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(y - x for x, y in zip(a, b))


def monomial_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def monomial_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomials_of_degree(nvars: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree d, largest first in degrevlex."""
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        expo = [0] * nvars
        for v in combo:
            expo[v] += 1
        out.append(tuple(expo))
    out.sort(key=monomial_key, reverse=True)
    return out


class Poly:
    """Immutable multivariate polynomial over Fraction.

    Each exponent vector must be a tuple of nvars non-negative ints (else InputError).
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        for expo, c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            if type(expo) is not tuple or len(expo) != nvars or not all(
                type(x) is int and x >= 0 for x in expo
            ):
                raise InputError(f"bad exponent vector {expo} for {nvars} variables")
            clean[expo] = c
        self.terms = clean

    # construction helpers ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: Fraction(1)})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Poly":
        expo = [0] * nvars
        expo[i] = 1
        return cls(nvars, {tuple(expo): Fraction(1)})

    @classmethod
    def constant(cls, c, nvars: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    # ring operations --------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "Poly") -> "Poly":
        self._match(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._match(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) - c
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._match(other)
            out: dict = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = monomial_mul(e1, e2)
                    out[key] = out.get(key, Fraction(0)) + c1 * c2
            return Poly(self.nvars, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def _match(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise InputError("polynomials over different variable counts")

    # structure --------------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise InputError("zero polynomial has no leading monomial")
        return max(self.terms, key=monomial_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def diff(self, i: int) -> "Poly":
        out: dict = {}
        for e, c in self.terms.items():
            if e[i]:
                key = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[key] = out.get(key, Fraction(0)) + c * e[i]
        return Poly(self.nvars, out)

    def dehomogenize(self, i: int) -> "Poly":
        """Set x_i = 1 and drop the variable."""
        out: dict = {}
        for e, c in self.terms.items():
            key = e[:i] + e[i + 1:]
            out[key] = out.get(key, Fraction(0)) + c
        return Poly(self.nvars - 1, out)

    def monic(self) -> "Poly":
        if not self.terms:
            return self
        return self.scale(1 / self.leading_coefficient())

    def primitive(self) -> "Poly":
        """Clear denominators and divide by the content; leading coeff > 0."""
        if not self.terms:
            return self
        den_lcm = 1
        for c in self.terms.values():
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        nums = [c.numerator * (den_lcm // c.denominator) for c in self.terms.values()]
        g = 0
        for v in nums:
            g = gcd(g, abs(v))
        scalar = Fraction(den_lcm, g)
        out = self.scale(scalar)
        if out.leading_coefficient() < 0:
            out = -out
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for expo in sorted(self.terms, key=monomial_key, reverse=True):
            c = self.terms[expo]
            factors = []
            for i, e in enumerate(expo):
                if e == 1:
                    factors.append(f"x{i}")
                elif e > 1:
                    factors.append(f"x{i}^{e}")
            body = "*".join(factors)
            if not body:
                piece = str(abs(c))
            elif abs(c) == 1:
                piece = body
            else:
                piece = f"{abs(c)}*{body}"
            sign = "-" if c < 0 else "+"
            bits.append((sign, piece))
        first_sign, first_piece = bits[0]
        text = ("-" if first_sign == "-" else "") + first_piece
        for sign, piece in bits[1:]:
            text += f" {sign} {piece}"
        return text

    __repr__ = __str__


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(r"\s*(?:(\d+/\d+|\d+)|x(\d+)|(\^)|(\*)|(\+)|(-))")


def parse_poly(text: str, nvars: int) -> Poly:
    """Parse sums of terms like 3/2*x0^2*x1 - x2 + 5."""
    pos = 0
    terms: dict = {}
    length = len(text)

    def skip_ws(p):
        while p < length and text[p].isspace():
            p += 1
        return p

    pos = skip_ws(pos)
    if pos == length:
        raise ParseError("empty polynomial", pos, ("term",))
    first = True
    while pos < length:
        sign = 1
        pos = skip_ws(pos)
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos = skip_ws(pos + 1)
        elif not first:
            raise ParseError("missing term separator", pos, ("+", "-"))
        first = False
        coeff = Fraction(1)
        expo = [0] * nvars
        saw_factor = False
        expect_factor = True
        while True:
            m = _TOKEN_RE.match(text, pos)
            if not m or not expect_factor:
                break
            number, var, caret, star, plus, minus = m.groups()
            if plus or minus or caret:
                break
            if number is not None:
                num, _, den = number.partition("/")
                start = m.start(1)
                try:
                    coeff *= Fraction(read_int(num, start), read_int(den or "1", start))
                except ZeroDivisionError:
                    raise ParseError(f"zero denominator in {number}", start) from None
                saw_factor = True
                pos = m.end()
            elif var is not None:
                idx = read_int(var, pos)
                if idx >= nvars:
                    raise ParseError(f"variable x{idx} out of range (have x0..x{nvars - 1})", pos)
                pos = m.end()
                m2 = _TOKEN_RE.match(text, pos)
                power = 1
                if m2 and m2.group(3):  # caret
                    pos = m2.end()
                    m3 = _TOKEN_RE.match(text, pos)
                    if not m3 or m3.group(1) is None or "/" in m3.group(1):
                        raise ParseError("expected integer exponent", pos, ("integer",))
                    power = read_int(m3.group(1), pos)
                    pos = m3.end()
                expo[idx] += power
                saw_factor = True
            elif star:
                raise ParseError("unexpected '*'", pos, ("coefficient", "variable"))
            # after a factor, an optional * continues the term
            m4 = _TOKEN_RE.match(text, pos)
            if m4 and m4.group(4):  # star
                pos = m4.end()
                expect_factor = True
            else:
                expect_factor = False
        if not saw_factor:
            raise ParseError("expected a term", pos, ("coefficient", "variable"))
        key = tuple(expo)
        terms[key] = terms.get(key, Fraction(0)) + sign * coeff
        pos = skip_ws(pos)
    return Poly(nvars, terms)


# ---------------------------------------------------------------------------
# division and Buchberger on packed integer polynomials
#
# The engine works on primitive integer polynomials: a dict from packed
# monomial to int.  A packed monomial is one int,
#     key = (deg << span) - raw,   raw = sum_k e_k << (_BITS * k),   span = _BITS * nvars,
# so multiplying monomials adds keys and the degrevlex order is integer order
# (Monagan-Pearce, CASC 2007).  raw keeps each exponent in a _BITS-wide field
# whose top bit stays clear, so a difference of raws with no top bit set
# means divisibility.  A reducer is the tuple (raw of its leading monomial,
# leading monomial, leading coefficient > 0, tail terms).

_BITS = 32
_EXPONENT_LIMIT = 1 << (_BITS - 1)


def _top_bits(nvars: int) -> int:
    return sum(_EXPONENT_LIMIT << (_BITS * k) for k in range(nvars))


def _pack(expo: tuple[int, ...]) -> int:
    deg = sum(expo)
    if deg >= _EXPONENT_LIMIT:
        raise ScaleExceeded(f"monomial degree {deg} exceeds the packed exponent range")
    raw = 0
    for e in reversed(expo):
        raw = (raw << _BITS) + e
    return (deg << (_BITS * len(expo))) - raw


def _raw(key: int, span: int) -> int:
    # 0 <= raw < 2**span, so the degree is key / 2**span rounded up
    return (-(-key >> span) << span) - key


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    raw = _raw(key, _BITS * nvars)
    mask = (1 << _BITS) - 1
    return tuple((raw >> (_BITS * k)) & mask for k in range(nvars))


def _int_terms(f: Poly) -> tuple[dict[int, int], int]:
    """(packed terms of den * f, den) for the least common denominator den."""
    den = lcm(*(c.denominator for c in f.terms.values()))
    return {_pack(e): c.numerator * (den // c.denominator) for e, c in f.terms.items()}, den


def _reducer(terms: dict[int, int], nvars: int) -> tuple:
    """The primitive reducer of nonzero integer terms."""
    lm = max(terms)
    content = gcd(*terms.values())
    if terms[lm] < 0:
        content = -content
    tail = [(k, c // content) for k, c in terms.items() if k != lm]
    return _raw(lm, _BITS * nvars), lm, terms[lm] // content, tail


def _divide(terms: dict[int, int], reducers, nvars: int) -> tuple[dict[int, int], int]:
    """Pseudo-remainder (r, s): s > 0 and s * f reduces to r.

    Multivariate division by an ordered list of reducers, taking the first
    whose leading monomial divides the current term.  Pending monomials wait
    in a heap; a step scales by the cofactor of the reducer's leading
    coefficient instead of dividing by it, so every coefficient stays an
    integer.  r is built largest monomial first.
    """
    span, top = _BITS * nvars, _top_bits(nvars)
    pending = dict(terms)
    heap = [-k for k in pending]
    heapify(heap)
    rem: dict[int, int] = {}
    scale = 1
    while heap:
        key = -heappop(heap)
        c = pending.pop(key)
        if not c:
            continue
        raw = _raw(key, span)
        for g_raw, g_lm, g_lc, g_tail in reducers:
            if not (raw - g_raw) & top:
                break
        else:
            rem[key] = c
            continue
        h = gcd(c, g_lc)
        a, b = g_lc // h, c // h
        if a != 1:
            scale *= a
            for k in pending:
                pending[k] *= a
            for k in rem:
                rem[k] *= a
        shift = key - g_lm
        for k, gc in g_tail:
            k += shift
            if k in pending:
                pending[k] -= b * gc
            else:
                pending[k] = -b * gc
                heappush(heap, -k)
    return rem, scale


def _reducers(basis, nvars: int) -> list[tuple]:
    """The reducers of the nonzero members of an ordered basis, in order."""
    return [_reducer(_int_terms(g)[0], nvars) for g in basis if g]


def normal_form(f: Poly, basis) -> Poly:
    """Remainder of f under multivariate division by an ordered basis."""
    terms, den = _int_terms(f)
    rem, scale = _divide(terms, _reducers(basis, f.nvars), f.nvars)
    den *= scale
    return Poly(f.nvars, {_unpack(k, f.nvars): Fraction(c, den) for k, c in rem.items()})


def s_polynomial(f: Poly, g: Poly) -> Poly:
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm_fg = monomial_lcm(lf, lg)
    left = f * Poly(f.nvars, {monomial_div(lcm_fg, lf): 1 / f.leading_coefficient()})
    right = g * Poly(g.nvars, {monomial_div(lcm_fg, lg): 1 / g.leading_coefficient()})
    return left - right


def _guard(polys, nvars: int):
    for p in polys:
        if p.degree() > MAX_GENERATOR_DEGREE:
            raise ScaleExceeded(
                f"generator of degree {p.degree()} exceeds the bound {MAX_GENERATOR_DEGREE}"
            )
    if nvars > MAX_CHART_VARS:
        raise ScaleExceeded(
            f"{nvars} variables exceeds the supported chart size of {MAX_CHART_VARS}"
        )


def buchberger(gens) -> tuple[Poly, ...]:
    """Reduced Groebner basis (monic, mutually reduced, deterministic order).

    The zero ideal returns the empty basis.  Each generator and each nonzero
    remainder joins the basis through Gebauer and Moeller's update (J. Symb.
    Comp. 6, 1988): a new pair goes when the lcm of another new pair divides
    its own (chain criterion) or its leading monomials are coprime (product
    criterion), and an old pair goes when the new leading monomial divides
    its lcm and differs from the lcms the new element forms with the pair's
    members.  The pair of least lcm is reduced first (normal strategy), and
    every basis element stays a reducer.  Every intermediate polynomial is a
    primitive integer polynomial; the basis is made monic when emitted.
    """
    gens = [g for g in gens if g]
    if not gens:
        return ()
    nvars = gens[0].nvars
    _guard(gens, nvars)
    span, top = _BITS * nvars, _top_bits(nvars)
    basis: list[tuple] = []
    expos: list[tuple[int, ...]] = []
    pairs: list[tuple[int, int, int]] = []  # heap of (packed lcm, i, j), i < j

    def update(h: tuple) -> None:
        h_expo, j = _unpack(h[1], nvars), len(basis)
        # (packed lcm with h, leading monomials not coprime, i); on equal
        # lcms a coprime pair sorts first, so it drops the others
        news = sorted(
            (_pack(tuple(map(max, e, h_expo))), any(map(min, e, h_expo)), i)
            for i, e in enumerate(expos)
        )
        with_h = {i: key for key, _, i in news}
        kept = [
            (key, a, b) for key, a, b in pairs
            if (_raw(key, span) - h[0]) & top or key in (with_h[a], with_h[b])
        ]
        # a divisor of an lcm never sorts later, so one pass applies the chain criterion
        chain: list[int] = []
        for key, shared, i in news:
            raw = _raw(key, span)
            if all((raw - r) & top for r in chain):
                chain.append(raw)
                if shared:
                    kept.append((key, i, j))
        heapify(kept)
        pairs[:] = kept
        basis.append(h)
        expos.append(h_expo)

    for g in gens:
        update(_reducer(_int_terms(g)[0], nvars))
    while pairs:
        lcm_key, i, j = heappop(pairs)
        _, f_lm, f_lc, f_tail = basis[i]
        _, g_lm, g_lc, g_tail = basis[j]
        h = gcd(f_lc, g_lc)
        s_poly = {}
        for tail, shift, c in ((f_tail, lcm_key - f_lm, g_lc // h),
                               (g_tail, lcm_key - g_lm, -f_lc // h)):
            for k, v in tail:
                k += shift
                s_poly[k] = s_poly.get(k, 0) + c * v
        rem, _ = _divide(s_poly, basis, nvars)
        if rem:
            update(_reducer(rem, nvars))
    return _reduce_basis(basis, nvars)


def _reduce_basis(basis, nvars: int) -> tuple[Poly, ...]:
    top = _top_bits(nvars)
    # minimal: a divisor of a leading monomial never sorts later, so keep a
    # member unless the leading monomial of a kept one divides its own
    kept = []
    for g in sorted(basis, key=lambda g: g[1]):
        if all((g[0] - lo[0]) & top for lo in kept):
            kept.append(g)
    # fully reduce each member against the rest: reduction keeps the leading
    # monomials of a minimal basis, so one pass gives the reduced basis
    for idx, (_, lm, lc, tail) in enumerate(kept):
        rem, _ = _divide({lm: lc, **dict(tail)}, kept[:idx] + kept[idx + 1:], nvars)
        kept[idx] = _reducer(rem, nvars)
    return tuple(
        Poly(nvars, {_unpack(k, nvars): Fraction(c, lc) for k, c in ((lm, lc), *tail)})
        for _, lm, lc, tail in reversed(kept)
    )


# ---------------------------------------------------------------------------
# homogeneous ideals via charts


@dataclass(frozen=True)
class IdealPresentation:
    """Homogeneous generators plus reduced chart bases (x_i = 1 for each i)."""

    nvars: int  # number of homogeneous coordinates, n + 1
    generators: tuple[Poly, ...]
    charts: tuple[tuple[Poly, ...], ...]

    @property
    def ambient(self) -> int:
        return self.nvars - 1


def ideal_presentation(gens) -> IdealPresentation:
    gens = [g for g in gens if g]
    if not gens:
        raise InputError("need at least one nonzero homogeneous generator")
    nvars = gens[0].nvars
    for g in gens:
        if g.nvars != nvars:
            raise InputError("generators over different variable counts")
        if not g.is_homogeneous():
            raise InputError(f"generator {g} is not homogeneous")
    _guard(gens, nvars - 1)
    charts = []
    for i in range(nvars):
        dehoms = [g.dehomogenize(i) for g in gens]
        charts.append(buchberger(dehoms))
    return IdealPresentation(nvars, tuple(gens), tuple(charts))


def unit_ideal(nvars: int) -> IdealPresentation:
    one = Poly.one(nvars)
    return IdealPresentation(
        nvars, (one,), tuple((Poly.one(nvars - 1),) for _ in range(nvars))
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


def staircase_dimension(basis, nvars: int) -> int:
    """Krull dimension of the chart quotient from the leading-term staircase.

    -1 for the unit ideal (empty chart), nvars for the zero ideal.  A subset
    S of variables is independent when no leading monomial is supported
    entirely inside S; the dimension is the largest independent size.
    """
    basis = [g for g in basis if g]
    if not basis:
        return nvars
    lms = [g.leading_monomial() for g in basis]
    if any(sum(lm) == 0 for lm in lms):
        return -1
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in lms]
    for size in range(nvars, 0, -1):
        for subset in combinations(range(nvars), size):
            sset = set(subset)
            if all(not (sup <= sset) for sup in supports):
                return size
    return 0


def projective_dimension(ideal: IdealPresentation) -> int:
    """Dimension of the projective subscheme: the max over chart dimensions,
    -1 when every chart is empty."""
    return max(staircase_dimension(basis, ideal.nvars - 1) for basis in ideal.charts)
