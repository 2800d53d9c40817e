"""Multivariate polynomials, an integer Buchberger kernel, and chart membership.

A ``Poly`` stores its value once: a dict from packed monomial to int over
one positive denominator coprime to the coefficients as a whole, so equal
values compare and hash equal.  A packed monomial is one int,
    key = (deg << span) - raw,   raw = sum_k e_k << (_BITS * k),   span = _BITS * nvars,
so multiplying monomials adds keys and the degrevlex order (x0 > x1 > ...)
is integer order (Monagan-Pearce, CASC 2007).  raw keeps each exponent in a
_BITS-wide field whose top bit stays clear, so a difference of raws with no
top bit set means divisibility; a monomial of degree 2**31 or more is
refused with ScaleExceeded.  Buchberger and division run on the stored
integer terms, pseudo-reducing with a sorted list of pending terms.  Fractions
appear only at the edges: ``terms``, rational inputs to ``Poly``, and
linalg's ``kernel_basis``.  ``parse_poly`` reads its text straight into
packed terms over one denominator, rational literals included.
Buchberger drops useless S-pairs by Gebauer and Moeller's criteria and
reduces the pair of least lcm first.
Saturation-related questions are handled chart by chart: a homogeneous ideal
is presented through the reduced Groebner bases of its dehomogenizations on
every affine chart x_i = 1, and membership means reduction to zero on each
chart.  A deliberate desk-scale guard refuses more than 4 variables per
chart or generators of degree above 8.
"""

from __future__ import annotations

import re
from bisect import insort
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm

from ._record import record
from .errors import InputError, ParseError, ScaleExceeded, read_int

MAX_CHART_VARS = 4
MAX_GENERATOR_DEGREE = 8

_BITS = 32
_MASK = (1 << _BITS) - 1
_EXPONENT_LIMIT = 1 << (_BITS - 1)


def _check_degree(deg: int) -> None:
    if deg >= _EXPONENT_LIMIT:
        raise ScaleExceeded(
            f"a monomial of degree {deg} exceeds the polynomial degree bound {_EXPONENT_LIMIT - 1}"
        )


def _top_bits(nvars: int) -> int:
    return sum(_EXPONENT_LIMIT << (_BITS * k) for k in range(nvars))


def _pack(expo) -> int:
    deg = sum(expo)
    _check_degree(deg)
    raw = 0
    for e in reversed(expo):
        raw = (raw << _BITS) + e
    return (deg << (_BITS * len(expo))) - raw


def _raw(key: int, span: int) -> int:
    # 0 <= raw < 2**span, so the degree is key / 2**span rounded up
    return (-(-key >> span) << span) - key


def _lcm_key(a: int, b: int, span: int, top: int) -> int:
    """The packed lcm of two monomials given by their raws, top the top bits
    of their fields: the field-wise max, whose degree is its field sum."""
    # a field of (a | top) - b keeps its top bit where a's exponent is at
    # least b's, and never borrows from the next one
    ge = ((a | top) - b) & top
    mask = (ge << 1) - (ge >> (_BITS - 1))  # every bit of those fields
    raw = (a & mask) | (b & ~mask)
    deg = raw % _MASK  # 2**32 = 1 mod _MASK, and the sum is below _MASK
    _check_degree(deg)
    return (deg << span) - raw


def _unpack(key: int, nvars: int) -> tuple[int, ...]:
    raw = _raw(key, _BITS * nvars)
    return tuple((raw >> (_BITS * k)) & _MASK for k in range(nvars))


def _unit(i: int, nvars: int) -> int:
    """The packed monomial x_i in nvars variables."""
    return (1 << (_BITS * nvars)) - (1 << (_BITS * i))


def _drop_variable(keys, i: int, nvars: int) -> list[int]:
    """The packed monomials in nvars - 1 variables that the packed monomials
    keys in nvars variables become when x_i = 1."""
    span, shift = _BITS * nvars, _BITS * i
    low, out = (1 << shift) - 1, []
    for key in keys:
        deg = -(-key >> span)
        raw = (deg << span) - key
        # the fields above x_i's move down one; the degree loses x_i's exponent
        rest = (raw & low) | (raw >> (shift + _BITS) << shift)
        out.append(((deg - ((raw >> shift) & _MASK)) << (span - _BITS)) - rest)
    return out


def monomials_of_degree(nvars: int, d: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree d, largest first in degrevlex."""
    return [_unpack(key, nvars) for key in _monomial_keys(nvars, d)]


def _monomial_keys(nvars: int, d: int) -> list[int]:
    """The packed monomials of total degree d, largest first."""
    units = [_unit(i, nvars) for i in range(nvars)]
    return sorted(map(sum, combinations_with_replacement(units, d)), reverse=True)


class Poly:
    """Immutable multivariate polynomial with rational coefficients.

    Each exponent vector must be a tuple of nvars non-negative ints (else
    InputError) of degree below 2**31 (else ScaleExceeded).
    """

    __slots__ = ("nvars", "_terms", "_den")

    def __init__(self, nvars: int, terms: dict | None = None):
        coeffs = {}
        for expo, c in (terms or {}).items():
            if type(c) is not int:
                from fractions import Fraction
                c = Fraction(c)
            if not c:
                continue
            if type(expo) is not tuple or len(expo) != nvars or not all(
                type(x) is int and x >= 0 for x in expo
            ):
                raise InputError(f"bad exponent vector {expo} for {nvars} variables")
            coeffs[_pack(expo)] = c
        # reduced fractions over the lcm of their denominators are in lowest terms
        self.nvars = nvars
        self._den = den = lcm(*(c.denominator for c in coeffs.values()))
        self._terms = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}

    @classmethod
    def _of(cls, nvars: int, terms: dict[int, int], den: int) -> "Poly":
        """The Poly (sum of the packed integer terms) / den, for den != 0."""
        terms = {k: c for k, c in terms.items() if c}
        g = gcd(den, *terms.values())
        if den < 0:
            g = -g
        if g != 1:
            terms = {k: c // g for k, c in terms.items()}
        out = cls.__new__(cls)
        out.nvars, out._terms, out._den = nvars, terms, den // g
        return out

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """A fresh {exponent vector: coefficient} dict of the nonzero terms."""
        from fractions import Fraction
        return {_unpack(k, self.nvars): Fraction(c, self._den) for k, c in self._terms.items()}

    # construction helpers ---------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Poly":
        expo = [0] * nvars
        expo[i] = 1
        return cls(nvars, {tuple(expo): 1})

    @classmethod
    def constant(cls, c, nvars: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    # ring operations --------------------------------------------------------

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly) and self.nvars == other.nvars
            and self._den == other._den and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.nvars, self._den, frozenset(self._terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        self._match(other)
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        out = {k: a * c for k, c in self._terms.items()}
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + b * c
        return Poly._of(self.nvars, out, den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return Poly._of(self.nvars, {k: -c for k, c in self._terms.items()}, self._den)

    def __mul__(self, other: "Poly") -> "Poly":
        self._match(other)
        if self and other:
            _check_degree(self.degree() + other.degree())
        out: dict[int, int] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
        return Poly._of(self.nvars, out, self._den * other._den)

    def _match(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise InputError("polynomials over different variable counts")

    # structure --------------------------------------------------------------

    def _lead(self) -> int:
        """The packed leading monomial."""
        if not self._terms:
            raise InputError("zero polynomial has no leading monomial")
        return max(self._terms)

    def _check_variable(self, i: int) -> None:
        if not 0 <= i < self.nvars:
            raise InputError(f"no variable x{i} among {self.nvars}")

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return -(-max(self._terms) >> (_BITS * self.nvars))

    def is_homogeneous(self) -> bool:
        if not self._terms:
            return True
        span = _BITS * self.nvars
        return -(-min(self._terms) >> span) == -(-max(self._terms) >> span)

    def diff(self, i: int) -> "Poly":
        self._check_variable(i)
        span, shift, unit = _BITS * self.nvars, _BITS * i, _unit(i, self.nvars)
        out = {}
        for k, c in self._terms.items():
            if e := (_raw(k, span) >> shift) & _MASK:
                out[k - unit] = c * e
        return Poly._of(self.nvars, out, self._den)

    def dehomogenize(self, i: int) -> "Poly":
        """Set x_i = 1 and drop the variable."""
        self._check_variable(i)
        out: dict[int, int] = {}
        for key, c in zip(_drop_variable(self._terms, i, self.nvars), self._terms.values()):
            out[key] = out.get(key, 0) + c
        return Poly._of(self.nvars - 1, out, self._den)

    def __str__(self):
        if not self._terms:
            return "0"
        span, den, bits = _BITS * self.nvars, self._den, []
        for key, c in sorted(self._terms.items(), reverse=True):
            factors, raw, i = [], _raw(key, span), 0
            while raw:  # x_i's exponent is the lowest field left
                if e := raw & _MASK:
                    factors.append(f"x{i}" if e == 1 else f"x{i}^{e}")
                raw >>= _BITS
                i += 1
            body = "*".join(factors)
            g = gcd(c, den)
            size = str(abs(c) // g) if g == den else f"{abs(c) // g}/{den // g}"
            piece = size if not body else body if abs(c) == den else f"{size}*{body}"
            bits.append(("- " if c < 0 else "+ ") + piece)
        text = " ".join(bits)
        return ("-" if text[0] == "-" else "") + text[2:]

    __repr__ = __str__


# ---------------------------------------------------------------------------
# parsing


# One factor and the separator before it: '+' or '-' starts a term, '*'
# continues one, and only the first factor of the text has none.  An exponent
# is maximal and not a fraction; where the scan stops, _parse_error says why.
_FACTOR_RE = re.compile(
    r"(?:^\s*|\s*([-+*])\s*)(?:(\d+)(?:/(\d+))?|x(\d+)(?:\s*\^\s*(\d+)(?!\d|/\d))?)"
)
_FACTOR = ("coefficient", "variable")


def parse_poly(text: str, nvars: int) -> Poly:
    """Parse sums of terms like 3/2*x0^2*x1 - x2 + 5."""
    # the terms over the denominator den, and apart the terms past the packed
    # degree range by exponent vector, refused below unless they cancel
    terms: dict[int, int] = {}
    huge: dict[tuple[int, ...], int] = {}
    den = 1
    for key, deg, num, d, where in _scan_terms(text, nvars):
        if den % d:
            g = d // gcd(den, d)
            den *= g
            terms = {k: c * g for k, c in terms.items()}
            huge = {e: c * g for e, c in huge.items()}
        if deg < _EXPONENT_LIMIT:
            terms[key] = terms.get(key, 0) + num * (den // d)
        else:
            expo = _exponents(text, where, nvars)
            huge[expo] = huge.get(expo, 0) + num * (den // d)
    for expo, c in huge.items():
        if c:
            _check_degree(sum(expo))
    return Poly._of(nvars, terms, den)


def _scan_terms(text: str, nvars: int):
    """Yield (packed key, degree, numerator, denominator, (start, end)) for
    each term of text; the key is exact while the degree is below 2**31."""
    units = [_unit(i, nvars) for i in range(nvars)]
    pos, last = 0, None
    for m in _FACTOR_RE.finditer(text):
        if m.start() != pos:
            break
        sep, digits, denom, var, power = m.groups()
        if sep != "*":
            if last is not None:
                yield key, deg, num, d, (start, pos)
            key, deg, num, d, start = 0, 0, -1 if sep == "-" else 1, 1, pos
        elif last is None:
            break  # a leading '*'
        if digits is not None:
            at = m.start(2)
            num *= read_int(digits, at)
            if denom is not None:
                if not (q := read_int(denom, at)):
                    raise ParseError(f"zero denominator in {digits}/{denom}", at)
                d *= q
        else:
            at = m.end(1) if sep == "*" else m.start(4) - 1
            if (i := read_int(var, at)) >= nvars:
                raise ParseError(f"variable x{i} out of range (have x0..x{nvars - 1})", at)
            e = 1 if power is None else read_int(power, text.index("^", m.end(4)) + 1)
            key += e * units[i]
            deg += e
        pos, last = m.end(), m
    if last is None or text[pos:].strip():
        raise _parse_error(text, pos, last)
    yield key, deg, num, d, (start, pos)


def _exponents(text: str, where: tuple[int, int], nvars: int) -> tuple[int, ...]:
    """The exponent vector of the term text[start:end] that _scan_terms read,
    where = (start, end); the refusal of a monomial past the packed range
    needs it, since the packed fields of such a term may overflow."""
    expo = [0] * nvars
    for m in _FACTOR_RE.finditer(text, *where):
        if m[4] is not None:
            expo[int(m[4])] += 1 if m[5] is None else int(m[5])
    return tuple(expo)


def _parse_error(text: str, pos: int, last) -> ParseError:
    """Why the scan of text stopped at pos: right after the factor match
    last, or at the start when last is None."""
    at = len(text) - len(text[pos:].lstrip())  # past the space, str.isspace as \s
    c = text[at:at + 1]
    if last is None and not c:
        return ParseError("empty polynomial", at, ("term",))
    if last is not None and c == "*":
        after = at + 1
        nxt = len(text) - len(text[after:].lstrip())
        if text[nxt:nxt + 1] == "*":
            return ParseError("unexpected '*'", after, _FACTOR)
        return ParseError("expected a factor after '*'", after, _FACTOR)
    if c in ("+", "-"):
        at = len(text) - len(text[at + 1:].lstrip())
        c = text[at:at + 1]
    elif last is not None:
        if c == "^" and last[4] is not None and last[5] is None:
            return ParseError("expected integer exponent", at + 1, ("integer",))
        return ParseError("missing term separator", at, ("+", "-"))
    # a term starts at `at` but no factor does
    return ParseError("unexpected '*'" if c == "*" else "expected a term", at, _FACTOR)


# ---------------------------------------------------------------------------
# division and Buchberger on the stored integer terms
#
# Every intermediate polynomial is a primitive integer polynomial, a dict
# from packed monomial to int.  A reducer is the tuple (raw of its leading
# monomial, leading monomial, leading coefficient > 0, tail terms).


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
    in an ascending list (insort), the largest popped first; a step scales
    by the cofactor of the reducer's leading coefficient instead of dividing
    by it, so every coefficient stays an integer.  r is built largest
    monomial first.
    """
    span, top = _BITS * nvars, _top_bits(nvars)
    pending = dict(terms)
    queue = sorted(pending)
    rem: dict[int, int] = {}
    scale = 1
    while queue:
        key = queue.pop()
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
                insort(queue, k)
    return rem, scale


def _reducers(basis, nvars: int) -> list[tuple]:
    """The reducers of the nonzero members of an ordered basis, in order."""
    return [_reducer(g._terms, nvars) for g in basis if g]


def _s_pair(f: tuple, g: tuple, lcm_key: int) -> tuple[dict[int, int], int]:
    """(terms, den): the S-polynomial of two reducers, whose packed leading
    monomials have the lcm lcm_key, is terms / den."""
    _, f_lm, f_lc, f_tail = f
    _, g_lm, g_lc, g_tail = g
    h = gcd(f_lc, g_lc)
    terms: dict[int, int] = {}
    for tail, shift, c in ((f_tail, lcm_key - f_lm, g_lc // h),
                           (g_tail, lcm_key - g_lm, -f_lc // h)):
        for k, v in tail:
            k += shift
            terms[k] = terms.get(k, 0) + c * v
    return terms, f_lc * g_lc // h


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
    pairs: list[tuple[int, int, int]] = []  # (packed lcm, i, j), i < j, least last

    def update(h: tuple) -> None:
        j = len(basis)
        # (packed lcm with h, leading monomials not coprime, i); on equal
        # lcms a coprime pair sorts first, so it drops the others.  Coprime
        # monomials have their product as lcm, and a product adds keys.
        news = []
        for i, g in enumerate(basis):
            key = _lcm_key(g[0], h[0], span, top)
            news.append((key, key != g[1] + h[1], i))
        news.sort()
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
        kept.sort(reverse=True)
        pairs[:] = kept
        basis.append(h)

    for g in gens:
        update(_reducer(g._terms, nvars))
    while pairs:
        lcm_key, i, j = pairs.pop()
        rem, _ = _divide(_s_pair(basis[i], basis[j], lcm_key)[0], basis, nvars)
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
    # monic: the primitive terms over the leading coefficient
    return tuple(Poly._of(nvars, dict([(lm, lc), *tail]), lc) for _, lm, lc, tail in reversed(kept))


# ---------------------------------------------------------------------------
# homogeneous ideals via charts


@record
class IdealPresentation:
    """Homogeneous generators plus reduced chart bases (x_i = 1 for each i)."""

    nvars: int  # number of homogeneous coordinates, n + 1
    generators: tuple[Poly, ...]
    charts: tuple[tuple[Poly, ...], ...]


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


def staircase_dimension(basis, nvars: int) -> int:
    """Krull dimension of the chart quotient from the leading-term staircase.

    -1 for the unit ideal (empty chart), nvars for the zero ideal.  A subset
    S of variables is independent when no leading monomial is supported
    entirely inside S; the dimension is the largest independent size.
    """
    basis = [g for g in basis if g]
    if not basis:
        return nvars
    # the variables of each leading monomial, as a bit mask
    supports = []
    for g in basis:
        raw = _raw(g._lead(), _BITS * g.nvars)
        supports.append(sum(1 << i for i in range(g.nvars) if (raw >> (_BITS * i)) & _MASK))
    if 0 in supports:  # a constant leading monomial: the unit ideal
        return -1
    for size in range(nvars, 0, -1):
        for subset in combinations(range(nvars), size):
            inside = sum(1 << i for i in subset)
            if all(sup & ~inside for sup in supports):
                return size
    return 0


def projective_dimension(ideal: IdealPresentation) -> int:
    """Dimension of the projective subscheme: the max over chart dimensions,
    -1 when every chart is empty."""
    return max(staircase_dimension(basis, ideal.nvars - 1) for basis in ideal.charts)
