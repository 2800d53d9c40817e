"""Concrete twisted 1-forms on P^n and their singular schemes.

A twisted 1-form of twist r is a coefficient vector (A_0, ..., A_n) of
homogeneous degree r-1 polynomials satisfying the Euler relation
sum x_i A_i = 0; it is a global section of Omega^1(r).  The lab builds
logarithmic and pencil examples, presents the singular scheme
Z = V(A_0, ..., A_n) through chart Groebner bases, computes the exact
space of twist-r forms vanishing on Z, and turns its dimension into a
uniqueness verdict.
"""

from __future__ import annotations

import random
from math import lcm

from ._record import record
from .checkers import TheoremReport, check_codim1_generic
from .errors import ConsistencyError, EulerViolation, InputError, ScaleExceeded
# kernel_basis is unused here but stays a pfaff attribute: perfbench's traced
# test reads pnsheaf.pfaff.kernel_basis
from .linalg import _kernel, kernel_basis  # noqa: F401
from .polyideal import (
    MAX_CHART_VARS,
    MAX_GENERATOR_DEGREE,
    IdealPresentation,
    Poly,
    _check_degree,
    _divide,
    _drop_variable,
    _monomial_keys,
    _reducers,
    _unit,
    ideal_presentation,
    monomials_of_degree,
    parse_poly,
    projective_dimension,
)
from .weights import binom

# Linear systems with more unknowns are refused before any monomial list is
# built; the largest in the examples has 224 (the (3,3) pencil on P^3).
MAX_UNKNOWNS = 500

SATURATION_NOTE = (
    "vanishing on the singular scheme is tested as ideal membership on every "
    "affine chart, so the saturated ideal is what counts"
)


@record
class TwistedOneForm:
    """Coefficients of a global section of Omega^1(twist) on P^ambient."""

    ambient: int
    twist: int
    coeffs: tuple[Poly, ...]

    def __post_init__(self):
        n = self.ambient
        if len(self.coeffs) != n + 1:
            raise InputError(f"need n+1 = {n + 1} coefficients, got {len(self.coeffs)}")
        if all(not c for c in self.coeffs):
            raise InputError("the zero coefficient vector is not a twisted form")
        for c in self.coeffs:
            if c.nvars != n + 1:
                raise InputError("coefficient in the wrong polynomial ring")
            if c and (not c.is_homogeneous() or c.degree() != self.twist - 1):
                raise InputError(
                    f"coefficient {c} is not homogeneous of degree {self.twist - 1}"
                )
        # the residual sum x_i A_i over the lcm of the denominators: x_i times
        # a monomial adds their packed keys, and the products have degree twist
        _check_degree(self.twist)
        den = lcm(*(c._den for c in self.coeffs))
        out: dict[int, int] = {}
        for i, c in enumerate(self.coeffs):
            unit, scale = _unit(i, n + 1), den // c._den
            for k, v in c._terms.items():
                out[k + unit] = out.get(k + unit, 0) + scale * v
        if residual := Poly._of(n + 1, out, den):
            raise EulerViolation(residual)

    def __str__(self):
        parts = [f"({c}) dx{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(parts)


@record
class SingularScheme:
    ideal: IdealPresentation
    dimension: int

    def is_zero_dimensional(self) -> bool:
        return self.dimension == 0


@record
class SectionSpace:
    ambient: int
    twist: int
    dim: int
    basis: tuple[TwistedOneForm, ...]


@record
class UniquenessReport:
    form: TwistedOneForm
    scheme: SingularScheme
    sections: SectionSpace
    verdict: str  # "unique-up-to-scalar" or "not-determined"
    cross_check: TheoremReport
    notes: tuple[str, ...]


@record
class AnnihilatorSlice:
    degree: int
    dim: int
    generators: tuple[tuple[Poly, ...], ...]


# ---------------------------------------------------------------------------
# constructions


def log_form(factors, lam) -> TwistedOneForm:
    """sum_i lam_i F_0 ... (skip F_i) ... F_m dF_i, twist = sum deg F_i.

    Needs sum lam_i deg(F_i) = 0; otherwise the coefficients fail the Euler
    relation with residual (sum lam_i d_i) * prod F_i, and that violation is
    raised rather than patched.
    """
    from fractions import Fraction
    factors = list(factors)
    lam = [Fraction(x) for x in lam]
    if len(factors) != len(lam):
        raise InputError("need one weight per factor")
    if len(factors) < 2:
        raise InputError("need at least two factors")
    if any(x == 0 for x in lam):
        raise InputError("weights must be nonzero")
    nvars = factors[0].nvars
    n = nvars - 1
    degs = []
    for f in factors:
        if f.nvars != nvars:
            raise InputError("factors over different variable counts")
        if not f or not f.is_homogeneous() or f.degree() < 1:
            raise InputError(f"factor {f} must be homogeneous of positive degree")
        degs.append(f.degree())
    coeffs = []
    for j in range(nvars):
        acc = Poly.zero(nvars)
        for i, f in enumerate(factors):
            prod = Poly.constant(lam[i], nvars)
            for l, other in enumerate(factors):
                if l != i:
                    prod = prod * other
            acc = acc + prod * f.diff(j)
        coeffs.append(acc)
    return TwistedOneForm(n, sum(degs), tuple(coeffs))


def pencil_form(p: Poly, q: Poly) -> TwistedOneForm:
    """P dQ - Q dP for two degree-d forms; twist 2d."""
    if p.nvars != q.nvars:
        raise InputError("pencil members over different variable counts")
    if not p or not q or not p.is_homogeneous() or not q.is_homogeneous():
        raise InputError("pencil members must be nonzero homogeneous forms")
    if p.degree() != q.degree() or p.degree() < 1:
        raise InputError("pencil members must share a positive degree")
    nvars = p.nvars
    coeffs = tuple(p * q.diff(i) - q * p.diff(i) for i in range(nvars))
    return TwistedOneForm(nvars - 1, 2 * p.degree(), coeffs)


def random_pencil_form(n: int, d: int, seed: int) -> TwistedOneForm:
    """Seeded random degree-d pencil with integer coefficients in [-5, 5].

    Refuses, before drawing, a pencil whose singular scheme the Groebner
    layer would refuse: its coefficients have degree 2d - 1 and its charts
    n variables; then a seed of None, as random.Random would draw it from the
    operating system and the pencil could not be drawn again.
    """
    if n < 1 or d < 1:
        raise InputError(f"a random pencil needs n >= 1 and degree >= 1; got n={n}, degree={d}")
    if 2 * d - 1 > MAX_GENERATOR_DEGREE or n > MAX_CHART_VARS:
        raise ScaleExceeded(
            f"a degree-{d} pencil on P^{n} has coefficients of degree {2 * d - 1} and"
            f" {n}-variable charts; the Groebner layer takes degree at most"
            f" {MAX_GENERATOR_DEGREE} and at most {MAX_CHART_VARS} variables"
        )
    if seed is None:
        raise InputError("a random pencil needs a seed (--seed N), so that it can be drawn again")
    rng = random.Random(seed)
    nvars = n + 1
    monos = monomials_of_degree(nvars, d)

    def rand_poly() -> Poly:
        while True:
            p = Poly(nvars, {m: rng.randint(-5, 5) for m in monos})
            if p:
                return p

    while True:
        p, q = rand_poly(), rand_poly()
        try:
            return pencil_form(p, q)
        except InputError:
            continue  # e.g. proportional pair collapsed to zero coefficients


# ---------------------------------------------------------------------------
# singular scheme and section spaces


def _guard_unknowns(n: int, degree: int) -> None:
    """Refuse n+1 unknown polynomials of this degree on P^n above MAX_UNKNOWNS coefficients."""
    if (unknowns := (n + 1) * binom(n + degree, n)) > MAX_UNKNOWNS:
        raise ScaleExceeded(
            f"{n + 1} polynomials of degree {degree} on P^{n} have {unknowns} unknown"
            f" coefficients; the bound is {MAX_UNKNOWNS}"
        )


def _slot_polys(vec: dict[int, int], den: int, nvars: int, keys) -> tuple[Poly, ...]:
    """Split the vector vec / den, sparse {column: entry} and slot-major over
    the packed monomials keys, into one Poly per slot."""
    slots: list[dict[int, int]] = [{} for _ in range(nvars)]
    for col, c in vec.items():
        slot, j = divmod(col, len(keys))
        slots[slot][keys[j]] = c
    return tuple(Poly._of(nvars, terms, den) for terms in slots)


def _combination(coeffs: dict[int, int], vectors) -> dict[int, int]:
    """sum_j coeffs[j] * vectors[j] for sparse integer vectors, without zeros."""
    out: dict[int, int] = {}
    for j, c in coeffs.items():
        for col, v in vectors[j].items():
            out[col] = out.get(col, 0) + c * v
    return {col: v for col, v in out.items() if v}


def singular_scheme(w: TwistedOneForm) -> SingularScheme:
    gens = [c for c in w.coeffs if c]
    ideal = ideal_presentation(gens)
    return SingularScheme(ideal, projective_dimension(ideal))


def vanishing_section_space(n: int, r: int, z) -> SectionSpace:
    """Exact basis of twist-r forms vanishing on the subscheme z.

    Unknowns are the monomial coefficients of (A_0, ..., A_n) in degree r-1,
    slot-major.  Every A_i lies in the space V of degree-(r-1) polynomials
    whose dehomogenizations reduce to zero against z's chart bases, so the
    solve has two stages.  First V, over one slot's columns: it starts as
    every polynomial, and each chart keeps the combinations of its basis
    V_1, ..., V_k whose normal forms vanish.  Then the Euler relation
    sum x_i A_i = 0, over the (n+1)k coefficients c_(i,j) of
    A_i = sum_j c_(i,j) V_j.  That kernel, mapped back, already is the basis
    _kernel gives for the single system of Euler rows and per-slot membership
    rows, up to one positive scale per vector: a _kernel vector ends at its
    free column, is positive there and 0 at the other free ones, and mapping
    such vectors through a basis of that shape whose ends increase keeps the
    shape, in the chart stage and again through the Euler stage's slot blocks.
    """
    ideal = z.ideal if isinstance(z, SingularScheme) else z
    if not isinstance(ideal, IdealPresentation):
        raise InputError("z must be a SingularScheme or IdealPresentation")
    nvars = n + 1
    if ideal.nvars != nvars:
        raise InputError("subscheme lives in a different projective space")
    if r < 1:
        return SectionSpace(n, r, 0, ())
    _guard_unknowns(n, r - 1)
    keys = _monomial_keys(nvars, r - 1)
    width = len(keys)
    # V, the degree-(r-1) polynomials whose dehomogenizations reduce to zero
    # on every chart, as integer vectors {index of the monomial in keys:
    # entry}; it starts as every polynomial and is cut down chart by chart
    space = [{i: 1} for i in range(width)]
    for chart in range(nvars):
        if not space:
            break
        # the chart basis is converted to integer reducers once, not per polynomial
        reducers = _reducers(ideal.charts[chart], n)
        chart_keys = _drop_variable(keys, chart, nvars)
        # the pseudo-remainder (rem, s) of V_j is s times its normal form; over
        # the common denominator every normal form is an integer vector
        nfs = [_divide({chart_keys[i]: c for i, c in vec.items()}, reducers, n) for vec in space]
        den = lcm(*(s for _, s in nfs))
        # one row per remainder monomial mu: its coefficient in the normal
        # form of sum_j c_j V_j
        by_mu: dict[int, dict[int, int]] = {}
        for j, (rem, s) in enumerate(nfs):
            for mu, c in rem.items():
                by_mu.setdefault(mu, {})[j] = c * (den // s)
        if by_mu:
            kernel = _kernel(by_mu.values(), len(space))
            space = [_combination(vec, space) for vec, _ in kernel]
    k = len(space)
    # (j, entry of V_j) at each monomial index
    at_index: list[list[tuple[int, int]]] = [[] for _ in range(width)]
    for j, vec in enumerate(space):
        for m_idx, c in vec.items():
            at_index[m_idx].append((j, c))
    # Euler relation: coefficient of every degree-r monomial in sum x_i A_i,
    # over column slot * k + j for c_(slot,j) in A_slot = sum_j c_(slot,j) V_j;
    # x_i times a monomial adds their packed keys
    units = [_unit(i, nvars) for i in range(nvars)]
    euler: dict[int, dict[int, int]] = {}
    for key, entries in zip(keys, at_index):
        for i, unit in enumerate(units):
            euler.setdefault(key + unit, {}).update((i * k + j, c) for j, c in entries)
    # blocks[slot * k + j] is V_j in slot's columns, for column slot * k + j above
    blocks = [
        {slot * width + m_idx: c for m_idx, c in vec.items()} for slot in range(nvars) for vec in space
    ]
    forms = [_combination(vec, blocks) for vec, _ in _kernel(euler.values(), nvars * k)]
    # each form over its last entry is 1 there; the sort keeps every slot's term order
    kernel = [(dict(sorted(vec.items())), vec[max(vec)]) for vec in forms]
    try:
        basis_forms = tuple(
            TwistedOneForm(n, r, _slot_polys(vec, den, nvars, keys)) for vec, den in kernel
        )
    except InputError as exc:
        raise ConsistencyError(f"a computed section failed its check: {exc}") from exc
    return SectionSpace(n, r, len(kernel), basis_forms)


def singular_sections(w: TwistedOneForm, twist: int) -> tuple[SingularScheme, SectionSpace]:
    """Sing(w) and the twist-`twist` forms vanishing on it.

    Refused before the Groebner work when the section system is too large.
    """
    _guard_unknowns(w.ambient, twist - 1)
    scheme = singular_scheme(w)
    return scheme, vanishing_section_space(w.ambient, twist, scheme)


def annihilator_distribution(w: TwistedOneForm, bound: int) -> list[AnnihilatorSlice]:
    """Kernel of contraction with polynomial vector fields, degree by degree.

    A field (B_0, ..., B_n) of degree t pairs to sum A_i B_i; the kernel in
    degree 1 always holds the Euler field.
    """
    if bound < 0:
        raise InputError("bound must be nonnegative")
    _guard_unknowns(w.ambient, bound)
    nvars = w.ambient + 1
    # the form times the lcm of its coefficients' denominators: the kernel does not change
    den = lcm(*(a._den for a in w.coeffs))
    terms = [[(k, c * (den // a._den)) for k, c in a._terms.items()] for a in w.coeffs]
    slices = []
    for t in range(bound + 1):
        keys = _monomial_keys(nvars, t)
        # sparse integer rows {column: entry}, one per packed monomial of
        # sum A_i B_i; column slot * len(keys) + j holds the coefficient of
        # the monomial keys[j] in B_slot
        rows: dict[int, dict[int, int]] = {}
        for slot, slot_terms in enumerate(terms):
            for col, m in enumerate(keys, slot * len(keys)):
                for k, c in slot_terms:
                    rows.setdefault(k + m, {})[col] = c
        kernel = _kernel(rows.values(), nvars * len(keys))
        gens = tuple(_slot_polys(vec, den, nvars, keys) for vec, den in kernel)
        slices.append(AnnihilatorSlice(t, len(kernel), gens))
    return slices


def uniqueness_report(w: TwistedOneForm) -> UniquenessReport:
    """Is w determined, up to scalar, by its singular scheme?

    Computes the exact space of twist-r forms vanishing on Sing(w) and
    reports unique-up-to-scalar exactly when that space is a line.
    """
    scheme, sections = singular_sections(w, w.twist)
    verdict = "unique-up-to-scalar" if sections.dim == 1 else "not-determined"
    cross = check_codim1_generic(w.ambient, w.twist)
    notes = [SATURATION_NOTE]
    if not scheme.is_zero_dimensional():
        notes.append(
            f"singular scheme has dimension {scheme.dimension}; the"
            " zero-dimensionality hypothesis of the codimension-one statement fails"
        )
    return UniquenessReport(w, scheme, sections, verdict, cross, tuple(notes))


# ---------------------------------------------------------------------------
# form file round trip


def render_form_file(w: TwistedOneForm) -> str:
    lines = [f"P^{w.ambient} twist {w.twist}", *(f"A_{i}: {c}" for i, c in enumerate(w.coeffs))]
    return "\n".join(lines) + "\n"


def parse_form_file(text: str) -> TwistedOneForm:
    """Parse the plain-text format:

        P^n twist r
        A_0: <polynomial>
        ...
        A_n: <polynomial>
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty form file")
    head = lines[0].split()
    if len(head) != 3 or not head[0].startswith("P^") or head[1] != "twist":
        raise InputError(f"bad header {lines[0]!r}; expected 'P^n twist r'")
    try:
        n = int(head[0][2:])
        r = int(head[2])
    except ValueError as exc:
        raise InputError(f"bad header numbers in {lines[0]!r}") from exc
    bodies: dict[int, str] = {}
    for ln in lines[1:]:
        if ":" not in ln:
            raise InputError(f"bad coefficient line {ln!r}")
        label, body = ln.split(":", 1)
        label = label.strip()
        if not label.startswith("A_"):
            raise InputError(f"bad coefficient label {label!r}")
        try:
            idx = int(label[2:])
        except ValueError as exc:
            raise InputError(f"bad coefficient label {label!r}") from exc
        if not 0 <= idx <= n:
            raise InputError(f"coefficient index {idx} out of range for P^{n}")
        if idx in bodies:
            raise InputError(f"duplicate coefficient A_{idx}")
        bodies[idx] = body.strip()
    # distinct indices in 0..n: n + 1 of them means none is missing
    if len(bodies) < n + 1:
        raise InputError(f"P^{n} needs {n + 1} coefficient lines; found {len(bodies)}")
    coeffs = {idx: parse_poly(body, n + 1) for idx, body in bodies.items()}
    return TwistedOneForm(n, r, tuple(coeffs[i] for i in range(n + 1)))
