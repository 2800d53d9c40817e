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
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .checkers import TheoremReport, check_codim1_generic
from .errors import EulerViolation, InputError, ScaleExceeded
from .linalg import _kernel, in_row_span, kernel_basis
from .polyideal import (
    MAX_CHART_VARS,
    MAX_GENERATOR_DEGREE,
    IdealPresentation,
    Poly,
    _divide,
    _pack,
    _reducers,
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


@dataclass(frozen=True)
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
        residual = Poly.zero(n + 1)
        for i, c in enumerate(self.coeffs):
            residual = residual + Poly.variable(i, n + 1) * c
        if residual:
            raise EulerViolation(residual)

    def __str__(self):
        parts = [f"({c}) dx{i}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(parts)


@dataclass(frozen=True)
class SingularScheme:
    ideal: IdealPresentation
    dimension: int

    def is_zero_dimensional(self) -> bool:
        return self.dimension == 0

    def is_empty(self) -> bool:
        return self.dimension == -1


@dataclass(frozen=True)
class SectionSpace:
    ambient: int
    twist: int
    dim: int
    basis: tuple[TwistedOneForm, ...]


@dataclass(frozen=True)
class UniquenessReport:
    form: TwistedOneForm
    scheme: SingularScheme
    sections: SectionSpace
    verdict: str  # "unique-up-to-scalar" or "not-determined"
    cross_check: TheoremReport
    notes: tuple[str, ...]


@dataclass(frozen=True)
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
    n variables.
    """
    if n < 1 or d < 1:
        raise InputError(f"a random pencil needs n >= 1 and degree >= 1; got n={n}, degree={d}")
    if 2 * d - 1 > MAX_GENERATOR_DEGREE or n > MAX_CHART_VARS:
        raise ScaleExceeded(
            f"a degree-{d} pencil on P^{n} has coefficients of degree {2 * d - 1} and"
            f" {n}-variable charts; the Groebner layer takes degree at most"
            f" {MAX_GENERATOR_DEGREE} and at most {MAX_CHART_VARS} variables"
        )
    rng = random.Random(seed)
    nvars = n + 1
    monos = monomials_of_degree(nvars, d)

    def rand_poly() -> Poly:
        while True:
            terms = {m: Fraction(rng.randint(-5, 5)) for m in monos}
            p = Poly(nvars, terms)
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


def _slot_polys(vec, nvars: int, monos) -> tuple[Poly, ...]:
    """Split a flat vector, slot-major over monos, into one Poly per slot."""
    width = len(monos)
    return tuple(
        Poly(nvars, {m: c for m, c in zip(monos, vec[slot * width:(slot + 1) * width]) if c})
        for slot in range(nvars)
    )


def singular_scheme(w: TwistedOneForm) -> SingularScheme:
    gens = [c for c in w.coeffs if c]
    ideal = ideal_presentation(gens)
    return SingularScheme(ideal, projective_dimension(ideal))


def vanishing_section_space(n: int, r: int, z) -> SectionSpace:
    """Exact basis of twist-r forms vanishing on the subscheme z.

    Unknowns are the monomial coefficients of (A_0, ..., A_n) in degree r-1;
    the linear conditions are the Euler relation plus, chart by chart, the
    normal form of every dehomogenized coefficient against z's chart basis.
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
    monos = monomials_of_degree(nvars, r - 1)
    width = len(monos)
    index = {m: i for i, m in enumerate(monos)}
    # sparse integer rows {column: entry}; column slot * width + index[m]
    # holds the coefficient of the monomial m in A_slot
    rows: list[dict[int, int]] = []
    # Euler relation: coefficient of every degree-r monomial in sum x_i A_i
    for m in monomials_of_degree(nvars, r):
        rows.append({
            i * width + index[m[:i] + (m[i] - 1,) + m[i + 1:]]: 1 for i in range(nvars) if m[i]
        })
    # chart-wise membership of every coefficient
    for chart in range(nvars):
        # the chart basis is converted to integer reducers once, not per monomial
        reducers = _reducers(ideal.charts[chart], n)
        # the pseudo-remainder (rem, s) of a monomial is s times its normal
        # form; over the chart's common denominator every normal form is an
        # integer vector
        nfs = [_divide({_pack(m[:chart] + m[chart + 1:]): 1}, reducers, n) for m in monos]
        den = lcm(*(s for _, s in nfs))
        by_mu: dict[int, dict[int, int]] = {}
        for m_idx, (rem, s) in enumerate(nfs):
            for mu, c in rem.items():
                by_mu.setdefault(mu, {})[m_idx] = c * (den // s)
        # one row per slot and remainder monomial mu: the coefficient of mu
        # in the normal form of A_slot
        for shift in range(0, nvars * width, width):
            rows.extend({shift + m_idx: c for m_idx, c in row.items()} for row in by_mu.values())
    kernel = _kernel(rows, nvars * width)
    basis_forms = tuple(TwistedOneForm(n, r, _slot_polys(vec, nvars, monos)) for vec in kernel)
    return SectionSpace(n, r, len(kernel), basis_forms)


def singular_sections(w: TwistedOneForm, twist: int) -> tuple[SingularScheme, SectionSpace]:
    """Sing(w) and the twist-`twist` forms vanishing on it.

    Refused before the Groebner work when the section system is too large.
    """
    _guard_unknowns(w.ambient, twist - 1)
    scheme = singular_scheme(w)
    return scheme, vanishing_section_space(w.ambient, twist, scheme)


def form_coefficient_vector(w: TwistedOneForm) -> list[Fraction]:
    """Flatten a form into the unknown layout used by vanishing_section_space."""
    monos = monomials_of_degree(w.ambient + 1, w.twist - 1)
    index = {m: i for i, m in enumerate(monos)}
    vec = [Fraction(0)] * ((w.ambient + 1) * len(monos))
    for slot, poly in enumerate(w.coeffs):
        for m, c in poly.terms.items():
            vec[slot * len(monos) + index[m]] = c
    return vec


def section_space_contains(space: SectionSpace, w: TwistedOneForm) -> bool:
    if space.ambient != w.ambient or space.twist != w.twist:
        return False
    rows = [list(form_coefficient_vector(b)) for b in space.basis]
    return in_row_span(rows, form_coefficient_vector(w))


def annihilator_distribution(w: TwistedOneForm, bound: int) -> list[AnnihilatorSlice]:
    """Kernel of contraction with polynomial vector fields, degree by degree.

    A field (B_0, ..., B_n) of degree t pairs to sum A_i B_i; the kernel in
    degree 1 always holds the Euler field.
    """
    if bound < 0:
        raise InputError("bound must be nonnegative")
    _guard_unknowns(w.ambient, bound)
    nvars = w.ambient + 1
    slices = []
    for t in range(bound + 1):
        monos = monomials_of_degree(nvars, t)
        index = {m: i for i, m in enumerate(monos)}
        ncols = nvars * len(monos)
        target = {}
        for slot in range(nvars):
            a = w.coeffs[slot]
            for m in monos:
                for e, c in a.terms.items():
                    key = tuple(x + y for x, y in zip(e, m))
                    row = target.setdefault(key, [Fraction(0)] * ncols)
                    row[slot * len(monos) + index[m]] += c
        rows = list(target.values())
        kernel = kernel_basis(rows, ncols)
        gens = tuple(_slot_polys(vec, nvars, monos) for vec in kernel)
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
    lines = [f"P^{w.ambient} twist {w.twist}"]
    for i, c in enumerate(w.coeffs):
        lines.append(f"A_{i}: {c}")
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
