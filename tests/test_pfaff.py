"""Twisted one-forms: construction, singular schemes, uniqueness."""

from __future__ import annotations

import json
import pathlib
from fractions import Fraction

import pytest

from pnsheaf import (
    EulerViolation,
    FAIL,
    InputError,
    Poly,
    SATURATION_NOTE,
    ScaleExceeded,
    TwistedOneForm,
    annihilator_distribution,
    bott_closed_form,
    form_coefficient_vector,
    kernel_basis,
    log_form,
    parse_form_file,
    parse_poly,
    pencil_form,
    random_pencil_form,
    render_form_file,
    section_space_contains,
    singular_scheme,
    uniqueness_report,
    unit_ideal,
    vanishing_section_space,
)
from pnsheaf import pfaff

CORPUS = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cli_corpus.json").read_text(encoding="utf-8")
)


def _p(text: str, nvars: int) -> Poly:
    return parse_poly(text, nvars)


def _coordinate_log(lam=(1, 1, -2)) -> TwistedOneForm:
    xs = [Poly.variable(i, 3) for i in range(3)]
    return log_form(xs, lam)


# ---------------------------------------------------------------------------
# construction and the Euler relation


def test_coordinate_log_form_coefficients():
    w = _coordinate_log()
    assert w.ambient == 2 and w.twist == 3
    assert w.coeffs == (
        _p("x1*x2", 3),
        _p("x0*x2", 3),
        _p("-2*x0*x1", 3),
    )


def test_euler_violation_carries_residual():
    with pytest.raises(EulerViolation) as exc:
        TwistedOneForm(2, 3, (_p("x1*x2", 3), _p("x0*x2", 3), _p("x0*x1", 3)))
    assert exc.value.residual == _p("3*x0*x1*x2", 3)


def test_form_validation():
    with pytest.raises(InputError):
        TwistedOneForm(2, 3, (Poly.zero(3), Poly.zero(3), Poly.zero(3)))
    with pytest.raises(InputError):
        TwistedOneForm(2, 3, (_p("x1", 3), _p("-x0", 3)))  # too few coefficients
    with pytest.raises(InputError):
        # degree does not match the twist
        TwistedOneForm(2, 4, (_p("x1", 3), _p("-x0", 3), Poly.zero(3)))


def test_log_form_validation():
    xs = [Poly.variable(i, 3) for i in range(3)]
    with pytest.raises(InputError):
        log_form(xs[:1], (1,))
    with pytest.raises(InputError):
        log_form(xs, (1, 0, -1))
    with pytest.raises(InputError):
        log_form(xs, (1, 1))
    with pytest.raises(InputError):
        log_form([xs[0], _p("x0 + 1", 3)], (1, -1))


def test_log_form_with_unbalanced_weights_violates_euler():
    xs = [Poly.variable(i, 3) for i in range(3)]
    with pytest.raises(EulerViolation):
        log_form(xs, (1, 1, 1))


def test_pencil_form_of_coordinates():
    w = pencil_form(Poly.variable(0, 3), Poly.variable(1, 3))
    assert w.twist == 2
    assert w.coeffs == (_p("-x1", 3), _p("x0", 3), Poly.zero(3))


def test_pencil_form_validation():
    with pytest.raises(InputError):
        pencil_form(Poly.variable(0, 3), _p("x1^2", 3))
    with pytest.raises(InputError):
        pencil_form(Poly.one(3), Poly.one(3))


def test_random_pencil_is_deterministic_per_seed():
    a = random_pencil_form(2, 2, 7)
    b = random_pencil_form(2, 2, 7)
    c = random_pencil_form(2, 2, 8)
    assert a == b
    assert a != c
    assert a.twist == 4


# ---------------------------------------------------------------------------
# singular schemes


def test_coordinate_log_form_singular_scheme_is_points():
    scheme = singular_scheme(_coordinate_log())
    assert scheme.dimension == 0
    assert scheme.is_zero_dimensional()


def test_degenerate_pencil_has_positive_dimensional_scheme():
    w = pencil_form(_p("x0^2", 3), _p("x0*x1", 3))
    scheme = singular_scheme(w)
    assert scheme.dimension == 1


# ---------------------------------------------------------------------------
# section spaces


def test_unconstrained_section_space_matches_closed_form():
    for n in range(2, 4):
        for r in range(2, 6):
            space = vanishing_section_space(n, r, unit_ideal(n + 1))
            assert space.dim == bott_closed_form(1, r, n).h(0), (n, r)
            assert len(space.basis) == space.dim


def test_section_space_basis_members_are_valid_forms():
    space = vanishing_section_space(2, 2, unit_ideal(3))
    for b in space.basis:
        assert b.ambient == 2 and b.twist == 2  # Euler checked on construction


def test_family_member_lies_in_the_cut_out_space():
    w = _coordinate_log((1, 1, -2))
    space = vanishing_section_space(2, 3, singular_scheme(w))
    assert section_space_contains(space, w)
    assert section_space_contains(space, _coordinate_log((1, -2, 1)))
    assert section_space_contains(space, _coordinate_log((3, 3, -6)))


def test_unrelated_form_is_outside_the_space():
    w = _coordinate_log((1, 1, -2))
    space = vanishing_section_space(2, 3, singular_scheme(w))
    other = log_form(
        [Poly.variable(0, 3), Poly.variable(1, 3), _p("x0 + x1", 3)], (1, 1, -2)
    )
    assert not section_space_contains(space, other)


def test_coefficient_vector_layout_round_trips():
    w = _coordinate_log()
    vec = form_coefficient_vector(w)
    assert sum(1 for v in vec if v) == 3
    assert set(v for v in vec if v) == {Fraction(1), Fraction(-2)}


# ---------------------------------------------------------------------------
# uniqueness reports


def test_coordinate_log_form_is_not_determined():
    report = uniqueness_report(_coordinate_log())
    assert report.sections.dim == 2
    assert report.verdict == "not-determined"
    assert report.cross_check.theorem == "thm-1-4"
    assert report.cross_check.verdict == FAIL  # twist 3 = n + 1 misses the bound
    assert report.notes == (SATURATION_NOTE,)


def test_generic_pencil_is_unique_up_to_scalar():
    report = uniqueness_report(random_pencil_form(2, 2, 7))
    assert report.scheme.dimension == 0
    assert report.sections.dim == 1
    assert report.verdict == "unique-up-to-scalar"


def test_degenerate_pencil_report_warns_about_dimension():
    # the kernel is still a line here, but the verdict is flagged because the
    # scheme fails the zero-dimensionality hypothesis
    report = uniqueness_report(pencil_form(_p("x0^2", 3), _p("x0*x1", 3)))
    assert report.scheme.dimension == 1
    assert any("dimension 1" in note for note in report.notes)
    assert SATURATION_NOTE in report.notes


# ---------------------------------------------------------------------------
# annihilator


def test_annihilator_of_coordinate_pencil():
    w = pencil_form(Poly.variable(0, 3), Poly.variable(1, 3))
    slices = annihilator_distribution(w, 1)
    assert [(s.degree, s.dim) for s in slices] == [(0, 1), (1, 4)]
    # the constant slice is spanned by d/dx2
    field = slices[0].generators[0]
    assert [str(c) for c in field] == ["0", "0", "1"]


def test_annihilator_degree_one_contains_euler_field():
    w = _coordinate_log()
    slices = annihilator_distribution(w, 1)
    euler = [Fraction(0)] * 9
    # field x0 d/dx0 + x1 d/dx1 + x2 d/dx2 in the monomial layout
    rows = []
    for gen in slices[1].generators:
        flat = []
        for poly in gen:
            for m in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
                flat.append(poly.terms.get(m, Fraction(0)))
        rows.append(flat)
    euler_flat = [
        Fraction(1), Fraction(0), Fraction(0),
        Fraction(0), Fraction(1), Fraction(0),
        Fraction(0), Fraction(0), Fraction(1),
    ]
    from pnsheaf import in_row_span

    assert in_row_span(rows, euler_flat)


def _dense_annihilator(w: TwistedOneForm, bound: int) -> list[tuple[int, list]]:
    """The annihilator by dense Fraction rows and kernel_basis, slice by slice."""
    nvars = w.ambient + 1
    out = []
    for t in range(bound + 1):
        monos = pfaff.monomials_of_degree(nvars, t)
        ncols = nvars * len(monos)
        target = {}
        for slot, a in enumerate(w.coeffs):
            for j, m in enumerate(monos):
                for e, c in a.terms.items():
                    key = tuple(x + y for x, y in zip(e, m))
                    target.setdefault(key, [Fraction(0)] * ncols)[slot * len(monos) + j] += c
        kernel = kernel_basis(list(target.values()), ncols)
        width = len(monos)
        out.append((t, [
            tuple(Poly(nvars, dict(zip(monos, vec[s * width:(s + 1) * width]))) for s in range(nvars))
            for vec in kernel
        ]))
    return out


GOLDEN_FORMS = [CORPUS["form_file"], *CORPUS["extra_form_files"].values()]


@pytest.mark.parametrize("w", [
    *(parse_form_file(text) for text in GOLDEN_FORMS),
    _coordinate_log((1, Fraction(1, 2), Fraction(-3, 2))),
])
def test_annihilator_matches_dense_kernel_basis(w):
    slices = annihilator_distribution(w, 4)
    assert [(s.degree, list(s.generators)) for s in slices] == _dense_annihilator(w, 4)
    assert all(s.dim == len(s.generators) for s in slices)


def test_annihilator_rejects_negative_bound():
    with pytest.raises(InputError):
        annihilator_distribution(_coordinate_log(), -1)


def test_large_linear_systems_are_refused_before_any_work(monkeypatch):
    def no_groebner(_):
        raise AssertionError("the singular scheme was computed before the guard")

    monkeypatch.setattr(pfaff, "singular_scheme", no_groebner)
    quartics = pencil_form(_p("x0^4", 5), _p("x1^4", 5))  # twist 8 on P^4
    with pytest.raises(ScaleExceeded, match=r"5 polynomials of degree 7 on P\^4 have 1650 unknown"):
        uniqueness_report(quartics)
    with pytest.raises(ScaleExceeded, match="have 1650 unknown"):
        vanishing_section_space(4, 8, unit_ideal(5))
    with pytest.raises(ScaleExceeded, match=r"3 polynomials of degree 17 on P\^2 have 513 unknown"):
        annihilator_distribution(_coordinate_log(), 17)
    assert len(annihilator_distribution(_coordinate_log(), 16)) == 17


# ---------------------------------------------------------------------------
# file format


def test_form_file_round_trip():
    w = _coordinate_log()
    text = render_form_file(w)
    assert text.splitlines()[0] == "P^2 twist 3"
    assert parse_form_file(text) == w


def test_form_file_round_trip_for_pencil_with_zero_line():
    w = pencil_form(Poly.variable(0, 3), Poly.variable(1, 3))
    text = render_form_file(w)
    assert "A_2: 0" in text
    assert parse_form_file(text) == w


def test_form_file_parse_errors():
    with pytest.raises(InputError):
        parse_form_file("")
    with pytest.raises(InputError):
        parse_form_file("P2 twist 3\nA_0: x1*x2\n")
    good = "P^2 twist 3\nA_0: x1*x2\nA_1: x0*x2\nA_2: -2*x0*x1\n"
    assert parse_form_file(good) == _coordinate_log()
    with pytest.raises(InputError):
        parse_form_file(good + "A_2: 0\n")  # duplicate line
    with pytest.raises(InputError):
        parse_form_file("P^2 twist 3\nA_0: x1*x2\nA_1: x0*x2\n")  # missing A_2
    with pytest.raises(InputError):
        parse_form_file(good.replace("A_2", "A_7"))  # index out of range
