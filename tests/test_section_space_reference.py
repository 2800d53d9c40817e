"""The section space against the single linear system it replaced.

``vanishing_section_space`` solves the chart membership rows once, over the
columns of one slot, and then the Euler relation on the coefficients of a
basis of their kernel.  The reference kept here is the system it replaced:
the Euler rows plus a copy of every chart's membership rows for each of the
n+1 slots, over (n+1)*width unknowns, solved by ``_kernel``.  Both must give
the same kernel vectors, each as the same (integer vector, denominator) pair
in lowest terms, in the same order and with the same term order, and so the
same ``SectionSpace``.
The grid covers the golden forms, pencils and log forms shaped like the
benchmark's, the coordinate log form and a degenerate pencil, at every twist
from 1 to the form's twist + 1, and the unit and zero ideals on every chart;
its spaces have dimension 0, 1 and more.  Over the same grid the section
space eliminates only inside ``_kernel``: it calls ``linalg._reduced`` once
per ``_kernel`` call and never on its own.

Run as a script, ``PYTHONPATH=src python tests/test_section_space_reference.py``
checks the whole grid with the standard library only.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
from math import lcm

from pnsheaf import (
    IdealPresentation,
    Poly,
    SectionSpace,
    TwistedOneForm,
    ideal_presentation,
    log_form,
    parse_form_file,
    parse_poly,
    pencil_form,
    random_pencil_form,
    singular_scheme,
    vanishing_section_space,
)
import pnsheaf.linalg
import pnsheaf.pfaff
from pnsheaf.linalg import _kernel
from pnsheaf.pfaff import MAX_UNKNOWNS, _slot_polys
from pnsheaf.polyideal import _divide, _pack, _reducers, monomials_of_degree
from pnsheaf.weights import binom

from oracles import unit_ideal

CORPUS_PATH = pathlib.Path(__file__).parent / "golden" / "cli_corpus.json"


def _full_system_kernel(n: int, r: int, ideal: IdealPresentation) -> list[tuple[dict, int]]:
    """_kernel of the Euler rows and every chart's membership rows, one copy
    per slot, over the columns slot * width + index[m]."""
    nvars = n + 1
    monos = monomials_of_degree(nvars, r - 1)
    width = len(monos)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for m in monomials_of_degree(nvars, r):
        rows.append({
            i * width + index[m[:i] + (m[i] - 1,) + m[i + 1:]]: 1 for i in range(nvars) if m[i]
        })
    for chart in range(nvars):
        reducers = _reducers(ideal.charts[chart], n)
        nfs = [_divide({_pack(m[:chart] + m[chart + 1:]): 1}, reducers, n) for m in monos]
        den = lcm(*(s for _, s in nfs))
        by_mu: dict[int, dict[int, int]] = {}
        for m_idx, (rem, s) in enumerate(nfs):
            for mu, c in rem.items():
                by_mu.setdefault(mu, {})[m_idx] = c * (den // s)
        for shift in range(0, nvars * width, width):
            rows.extend({shift + m_idx: c for m_idx, c in row.items()} for row in by_mu.values())
    return _kernel(rows, nvars * width)


def _kernel_of(space: SectionSpace) -> list[tuple[list, int]]:
    """Each basis form as ``_kernel`` gives a vector: (its (column, entry)
    pairs in the layout above, denominator), in lowest terms.  The pairs run
    slot by slot, each in its coefficient's term order."""
    keys = [_pack(m) for m in monomials_of_degree(space.ambient + 1, space.twist - 1)]
    index = {k: i for i, k in enumerate(keys)}
    kernel = []
    for form in space.basis:
        # over the lcm of the slots' denominators no prime divides every entry
        den = lcm(*(poly._den for poly in form.coeffs))
        kernel.append(([
            (slot * len(keys) + index[k], c * (den // poly._den))
            for slot, poly in enumerate(form.coeffs) for k, c in poly._terms.items()
        ], den))
    return kernel


def _random_log_form(rng: random.Random, n: int, degrees, lam) -> TwistedOneForm:
    """A log form of random integer factors, coefficients in [-50, 50]."""
    nvars = n + 1
    factors = [
        Poly(nvars, {m: rng.randint(-50, 50) for m in monomials_of_degree(nvars, d)})
        for d in degrees
    ]
    return log_form(factors, lam)


def _forms():
    corpus = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    for name, text in (("form_file", corpus["form_file"]), *corpus["extra_form_files"].items()):
        yield name, parse_form_file(text)
    for n, d in ((2, 2), (3, 2), (2, 3)):
        yield f"pencil-{n}-{d}", random_pencil_form(n, d, 7)
    rng = random.Random(1)
    for n, degrees, lam in ((2, (1, 1, 1), (1, 2, -3)), (2, (1, 1, 2), (1, 1, -1)),
                            (3, (1, 1, 1), (2, 1, -3))):
        yield f"log-{n}-{''.join(map(str, degrees))}", _random_log_form(rng, n, degrees, lam)
    xs = [Poly.variable(i, 3) for i in range(3)]
    yield "coordinate-log", log_form(xs, (1, 1, -2))
    yield "degenerate-pencil", pencil_form(parse_poly("x0^2", 3), parse_poly("x0*x1", 3))


def _fits(n: int, r: int) -> bool:
    return (n + 1) * binom(n + r - 1, n) <= MAX_UNKNOWNS


def cases():
    """(label, n, r, ideal) over the whole grid."""
    for name, w in _forms():
        scheme = singular_scheme(w)
        for r in range(1, w.twist + 2):
            if _fits(w.ambient, r):
                yield f"{name} r={r}", w.ambient, r, scheme.ideal
    for n in (1, 2, 3):
        nvars = n + 1
        # the unit ideal on every chart; the zero ideal on every chart; and
        # V(x0), whose chart x0 = 1 holds the unit ideal
        presentations = {
            "unit": unit_ideal(nvars),
            "zero": IdealPresentation(nvars, (), ((),) * nvars),
            "hyperplane": ideal_presentation([Poly.variable(0, nvars)]),
        }
        for label, ideal in presentations.items():
            for r in range(1, 6):
                if _fits(n, r):
                    yield f"{label} on P^{n} r={r}", n, r, ideal


def disagreement(n: int, r: int, ideal: IdealPresentation) -> tuple[str | None, int]:
    """(what differs or None, dimension of the space)."""
    space = vanishing_section_space(n, r, ideal)
    reference = _full_system_kernel(n, r, ideal)
    if _kernel_of(space) != [(list(vec.items()), den) for vec, den in reference]:
        return "kernel vectors differ", space.dim
    keys = [_pack(m) for m in monomials_of_degree(n + 1, r - 1)]
    expected = SectionSpace(n, r, len(reference), tuple(
        TwistedOneForm(n, r, _slot_polys(vec, den, n + 1, keys)) for vec, den in reference
    ))
    if space != expected:
        return "section spaces differ", space.dim
    return None, space.dim


def check_grid() -> tuple[list[str], set[int], int]:
    """(failures, dimensions seen, number of cases)."""
    failures, dims, count = [], set(), 0
    for label, n, r, ideal in cases():
        problem, dim = disagreement(n, r, ideal)
        if problem:
            failures.append(f"{label}: {problem}")
        dims.add(dim)
        count += 1
    return failures, dims, count


def elimination_counts() -> tuple[int, int]:
    """(calls to linalg._reduced, calls to pfaff._kernel) over the grid's
    section spaces."""
    calls = {"_reduced": 0, "_kernel": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return original, wrapper

    reduced, counted_reduced = counted(pnsheaf.linalg, "_reduced")
    kernel, counted_kernel = counted(pnsheaf.pfaff, "_kernel")
    pnsheaf.linalg._reduced, pnsheaf.pfaff._kernel = counted_reduced, counted_kernel
    try:
        for _, n, r, ideal in cases():
            vanishing_section_space(n, r, ideal)
    finally:
        pnsheaf.linalg._reduced, pnsheaf.pfaff._kernel = reduced, kernel
    return calls["_reduced"], calls["_kernel"]


def test_section_space_matches_the_full_system():
    failures, dims, count = check_grid()
    assert not failures, failures
    assert {0, 1} <= dims and max(dims) >= 2, dims
    assert count > 100


def test_section_space_eliminates_only_inside_kernel():
    reduced, kernel = elimination_counts()
    assert reduced == kernel > 0, (reduced, kernel)


if __name__ == "__main__":
    failures, dims, count = check_grid()
    for line in failures:
        print(line)
    print(f"Python {sys.version.split()[0]}: {count} cases, {len(failures)} disagree,"
          f" dimensions {sorted(dims)}")
    reduced, kernel = elimination_counts()
    print(f"{reduced} eliminations in {kernel} _kernel calls")
    ok = not failures and {0, 1} <= dims and max(dims) >= 2 and reduced == kernel > 0
    sys.exit(0 if ok else 1)
