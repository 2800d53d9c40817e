"""``Poly`` against a reference polynomial type on {exponent tuple: Fraction} dicts.

``Poly`` stores its value as packed integer terms over one denominator in
lowest terms.  The reference kept here is the plain representation it
replaced: a dict from exponent tuple to nonzero Fraction, sorted by the
degree-reverse-lexicographic key (total degree, then the negated exponents
read from the last variable) wherever an order matters.  On seeded random
polynomials every public ``Poly`` method, ``parse_poly``, and the
``s_polynomial`` and ``normal_form`` oracles of ``tests/oracles.py`` must give
the reference's terms and text, zero results included; equal values built in different ways must be ``==`` and hash
alike; and a monomial of degree 2**31 or more is refused with
``ScaleExceeded``.

Run as a script, ``PYTHONPATH=src python tests/test_poly_reference.py``
checks everything with the standard library only.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from pnsheaf import Poly, ScaleExceeded, parse_poly

from oracles import normal_form, s_polynomial

SEED = 515151
CASES = 300


def _order(expo: tuple[int, ...]):
    return (sum(expo), tuple(-e for e in reversed(expo)))


class Ref:
    """A polynomial as {exponent tuple: nonzero Fraction}."""

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {e: Fraction(c) for e, c in terms.items() if c}

    def _plus(self, other: "Ref", sign: int) -> "Ref":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + sign * c
        return Ref(self.nvars, out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other: "Ref") -> "Ref":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Ref(self.nvars, out)

    def scale(self, c) -> "Ref":
        return Ref(self.nvars, {e: v * Fraction(c) for e, v in self.terms.items()})

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    def leading_monomial(self) -> tuple[int, ...]:
        return max(self.terms, key=_order)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def diff(self, i: int) -> "Ref":
        out: dict = {}
        for e, c in self.terms.items():
            if e[i]:
                out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
        return Ref(self.nvars, out)

    def dehomogenize(self, i: int) -> "Ref":
        out: dict = {}
        for e, c in self.terms.items():
            key = e[:i] + e[i + 1:]
            out[key] = out.get(key, 0) + c
        return Ref(self.nvars - 1, out)

    def s_polynomial(self, other: "Ref") -> "Ref":
        lf, lg = self.leading_monomial(), other.leading_monomial()
        top = tuple(map(max, lf, lg))
        def cofactor(p: Ref, lm) -> Ref:
            return Ref(p.nvars, {tuple(t - x for t, x in zip(top, lm)): 1 / p.leading_coefficient()})

        return self * cofactor(self, lf) - other * cofactor(other, lg)

    def normal_form(self, basis) -> "Ref":
        """Divide the largest remaining term by the first basis member whose
        leading monomial divides it, else move it to the remainder."""
        basis = [g for g in basis if g.terms]
        p, rem = self, {}
        while p.terms:
            lm, lc = p.leading_monomial(), p.leading_coefficient()
            for g in basis:
                glm = g.leading_monomial()
                if all(x >= y for x, y in zip(lm, glm)):
                    shift = tuple(x - y for x, y in zip(lm, glm))
                    p = p - g * Ref(self.nvars, {shift: lc / g.leading_coefficient()})
                    break
            else:
                rem[lm] = lc
                p = p - Ref(self.nvars, {lm: lc})
        return Ref(self.nvars, rem)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for expo in sorted(self.terms, key=_order, reverse=True):
            c = self.terms[expo]
            body = "*".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(expo) if e)
            piece = str(abs(c)) if not body else body if abs(c) == 1 else f"{abs(c)}*{body}"
            pieces.append(("-" if c < 0 else "+", piece))
        text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
        return text + "".join(f" {sign} {piece}" for sign, piece in pieces[1:])


def _random_terms(rng: random.Random, nvars: int) -> dict:
    """Up to five terms of degree at most 3; sometimes homogeneous, sometimes none."""
    homogeneous = rng.random() < 0.3
    terms: dict = {}
    for _ in range(rng.choice((0, 1, 2, 3, 4, 5))):
        expo = [0] * nvars
        for _ in range(2 if homogeneous else rng.randint(0, 3)):
            expo[rng.randrange(nvars)] += 1
        terms[tuple(expo)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return terms


def _differs(label: str, got: Poly, want: Ref) -> list[str]:
    """Failures unless got has want's variables, terms and text, and is the
    Poly that want's terms construct (so == and hash agree)."""
    rebuilt = Poly(want.nvars, want.terms)
    if (got.nvars, got.terms, str(got)) != (want.nvars, want.terms, str(want)):
        return [f"{label}: got {got} over {got.nvars}, want {want} over {want.nvars}"]
    if got != rebuilt or hash(got) != hash(rebuilt):
        return [f"{label}: {got} is not == and hash-equal to the same value rebuilt"]
    return []


def _raises(error, call) -> bool:
    try:
        call()
    except error:
        return True
    return False


def check_grid(seed: int = SEED, cases: int = CASES) -> tuple[list[str], int]:
    """(failures, comparisons) over seeded random polynomials."""
    rng = random.Random(seed)
    failures: list[str] = []
    count = 0

    def same(label, got, want):
        nonlocal count
        count += 1
        if isinstance(want, Ref):
            failures.extend(_differs(label, got, want))
        elif got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    for case in range(cases):
        nvars = rng.randint(1, 4)
        ft, gt = _random_terms(rng, nvars), _random_terms(rng, nvars)
        f, g, rf, rg = Poly(nvars, ft), Poly(nvars, gt), Ref(nvars, ft), Ref(nvars, gt)
        tag = f"case {case} f = {rf}, g = {rg}"
        same(f"{tag}: Poly(f)", f, rf)
        same(f"{tag}: parse_poly(str(f))", parse_poly(str(f), nvars), rf)
        same(f"{tag}: f + g", f + g, rf + rg)
        same(f"{tag}: f - g", f - g, rf - rg)
        same(f"{tag}: f - f", f - f, Ref(nvars, {}))
        same(f"{tag}: -f", -f, -rf)
        same(f"{tag}: f * g", f * g, rf * rg)
        for c in (0, 3, Fraction(-2, 3)):
            same(f"{tag}: f * constant({c})", f * Poly.constant(c, nvars), rf.scale(c))
        same(f"{tag}: degree", f.degree(), rf.degree())
        same(f"{tag}: is_homogeneous", f.is_homogeneous(), rf.is_homogeneous())
        same(f"{tag}: bool", bool(f), bool(rf.terms))
        for i in range(nvars):
            same(f"{tag}: diff({i})", f.diff(i), rf.diff(i))
            same(f"{tag}: dehomogenize({i})", f.dehomogenize(i), rf.dehomogenize(i))
        if rf.terms and rg.terms:
            same(f"{tag}: s_polynomial", s_polynomial(f, g), rf.s_polynomial(rg))
        basis_terms = [_random_terms(rng, nvars) for _ in range(rng.randint(0, 3))]
        same(f"{tag}: normal_form by {basis_terms}",
             normal_form(f, [Poly(nvars, t) for t in basis_terms]),
             rf.normal_form([Ref(nvars, t) for t in basis_terms]))
    for nvars in range(4):
        same(f"zero({nvars})", Poly.zero(nvars), Ref(nvars, {}))
        same(f"constant(-5/2, {nvars})", Poly.constant(Fraction(-5, 2), nvars),
             Ref(nvars, {(0,) * nvars: Fraction(-5, 2)}))
        for i in range(nvars):
            same(f"variable({i}, {nvars})", Poly.variable(i, nvars),
                 Ref(nvars, {tuple(int(k == i) for k in range(nvars)): 1}))
    return failures, count


def test_poly_matches_the_reference_on_random_polynomials():
    failures, count = check_grid()
    assert not failures, failures[:5]
    assert count > 19 * CASES


def test_equal_values_compare_and_hash_alike():
    f = parse_poly("x0^2 - 3/4*x1 + 5", 2)
    zero = Poly.zero(2)
    pairs = [
        (Poly(2, {(1, 0): Fraction(2, 4)}), Poly(2, {(1, 0): Fraction(1, 2)})),
        (Poly(2, {(1, 0): Fraction(2, 4), (0, 1): 0}), parse_poly("1/2*x0", 2)),
        (f - f, zero),
        (f * Poly.constant(0, 2), zero),
        (f * zero, zero),
        (Poly(2, {(0, 0): 0, (1, 1): Fraction(0)}), zero),
        (f * Poly.constant(Fraction(4, 6), 2), f * Poly.constant(Fraction(2, 3), 2)),
        (f * Poly.constant(2, 2) * Poly.constant(Fraction(1, 2), 2), f),
        (parse_poly("x0 + x1", 2) * parse_poly("x0 - x1", 2), parse_poly("x0^2 - x1^2", 2)),
        (parse_poly("x0 + x0 - 2*x0 + 1", 2), Poly.constant(1, 2)),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b), (str(a), str(b))
    assert str(f - f) == str(zero) == "0"
    assert f != f * Poly.constant(2, 2) and Poly.constant(1, 2) != Poly.constant(1, 3)


def test_monomials_past_the_packed_degree_range_are_refused():
    limit = 2**31
    top = Poly(2, {(limit - 1, 0): 1})
    assert top.degree() == limit - 1 and str(top) == f"x0^{limit - 1}"
    assert list(top.terms) == [(limit - 1, 0)]
    refused = [
        lambda: Poly(1, {(limit,): 1}),
        lambda: Poly(2, {(limit - 1, 1): Fraction(1, 2)}),
        lambda: parse_poly(f"x0^{limit}", 1),
        lambda: parse_poly(f"x0^{limit // 2}*x1^{limit // 2}", 2),
        lambda: normal_form(parse_poly(f"x0^{limit}", 1), [parse_poly("x0", 1)]),
        lambda: top * Poly.variable(1, 2),
        lambda: s_polynomial(top, Poly(2, {(0, limit - 1): 1})),
    ]
    for i, call in enumerate(refused):
        assert _raises(ScaleExceeded, call), i


if __name__ == "__main__":
    failures, count = check_grid()
    for test in (test_equal_values_compare_and_hash_alike,
                 test_monomials_past_the_packed_degree_range_are_refused):
        try:
            test()
        except AssertionError as exc:
            failures.append(f"{test.__name__}: {exc!r}")
    for line in failures[:20]:
        print(line)
    print(f"Python {sys.version.split()[0]}: {count} comparisons, {len(failures)} failures")
    sys.exit(1 if failures else 0)
