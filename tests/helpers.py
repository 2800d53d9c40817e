"""Shared test utilities: seeded random generation of supported expressions,
and span tests through ``kernel_basis``."""

from __future__ import annotations

import random
from fractions import Fraction

from pnsheaf import (
    BundleExpr,
    direct_sum,
    dual,
    kernel_basis,
    o,
    omega,
    split_bundle,
    sym,
    tangent,
    tensor,
    wedge,
)
from pnsheaf.polyideal import monomials_of_degree
from pnsheaf.weights import partitions


def twist(e: BundleExpr, d: int) -> BundleExpr:
    """e (x) O(d), or e itself for d = 0."""
    return e if d == 0 else tensor(e, o(d, e.ambient))


def random_expression(rng: random.Random, n: int, depth: int = 3) -> BundleExpr:
    """A random expression that is guaranteed to normalize.

    Wedge and sym are only applied to split bundles or to (possibly twisted)
    copies of T and Omega^1, which keeps every sample inside the supported
    plethysm classes while still exercising dual, tensor, sums, twists, and
    zero bundles (a wedge power may exceed the rank).
    """
    if depth <= 0:
        return _atom(rng, n)
    kind = rng.choice(("atom", "dual", "tensor", "sum", "twist", "wedge", "sym"))
    if kind == "atom":
        return _atom(rng, n)
    if kind == "dual":
        return dual(random_expression(rng, n, depth - 1))
    if kind == "tensor":
        return tensor(
            random_expression(rng, n, depth - 1), random_expression(rng, n, depth - 1)
        )
    if kind == "sum":
        return direct_sum(
            random_expression(rng, n, depth - 1), random_expression(rng, n, depth - 1)
        )
    if kind == "twist":
        return twist(random_expression(rng, n, depth - 1), rng.randint(-4, 4))
    k = rng.randint(0, 3)
    body = _power_base(rng, n)
    return wedge(k, body) if kind == "wedge" else sym(k, body)


def _atom(rng: random.Random, n: int) -> BundleExpr:
    kind = rng.choice(("line", "line", "tangent", "cotangent"))
    if kind == "line":
        return o(rng.randint(-4, 4), n)
    if kind == "tangent":
        return tangent(n)
    return omega(rng.randint(1, n), n)


def _power_base(rng: random.Random, n: int) -> BundleExpr:
    kind = rng.choice(("split", "tangent", "omega1", "twisted"))
    if kind == "split":
        width = rng.randint(1, 3)
        return split_bundle([rng.randint(-3, 3) for _ in range(width)], n)
    if kind == "tangent":
        return tangent(n)
    if kind == "omega1":
        return omega(1, n)
    base = tangent(n) if rng.random() < 0.5 else omega(1, n)
    return twist(base, rng.randint(-3, 3))


def weights_in_box(length: int, bound: int) -> list[tuple[int, ...]]:
    """Every weakly decreasing tuple of the given length with entries in [0, bound]."""
    return [mu for size in range(length * bound + 1) for mu in partitions(size, length, bound)]


def in_row_span(rows, vector) -> bool:
    """Is vector a combination of rows?  Then adding it as a row keeps the kernel."""
    width = len(vector)
    return len(kernel_basis([*rows, vector], width)) == len(kernel_basis(rows, width))


def form_vector(w) -> list[Fraction]:
    """A form's coefficients, slot by slot over the monomials of degree
    twist - 1, largest first: the unknowns of vanishing_section_space."""
    monos = monomials_of_degree(w.ambient + 1, w.twist - 1)
    index = {m: i for i, m in enumerate(monos)}
    vec = [Fraction(0)] * ((w.ambient + 1) * len(monos))
    for slot, poly in enumerate(w.coeffs):
        for m, c in poly.terms.items():
            vec[slot * len(monos) + index[m]] = c
    return vec


def section_space_contains(space, w) -> bool:
    """Is the form w in the span of the section space's basis?"""
    if (space.ambient, space.twist) != (w.ambient, w.twist):
        return False
    return in_row_span([form_vector(b) for b in space.basis], form_vector(w))
