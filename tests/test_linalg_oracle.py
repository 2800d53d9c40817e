"""Kernels, ranks and span tests against sympy's Matrix, an independent implementation.

The rank of the elimination is read through ``kernel_basis``: rank = ncols
minus the kernel dimension, and a vector is in the row span when adding it
as a row keeps the kernel (``helpers.in_row_span``).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pnsheaf import InputError, kernel_basis

from helpers import in_row_span

sympy = pytest.importorskip("sympy")


def _entry(rng: random.Random) -> Fraction:
    if rng.random() < 0.5:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _low_rank(rng: random.Random, nrows: int, ncols: int, rank: int) -> list[list[Fraction]]:
    """A product of random nrows x rank and rank x ncols matrices, rank at most rank."""
    left = [[_entry(rng) for _ in range(rank)] for _ in range(nrows)]
    right = [[_entry(rng) for _ in range(ncols)] for _ in range(rank)]
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*right)]
            for row in left]


def _matrices():
    seed = 272727
    print(f"linalg oracle seed {seed}")
    rng = random.Random(seed)
    yield [[Fraction(0)] * 4 for _ in range(3)]  # zero rows only
    yield [[Fraction(0)] * 30 for _ in range(78)]
    yield [[Fraction(0), _entry(rng) + 1, Fraction(0)] for _ in range(4)]  # zero columns
    yield [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(0)]]
    for _ in range(40):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        yield [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
    for rank in (1, 12, 29, 30):
        # tall and rank-deficient, shaped like a twist-4 section system on P^2
        yield _low_rank(rng, 78, 30, rank)


def _to_fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def _matrix(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(x.numerator, x.denominator)
                                           for row in rows for x in row])


def _rank(rows, ncols) -> int:
    # Matrix.rank() takes minutes on the 78 x 30 systems; rref() takes milliseconds
    return len(_matrix(rows, ncols).rref()[1])


def _oracle(rows, ncols):
    m = _matrix(rows, ncols)
    kernel = [tuple(_to_fraction(x) for x in v) for v in m.nullspace()]
    return len(m.rref()[1]), kernel


MATRICES = list(_matrices())


@pytest.mark.parametrize("rows", MATRICES, ids=[f"m{i}" for i in range(len(MATRICES))])
def test_rref_kernel_and_rank_match_sympy(rows):
    # the rank oracle is the pivot count of sympy's rref
    ncols = len(rows[0])
    rank, kernel = _oracle(rows, ncols)
    assert kernel_basis(rows, ncols) == kernel
    assert ncols - len(kernel_basis(rows, ncols)) == rank


@pytest.mark.parametrize("rows", MATRICES, ids=[f"m{i}" for i in range(len(MATRICES))])
def test_in_row_span_matches_sympy_rank(rows):
    rng = random.Random(len(rows) * 31 + len(rows[0]))
    ncols = len(rows[0])
    base = _rank(rows, ncols)
    weights = [rng.randint(-3, 3) for _ in rows]
    inside = [sum((w * x for w, x in zip(weights, col)), Fraction(0)) for col in zip(*rows)]
    outside = [_entry(rng) for _ in range(ncols)]
    for vector in (inside, outside, [Fraction(0)] * ncols):
        expected = _rank(rows + [vector], ncols) == base
        assert in_row_span(rows, vector) is expected


def test_empty_matrix():
    assert kernel_basis([], 2) == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    assert in_row_span([], [Fraction(0), Fraction(0)])
    assert not in_row_span([], [Fraction(0), Fraction(1)])
    assert kernel_basis([[], []], 0) == []


def test_ragged_rows_are_rejected():
    ragged = [[Fraction(1), Fraction(2)], [Fraction(3)]]
    for call in (lambda rows: kernel_basis(rows, 2),
                 lambda rows: in_row_span(rows, [Fraction(1), Fraction(0)])):
        with pytest.raises(InputError, match="widths"):
            call(ragged)


def test_vector_or_column_count_of_another_width_is_rejected():
    rows = [[Fraction(1), Fraction(2)]]
    with pytest.raises(InputError):
        in_row_span(rows, [Fraction(1)])
    with pytest.raises(InputError):
        in_row_span([[], []], [Fraction(1)])  # zero-width rows used to answer True
    with pytest.raises(InputError):
        kernel_basis(rows, 3)
