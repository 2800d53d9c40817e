"""Dense exact linear algebra over Fraction: RREF, kernels, span tests."""

from __future__ import annotations

from fractions import Fraction


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel of the matrix (list of coefficient rows)."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row_idx, piv in enumerate(pivots):
            vec[piv] = -reduced[row_idx][free]
        basis.append(tuple(vec))
    return basis


def row_rank(rows: list[list[Fraction]]) -> int:
    return len(rref(rows)[1])


def in_row_span(rows: list[list[Fraction]], vector: list[Fraction]) -> bool:
    """Is the vector a linear combination of the rows?"""
    if not any(vector):
        return True
    base = row_rank(rows)
    return row_rank(rows + [list(vector)]) == base
