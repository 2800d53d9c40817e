"""Exact linear algebra on integer rows: RREF, kernels, span tests.

Each input row of Fractions is cleared to a sparse integer row
({column: entry}); callers that build integer rows themselves hand them to
``_kernel`` directly.  Every row is made primitive (content 1) before
elimination.  Fraction-free forward elimination (in
the spirit of Bareiss, Math. Comp. 1968) works on the rows not yet pivoted
only; back substitution then clears each pivot column above its pivot, and
Fractions come back only when the unique RREF is read off.  Rows of
unequal widths, or a vector or column count of another width than the
rows, raise InputError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError

_ZERO, _ONE = Fraction(0), Fraction(1)


def _check_width(rows, width: int | None = None) -> None:
    """InputError unless every row, and the given width if any, agree in length."""
    widths = {len(r) for r in rows}
    if width is not None:
        widths.add(width)
    if len(widths) > 1:
        raise InputError(f"widths of rows and vector differ: {sorted(widths)}")


def _int_row(row) -> dict[int, int]:
    """A row times the lcm of its denominators, sparse; {} for a zero row."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    den = lcm(*(x.denominator for x in row))
    return {c: x.numerator * (den // x.denominator) for c, x in enumerate(row) if x}


def _primitive(row: dict[int, int]) -> dict[int, int]:
    content = gcd(*row.values())
    if content > 1:
        return {c: v // content for c, v in row.items()}
    return row


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], col: int) -> dict[int, int]:
    """The primitive integer combination of row and pivot_row that is zero at col."""
    h = gcd(pivot_row[col], row[col])
    a, b = pivot_row[col] // h, row[col] // h
    out = {c: a * v for c, v in row.items()}
    for c, v in pivot_row.items():
        out[c] = out.get(c, 0) - b * v
    return _primitive({c: v for c, v in out.items() if v})


def _echelon(rows) -> list[tuple[int, dict[int, int]]]:
    """(pivot column, row) pairs of a row echelon form of sparse integer rows,
    pivot columns increasing."""
    pending = [_primitive(r) for r in rows if r]
    echelon = []
    for col in range(max((max(r) for r in pending), default=-1) + 1):
        hits = [r for r in pending if col in r]
        if hits:
            pivot_row = min(hits, key=len)
            pending = [r for r in pending if col not in r] + [
                r for r in (_eliminate(h, pivot_row, col) for h in hits if h is not pivot_row) if r
            ]
            echelon.append((col, pivot_row))
    return echelon


def _reduced(rows) -> list[tuple[int, dict[int, int]]]:
    """The echelon form back-substituted: each pivot column is zero off its pivot."""
    echelon = _echelon(rows)
    for k in range(len(echelon) - 1, 0, -1):
        col, pivot_row = echelon[k]
        for j in range(k):
            if col in echelon[j][1]:
                echelon[j] = (echelon[j][0], _eliminate(echelon[j][1], pivot_row, col))
    return echelon


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    _check_width(rows)
    ncols = len(rows[0]) if rows else 0
    reduced = _reduced(map(_int_row, rows))
    out = []
    for col, row in reduced:
        dense = [_ZERO] * ncols
        for c, v in row.items():
            dense[c] = Fraction(v, row[col])
        out.append(dense)
    return out, [col for col, _ in reduced]


def kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel of the matrix (list of coefficient rows)."""
    _check_width(rows, ncols)
    return [
        tuple(vec.get(c, _ZERO) for c in range(ncols))
        for vec in _kernel(map(_int_row, rows), ncols)
    ]


def _kernel(rows, ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the right kernel of sparse integer rows over ncols columns, as
    sparse vectors {column: entry} in increasing column order: one per free
    column, with 1 there and 0 at the other free ones."""
    reduced = _reduced(rows)
    pivot_set = {col for col, _ in reduced}
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = {col: Fraction(-row[free], row[col]) for col, row in reduced if free in row}
        vec[free] = _ONE
        basis.append(dict(sorted(vec.items())))
    return basis


def row_rank(rows: list[list[Fraction]]) -> int:
    _check_width(rows)
    return len(_echelon(map(_int_row, rows)))


def in_row_span(rows: list[list[Fraction]], vector: list[Fraction]) -> bool:
    """Is the vector a linear combination of the rows?"""
    _check_width(rows, len(vector))
    v = _int_row(vector)
    for col, pivot_row in _echelon(map(_int_row, rows)):
        if col in v:
            v = _eliminate(v, pivot_row, col)
    return not v
