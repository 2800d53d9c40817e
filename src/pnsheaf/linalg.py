"""Exact linear algebra on integer rows: kernels and reduced spans.

Each input row of Fractions is cleared to a sparse integer row
({column: entry}); callers that build integer rows themselves hand them to
``_kernel`` directly.  Every row is made primitive (content 1) before
elimination.  Fraction-free forward elimination (in the spirit of Bareiss,
Math. Comp. 1968) works on the rows not yet pivoted only; back substitution
then clears each pivot column above its pivot.  A kernel basis is read off
the unique reduced form as pairs (sparse integer vector, positive
denominator) in lowest terms, and only ``kernel_basis`` turns them into
Fractions.  Rows of unequal widths, or a column count other than their
width, raise InputError.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import InputError

def _check_width(rows, width: int | None = None) -> None:
    """InputError unless every row, and the given width if any, agree in length."""
    widths = {len(r) for r in rows}
    if width is not None:
        widths.add(width)
    if len(widths) > 1:
        raise InputError(f"widths of rows and vector differ: {sorted(widths)}")


def _int_row(row) -> dict[int, int]:
    """A row times the lcm of its denominators, sparse; {} for a zero row."""
    from fractions import Fraction
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


def kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel of the matrix (list of coefficient rows)."""
    _check_width(rows, ncols)
    from fractions import Fraction
    return [
        tuple(Fraction(vec.get(c, 0), den) for c in range(ncols))
        for vec, den in _kernel(map(_int_row, rows), ncols)
    ]


def _kernel(rows, ncols: int) -> list[tuple[dict[int, int], int]]:
    """Basis of the right kernel of sparse integer rows over ncols columns:
    one vector per free column, with 1 there and 0 at the other free ones.
    Each is a pair (v, den) in lowest terms, den > 0 and v a sparse integer
    vector {column: entry} in increasing column order, for the vector v / den."""
    reduced = _reduced(rows)
    pivot_set = {col for col, _ in reduced}
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        den = lcm(*(row[col] for col, row in reduced if free in row))
        vec = {col: -row[free] * (den // row[col]) for col, row in reduced if free in row}
        vec[free] = den
        if (g := gcd(*vec.values())) > 1:
            vec = {col: v // g for col, v in vec.items()}
            den //= g
        basis.append((vec, den))
    return basis

