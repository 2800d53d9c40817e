"""Dominant-weight combinatorics for GL(N).

Dimensions via the Weyl product formula, taken over runs of equal entries.
Littlewood-Richardson products use Pieri's rule when either factor is a
column 1^b (the vertical strips of size b on the other factor; Macdonald,
Symmetric Functions, I.5) and enumerate LR skew tableaux otherwise.  A
weight is a plain tuple of ints, weakly decreasing, whose length is the
ambient size N; products return (weight, multiplicity) pairs.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import groupby

from .errors import ConsistencyError, InputError


def weyl_dim(mu: tuple[int, ...], n_amb: int) -> int:
    """Dimension of the irreducible GL(n_amb) module of highest weight mu.

    Weyl's formula: prod_{i<j} (mu_i - mu_j + j - i) / (j - i).
    """
    entries = tuple(mu)
    if len(entries) != n_amb:
        raise InputError(f"weight {entries} has length {len(entries)}, ambient is {n_amb}")
    return _weyl_dim_cached(entries, n_amb)


def schur_dim(nu: tuple[int, ...], m: int) -> int:
    """Dimension of S_nu(C^m) for a partition nu of at most m parts.

    nu is not padded to length m, so the cost does not grow with m.
    """
    if len(nu) > m or (nu and nu[-1] < 0):
        raise InputError(f"partition {nu} does not fit GL({m})")
    return _weyl_dim_cached(tuple(nu), m)


@lru_cache(maxsize=4096)  # a benchmark or golden request fills at most 959
def _weyl_dim_cached(entries: tuple[int, ...], width: int) -> int:
    """Weyl dimension of entries padded with zeros to length width."""
    for a, b in zip(entries, entries[1:]):
        if a < b:
            raise InputError(f"weight {entries} is not weakly decreasing")
    # Equal entries give the factor (j - i) / (j - i) = 1, so only pairs of
    # runs of equal entries count.  Over two runs of lengths p <= q (in either
    # order), with d = a - b, the differences x = j - i form p intervals of q
    # consecutive integers, starting at lo, ..., lo + p - 1; over an interval
    # u..u+q-1 the factors telescope to prod (d + x) / x =
    # perm(u + q - 1 + d, k) / perm(u + k - 1, k), with k = min(d, q).
    runs = []
    for i, a in enumerate(entries):
        if i and a == entries[i - 1]:
            runs[-1][2] += 1
        else:
            runs.append([a, i, 1])
    if width > len(entries):  # the padding zeros: one run, or the end of the last
        if entries and not entries[-1]:
            runs[-1][2] += width - len(entries)
        else:
            runs.append([0, len(entries), width - len(entries)])
    num = den = 1
    for r, (a, s, length) in enumerate(runs):
        for b, t, m in runs[r + 1 :]:
            d, lo = a - b, t - s - length + 1
            p, q = (length, m) if length < m else (m, length)
            k = d if d < q else q
            for u in range(lo, lo + p):
                num *= math.perm(u + q - 1 + d, k)
                den *= math.perm(u + k - 1, k)
    if num % den:
        raise ConsistencyError(f"Weyl formula produced a non-integer for {entries}")
    return num // den


@lru_cache(maxsize=2048)  # a benchmark or golden request fills at most 495
def lr_product(
    lam: tuple[int, ...], mu: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Expand the product of two Schur functors inside GL(N), N = len(lam).

    Both weights must be weakly decreasing, nonnegative and of equal length.
    Returns (weight, multiplicity) pairs, sorted lexicographically
    descending; terms with more than N rows are dropped (they vanish for
    rank-N bundles).
    """
    for w in (lam, mu):
        if any(a < b for a, b in zip(w, w[1:])):
            raise InputError(f"weight {w} is not weakly decreasing")
    if len(lam) != len(mu):
        raise InputError(f"length mismatch: {lam} vs {mu}")
    if (lam and lam[-1] < 0) or (mu and mu[-1] < 0):
        raise InputError("lr_product needs nonnegative weights; absorb twists first")
    return _lr_terms(lam, mu)


def _lr_terms(lam: tuple[int, ...], mu: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    if not mu or mu[0] <= 1:
        return _vertical_strips(lam, sum(mu))
    if lam[0] <= 1:
        return _vertical_strips(mu, sum(lam))
    return _lr_tableaux(lam, mu)


def _vertical_strips(lam: tuple[int, ...], b: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Pieri's rule for lam times the column 1^b: every vertical strip of b
    boxes on lam, with at most len(lam) rows, once each.

    A strip adds one box to each of the top c rows of a run of equal entries
    (the trailing zeros are a run too); the runs' c sum to b.  Taking each
    run's c from high to low lists the terms lexicographically descending.
    """
    partial: list[tuple[tuple[int, ...], int]] = [((), b)]
    below = len(lam)
    for a, run in groupby(lam):
        length = len(list(run))
        below -= length  # the rows after this run take at most below boxes
        partial = [
            (head + (a + 1,) * c + (a,) * (length - c), left - c)
            for head, left in partial
            for c in range(min(length, left), max(left - below, 0) - 1, -1)
        ]
    return tuple((w, 1) for w, _ in partial)


def _lr_tableaux(lam: tuple[int, ...], mu: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The LR expansion by enumerating LR skew tableaux of shape nu / lam and
    content mu, sorted lexicographically descending."""
    n_rows = len(lam)
    sizes = [m for m in mu if m > 0]
    found: Counter = Counter()
    if not sizes:
        found[lam] += 1
    else:
        # Grow lam one horizontal strip per label, one row at a time, from an
        # explicit stack.  A state holds the shape before this label's strip,
        # the previous label's strip, and this strip's rows chosen so far.
        last_row = n_rows - 1
        last_label = len(sizes) - 1
        stack = [(0, lam, (0,) * n_rows, (), sizes[0], 0, 0)]
        while stack:
            label, shape, prev_strip, strip, left, cum_cur, cum_prev = stack.pop()
            r = len(strip)
            # horizontal strip: new row r may not reach under row r-1's old cells
            cap = left if r == 0 else min(left, shape[r - 1] - shape[r])
            # lattice word: label-t count through row r stays <= label-(t-1)
            # count through row r-1 (first strip is unconstrained)
            if label > 0:
                cap = min(cap, cum_prev - cum_cur)
                cum_prev += prev_strip[r]
            if r < last_row:
                for a in range(cap + 1):
                    stack.append(
                        (label, shape, prev_strip, strip + (a,), left - a, cum_cur + a, cum_prev)
                    )
            elif left <= cap:
                # the last row takes what is left of the strip
                strip += (left,)
                nxt = tuple(x + a for x, a in zip(shape, strip))
                if label == last_label:
                    found[nxt] += 1
                else:
                    stack.append((label + 1, nxt, strip, (), sizes[label + 1], 0, 0))
    ordered = sorted(found.items(), key=lambda kv: kv[0], reverse=True)
    return tuple(ordered)


def partitions(size: int, rows: int, cols: int):
    """The partitions of size in a rows x cols box, as weakly decreasing tuples
    of length rows; the recursion runs along the shorter side of the box."""
    if rows > cols:
        yield from (conjugate(mu, rows) for mu in partitions(size, cols, rows))
    elif size <= 0 or not rows:
        if not size:
            yield (0,) * rows
    else:
        # the other parts are at most v, so v >= ceil(size / rows)
        for v in range(min(size, cols), -(-size // rows) - 1, -1):
            for rest in partitions(size - v, rows - 1, v):
                yield (v,) + rest


def conjugate(mu: tuple[int, ...], length: int) -> tuple[int, ...]:
    """The transposed partition of mu, padded with zeros to the given length."""
    nu: tuple[int, ...] = ()
    for rows in range(len(mu), 0, -1):
        # mu_rows - mu_(rows+1) columns are exactly rows tall
        nu += (rows,) * (mu[rows - 1] - (mu[rows] if rows < len(mu) else 0))
    return nu + (0,) * (length - len(nu))


def binom(a: int, b: int) -> int:
    """Binomial coefficient that is 0 whenever b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)
