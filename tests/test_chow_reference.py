"""Chow-ring results against the solves and series they replaced.

``chow._skew_dims`` reads the vector v_j = (-1)^j s_(lam/1^j)(1^(n+1)) of
S_lam(Q) on P^n off ``linalg._kernel``, scaled to sum to the rank, and
``porteous_class`` reads the degree of a degeneracy locus of codimension k as
(-1)^k c_k(E - G), by Newton's identities.  ``hrr_chi`` is one integer dot
product n! chi = sum_k p_k s_k of the power sums and the coefficients of
(a+1)...(a+n), and ``todd_class`` reads td_(n-k) = k! s_k / n! off the same
row.  The references kept here, in ``tests/oracles.py``, are the library's
former ones: a Bareiss solve of the skew Jacobi-Trudi system and of the
k x k determinant det[c_(1+j-i)(G - E)], and Miller's recurrence for the
power (h / (1 - e^(-h)))^(n+1).  It checks:

* ``_skew_dims`` against ``oracles.skew_dims`` on seeded weights on
  P^3..P^64, the staircase (63, ..., 1, 0) and (300^63, 0) on P^64 among
  them;
* ``porteous_class`` against ``oracles.porteous_degree`` on seeded (E, G)
  pairs on P^1..P^9 whose codimension e - g + 1 fits the ambient;
* ``todd_class(n)`` against ``oracles.todd_series(n)`` for n = 0..64;
* ``hrr_chi`` against the Fraction pairing sum_k ch_k td_(n-k), td from
  Miller's series, and against the cohomology table's chi, on seeded
  expressions on P^1..P^12 and every golden ``chi`` case (``T on P^64``
  among them);
* ``chi`` and ``chern`` on ``sym(1000, Omega^1) on P^64`` through ``main``,
  every cache cleared first: each finishes in under 1 s with the exit code,
  stdout and stderr that the Bareiss solve printed in about 7 s.

Run as a script, ``PYTHONPATH=src python tests/test_chow_reference.py``
makes every check with the standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import time

from pnsheaf import (
    chern_character,
    cohomology_table,
    hrr_chi,
    hyperplane_power,
    porteous_class,
    rank,
    todd_class,
)
from pnsheaf.chow import MAX_CHOW_AMBIENT, _skew_dims
from pnsheaf.cli import main
from pnsheaf.grammar import parse_expression, split_ambient

from helpers import random_expression
from oracles import porteous_degree, skew_dims, todd_series
from test_cache_bounds import clear_all
from test_golden_cli import CORPUS

SEED = 313131
STAIRCASE = tuple(range(63, -1, -1))
FLAT = (300,) * 63 + (0,)
# exit code, sha256 of stdout and stderr of each command, as the Bareiss
# solve printed them
SLOW_TEXT = "sym(1000, Omega^1) on P^64"
PRINTED = {
    "chi": (0, "ecec0a6dce5a064df9e2d7c023ac8b716a0d9153e6a3e12da324aa8029f2fa4a", ""),
    "chern": (
        3,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: a result has 14559 bits; the output bound is 14284 bits (4300 digits)\n",
    ),
}


def weights() -> list[tuple[tuple[int, ...], int]]:
    """(lam, n): two seeded weights of length n with last part 0 on each
    P^3..P^64, at most 12 nonzero parts and parts up to 40, then one with up
    to n - 1 parts up to 6 on every eighth ambient, then the two extremes."""
    rng = random.Random(SEED)
    out = []
    for n in range(3, 65):
        for parts, top in ((12, 40), (12, 40)) + (((n - 1, 6),) if n % 8 == 0 else ()):
            size = rng.randint(0, min(parts, n - 1))
            lam = sorted((rng.randint(1, top) for _ in range(size)), reverse=True)
            out.append((tuple(lam) + (0,) * (n - size), n))
    return out + [(STAIRCASE, 64), (FLAT, 64)]


def check_skew_dims() -> tuple[list[str], int]:
    failures = []
    cases = weights()
    for lam, n in cases:
        if _skew_dims(lam, n) != skew_dims(lam, n):
            failures.append(f"_skew_dims({lam}, {n}) differs from the Bareiss solve")
    return failures, len(cases)


def pairs(count: int = 600) -> list[tuple]:
    """Seeded (E, G) on P^1..P^9 that a map E -> G can degenerate on:
    g >= 1 and 1 <= e - g + 1 <= n."""
    rng = random.Random(SEED)
    out = []
    for _ in range(count):
        n = rng.randint(1, 9)
        E, G = random_expression(rng, n, 2), random_expression(rng, n, 2)
        e, g = rank(E), rank(G)
        if g >= 1 and 1 <= e - g + 1 <= n:
            out.append((E, G))
    return out


def check_porteous() -> tuple[list[str], int]:
    failures = []
    admitted = pairs()
    for E, G in admitted:
        result, degree = porteous_class(E, G), porteous_degree(E, G)
        want = hyperplane_power(E.ambient, result.codim, degree)
        if (result.degree, result.cls, result.within_ambient) != (degree, want, True):
            failures.append(f"porteous_class({E}, {G}) has degree {result.degree}, the"
                            f" determinant {degree}")
    return failures, len(admitted)


def check_todd() -> tuple[list[str], int]:
    failures = [f"todd_class({n}) differs from Miller's series"
                for n in range(MAX_CHOW_AMBIENT + 1) if todd_class(n).coeffs != todd_series(n)]
    return failures, MAX_CHOW_AMBIENT + 1


def expressions(count: int = 8) -> list:
    """count seeded expressions on each P^1..P^12, then the expressions of
    the golden chi cases that exit 0."""
    rng = random.Random(SEED)
    out = [random_expression(rng, n, 2) for n in range(1, 13) for _ in range(count)]
    texts = {c["argv"][1] for c in CORPUS["cases"] if c["argv"][:1] == ["chi"] and c["exit"] == 0}
    return out + [parse_expression(t, split_ambient(t)[1]) for t in sorted(texts - {"--help"})]


def check_chi() -> tuple[list[str], int]:
    failures = []
    cases = expressions()
    for e in cases:
        n = e.ambient
        td = todd_series(n)
        pairing = sum(ch * td[n - k] for k, ch in enumerate(chern_character(e).coeffs))
        chi, table = hrr_chi(e), cohomology_table(e).euler_characteristic()
        if not chi == pairing == table:
            failures.append(f"hrr_chi({e}) is {chi}; ch td gives {pairing}, the table {table}")
    return failures, len(cases)


def run(command: str) -> tuple[float, tuple[int, str, str]]:
    """Seconds and (exit, sha256 of stdout, stderr) of one cold run."""
    clear_all()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, SLOW_TEXT])
    seconds = time.perf_counter() - start
    return seconds, (code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue())


def check_slow_inputs() -> list[str]:
    failures = []
    for command, printed in PRINTED.items():
        seconds, got = run(command)
        if got != printed:
            failures.append(f"{command} {SLOW_TEXT!r} printed {got}, not {printed}")
        if seconds >= 1.0:
            failures.append(f"{command} {SLOW_TEXT!r} took {seconds:.2f} s")
    return failures


def test_skew_dims_match_the_bareiss_solve():
    failures, count = check_skew_dims()
    assert not failures, failures[:10]
    assert count > 120


def test_porteous_degrees_match_the_determinant():
    failures, count = check_porteous()
    assert not failures, failures[:10]
    assert count > 100


def test_todd_classes_match_millers_series():
    failures, count = check_todd()
    assert not failures, failures[:10]
    assert count == 65


def test_chi_matches_the_fraction_pairing_and_the_table():
    failures, count = check_chi()
    assert not failures, failures[:10]
    assert count > 96


def test_the_slow_skew_inputs_print_the_same_in_under_a_second():
    assert not check_slow_inputs()


if __name__ == "__main__":
    skew_failures, weight_count = check_skew_dims()
    porteous_failures, pair_count = check_porteous()
    todd_failures, todd_count = check_todd()
    chi_failures, chi_count = check_chi()
    failures = (skew_failures + porteous_failures + todd_failures + chi_failures
                + check_slow_inputs())
    for line in failures:
        print(line)
    print(f"Python {sys.version.split()[0]}: {weight_count} weights, {pair_count} (E, G) pairs,"
          f" {todd_count} Todd classes, {chi_count} chi cases, {len(PRINTED)} slow inputs,"
          f" {len(failures)} failures")
    sys.exit(1 if failures else 0)
