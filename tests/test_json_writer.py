"""The CLI's JSON writer against json.dumps, byte for byte.

``cli._write_json`` writes a payload as ``json.dumps(payload,
sort_keys=True, indent=2, default=str)`` does, with strings through the C
encoder instead of the standard library's pure-Python indenting encoder.
The reference kept here is that ``json.dumps`` call, on:

* every payload the golden CLI corpus writes: each case runs with
  ``--format json`` (added where the case is a text one) and the payload
  handed to the writer is recorded, so a ``Fraction``, summand, expression
  or polynomial in it reaches both sides as the object itself;
* seeded nested payloads: dicts, lists and tuples, empty ones too, strings
  and keys with non-ASCII, control, quote, backslash and lone surrogate
  characters, negative and 4,000-digit ints, bools, None, ``Fraction``,
  ``Poly``, ``IrreducibleBundle`` and ``BundleExpr``.

Run as a script, ``PYTHONPATH=src python tests/test_json_writer.py`` makes
every check with the standard library only.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys
import tempfile
from fractions import Fraction
from unittest import mock

from pnsheaf import (
    IrreducibleBundle,
    direct_sum,
    dual,
    o,
    omega,
    parse_poly,
    sym,
    tangent,
    tensor,
    wedge,
)
from pnsheaf import cli

from test_golden_cli import CORPUS, _run

SEED = 303030
PAYLOADS = 2000
ALPHABET = "az09 \"\\/\x00\x1f\x7f\t\néÿĀ €\U0001d11e\ud800\udfff{}[]:,"


def written(value) -> str:
    out: list[str] = []
    cli._write_json(value, "\n", out)
    return "".join(out)


def expected(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, default=str)


def golden_payloads() -> list[tuple[str, object]]:
    """(case id, payload) for every payload the golden corpus writes as JSON."""
    recorded: list[tuple[str, object]] = []
    writer = cli._write_json
    case_id = ""

    def record(value, indent, out):
        if indent == "\n":  # the whole payload, not a nested value
            recorded.append((case_id, value))
        writer(value, indent, out)

    with mock.patch.object(cli, "_write_json", record), tempfile.TemporaryDirectory() as tmp:
        for case in CORPUS["cases"]:
            case_id = case["id"]
            argv = case["argv"] if "json" in case["argv"] else case["argv"] + ["--format", "json"]
            _run(argv, pathlib.Path(tmp))
    return recorded


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 8)))


def _leaf(rng: random.Random):
    n = rng.randint(1, 4)
    kind = rng.randrange(11)
    if kind == 0:
        return _text(rng)
    if kind == 1:
        return rng.randint(-10**6, 10**6)
    if kind == 2:
        return rng.choice((-1, 1)) * rng.randint(10**3999, 10**4000 - 1)
    if kind == 3:
        return rng.choice((True, False, None))
    if kind == 4:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))
    if kind == 5:
        return parse_poly(rng.choice(("3/2*x0^2*x1 - x1 + 5", "x0 - 7*x1^3", "0", "-1/3")), 2)
    if kind == 6:
        lam = sorted((rng.randint(0, 3) for _ in range(n - 1)), reverse=True) + [0]
        return IrreducibleBundle(n, tuple(lam), rng.randint(-9, 9))
    if kind == 7:
        return rng.choice((tangent(n), omega(1, n), dual(tangent(n)), wedge(2, tangent(n)),
                           sym(3, o(-2, n)), direct_sum(o(1, n), tensor(tangent(n), o(-1, n)))))
    if kind == 8:
        return rng.choice(([], (), {}))
    if kind == 9:
        return ""
    return rng.randint(-3, 3)


def random_payload(rng: random.Random, depth: int = 4):
    if depth == 0 or rng.random() < 0.3:
        return _leaf(rng)
    kind = rng.randrange(3)
    items = [random_payload(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind == 0:
        return {_text(rng): item for item in items}
    return items if kind == 1 else tuple(items)


def check_golden() -> tuple[list[str], int]:
    """(failures, payloads compared) over the golden corpus."""
    payloads = golden_payloads()
    failures = [f"{case_id}: differs" for case_id, p in payloads if written(p) != expected(p)]
    return failures, len(payloads)


def check_random() -> list[str]:
    rng = random.Random(SEED)
    failures = []
    for k in range(PAYLOADS):
        payload = random_payload(rng)
        if written(payload) != expected(payload):
            failures.append(f"seeded payload {k}: differs")
    return failures


def test_golden_payloads_are_written_as_json_dumps_writes_them():
    failures, count = check_golden()
    assert not failures, failures[:10]
    assert count == 73


def test_seeded_payloads_are_written_as_json_dumps_writes_them():
    assert not check_random()


if __name__ == "__main__":
    failures, count = check_golden()
    failures += check_random()
    for line in failures:
        print(line)
    print(f"Python {sys.version.split()[0]}: {count} golden payloads, {PAYLOADS} seeded"
          f" payloads, {len(failures)} failures")
    sys.exit(1 if failures else 0)
