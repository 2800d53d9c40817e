"""``parse_poly`` against the token parser it replaced, and pinned errors.

``parse_poly`` reads a polynomial in one scan of factor matches, straight
into packed integer terms.  The reference kept here is the token-by-token
parser it replaced, which built an exponent list per term and handed
{exponent tuple: coefficient} to ``Poly``.  On seeded random texts, well
formed and mutated, both must give an equal ``Poly`` or raise the same
error: a ``ParseError`` with the same message, position and expected
tokens, or a ``ScaleExceeded`` with the same message.

The CLI table pins the ``error:`` line of ``pfaff singular --file`` for
malformed coefficient lines, and the odd spellings that are accepted, so a
later parser cannot drift from either.

Run as a script, ``PYTHONPATH=src python tests/test_parse_poly_reference.py``
checks everything with the standard library only.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import random
import re
import sys
import tempfile
from fractions import Fraction

from pnsheaf import ParseError, PnsheafError, Poly, ScaleExceeded, parse_poly
from pnsheaf.cli import main
from pnsheaf.errors import read_int

SEED = 20201
CASES = 4000

_TOKEN_RE = re.compile(r"\s*(?:(\d+/\d+|\d+)|x(\d+)|(\^)|(\*)|(\+)|(-))")


def reference_parse_poly(text: str, nvars: int) -> Poly:
    """The token parser: one regex match per token, an exponent list per term."""
    pos = 0
    terms: dict = {}
    length = len(text)

    def skip_ws(p):
        while p < length and text[p].isspace():
            p += 1
        return p

    pos = skip_ws(pos)
    if pos == length:
        raise ParseError("empty polynomial", pos, ("term",))
    first = True
    while pos < length:
        sign = 1
        pos = skip_ws(pos)
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos = skip_ws(pos + 1)
        elif not first:
            raise ParseError("missing term separator", pos, ("+", "-"))
        first = False
        coeff = 1
        expo = [0] * nvars
        saw_factor = False
        expect_factor = True
        while True:
            m = _TOKEN_RE.match(text, pos)
            if not m or not expect_factor:
                break
            number, var, caret, star, plus, minus = m.groups()
            if plus or minus or caret:
                break
            if number is not None:
                num, _, den = number.partition("/")
                start = m.start(1)
                coeff *= read_int(num, start)
                if den:
                    try:
                        coeff = Fraction(coeff, read_int(den, start))
                    except ZeroDivisionError:
                        raise ParseError(f"zero denominator in {number}", start) from None
                saw_factor = True
                pos = m.end()
            elif var is not None:
                idx = read_int(var, pos)
                if idx >= nvars:
                    raise ParseError(f"variable x{idx} out of range (have x0..x{nvars - 1})", pos)
                pos = m.end()
                m2 = _TOKEN_RE.match(text, pos)
                power = 1
                if m2 and m2.group(3):  # caret
                    pos = m2.end()
                    m3 = _TOKEN_RE.match(text, pos)
                    if not m3 or m3.group(1) is None or "/" in m3.group(1):
                        raise ParseError("expected integer exponent", pos, ("integer",))
                    power = read_int(m3.group(1), pos)
                    pos = m3.end()
                expo[idx] += power
                saw_factor = True
            elif star:
                raise ParseError("unexpected '*'", pos, ("coefficient", "variable"))
            # after a factor, an optional * continues the term
            m4 = _TOKEN_RE.match(text, pos)
            if m4 and m4.group(4):  # star
                pos = m4.end()
                expect_factor = True
            else:
                expect_factor = False
        if saw_factor and expect_factor:
            raise ParseError("expected a factor after '*'", pos, ("coefficient", "variable"))
        if not saw_factor:
            raise ParseError("expected a term", pos, ("coefficient", "variable"))
        key = tuple(expo)
        terms[key] = terms.get(key, 0) + sign * coeff
        pos = skip_ws(pos)
    return Poly(nvars, terms)


# ---------------------------------------------------------------------------
# seeded texts

_SPACES = ("", "", "", " ", "  ", "\t", " ", "　")
_ODD_DIGITS = "٣१７"  # Arabic-Indic 3, Devanagari 1, fullwidth 7
_NOISE = "+-*^/x0123 \t?.٣"
_LIMIT = 2**31


def _literal(rng: random.Random, low: int, high: int) -> str:
    text = str(rng.randint(low, high))
    if rng.random() < 0.05:
        text = "0" + text
    if rng.random() < 0.05:
        text = "".join(rng.choice(_ODD_DIGITS) if rng.random() < 0.5 else c for c in text)
    return text


def _factor(rng: random.Random, nvars: int) -> str:
    if rng.random() < 0.35:
        text = _literal(rng, 0, 40)
        if rng.random() < 0.3:
            text += "/" + _literal(rng, 0 if rng.random() < 0.05 else 1, 12)
        return text
    var = f"x{_literal(rng, 0, nvars if rng.random() < 0.05 else nvars - 1)}"
    roll = rng.random()
    if roll < 0.4:
        return var
    if roll < 0.97:
        power = _literal(rng, 0, 5)
    else:
        power = str(rng.choice((_LIMIT - 1, _LIMIT, 3 * 10**9, 2**32, 2**32 + 1)))
    return var + rng.choice(_SPACES) + "^" + rng.choice(_SPACES) + power


def _well_formed(rng: random.Random, nvars: int) -> str:
    def sp() -> str:
        return rng.choice(_SPACES)

    pieces = [sp()]
    for t in range(rng.randint(1, 4)):
        if t or rng.random() < 0.3:
            pieces.append(rng.choice("+-") + sp())
        factors = [_factor(rng, nvars) for _ in range(rng.randint(1, 3))]
        pieces.append((sp() + "*" + sp()).join(factors) + sp())
    return "".join(pieces)


def _mutated(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        roll = rng.random()
        if roll < 0.4:
            text = text[:at] + rng.choice(_NOISE) + text[at:]
        elif roll < 0.7:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + rng.choice(_NOISE) + text[at + 1:]
    return text


_PINNED_TEXTS = [
    "", "   ", "x0*", "3*x0^2*", "2*x0* + x1", "2*x0*-x1", "x0*^2", "2* *x0", "2**x0",
    "*x0", "+*x0", "x0 +", "x0 + + x1", "--x0", "x 0", "2x0", "x0x1", "x0^1/2", "x0^2/x",
    "x0^23/4", "x0^-1", "x0 ^ -1", "x0^", "x0^2^3", "2^3", "1/0*x0", "0/0", "1/2/3", "12/",
    "x3", "2 * x3", "x0 + x3^-1", "x0 ?", "x0 + ?", "x0 ^ 2", "٣*x0", "x٣",
    "x0^٣", f"x0^{_LIMIT}", f"x0^{_LIMIT - 1}", f"x0^{_LIMIT - 1}*x1",
    f"x0^{3 * 10**9} - x0^{3 * 10**9}", f"x0^{2**32} - x1 + x0^{_LIMIT}",
    f"x0^{2**32}*x2 - x1^{2**32}*x2 + 0*x0^{_LIMIT}", "1/2*x0 + 1/3*x1 - 5/6*x2",
    # equal in overflowing packed fields, distinct as monomials
    f"x0^{2**32}*x2 - x1^{2**32 + 1}", f"1/2*x1^{3 * 10**9} - 2/4*x1^{3 * 10**9} + 1/3",
    "2/4*x0 - 1/2*x0", "0*x0", "x0 - x0", "1" * 4301 + "*x0", "x" + "1" * 4301,
    "x0^" + "1" * 4301, "1/" + "1" * 4301, "x0 + x1　",
]


def _outcome(parse, text: str, nvars: int):
    try:
        poly = parse(text, nvars)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.position, exc.expected)
    except ScaleExceeded as exc:
        return ("ScaleExceeded", str(exc))
    except PnsheafError as exc:
        return ("unexpected " + type(exc).__name__, str(exc))
    return ("Poly", poly, str(poly))


def check_texts(seed: int = SEED, cases: int = CASES) -> tuple[list[str], int, int]:
    """(failures, texts, texts refused) over the pinned and seeded texts."""
    rng = random.Random(seed)
    texts = [(t, 3) for t in _PINNED_TEXTS]
    for _ in range(cases):
        nvars = rng.randint(1, 4)
        text = _well_formed(rng, nvars)
        texts.append((text if rng.random() < 0.5 else _mutated(rng, text), nvars))
    failures, refused = [], 0
    for text, nvars in texts:
        want = _outcome(reference_parse_poly, text, nvars)
        got = _outcome(parse_poly, text, nvars)
        refused += want[0] != "Poly"
        if got != want or want[0].startswith("unexpected"):
            failures.append(f"{text[:80]!r} over {nvars}: got {got!r:.200}, want {want!r:.200}")
    return failures, len(texts), refused


def test_parse_poly_matches_the_token_parser():
    failures, count, refused = check_texts()
    assert not failures, failures[:5]
    # both sides of the grammar are exercised
    assert count // 4 < refused < 3 * count // 4, (count, refused)


# ---------------------------------------------------------------------------
# pinned CLI behaviour

BIG = "1" * 4301
# coefficient line A_0 of a P^2 form -> the error line of `pfaff singular`
ERRORS = {
    "": "empty polynomial at position 0 (expected term)",
    "2x0": "missing term separator at position 1 (expected + | -)",
    "x 0": "expected a term at position 0 (expected coefficient | variable)",
    "--x0": "expected a term at position 1 (expected coefficient | variable)",
    "x0^1/2": "expected integer exponent at position 3 (expected integer)",
    "x0^-1": "expected integer exponent at position 3 (expected integer)",
    "2**x0": "unexpected '*' at position 2 (expected coefficient | variable)",
    "*x0": "unexpected '*' at position 0 (expected coefficient | variable)",
    "x0 +": "expected a term at position 4 (expected coefficient | variable)",
    "1/0*x0": "zero denominator in 1/0 at position 0",
    "x3": "variable x3 out of range (have x0..x2) at position 0",
    "x0*": "expected a factor after '*' at position 3 (expected coefficient | variable)",
    "3*x0^2*": "expected a factor after '*' at position 7 (expected coefficient | variable)",
    "2*x0* + x1": "expected a factor after '*' at position 5 (expected coefficient | variable)",
    "2*x0*-x1": "expected a factor after '*' at position 5 (expected coefficient | variable)",
    f"{BIG}*x1": "integer literal of 4301 characters is too long at position 0",
    f"x1^{BIG}": "integer literal of 4301 characters is too long at position 3",
    f"x{BIG}": "integer literal of 4301 characters is too long at position 0",
}
# odd spellings of A_0 = x1^2 that are accepted as it
ACCEPTED = [
    "x1 ^ 2", "x1^ 2", "x1*x1", "٣*x1^2 - 2*x1^2", "x١^2", "x1^٢", "x01^02",
    "+x1^2", "2/2*x1^2", "x1^2*1", "x1 * x1", "x1^2 + 0*x2^2", "x1^2 + x0*x2 - x2*x0",
]
PLAIN = "P^2 twist 3\nA_0: {}\nA_1: -x0*x1\nA_2: 0\n"


def _singular(text: str, tmp: pathlib.Path) -> tuple[int, str, str]:
    path = tmp / "form.txt"
    path.write_text(PLAIN.format(text), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["pfaff", "singular", "--file", str(path)])
    return code, out.getvalue(), err.getvalue()


def check_cli() -> list[str]:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for text, line in ERRORS.items():
            got = _singular(text, tmp)
            if got != (2, "", f"error: {line}\n"):
                failures.append(f"A_0: {text[:40]!r}: got {got!r:.200}")
        plain = _singular("x1^2", tmp)
        if plain[0] != 0:
            failures.append(f"A_0: x1^2: got {plain!r:.200}")
        for text in ACCEPTED:
            if (got := _singular(text, tmp)) != plain:
                failures.append(f"A_0: {text!r}: got {got!r:.200}")
    return failures


def test_pfaff_singular_pins_the_parser_errors_and_oddities():
    failures = check_cli()
    assert not failures, failures


if __name__ == "__main__":
    failures, count, refused = check_texts()
    cli_failures = check_cli()
    for line in (failures + cli_failures)[:20]:
        print(line)
    print(f"Python {sys.version.split()[0]}: {count} texts ({refused} refused),"
          f" {len(ERRORS) + len(ACCEPTED)} CLI cases;"
          f" {len(failures) + len(cli_failures)} failures")
    sys.exit(1 if failures or cli_failures or not count // 4 < refused < 3 * count // 4 else 0)
