"""Text grammar for bundle expressions.

    expr   := term (('+' | '(+)') term)*
    term   := factor (('*' | '(x)') factor)*
    factor := 'O(' int ')' | 'T' | 'Omega^' int | 'wedge(' int ',' expr ')'
            | 'sym(' int ',' expr ')' | 'dual(' expr ')' | '(' expr ')'
            | int '*' factor

A leading integer times a factor is a direct-sum multiplicity, so
"2*O(-1)" is O(-1) (+) O(-1) while "O(1) * O(2)" is a tensor product.
The ambient is written separately as "on P^n".  render_expression produces
text that reparses to an equal tree.
"""

from __future__ import annotations

import re

from .bundles import (
    BundleExpr,
    Cotangent,
    DirectSum,
    Dual,
    LineBundle,
    Sym,
    Tangent,
    Tensor,
    Wedge,
    direct_sum,
)
from .errors import ParseError, read_int

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<OPLUS>\(\+\))|(?P<OTIMES>\(x\))|(?P<INT>-?\d+)|(?P<OMEGA>Omega\^)"
    r"|(?P<WEDGE>wedge)|(?P<SYM>sym)|(?P<DUAL>dual)|(?P<ON>on)|(?P<PHAT>P\^)|(?P<O>O)"
    r"|(?P<T>T)|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<COMMA>,)|(?P<PLUS>\+)|(?P<STAR>\*))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unrecognized input {text[pos:pos + 8]!r}", pos)
        tokens.append((m.lastgroup, m.group(m.lastgroup), pos))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, n: int):
        self.tokens = tokens
        self.pos = 0
        self.n = n

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"unexpected {tok[1] or 'end of input'!r}", tok[2], (kind,))
        self.pos += 1
        return tok

    def take_int(self) -> int:
        _, value, pos = self.take("INT")
        return read_int(value, pos)

    def expr(self) -> BundleExpr:
        terms = [self.term()]
        while self.peek()[0] in ("PLUS", "OPLUS"):
            self.pos += 1
            terms.append(self.term())
        return direct_sum(*terms)

    def term(self) -> BundleExpr:
        out = self.factor()
        while self.peek()[0] in ("STAR", "OTIMES"):
            self.pos += 1
            out = Tensor(self.n, out, self.factor())
        return out

    def factor(self) -> BundleExpr:
        kind, value, pos = self.peek()
        if kind == "O":
            self.pos += 1
            self.take("LPAREN")
            d = self.take_int()
            self.take("RPAREN")
            return LineBundle(self.n, d)
        if kind == "T":
            self.pos += 1
            return Tangent(self.n)
        if kind == "OMEGA":
            self.pos += 1
            p = self.take_int()
            if p == 0:
                return LineBundle(self.n, 0)
            return Cotangent(self.n, p)
        if kind in ("WEDGE", "SYM"):
            self.pos += 1
            self.take("LPAREN")
            k = self.take_int()
            self.take("COMMA")
            inner = self.expr()
            self.take("RPAREN")
            return (Wedge if kind == "WEDGE" else Sym)(self.n, k, inner)
        if kind == "DUAL":
            self.pos += 1
            self.take("LPAREN")
            inner = self.expr()
            self.take("RPAREN")
            return Dual(self.n, inner)
        if kind == "LPAREN":
            self.pos += 1
            inner = self.expr()
            self.take("RPAREN")
            return inner
        if kind == "INT":
            self.pos += 1
            mult = read_int(value, pos)
            if mult < 1:
                raise ParseError(f"multiplicity must be positive, got {mult}", pos)
            self.take("STAR")
            inner = self.factor()
            if isinstance(inner, DirectSum):
                return DirectSum(
                    self.n, inner.children, tuple(mult * m for m in inner.multiplicities)
                )
            return DirectSum(self.n, (inner,), (mult,))
        raise ParseError(
            f"unexpected {value or 'end of input'!r}", pos,
            ("O(", "T", "Omega^", "wedge(", "sym(", "dual(", "(", "int*"),
        )


def split_ambient(text: str) -> tuple[str, int | None]:
    """Split a trailing 'on P^n' off an expression string.

    The suffix is the word 'on', whitespace, 'P^', decimal digits and
    optional whitespace; without it the text comes back unchanged.
    """
    head, hat, digits = text.rstrip().rpartition("P^")
    body = head.rstrip()
    before = body[-3:-2]
    if not (
        hat
        and digits.isdecimal()
        and len(body) < len(head)
        and body.endswith("on")
        and not (before.isalnum() or before == "_")
    ):
        return text, None
    return body[:-2].strip(), read_int(digits, len(head) + 2)


def parse_expression(text: str, n: int) -> BundleExpr:
    """Parse an expression over P^n.  A trailing 'on P^m' must agree with n."""
    body, amb = split_ambient(text)
    if amb is not None and amb != n:
        raise ParseError(f"expression says P^{amb} but ambient is P^{n}", len(body))
    parser = _Parser(_tokenize(body), n)
    out = parser.expr()
    parser.take("EOF")
    return out


def render_expression(e: BundleExpr) -> str:
    """Grammar-conformant text that reparses to an equal tree."""
    return _render(e)


def _render(e: BundleExpr) -> str:
    if isinstance(e, LineBundle):
        return f"O({e.degree})"
    if isinstance(e, Tangent):
        return "T"
    if isinstance(e, Cotangent):
        return f"Omega^{e.power}"
    if isinstance(e, Dual):
        return f"dual({_render(e.child)})"
    if isinstance(e, Wedge):
        return f"wedge({e.power}, {_render(e.child)})"
    if isinstance(e, Sym):
        return f"sym({e.power}, {_render(e.child)})"
    if isinstance(e, Tensor):
        left = _render(e.left)
        if isinstance(e.left, DirectSum) and not _is_mult(e.left):
            left = f"({left})"
        right = _render(e.right)
        if isinstance(e.right, (Tensor,)) or (isinstance(e.right, DirectSum) and not _is_mult(e.right)):
            right = f"({right})"
        return f"{left} (x) {right}"
    if isinstance(e, DirectSum):
        if _is_mult(e):
            child = e.children[0]
            body = _render(child)
            if isinstance(child, (Tensor, DirectSum)):
                body = f"({body})"
            return f"{e.multiplicities[0]}*{body}"
        parts = []
        for child, m in zip(e.children, e.multiplicities):
            body = _render(child)
            if isinstance(child, DirectSum):
                body = f"({body})"
            if m == 1:
                parts.append(body)
            else:
                if isinstance(child, Tensor):
                    body = f"({body})"
                parts.append(f"{m}*{body}")
        return " (+) ".join(parts)
    raise ParseError(f"cannot render {type(e).__name__}", 0)


def _is_mult(e: DirectSum) -> bool:
    return len(e.children) == 1 and e.multiplicities[0] > 1 and not isinstance(
        e.children[0], DirectSum
    )
