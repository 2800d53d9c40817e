"""Seeded request generators for the three workloads.

Nothing here imports pnsheaf: bundle expressions are small tuples rendered
to the CLI grammar, ranks are computed by the rules of linear algebra, and
the twisted 1-forms are built with the integer polynomial helper below.
Every generator takes the workload seed and returns the same requests for
the same seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from math import comb

WORKLOADS = ("symbolic", "sweep", "pfaff")

# ---------------------------------------------------------------------------
# requests


@dataclass(frozen=True)
class Request:
    """One CLI invocation, plus what the output checks need to know.

    ``argv`` is passed to ``pnsheaf.cli.main``; a form file is named by
    ``form`` and written under the run's work directory before the first
    fork, its path taking the place of the ``{form}`` token in ``argv``.
    ``facts`` holds values the benchmark knows independently of pnsheaf
    (ranks, grid sizes, the ambient).
    """

    kind: str
    argv: tuple[str, ...]
    facts: dict = field(default_factory=dict, compare=False, hash=False)
    form: str | None = None
    pair: str | None = None  # requests sharing a pair id are cross-checked

    def key(self, form_texts: dict[str, str]) -> str:
        """Stable identity used for goldens: argv with the form's text."""
        body = "\x1f".join(self.argv)
        if self.form is not None:
            body += "\x1e" + form_texts[self.form]
        return hashlib.sha256(body.encode()).hexdigest()[:24]


@dataclass(frozen=True)
class Round:
    """The fixed list of requests a run repeats, and the form files they read."""

    requests: tuple[Request, ...]
    forms: dict[str, str] = field(default_factory=dict)


def make_round(workload: str, seed: int) -> Round:
    """The seeded round of one workload, its requests in a seeded order.

    The shuffle spreads each kind of request over the whole run, so CPU
    speed, which on a shared host drifts by up to 30% within seconds,
    weighs on every kind alike instead of on whichever ran last.
    """
    makers = {"symbolic": symbolic_round, "sweep": sweep_round, "pfaff": pfaff_round}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rnd = makers[workload](seed)
    order = list(rnd.requests)
    _rng(f"{workload}-order", seed).shuffle(order)
    return Round(tuple(order), rnd.forms)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# bundle expressions: ("O", d) | ("T",) | ("Omega", p) | ("sum", ((m, e), ...))
# | ("tensor", a, b) | ("wedge", k, e) | ("sym", k, e)


def render(e) -> str:
    tag = e[0]
    if tag == "O":
        return f"O({e[1]})"
    if tag == "T":
        return "T"
    if tag == "Omega":
        return f"Omega^{e[1]}"
    if tag == "sum":
        return " (+) ".join(render(x) if m == 1 else f"{m}*{render(x)}" for m, x in e[1])
    if tag == "tensor":
        return f"{_group(e[1])} (x) {_group(e[2])}"
    if tag in ("wedge", "sym"):
        return f"{tag}({e[1]}, {render(e[2])})"
    raise ValueError(f"unknown node {tag!r}")


def _group(e) -> str:
    return f"({render(e)})" if e[0] in ("sum", "tensor") else render(e)


def rank(e, n: int) -> int:
    tag = e[0]
    if tag == "O":
        return 1
    if tag == "T":
        return n
    if tag == "Omega":
        return comb(n, e[1])
    if tag == "sum":
        return sum(m * rank(x, n) for m, x in e[1])
    if tag == "tensor":
        return rank(e[1], n) * rank(e[2], n)
    if tag == "wedge":
        return comb(rank(e[2], n), e[1])
    if tag == "sym":
        return comb(rank(e[2], n) + e[1] - 1, e[1])
    raise ValueError(f"unknown node {tag!r}")


# Per ambient: (kind, power) of the wedge base, then of the sym base.  The
# cost of chi and chern grows with the number of distinct Schur weights in
# the decomposition, which these kinds and powers fix; the seed varies only
# the twists and multiplicities, so a round costs about the same for every
# seed.  T-type and Omega-type bases alternate, giving short and long weights.
SHAPES = {
    3: (("T", 3), ("Omega", 3)),
    4: (("Omega", 3), ("T", 3)),
    5: (("T", 2), ("Omega", 3)),
    6: (("Omega", 2), ("T", 3)),
    7: (("T", 3), ("Omega", 2)),
    8: (("Omega", 2), ("T", 2)),
    9: (("T", 2), ("Omega", 2)),
}


def _power_base(rng: random.Random, kind: str):
    """X (+) m*O(a) with X = T or Omega^1: wedge/sym apply to these sums only.

    X appears once: a second copy would add weights (Sym^2 T inside
    wedge^2(2*T)) and with them a seed-dependent share of the cost.
    """
    atom = ("T",) if kind == "T" else ("Omega", 1)
    return ("sum", ((1, atom), (rng.randint(1, 2), ("O", rng.randint(-2, 2)))))


def _expression(rng: random.Random, n: int):
    """wedge(k1, S1) (x) sym(k2, S2) (+) A, the bases and powers fixed by SHAPES."""
    (kind1, k1), (kind2, k2) = SHAPES[n]
    s1, s2 = _power_base(rng, kind1), _power_base(rng, kind2)
    tail = rng.choice((("O", rng.randint(-3, 3)), ("Omega", 1), ("T",)))
    return ("sum", ((1, ("tensor", ("wedge", k1, s1), ("sym", k2, s2))), (1, tail)))


def _map_pair(rng: random.Random, n: int):
    """(E, G) with rank(E) >= rank(G): E = X (+) m*O(a), G = sum of line bundles."""
    x = rng.choice((("T",), ("Omega", 1)))
    m = rng.randint(0, 2)
    e_parts = [(1, x)] + ([(m, ("O", rng.randint(-1, 2)))] if m else [])
    g_parts = [(1, ("O", rng.randint(1, 3))) for _ in range(rng.randint(1, 3))]
    return ("sum", tuple(e_parts)), ("sum", tuple(g_parts))


SYMBOLIC_REPEATS = 4


def symbolic_round(seed: int) -> Round:
    """Nine requests per expression, four expressions on each P^n, n = 3..9.

    Four seeded expressions per ambient make a round of 252 requests, so
    its latency quantiles fall among many similar requests and move little
    from one seed to the next.
    """
    rng = _rng("symbolic", seed)
    out: list[Request] = []
    for n in range(3, 10):
        for rep in range(SYMBOLIC_REPEATS):
            out.extend(_symbolic_requests(rng, n, f"expr-{n}-{rep}"))
    return Round(tuple(_json(r) for r in out))


def _symbolic_requests(rng: random.Random, n: int, pair: str) -> list[Request]:
    expr = _expression(rng, n)
    text = f"{render(expr)} on P^{n}"
    facts = {"n": n, "rank": rank(expr, n)}
    out = [
        Request("cohomology", ("cohomology", text), facts, pair=pair),
        Request("chi", ("chi", text), facts, pair=pair),
        Request("chern", ("chern", text), facts),
    ]
    E, G = _map_pair(rng, n)
    rE, rG, amb = render(E), render(G), ("--n", str(n))
    pfacts = {"n": n, "e": rank(E, n), "g": rank(G, n)}
    twisted = ("--twisted",) if rng.random() < 0.5 else ()
    k = rng.randint(1, 3)
    degrees = ",".join(str(rng.randint(-3, 0)) for _ in range(k))
    out += [
        Request("porteous", ("porteous", rE, rG) + amb, pfacts),
        Request("certificate", ("certificate", rE, rG) + amb, pfacts),
        Request("en-resolution", ("en-resolution", rE, rG) + amb + twisted, pfacts),
        Request("check", ("check", "thm-1-1", "--E", rE, "--G", rG) + amb, {"theorem": "thm-1-1"}),
        Request("check", ("check", "thm-1-2", "--k", str(k), "--degrees", degrees) + amb,
                {"theorem": "thm-1-2"}),
        Request("check", ("check", "lemma-4-4", "--k", str(rng.randint(0, n))) + amb,
                {"theorem": "lemma-4-4"}),
    ]
    return out


def _json(r: Request, *extra: str) -> Request:
    return Request(r.kind, r.argv + extra + ("--format", "json"), r.facts, r.form, r.pair)


# ---------------------------------------------------------------------------
# sweeps


def _span(rng: random.Random, lo: int, hi: int, width: int) -> tuple[int, int]:
    a = rng.randint(lo, hi - width + 1)
    return a, a + width - 1


# Per slot, the ambient ranges stay fixed, since the cost of a sweep point
# grows steeply with n; the seed moves the twist, degree and r ranges and
# picks E and G.  The endo sweep has no other parameter, so it is fixed.
SWEEP_SLOTS = (
    {"codim1": (2, 4), "split": ((2, 4), (1, 2)), "endo": (2, 5), "certificate": 3},
    {"codim1": (4, 6), "split": ((3, 5), (2, 3)), "endo": (4, 6), "certificate": 5},
    {"codim1": (6, 8), "split": ((4, 6), (1, 2)), "endo": (6, 7), "certificate": 7},
    {"codim1": (7, 9), "split": ((5, 7), (2, 3)), "endo": (8, 9), "certificate": 9},
)


def sweep_round(seed: int) -> Round:
    """128 sweeps: each of the four slots eight times, over seeded grids."""
    rng = _rng("sweep", seed)
    out: list[Request] = []
    for slot in SWEEP_SLOTS * 8:
        n0, n1 = slot["codim1"]
        r0, r1 = _span(rng, n1 + 2, 40, 10)
        out.append(Request("sweep", ("sweep", "codim1", "--n", f"{n0}:{n1}", "--r", f"{r0}:{r1}"),
                           {"count": (n1 - n0 + 1) * 10}))
        (n0, n1), (k0, k1) = slot["split"]
        d0, d1 = _span(rng, -4, 1, 3)
        count = sum(1 for n in range(n0, n1 + 1) for k in range(k0, k1 + 1) if k <= n) * 3
        out.append(Request("sweep", ("sweep", "split", "--n", f"{n0}:{n1}", "--k", f"{k0}:{k1}",
                                     "--d", f"{d0}:{d1}"), {"count": count}))
        n0, n1 = slot["endo"]
        out.append(Request("sweep", ("sweep", "endo", "--n", f"{n0}:{n1}"),
                           {"count": sum(n + 1 for n in range(n0, n1 + 1))}))
        n = slot["certificate"]
        E, G = _map_pair(rng, n)
        t0, t1 = _span(rng, -1, 4, 4)
        out.append(Request("sweep", ("sweep", "certificate", "--E", render(E), "--G", render(G),
                                     "--n", str(n), "--twist", f"{t0}:{t1}"), {"count": 4}))
    return Round(tuple(_json(r, "--workers", "1") for r in out))


# ---------------------------------------------------------------------------
# integer polynomials: {exponent tuple: int}, enough to write form files


def monomials(nvars: int, d: int) -> list[tuple[int, ...]]:
    if nvars == 1:
        return [(d,)]
    return [(a,) + m for a in range(d, -1, -1) for m in monomials(nvars - 1, d - a)]


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, c in p.items():
        for b, e in q.items():
            k = tuple(x + y for x, y in zip(a, b))
            out[k] = out.get(k, 0) + c * e
    return {k: v for k, v in out.items() if v}


def poly_add(p: dict, q: dict, scale: int = 1) -> dict:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + scale * v
    return {k: v for k, v in out.items() if v}


def poly_diff(p: dict, i: int) -> dict:
    out: dict = {}
    for a, c in p.items():
        if a[i]:
            k = a[:i] + (a[i] - 1,) + a[i + 1:]
            out[k] = out.get(k, 0) + c * a[i]
    return out


def poly_text(p: dict) -> str:
    if not p:
        return "0"
    bits = []
    for a, c in sorted(p.items(), reverse=True):
        body = "*".join(f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(a) if e)
        bits.append(("-" if c < 0 else "+", f"{abs(c)}*{body}" if body else str(abs(c))))
    text = ("-" if bits[0][0] == "-" else "") + bits[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in bits[1:])


# Coefficients come from [-50, 50]: with small ones such as [-5, 5], some
# 2x2 minor of the pencil's coefficients vanishes in about one seed in five,
# and that accident changes the Buchberger run (fewer pairs, a smaller basis)
# and halves the cost of the (3,2) pencil.  Wide coefficients keep every
# seed generic, and the cost of a form steady across seeds.
COEFF_BOUND = 50


def _random_poly(rng: random.Random, nvars: int, d: int) -> dict:
    while True:
        p = {m: rng.randint(-COEFF_BOUND, COEFF_BOUND) for m in monomials(nvars, d)}
        p = {k: v for k, v in p.items() if v}
        if p:
            return p


def pencil_coefficients(rng: random.Random, n: int, d: int) -> tuple[int, list[dict]]:
    """A_i = P dQ/dx_i - Q dP/dx_i for random degree-d P, Q; twist 2d."""
    while True:
        p, q = _random_poly(rng, n + 1, d), _random_poly(rng, n + 1, d)
        coeffs = [poly_add(poly_mul(p, poly_diff(q, i)), poly_mul(q, poly_diff(p, i)), -1)
                  for i in range(n + 1)]
        if any(coeffs):
            return 2 * d, coeffs


def log_coefficients(rng: random.Random, n: int, degrees: tuple[int, ...]) -> tuple[int, list[dict]]:
    """A_j = sum_i lam_i (prod_{l != i} F_l) dF_i/dx_j with sum lam_i deg F_i = 0."""
    while True:
        lam = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in degrees[:-1]]
        last, rem = divmod(-sum(l * d for l, d in zip(lam, degrees)), degrees[-1])
        if rem == 0 and last != 0:
            break
    lam.append(last)
    while True:
        factors = [_random_poly(rng, n + 1, d) for d in degrees]
        coeffs = []
        for j in range(n + 1):
            acc: dict = {}
            for i, f in enumerate(factors):
                prod = {(0,) * (n + 1): lam[i]}
                for l, other in enumerate(factors):
                    if l != i:
                        prod = poly_mul(prod, other)
                acc = poly_add(acc, poly_mul(prod, poly_diff(f, j)))
            coeffs.append(acc)
        if any(coeffs):
            return sum(degrees), coeffs


def form_file(n: int, twist: int, coeffs: list[dict]) -> str:
    return f"P^{n} twist {twist}\n" + "".join(f"A_{i}: {poly_text(c)}\n" for i, c in enumerate(coeffs))


# Each form with the subcommands sent on it.  The two slow pencils get
# 'singular' (pure Buchberger) and 'annihilator' (linalg with no Groebner
# work) only; their uniqueness and sections requests would double a round.
# The rest of a round is built around one plateau: 25 of its 36 requests
# take 0.25-0.5 s (uniqueness and sections on small pencils and log forms,
# annihilator on the (3,2) pencil), so the median and the 90th percentile
# fall inside it rather than on a step between two kinds of request.
PLATEAU = ("uniqueness", "sections")
ALL_OPS = PLATEAU + ("singular", "annihilator")
PFAFF_FORMS = (
    ("pencil-3-2", ("pencil", 3, 2), ("singular", "annihilator")),
    ("pencil-2-3", ("pencil", 2, 3), ("singular", "annihilator")),
    ("pencil-2-2-0", ("pencil", 2, 2), ALL_OPS),
    *((f"pencil-2-2-{i}", ("pencil", 2, 2), PLATEAU) for i in range(1, 9)),
    ("log-2-111", ("log", 2, (1, 1, 1)), ALL_OPS),
    ("log-2-112", ("log", 2, (1, 1, 2)), PLATEAU),
    ("log-3-111-0", ("log", 3, (1, 1, 1)), ALL_OPS),
    ("log-3-111-1", ("log", 3, (1, 1, 1)), PLATEAU),
)


def pfaff_round(seed: int) -> Round:
    rng = _rng("pfaff", seed)
    forms: dict[str, str] = {}
    out: list[Request] = []
    for name, (family, n, shape), ops in PFAFF_FORMS:
        if family == "pencil":
            twist, coeffs = pencil_coefficients(rng, n, shape)
        else:
            twist, coeffs = log_coefficients(rng, n, shape)
        forms[name] = form_file(n, twist, coeffs)
        for op in ops:
            extra = ("--bound", "2") if op == "annihilator" else ()
            argv = ("pfaff", op, "--file", "{form}") + extra
            out.append(Request(f"pfaff-{op}", argv, {"n": n, "bound": 2}, form=name))
    return Round(tuple(_json(r) for r in out), forms)
