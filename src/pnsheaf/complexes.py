"""Eagon-Northcott style resolutions and their vanishing certificates.

For a map of bundles E -> G with e = rank E >= g = rank G whose maximal-minor
degeneracy locus Z has the expected codimension e - g + 1, the twisted
resolution has terms M_i = wedge^g(E*) (x) wedge^i(E) (x) Sym^(i-g)(G*) for
i = g..e.  Whenever H^i(M_(g+i)) = 0 for i = 1..e-g, a chase through the
short exact sequences linking the kernels F_j shows H^1(F_2) = 0, which is
the statement that a section datum on Z lifts; the certificate records every
required group together with the replayed chase.  Its terms are tensored on
the engine's count maps, and a term's expression tree is built only when the
certificate is printed.

The certificate is twist-equivariant in G: Sym^i(G* (x) O(s)) =
Sym^i(G*) (x) O(i*s), so twisting G by O(-s) twists every summand of
M_(g+i) by O(i*s) and leaves its Schur weights alone.  The twist-free part
of each term is cached per (E, G up to twist).  One pass, required_dims,
reads each term's h-vector with one Bott lookup per summand: that is all a
sweep point or a checker pays, and the certificate keeps those h-vectors.
"""

from __future__ import annotations

from functools import lru_cache

from ._record import record
from .bundles import (
    BundleExpr,
    LineBundle,
    Terms,
    _check_power_shapes,
    _graded_power,
    _map_ranks,
    _normalize_cached,
    _tensor_into,
    det_bundle,
    dual,
    rank,
    sym,
    tensor,
    wedge,
)
from .cohomology import _count_map_dims
from .errors import ScaleExceeded, UnsupportedPlethysm
from .grammar import render_expression


@record
class ENResolutionReport:
    E: BundleExpr
    G: BundleExpr
    e: int
    g: int
    twisted: bool
    terms: tuple[BundleExpr, ...]  # ordered i = g..e


@record
class RequiredVanishing:
    i: int
    dims: tuple[int, ...]  # (h^0, ..., h^n) of M_(g+i)
    ok: bool


@record
class ENCertificate:
    E: BundleExpr
    G: BundleExpr
    n: int
    e: int
    g: int
    required: tuple[RequiredVanishing, ...]
    verdict: bool
    chain_trace: tuple[str, ...]
    endomorphism_dim: int
    assumptions: tuple[str, ...] = ("purity",)

    def term(self, i: int) -> BundleExpr:
        """The term M_(g+i), built only when printed."""
        return _en_term(self.E, self.G, self.g + i, self.g, True)

    def to_json_dict(self) -> dict:
        return {
            "e": self.e,
            "g": self.g,
            "n": self.n,
            "required": [
                {
                    "i": r.i,
                    "expr": render_expression(self.term(r.i)),
                    "h": list(r.dims),
                    "ok": r.ok,
                }
                for r in self.required
            ],
            "assumptions": list(self.assumptions),
            "verdict": self.verdict,
        }

    def text_lines(self) -> list[str]:
        return [
            f"certificate on P^{self.n}: E = {render_expression(self.E)}, "
            f"G = {render_expression(self.G)} (e = {self.e}, g = {self.g})",
            *(f"H^{req.i}({render_expression(self.term(req.i))}) = "
              f"{0 if req.ok else req.dims[req.i]}  [{'ok' if req.ok else 'NONZERO'}]"
              for req in self.required),
            *(f"chase: {step}" for step in self.chain_trace),
            *(f"assumption: {assumption}" for assumption in self.assumptions),
            f"endomorphism space dimension: {self.endomorphism_dim}",
            f"verdict: {'holds' if self.verdict else 'fails'}",
        ]


def _en_term(E: BundleExpr, G: BundleExpr, i: int, g: int, twisted: bool) -> BundleExpr:
    n = E.ambient
    if twisted:
        return tensor(wedge(g, dual(E)), wedge(i, E), sym(i - g, dual(G)))
    det_g_dual = det_bundle(dual(G))
    return tensor(wedge(i, E), sym(i - g, dual(G)), LineBundle(n, det_g_dual.twist))


def en_resolution(E: BundleExpr, G: BundleExpr, twisted: bool = False) -> ENResolutionReport:
    """The e - g + 1 bundle terms resolving the maximal-minor ideal sheaf, each
    ranked as built, its factors in tree order, so the first refused stops the walk."""
    e, g = _map_ranks(E, G)
    terms = []
    for i in range(g, e + 1):
        terms.append(_en_term(E, G, i, g, twisted))
        rank(terms[-1])
    return ENResolutionReport(E, G, e, g, twisted, tuple(terms))


def _chain_trace(e: int, g: int, verdict: bool, failed: tuple[int, ...]) -> tuple[str, ...]:
    if not verdict:
        return tuple(
            f"hypothesis not satisfied: H^{i}(M_{g + i}) != 0" for i in failed
        )
    q = e - g
    if q == 0:
        return ("no intermediate kernels: requirement list is empty, nothing to chase",)
    if q == 1:
        return (
            f"F_2 = M_{e}, so H^1(F_2) = H^1(M_{e}) = 0 directly",
            "conclusion: H^1(F_2) = 0",
        )
    lines = []
    for j in range(1, q - 1):
        lines.append(
            f"0 -> F_{j + 2} -> M_{g + j} -> F_{j + 1} -> 0 and H^{j}(M_{g + j}) = 0 "
            f"give H^{j}(F_{j + 1}) c H^{j + 1}(F_{j + 2})"
        )
    lines.append(
        f"0 -> M_{e} -> M_{e - 1} -> F_{q} -> 0 with H^{q - 1}(M_{e - 1}) = "
        f"H^{q}(M_{e}) = 0 gives H^{q - 1}(F_{q}) = 0"
    )
    lines.append("descending induction: H^1(F_2) = 0")
    return tuple(lines)


# A product of count maps in a bracket is refused before it starts above this
# LR work: n * (|lam| + |mu|) * lam_1 * mu_1 for each distinct pair of weights
# that needs an LR tableau enumeration (both first rows 2 or more; Pieri's rule
# does the rest).  Fitted to measured time (2 CPUs, Python 3.11): 0.14-1.5 us a
# unit (5th to 95th percentile, products of 5 ms or more), 15-150 ms at the bound.
MAX_BRACKET_WORK = 100_000


def _product_work(a: Terms, b: Terms, n: int) -> int:
    """The LR work of a (x) b, summed over the weight pairs in one pass per side."""
    left = {lam for (lam, _), _ in a if lam[0] > 1}
    right = left and {lam for (lam, _), _ in b if lam[0] > 1}
    if not right:
        return 0
    rows = [sum(lam[0] for lam in side) for side in (left, right)]
    boxes = [sum(sum(lam) * lam[0] for lam in side) for side in (left, right)]
    return n * (boxes[0] * rows[1] + rows[0] * boxes[1])


def _tensor_bracket(a: Terms, b: Terms, n: int, term: int) -> dict:
    """a (x) b as a count map, refused before any product above MAX_BRACKET_WORK."""
    if (work := _product_work(a, b, n)) > MAX_BRACKET_WORK:
        raise ScaleExceeded(f"the certificate term M_{term} needs {work} units of LR work;"
                            f" the bound is {MAX_BRACKET_WORK}")
    return _tensor_into({}, a, b)


@lru_cache(maxsize=1024)  # a benchmark or golden request fills at most 21
def _en_bracket(E: BundleExpr, G0_dual: Terms, g: int, i: int) -> Terms:
    """wedge^g(E*) (x) wedge^(g+i)(E) (x) Sym^i(G0*) as a count map, G0_dual
    being G0*'s; i = 0 gives the endomorphism space, for any G0_dual."""
    n = E.ambient
    wedge_g_dual = _normalize_cached(wedge(g, dual(E)))
    acc = _tensor_bracket(wedge_g_dual, _normalize_cached(wedge(g + i, E)), n, g + i)
    if i:
        acc = _tensor_bracket(acc.items(), _graded_power(G0_dual, n, i, False), n, g + i)
    return tuple(acc.items())


def required_dims(E: BundleExpr, G: BundleExpr) -> list:
    """The h-vectors (h^0, ..., h^n) of M_(g+i) for i = 1..e-g.

    With G* = G0* (x) O(s), s the twist of the first summand of G*, M_(g+i)
    is the count map of wedge^g(E*) (x) wedge^(g+i)(E) (x) Sym^i(G0*), from a
    cache shared by every twist of G, with i*s added to the twist of each
    summand; only the Bott lookups see s.
    """
    n = E.ambient
    e, g = _map_ranks(E, G)
    G_dual = _normalize_cached(dual(G))
    s = G_dual[0][0][1] if G_dual else 0
    G0_dual = tuple(((lam, d - s), m) for (lam, d), m in G_dual)
    # a refusal names the factor the tree of M_(g+i) normalizes first:
    # wedge^g(E*), wedge^(g+i)(E), then Sym^i(G*), in that order in
    # _en_bracket.  Only the shape check of Sym^i(G*), whose message names a
    # twist the bracket does not see, runs here on G* itself, at the first
    # power that makes it (i = 2) and after wedge^(g+2)(E), as in the tree.
    out = []
    for i in range(1, e - g + 1):
        if i == 2:
            try:
                _check_power_shapes(G_dual, n, False)
            except UnsupportedPlethysm:
                _normalize_cached(wedge(g + 2, E))
                raise
        out.append(_count_map_dims(n, _en_bracket(E, G0_dual, g, i), i * s))
    return out


def _failed(hs) -> tuple[int, ...]:
    """The i with H^i(M_(g+i)) != 0, hs being the h-vectors of M_(g+1), M_(g+2), ..."""
    return tuple(i for i, h in enumerate(hs, 1) if i < len(h) and h[i])


def vanishing_certificate(E: BundleExpr, G: BundleExpr) -> ENCertificate:
    """Check H^i(wedge^g(E*) (x) wedge^(g+i)(E) (x) Sym^i(G*)) = 0, i = 1..e-g.

    The verdict is the conjunction; purity of the degeneracy locus is an
    explicit, unchecked assumption carried in the report.  The i = 0 bracket
    is charged first; the h-vectors then come from the pass of required_dims.
    """
    e, g = _map_ranks(E, G)
    endo = _count_map_dims(E.ambient, _en_bracket(E, (), g, 0))[0]
    hs = required_dims(E, G)
    failed = _failed(hs)
    required = tuple(RequiredVanishing(i, tuple(h), i not in failed) for i, h in enumerate(hs, 1))
    trace = _chain_trace(e, g, not failed, failed)
    return ENCertificate(E, G, E.ambient, e, g, required, not failed, trace, endo)
