"""Named hypothesis checkers built on the cohomology engine.

Each checker evaluates the conditions and cohomology groups of one statement
about uniqueness of twisted forms by their degeneracy loci, and returns a
structured report.  A verdict of "hypotheses-fail" only means the sufficient
conditions could not be verified, never that the conclusion is false.
"""

from __future__ import annotations

from ._record import record
from .bundles import BundleExpr, _map_ranks, dual, o, omega, split_bundle, tangent, tensor, wedge
from .cohomology import cohomology_dims
from .complexes import _failed, required_dims
from .errors import InputError
from .grammar import render_expression

HOLD = "hypotheses-hold"
FAIL = "hypotheses-fail"

CHECK_IDS = ("thm-1-1", "thm-1-2", "thm-1-4", "prop-4-5", "lemma-4-4")

PURITY_NOTE = "purity of the degeneracy scheme is assumed, not derived"


@record
class ConditionCheck:
    name: str
    ok: bool


@record
class GroupDim:
    i: int
    p: int
    dim: int


@record
class TheoremReport:
    theorem: str
    inputs: dict
    conditions: tuple[ConditionCheck, ...]
    groups: tuple[GroupDim, ...]
    verdict: str
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "inputs": self.inputs,
            "conditions": [{"name": c.name, "ok": c.ok} for c in self.conditions],
            "groups": [{"i": g.i, "p": g.p, "dim": g.dim} for g in self.groups],
            "verdict": self.verdict,
            "notes": list(self.notes),
        }

    def text_lines(self) -> list[str]:
        inputs = " ".join(f"{k}={v}" for k, v in self.inputs.items())
        return [
            f"check {self.theorem}: {inputs}",
            *(f"condition [{'ok' if cond.ok else 'NO'}] {cond.name}" for cond in self.conditions),
            *(f"group i={grp.i} p={grp.p}: dim = {grp.dim}" for grp in self.groups),
            f"verdict: {self.verdict}",
            *(f"note: {note}" for note in self.notes),
        ]


def _required_groups(hs) -> tuple[GroupDim, ...]:
    """H^i(M_(g+i)) as (i, i, dim), hs being the h-vectors of M_(g+1), M_(g+2), ..."""
    return tuple(GroupDim(i, i, h[i] if i < len(h) else 0) for i, h in enumerate(hs, 1))


def _split_inputs(n: int, k: int, degrees) -> tuple[tuple[int, ...], tuple[bool, bool]]:
    """thm-1-2's degrees as ints and its two conditions, after its input checks."""
    degrees = tuple(int(d) for d in degrees)
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= n; got k={k}, n={n}")
    if len(degrees) != k:
        raise InputError(f"need exactly k={k} degrees; got {len(degrees)}")
    return degrees, tuple(all(-d + k - n + shift >= 1 for d in degrees) for shift in (0, 1))


def split_verdict(n: int, k: int, degrees, hs=None) -> str:
    """thm-1-2 holds when a condition holds and h^p(M_(k+i)) = 0 for 1 <= p <= i, hs
    being the h-vectors of the certificate of Omega^1 -> F* (default: one Bott pass)."""
    degrees, conditions = _split_inputs(n, k, degrees)
    hs = required_dims(omega(1, n), dual(split_bundle(degrees, n))) if hs is None else hs
    vanish = not any(h[p] for i, h in enumerate(hs, 1) for p in range(1, i + 1))
    return HOLD if any(conditions) and vanish else FAIL


def check_split_distribution(n: int, k: int, degrees) -> TheoremReport:
    """Uniqueness hypotheses for a codimension-k distribution with split
    tangent complement F = O(d_1) (+) ... (+) O(d_k) on P^n.

    Sufficient conditions (either suffices):
      (1) every -d_j + k - n >= 1   (F* twisted by O(k-n) is ample)
      (2) every -d_j + k - n + 1 >= 1  (split case, one twist less)
    The group list is H^p(wedge^k T (x) Omega^i (x) Sym^(i-k) F) over the
    full index set k+1 <= i <= n, 1 <= p <= i-k; all of them vanish whenever
    a condition holds.  These bundles are the terms of the Eagon-Northcott
    certificate of Omega^1 -> F*: its term M_(k+j) = wedge^k T (x)
    wedge^(k+j) Omega^1 (x) Sym^j F is the one at i = k + j, so every group
    is read off the h-vectors of one required_dims pass, and the ones with
    p = i-k are the certificate's own required groups.
    """
    degrees, (cond1, cond2) = _split_inputs(n, k, degrees)
    conditions = (
        ConditionCheck("dual twisted by O(k-n) ample", cond1),
        ConditionCheck("split form: dual twisted by O(k-n+1) ample", cond2),
    )
    hs = required_dims(omega(1, n), dual(split_bundle(degrees, n)))
    groups = tuple(GroupDim(k + i, p, h[p]) for i, h in enumerate(hs, 1) for p in range(1, i + 1))
    return TheoremReport(
        "thm-1-2",
        {"n": n, "k": k, "degrees": list(degrees)},
        conditions,
        groups,
        split_verdict(n, k, degrees, hs),
        (PURITY_NOTE,),
    )


def _codim1_inputs(n: int, r: int) -> tuple[bool, BundleExpr, BundleExpr]:
    """thm-1-4's condition r > n + 1 and its map T -> O(r), after its input check."""
    if n < 2:
        raise InputError(f"need n >= 2; got n={n}")
    return r > n + 1, tangent(n), o(r, n)


def codim1_verdict(n: int, r: int, hs=None) -> str:
    """thm-1-4 holds when r > n + 1 and h^i(M_(1+i)) = 0 for 1 <= i <= n-1, hs being
    the h-vectors of the certificate of T -> O(r) (default: one Bott pass)."""
    condition, T, O_r = _codim1_inputs(n, r)
    hs = required_dims(T, O_r) if hs is None else hs
    return HOLD if condition and not _failed(hs) else FAIL


def check_codim1_generic(n: int, r: int) -> TheoremReport:
    """Uniqueness hypotheses for a codimension-one distribution on P^n whose
    twisted normal sheaf is O(r) and whose singular scheme is zero-dimensional.

    Condition: r > n + 1.  Groups: H^i(Omega^1 (x) wedge^(i+1) T (x) O(-i*r))
    for 1 <= i <= n-1; they vanish for every r > n + 1.  These are the
    required groups of the Eagon-Northcott certificate of T -> O(r), whose
    term M_(1+i) = wedge^1 T* (x) wedge^(i+1) T (x) Sym^i O(-r) is that
    bundle, so they are read off the h-vectors of one required_dims pass.
    """
    condition, T, O_r = _codim1_inputs(n, r)
    hs = required_dims(T, O_r)
    notes = (
        PURITY_NOTE,
        "zero-dimensionality of the singular scheme is a separate input, "
        "certified by the polynomial layer when available",
    )
    return TheoremReport(
        "thm-1-4", {"n": n, "r": r}, (ConditionCheck("twist exceeds n + 1", condition),),
        _required_groups(hs), codim1_verdict(n, r, hs), notes
    )


def endomorphism_space_dim(k: int, n: int) -> int:
    """dim H^0(wedge^k T (x) Omega^k); equals 1, so a twisted form with the
    right degeneracy behaviour is recovered uniquely up to scalar."""
    if not 0 <= k <= n:
        raise InputError(f"need 0 <= k <= n; got k={k}, n={n}")
    if n == 0:
        # on a point both factors collapse to the structure sheaf
        return 1
    return cohomology_dims(tensor(wedge(k, tangent(n)), omega(k, n)))[0]


def endo_verdict(dim: int) -> str:
    """lemma-4-4 holds when the endomorphism space is one-dimensional."""
    return HOLD if dim == 1 else FAIL


def check_endomorphism_space(k: int, n: int) -> TheoremReport:
    dim = endomorphism_space_dim(k, n)
    return TheoremReport(
        "lemma-4-4",
        {"n": n, "k": k},
        (ConditionCheck("0 <= k <= n", True),),
        (GroupDim(k, 0, dim),),
        endo_verdict(dim),
    )


def check_map_recovery(E: BundleExpr, G: BundleExpr) -> TheoremReport:
    """Generic-statement checker: the required groups of the vanishing
    certificate for a map E -> G of arbitrary supported bundles, read off
    the h-vectors of one required_dims pass."""
    e, g = _map_ranks(E, G)
    hs = required_dims(E, G)
    return TheoremReport(
        "thm-1-1",
        {
            "n": E.ambient,
            "E": render_expression(E),
            "G": render_expression(G),
            "e": e,
            "g": g,
        },
        (ConditionCheck("rank(E) >= rank(G)", e >= g),),
        _required_groups(hs),
        FAIL if _failed(hs) else HOLD,
        (PURITY_NOTE,),
    )


def check_split_vanishing(n: int, k: int, degrees) -> TheoremReport:
    """The bare vanishing statement behind the split checker; identical
    computation, reported under its own name with no ampleness conditions
    beyond the ones that power it."""
    base = check_split_distribution(n, k, degrees)
    return TheoremReport("prop-4-5", base.inputs, base.conditions, base.groups, base.verdict)
