"""Command-line front end.

Subcommands
-----------
cohomology EXPR        exact table (h^0..h^n) with contributing summands
chern EXPR             Chern character and total Chern class
chi EXPR               Euler characteristic, by Riemann-Roch and by cohomology
en-resolution E G      terms of the Eagon-Northcott resolution, with ranks
certificate E G        term-wise vanishing certificate for a map E -> G
porteous E G           expected-codimension degeneracy-locus class and degree
check ID ...           named hypothesis checkers (thm-1-1, thm-1-2, thm-1-4,
                       prop-4-5, lemma-4-4, or their aliases map, split,
                       codim1, split-vanishing, endo), each a command with
                       exactly the flags its checker reads
pfaff SUB ...          concrete twisted 1-forms: uniqueness, singular,
                       sections, annihilator, random-pencil
sweep SUB ...          parameter sweeps over a grid of checker inputs

The command line is declared once, in the table COMMANDS, which alone
decides which flags a command takes and needs.  main reads a well-formed
argv straight from it and builds the argparse parser only for help and
errors, so argparse writes every help and error text.

A result becomes text in one place, _emit: it size-checks every int in the
payload before it writes JSON or text, so any command whose result has an
int Python cannot print (MAX_OUTPUT_BITS) exits 3 with one error line.

Expressions follow the grammar "O(d) | T | Omega^p | wedge(k, e) | sym(k, e)
| dual(e) | e (x) e | e (+) e | m*e" with the ambient given either as a
trailing "on P^n" or through --n.

Exit codes: 0 success; 1 a verdict failed (certificate false, checker
hypotheses-fail, or a form not determined by its singular scheme); 2 bad
input; 3 computation refused (unsupported plethysm or scale guard); 4 an
internal cross-check failed, which is a bug, not a verdict.  A sweep runs
its grid in one process: --workers is accepted for compatibility and has no
effect, except that a value below 1 is bad input (exit 2).
"""

from __future__ import annotations

import sys
from _json import encode_basestring_ascii  # json.encoder's own; json itself compiles regexes
from types import SimpleNamespace

from .bundles import MAX_OUTPUT_BITS, BundleExpr, IrreducibleBundle, o, rank, tensor
from .checkers import (
    HOLD,
    check_codim1_generic,
    check_endomorphism_space,
    check_map_recovery,
    check_split_distribution,
    check_split_vanishing,
    codim1_verdict,
    endo_verdict,
    endomorphism_space_dim,
    split_verdict,
)
from .chow import ChowClass, chern_character, hrr_chi, porteous_class, total_chern
from .cohomology import cohomology_table
from .complexes import _failed, en_resolution, required_dims, vanishing_certificate
from .errors import (
    ConsistencyError,
    InputError,
    ScaleExceeded,
    UnsupportedPlethysm,
    read_int,
)
from .grammar import parse_expression, render_expression, split_ambient
from .pfaff import (
    TwistedOneForm,
    annihilator_distribution,
    parse_form_file,
    random_pencil_form,
    render_form_file,
    singular_scheme,
    singular_sections,
    uniqueness_report,
)
from .polyideal import Poly

# ---------------------------------------------------------------------------
# shared helpers


def _load_expr(text: str, n: int | None) -> BundleExpr:
    """Parse an expression whose ambient comes from 'on P^n' or --n."""
    _, amb = split_ambient(text)
    if amb is None:
        if n is None:
            raise InputError(
                f"ambient missing for {text!r}: append 'on P^n' or pass --n"
            )
        amb = n
    elif n is not None and n != amb:
        raise InputError(f"--n {n} disagrees with 'on P^{amb}' in {text!r}")
    # the whole text, so that parse_expression splits one 'on P^m' off and a
    # second one is a parse error
    return parse_expression(text, amb)


def _warn_zero(e: BundleExpr) -> None:
    if rank(e) == 0:
        print(
            "warning: expression is the zero bundle (a wedge power exceeds the rank)",
            file=sys.stderr,
        )


def _check_size(*values) -> None:
    """ScaleExceeded if an int or Fraction in values, which may nest in lists,
    tuples, dicts, expressions, summands, forms and polynomials, has a
    numerator or denominator above MAX_OUTPUT_BITS.  Only a loaded
    ``fractions`` can have made a Fraction, so its class is looked up."""
    fraction = getattr(sys.modules.get("fractions"), "Fraction", int)
    for value in values:
        if isinstance(value, (int, fraction)):
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            if bits > MAX_OUTPUT_BITS:
                raise ScaleExceeded(
                    f"a result has {bits} bits; the output bound is {MAX_OUTPUT_BITS}"
                    " bits (4300 digits)"
                )
        elif isinstance(value, dict):
            _check_size(*value.values())
        elif isinstance(value, (list, tuple)):
            _check_size(*value)
        elif isinstance(value, (BundleExpr, IrreducibleBundle, TwistedOneForm)):
            # every int field of these is printed with them
            _check_size(*vars(value).values())
        elif isinstance(value, Poly):
            # a printed coefficient is a numerator over the denominator, each
            # divided by their gcd
            _check_size(value._den, max(map(abs, value._terms.values()), default=0))


def _write_json(value, indent: str, out: list[str]) -> None:
    """Append to out the text json.dumps(value, sort_keys=True, indent=2,
    default=str) writes, indent being the newline and spaces before a line at
    value's depth: str keys, strings by the C encoder, and the str of what
    is not a str, int, bool, None, list, tuple or dict, as a string."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner, sep = indent + "  ", "{"
        for key in sorted(value):
            out.append(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write_json(value[key], inner, out)
            sep = ","
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner, sep = indent + "  ", "["
        for item in value:
            out.append(sep + inner)
            _write_json(item, inner, out)
            sep = ","
        out.append(indent + "]")
    else:
        out.append(encode_basestring_ascii(str(value)))


def _emit(args, payload: dict, text_lines, *text_only) -> None:
    """Print the payload as JSON, or the list text_lines() returns as text.

    The one place a result becomes text: every int in the payload, and in
    text_only (values only the text prints), is size-checked first; JSON
    writes a Fraction, summand, expression or polynomial as its str, with
    the bytes json.dumps(payload, sort_keys=True, indent=2, default=str)
    gives, and the text is built only when it is printed.
    """
    _check_size(payload, *text_only)
    if args.format == "json":
        if args.seed is not None:
            payload = {**payload, "seed": args.seed}
        out: list[str] = []
        _write_json(payload, "\n", out)
        print("".join(out))
    else:
        print("\n".join(text_lines()))


def _chow_text(c: ChowClass) -> str:
    parts = []
    for i, x in enumerate(c.coeffs):
        if x == 0:
            continue
        if i == 0:
            parts.append(str(x))
        else:
            power = "h" if i == 1 else f"h^{i}"
            if x == 1:
                parts.append(power)
            elif x == -1:
                parts.append(f"-{power}")
            else:
                parts.append(f"{x} {power}")
    return " + ".join(parts) if parts else "0"


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad degree list {text!r}; expected like -1,-2") from exc


def _parse_range(text: str) -> range:
    lo_text, colon, hi_text = text.strip().partition(":")
    ends = (lo_text, hi_text) if colon else (lo_text,)
    # each end is an optional '-', then decimal digits (the regex -?\d+)
    if not all(end.removeprefix("-").isdecimal() for end in ends):
        raise InputError(f"bad range {text!r}; expected 'a' or 'a:b'")
    lo = read_int(lo_text, 0)
    hi = read_int(hi_text, len(lo_text) + 1) if colon else lo
    if hi < lo:
        raise InputError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _read_form(path: str) -> TwistedOneForm:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"form file {path} is not UTF-8 text: {exc}") from exc
    return parse_form_file(text)


# ---------------------------------------------------------------------------
# bundle subcommands


def _cmd_cohomology(args) -> int:
    e = _load_expr(args.expr, args.n)
    _warn_zero(e)
    table = cohomology_table(e)
    chi = table.euler_characteristic()
    text = render_expression(e)
    payload = {
        "ambient": table.ambient,
        "expression": text,
        "euler_characteristic": chi,
        "h": list(table.dims),
        "contributions": [
            {"degree": c.degree, "summand": c.summand,
             "multiplicity": c.multiplicity, "dim": c.dim}
            for c in table.contributions
        ],
    }

    def lines():
        by_degree = [[] for _ in table.dims]
        for c in table.contributions:
            by_degree[c.degree].append(f"{c.summand} x{c.multiplicity} (dim {c.dim})")
        out = [f"P^{table.ambient}: {text}"]
        for p, (d, contribs) in enumerate(zip(table.dims, by_degree)):
            out.append(f"h^{p} = {d}" + (f"   from {', '.join(contribs)}" if contribs else ""))
        out.append(f"chi = {chi}")
        return out

    _emit(args, payload, lines)
    return 0


def _cmd_chern(args) -> int:
    e = _load_expr(args.expr, args.n)
    _warn_zero(e)
    ch = chern_character(e)
    c = total_chern(e)
    r = rank(e)
    text = render_expression(e)
    payload = {
        "ambient": e.ambient,
        "expression": text,
        "rank": r,
        "chern_character": list(ch.coeffs),
        "total_chern": list(c.coeffs),
    }
    _emit(args, payload, lambda: [
        f"P^{e.ambient}: {text}",
        f"rank = {r}",
        f"ch = {_chow_text(ch)}",
        f"c  = {_chow_text(c)}",
    ])
    return 0


def _cmd_chi(args) -> int:
    e = _load_expr(args.expr, args.n)
    _warn_zero(e)
    table = cohomology_table(e)
    chi = hrr_chi(e)
    if chi != table.euler_characteristic():
        raise ConsistencyError(
            f"Riemann-Roch chi {chi} != alternating sum {table.euler_characteristic()}"
        )
    text = render_expression(e)
    payload = {
        "ambient": e.ambient,
        "expression": text,
        "chi": chi,
        "h": list(table.dims),
    }
    _emit(args, payload, lambda: [
        f"P^{e.ambient}: {text}",
        f"chi = {chi} (Riemann-Roch and cohomology agree)",
        "h = (" + ", ".join(str(d) for d in table.dims) + ")",
    ])
    return 0


def _cmd_en_resolution(args) -> int:
    E = _load_expr(args.E, args.n)
    G = _load_expr(args.G, args.n)
    report = en_resolution(E, G, twisted=args.twisted)
    terms = [
        {"i": report.g + offset, "expr": term, "rank": rank(term)}
        for offset, term in enumerate(report.terms)
    ]
    payload = {
        "n": E.ambient,
        "e": report.e,
        "g": report.g,
        "twisted": report.twisted,
        "terms": terms,
    }
    _emit(args, payload, lambda: [
        f"resolution on P^{E.ambient}: E = {render_expression(E)}, "
        f"G = {render_expression(G)} (e = {report.e}, g = {report.g}, "
        f"{'twisted' if report.twisted else 'untwisted'})",
        *(f"M_{term['i']}: {term['expr']}  (rank {term['rank']})" for term in terms),
    ])
    return 0


def _cmd_certificate(args) -> int:
    E = _load_expr(args.E, args.n)
    G = _load_expr(args.G, args.n)
    cert = vanishing_certificate(E, G)
    _emit(args, cert.to_json_dict(), cert.text_lines, cert.endomorphism_dim)
    return 0 if cert.verdict else 1


def _cmd_porteous(args) -> int:
    E = _load_expr(args.E, args.n)
    G = _load_expr(args.G, args.n)
    result = porteous_class(E, G)
    n = result.ambient
    payload = {
        "ambient": n,
        "e": rank(E),
        "g": rank(G),
        "codim": result.codim,
        "within_ambient": result.within_ambient,
        "expected_dimension": n - result.codim if result.within_ambient else None,
        "degree": result.degree,
        "class": list(result.cls.coeffs),
    }

    def lines():
        out = [
            f"degeneracy locus on P^{n}: E = {render_expression(E)}, "
            f"G = {render_expression(G)}",
            f"expected codimension = {result.codim}",
        ]
        if result.within_ambient:
            out.append(f"expected dimension = {n - result.codim}")
            out.append(f"class = {_chow_text(result.cls)}")
            out.append(f"degree = {result.degree}")
        else:
            out.append("codimension exceeds the ambient: empty expected locus")
        return out

    _emit(args, payload, lines)
    return 0


# check name -> its checker, run on the parsed args; an alias runs its id's
CHECKS = {
    "thm-1-1": lambda a: check_map_recovery(_load_expr(a.E, a.n), _load_expr(a.G, a.n)),
    "thm-1-2": lambda a: check_split_distribution(a.n, a.k, _parse_degrees(a.degrees)),
    "thm-1-4": lambda a: check_codim1_generic(a.n, a.r),
    "prop-4-5": lambda a: check_split_vanishing(a.n, a.k, _parse_degrees(a.degrees)),
    "lemma-4-4": lambda a: check_endomorphism_space(a.k, a.n),
}
CHECKS |= {"map": CHECKS["thm-1-1"], "split": CHECKS["thm-1-2"], "codim1": CHECKS["thm-1-4"],
           "split-vanishing": CHECKS["prop-4-5"], "endo": CHECKS["lemma-4-4"]}


def _cmd_check(args) -> int:
    report = CHECKS[args.check_command](args)
    _emit(args, report.to_json_dict(), report.text_lines)
    return 0 if report.verdict == HOLD else 1


# ---------------------------------------------------------------------------
# pfaff subcommands


def _form_summary(w: TwistedOneForm) -> dict:
    return {
        "ambient": w.ambient,
        "twist": w.twist,
        "coefficients": list(w.coeffs),
    }


def _cmd_pfaff_uniqueness(args) -> int:
    w = _read_form(args.file)
    report = uniqueness_report(w)
    payload = {
        **_form_summary(w),
        "singular_scheme": {
            "dimension": report.scheme.dimension,
            "zero_dimensional": report.scheme.is_zero_dimensional(),
        },
        "section_space_dim": report.sections.dim,
        "verdict": report.verdict,
        "cross_check": report.cross_check.to_json_dict(),
        "notes": list(report.notes),
    }
    _emit(args, payload, lambda: [
        f"form on P^{w.ambient}, twist {w.twist}: {w}",
        f"singular scheme dimension = {report.scheme.dimension}",
        f"twist-{w.twist} forms vanishing on it: dimension = {report.sections.dim}",
        f"verdict: {report.verdict}",
        f"cross-check {report.cross_check.theorem}: {report.cross_check.verdict}",
        *(f"note: {note}" for note in report.notes),
    ])
    return 0 if report.verdict == "unique-up-to-scalar" else 1


def _cmd_pfaff_singular(args) -> int:
    w = _read_form(args.file)
    scheme = singular_scheme(w)
    payload = {
        **_form_summary(w),
        "dimension": scheme.dimension,
        "zero_dimensional": scheme.is_zero_dimensional(),
        "generators": list(scheme.ideal.generators),
        "charts": [{"chart": i, "basis": list(basis)} for i, basis in enumerate(scheme.ideal.charts)],
    }
    _emit(args, payload, lambda: [
        f"form on P^{w.ambient}, twist {w.twist}: {w}",
        f"singular scheme dimension = {scheme.dimension}",
        "generators: " + "; ".join(map(str, scheme.ideal.generators)),
        *(f"chart x{i} = 1 basis: {'; '.join(map(str, basis)) or '(zero ideal)'}"
          for i, basis in enumerate(scheme.ideal.charts)),
    ])
    return 0


def _cmd_pfaff_sections(args) -> int:
    w = _read_form(args.file)
    twist = args.twist if args.twist is not None else w.twist
    scheme, space = singular_sections(w, twist)
    payload = {
        "ambient": w.ambient,
        "twist": twist,
        "singular_dimension": scheme.dimension,
        "dim": space.dim,
        "basis": [list(form.coeffs) for form in space.basis],
    }
    _emit(args, payload, lambda: [
        f"forms of twist {twist} vanishing on the singular scheme of {w}",
        f"dimension = {space.dim}",
        *(f"basis[{idx}]: {form}" for idx, form in enumerate(space.basis)),
    ], w)
    return 0


def _cmd_pfaff_annihilator(args) -> int:
    w = _read_form(args.file)
    slices = annihilator_distribution(w, args.bound)
    payload = {
        **_form_summary(w),
        "bound": args.bound,
        "slices": [
            {
                "degree": s.degree,
                "dim": s.dim,
                "generators": [list(gen) for gen in s.generators],
            }
            for s in slices
        ],
    }
    _emit(args, payload, lambda: [
        f"annihilator of {w} by vector-field degree",
        *(f"degree {s.degree}: kernel dimension {s.dim}" for s in slices),
    ])
    return 0


def _cmd_pfaff_random_pencil(args) -> int:
    w = random_pencil_form(args.n, args.degree, args.seed)
    payload = {**_form_summary(w), "degree": args.degree, "seed": args.seed}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(render_form_file(w))
        payload["out"] = args.out
    _emit(args, payload, lambda: (
        [f"wrote twist-{w.twist} form on P^{w.ambient} to {args.out}"] if args.out
        else render_form_file(w).splitlines()
    ))
    return 0


# ---------------------------------------------------------------------------
# sweeps

# A sweep is refused before its grid is built when its points times the work
# of a point on its largest P^n exceed this bound.  The work is fitted per kind
# to measured time (2 CPUs, Python 3.11): codim1 (and T -> O(t) certificate)
# points take 60 us on P^3 and 0.4-0.9 s on P^1000; split points at k near n/2
# 85 us on P^3 and 0.6 s on P^200; endo points 60 us on P^3 and 25 ms on P^1200,
# charged double to keep an endo sweep under 100 MB.  At the bound: 0.7-2.8 s.
MAX_SWEEP_WORK = 5_000_000
SWEEP_POINT_WORK = {
    "codim1": lambda n: (n + 1) * (n + 40) + n**3 // 1000,
    "split": lambda n: (n + 1) * (n * n + 400) // 5,
    "endo": lambda n: (n + 1) * (n + 100) // 10,
}
SWEEP_POINT_WORK["certificate"] = SWEEP_POINT_WORK["codim1"]


def _series(lo: int, hi: int, shift: int) -> int:
    """The sum of n + shift over lo <= n <= hi, 0 when hi < lo."""
    return (hi - lo + 1) * (lo + hi + 2 * shift) // 2 if lo <= hi else 0


def _sweep_task_codim1(n: int, r: int) -> dict:
    return {"n": n, "r": r, "verdict": codim1_verdict(n, r)}


def _sweep_task_split(n: int, k: int, d: int) -> dict:
    return {"n": n, "k": k, "d": d, "verdict": split_verdict(n, k, (d,) * k)}


def _sweep_task_endo(n: int, k: int) -> dict:
    dim = endomorphism_space_dim(k, n)
    return {"n": n, "k": k, "dim": dim, "verdict": endo_verdict(dim)}


def _sweep_task_certificate(E: BundleExpr, G: BundleExpr, t: int) -> dict:
    failed = _failed(required_dims(E, tensor(G, o(t, E.ambient))))
    return {"twist": t, "verdict": "hypotheses-fail" if failed else HOLD}


def _sweep(args, task, grid, points: int, n: int) -> int:
    """Run task(*point) over the grid, an iterator of that many points whose
    largest ambient is P^n, in grid order; refused before it is iterated."""
    if args.workers < 1:
        raise InputError(f"--workers must be at least 1; got {args.workers}")
    work = SWEEP_POINT_WORK[args.sweep_command](max(n, 0))
    if points * work > MAX_SWEEP_WORK:
        bits = points.bit_length()
        count = str(points) if bits <= MAX_OUTPUT_BITS else f"2^{bits - 1} or more"
        raise ScaleExceeded(
            f"a sweep grid of {count} points up to P^{n} is refused;"
            f" the bound there is {MAX_SWEEP_WORK // work} points"
        )
    results = [task(*point) for point in grid]
    failures = sum(1 for r in results if r["verdict"] != HOLD)
    payload = {
        "sweep": args.sweep_command,
        "count": len(results),
        "failures": failures,
        "results": results,
    }

    def lines():
        out = []
        for r in results:
            inputs = " ".join(f"{k}={v}" for k, v in r.items() if k != "verdict")
            out.append(f"{inputs} -> {r['verdict']}")
        out.append(f"{len(results)} entries, {failures} failures")
        return out

    _emit(args, payload, lines)
    return 0 if failures == 0 else 1


def _cmd_sweep_codim1(args) -> int:
    ns, rs = _parse_range(args.n), _parse_range(args.r)
    grid, points = ((n, r) for n in ns for r in rs), (ns.stop - ns.start) * (rs.stop - rs.start)
    return _sweep(args, _sweep_task_codim1, grid, points, ns[-1])


def _cmd_sweep_split(args) -> int:
    ns, ks, ds = _parse_range(args.n), _parse_range(args.k), _parse_range(args.d)
    # n takes k = lo..min(n, hi): n - lo + 1 values up to hi, hi - lo + 1 after
    lo, hi = max(ks.start, 1), ks[-1]
    pairs = _series(max(ns.start, lo), min(ns[-1], hi), 1 - lo)
    pairs += max(ns[-1] - max(ns.start, hi + 1) + 1, 0) * max(hi - lo + 1, 0)
    if not pairs:
        raise InputError("sweep grid is empty after the 1 <= k <= n filter")
    grid = ((n, k, d) for n in range(max(ns.start, lo), ns.stop)
            for k in range(lo, min(n, hi) + 1) for d in ds)
    return _sweep(args, _sweep_task_split, grid, pairs * (ds.stop - ds.start), ns[-1])


def _cmd_sweep_endo(args) -> int:
    ns = _parse_range(args.n)
    if not (points := _series(max(ns.start, 0), ns[-1], 1)):
        raise InputError(f"sweep grid is empty: --n {args.n} has no n >= 0")
    grid = ((n, k) for n in range(max(ns.start, 0), ns.stop) for k in range(n + 1))
    return _sweep(args, _sweep_task_endo, grid, points, ns[-1])


def _cmd_sweep_certificate(args) -> int:
    E = _load_expr(args.E, args.n)
    G = _load_expr(args.G, args.n)
    ts = _parse_range(args.twist)
    grid = ((E, G, t) for t in ts)
    return _sweep(args, _sweep_task_certificate, grid, ts.stop - ts.start, args.n)


# ---------------------------------------------------------------------------
# parser assembly


_N = ("--n", {"type": int})
_E_G_N = [("E", {}), ("G", {}), _N]
_REQ = {"required": True}
_N_REQ, _K_REQ = ("--n", {"type": int, **_REQ}), ("--k", {"type": int, **_REQ})
_FILE = ("--file", _REQ)
_WORKERS = ("--workers", {"type": int, "default": 1})
# the flags of each check, shared by an id and its alias
_MAP = [("--E", _REQ), ("--G", _REQ), _N]
_SPLIT = [_N_REQ, _K_REQ, ("--degrees", {**_REQ, "help": "comma-separated, e.g. -1,-1"})]
_CODIM1, _ENDO = [_N_REQ, ("--r", {"type": int, **_REQ})], [_N_REQ, _K_REQ]

# A command maps its name to (help, handler, [(flag, add_argument kwargs)]),
# a group of commands to (help, table of its commands).
COMMANDS = {
    "cohomology": ("cohomology table", _cmd_cohomology, [
        ("expr", {"help": "bundle expression, e.g. 'wedge(2,T) (x) Omega^1 on P^3'"}),
        ("--n", {"type": int, "help": "ambient dimension"}),
    ]),
    "chern": ("Chern character and classes", _cmd_chern, [("expr", {}), _N]),
    "chi": ("Euler characteristic", _cmd_chi, [("expr", {}), _N]),
    "en-resolution": ("Eagon-Northcott resolution terms", _cmd_en_resolution, [
        *_E_G_N,
        ("--twisted",
         {"action": "store_true", "help": "tensor every term by wedge^g(E*) (x) det G"}),
    ]),
    "certificate": ("vanishing certificate for E -> G", _cmd_certificate, _E_G_N),
    "porteous": ("degeneracy-locus class of E -> G", _cmd_porteous, _E_G_N),
    "check": ("named hypothesis checkers", {
        "thm-1-1": ("Theorem 1.1: a map E -> G", _cmd_check, _MAP),
        "thm-1-2": ("Theorem 1.2: a split codimension-k distribution", _cmd_check, _SPLIT),
        "thm-1-4": ("Theorem 1.4: codimension one, normal sheaf O(r)", _cmd_check, _CODIM1),
        "prop-4-5": ("Proposition 4.5: the split vanishing", _cmd_check, _SPLIT),
        "lemma-4-4": ("Lemma 4.4: the endomorphism space", _cmd_check, _ENDO),
        "map": ("alias of thm-1-1", _cmd_check, _MAP),
        "split": ("alias of thm-1-2", _cmd_check, _SPLIT),
        "codim1": ("alias of thm-1-4", _cmd_check, _CODIM1),
        "split-vanishing": ("alias of prop-4-5", _cmd_check, _SPLIT),
        "endo": ("alias of lemma-4-4", _cmd_check, _ENDO),
    }),
    "pfaff": ("concrete twisted 1-forms", {
        "uniqueness": ("is the form determined by its singular scheme?", _cmd_pfaff_uniqueness, [
            ("--file", {"required": True, "help": "form file: 'P^n twist r' + A_i lines"}),
        ]),
        "singular": ("singular-scheme ideal and dimension", _cmd_pfaff_singular, [_FILE]),
        "sections": ("twisted forms vanishing on the singular scheme", _cmd_pfaff_sections, [
            _FILE, ("--twist", {"type": int, "help": "default: the form's twist"}),
        ]),
        "annihilator": ("vector fields annihilated by the form", _cmd_pfaff_annihilator, [
            _FILE, ("--bound", {"type": int, "default": 1, "help": "maximum field degree"}),
        ]),
        "random-pencil": ("seeded random pencil form P dQ - Q dP", _cmd_pfaff_random_pencil, [
            _N_REQ, ("--degree", {"type": int, **_REQ}),
            ("--out", {"help": "write the form file here"}),
        ]),
    }),
    "sweep": ("parameter sweeps (ranges are 'a' or 'a:b')", {
        "codim1": ("codimension-one checker over (n, r)", _cmd_sweep_codim1, [
            ("--n", _REQ), ("--r", _REQ), _WORKERS,
        ]),
        "split": ("split checker over (n, k, uniform degree d)", _cmd_sweep_split, [
            ("--n", _REQ), ("--k", _REQ), ("--d", _REQ), _WORKERS,
        ]),
        "endo": ("endomorphism-space dimension over n, all k", _cmd_sweep_endo, [
            ("--n", _REQ), _WORKERS,
        ]),
        "certificate": ("certificate of E -> G (x) O(t) over twists t", _cmd_sweep_certificate, [
            ("--E", _REQ), ("--G", _REQ), _N_REQ,
            ("--twist", {"required": True, "help": "twist range for G"}), _WORKERS,
        ]),
    }),
}


# every command also takes these
_COMMON = [
    ("--format", {"choices": ("text", "json"), "default": "text", "help": "output format"}),
    ("--seed", {"type": int, "help": "seed echoed in output"}),
]


def _add_commands(parser, table: dict, dest: str) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, *entry) in table.items():
        p = sub.add_parser(name, help=help_text)
        if len(entry) == 1:
            _add_commands(p, entry[0], f"{name}_command")
            continue
        handler, arguments = entry
        for flag, kwargs in _COMMON + arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command; main builds it only for help and errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="pnsheaf",
        description="Exact sheaf cohomology, degeneracy loci, and twisted "
        "1-forms on projective space.",
    )
    _add_commands(parser, COMMANDS, "command")
    return parser


def _table_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a well-formed argv, read straight from COMMANDS.

    Accepted: the command path, then its positionals in order and its exact
    flags, each at most once, as '--flag value' (a value not starting with
    '-') or '--flag=value'.  Values go through the table's type, choices,
    default and required.  Anything else (help, an abbreviated or unknown
    flag, '--', a repeated or missing flag, a bad value, a stray word) gives
    None, and argparse decides that argv and writes its help or error.
    """
    values, table, dest = {}, COMMANDS, "command"
    while True:
        if not argv or argv[0] not in table:
            return None
        command, argv = argv[0], argv[1:]
        values[dest] = command
        _, *entry = table[command]
        if len(entry) == 2:
            break
        table, dest = entry[0], f"{command}_command"
    values["func"], arguments = entry
    arguments = dict(_COMMON + arguments)
    words, given = [], {}
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        flag, eq, value = token.partition("=")
        kwargs = arguments.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
        given[flag] = value
    positionals = [name for name in arguments if not name.startswith("-")]
    if len(words) != len(positionals):
        return None
    given.update(zip(positionals, words))
    for name, kwargs in arguments.items():
        if name in given:
            value = given[name]
            if "type" in kwargs:
                try:
                    value = kwargs["type"](value)
                except (TypeError, ValueError):
                    return None
            if value not in kwargs.get("choices", (value,)):
                return None
        elif kwargs.get("required"):
            return None
        elif kwargs.get("action") == "store_true":
            value = False
        else:
            value = kwargs.get("default")
        values[name.lstrip("-").replace("-", "_")] = value
    return SimpleNamespace(**values)


def _join_negative_values(argv: list[str]) -> list[str]:
    """Glue '--flag -1,-1' into '--flag=-1,-1' so argparse accepts it."""
    out: list[str] = []
    for token in argv:
        negative = token[:1] == "-" and token[1:2].isdecimal()  # '-' then a digit
        if out and out[-1].startswith("--") and "=" not in out[-1] and negative:
            out[-1] += f"={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _join_negative_values(list(sys.argv[1:]) if argv is None else list(argv))
    args = _table_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UnsupportedPlethysm, ScaleExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"error: internal cross-check failed: {exc}", file=sys.stderr)
        return 4
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
