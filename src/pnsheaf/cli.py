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
                       codim1, split-vanishing, endo)
pfaff SUB ...          concrete twisted 1-forms: uniqueness, singular,
                       sections, annihilator, random-pencil
sweep SUB ...          parameter sweeps across a worker pool

The command line is declared once, in the table COMMANDS.  main reads a
well-formed argv straight from it and builds the argparse parser only for
help and errors, so argparse writes every help and error text.

Expressions follow the grammar "O(d) | T | Omega^p | wedge(k, e) | sym(k, e)
| dual(e) | e (x) e | e (+) e | m*e" with the ambient given either as a
trailing "on P^n" or through --n.

Exit codes: 0 success; 1 a verdict failed (certificate false, checker
hypotheses-fail, or a form not determined by its singular scheme); 2 bad
input; 3 computation refused (unsupported plethysm or scale guard); 4 an
internal cross-check failed, which is a bug, not a verdict.  A sweep's
--workers below 1 is bad input (exit 2); above the CPU count it is clamped
to the CPU count.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .bundles import BundleExpr, o, rank, tensor
from .checkers import (
    HOLD,
    check_codim1_generic,
    check_endomorphism_space,
    check_map_recovery,
    check_split_distribution,
    check_split_vanishing,
)
from .chow import ChowClass, chern_character, hrr_chi, porteous_class, total_chern
from .cohomology import cohomology_table
from .complexes import en_resolution, vanishing_certificate
from .errors import (
    ConsistencyError,
    InputError,
    ScaleExceeded,
    UnsupportedPlethysm,
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

# CPython turns no int of more than 4,300 digits into text (its default
# int-to-str limit); an int of at most 14,284 bits has at most 4,300 digits
MAX_OUTPUT_BITS = 14_284

CHECK_ALIASES = {
    "map": "thm-1-1",
    "split": "thm-1-2",
    "codim1": "thm-1-4",
    "split-vanishing": "prop-4-5",
    "endo": "lemma-4-4",
}


# ---------------------------------------------------------------------------
# shared helpers


def _load_expr(text: str, n: int | None) -> BundleExpr:
    """Parse an expression whose ambient comes from 'on P^n' or --n."""
    body, amb = split_ambient(text)
    if amb is None:
        if n is None:
            raise InputError(
                f"ambient missing for {text!r}: append 'on P^n' or pass --n"
            )
        amb = n
    elif n is not None and n != amb:
        raise InputError(f"--n {n} disagrees with 'on P^{amb}' in {text!r}")
    return parse_expression(body, amb)


def _warn_zero(e: BundleExpr) -> None:
    if rank(e) == 0:
        print(
            "warning: expression is the zero bundle (a wedge power exceeds the rank)",
            file=sys.stderr,
        )


def _check_size(*values) -> None:
    """ScaleExceeded if an int or Fraction in values, which may nest in lists,
    tuples and dicts, has a numerator or denominator above MAX_OUTPUT_BITS."""
    for value in values:
        if isinstance(value, dict):
            _check_size(*value.values())
        elif isinstance(value, (list, tuple)):
            _check_size(*value)
        elif isinstance(value, (int, Fraction)):
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            if bits > MAX_OUTPUT_BITS:
                raise ScaleExceeded(
                    f"a result has {bits} bits; the output bound is {MAX_OUTPUT_BITS}"
                    " bits (4300 digits)"
                )


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.format == "json":
        if args.seed is not None:
            payload = {**payload, "seed": args.seed}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(lines))


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


_RANGE_RE = re.compile(r"^(-?\d+)(?::(-?\d+))?$")


def _parse_range(text: str) -> range:
    m = _RANGE_RE.match(text.strip())
    if not m:
        raise InputError(f"bad range {text!r}; expected 'a' or 'a:b'")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) is not None else lo
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


def _require(args, names: list[str], context: str) -> None:
    missing = [name for name in names if getattr(args, name.lstrip("-").replace("-", "_"), None) is None]
    if missing:
        raise InputError(f"{context} needs {', '.join(missing)}")


# ---------------------------------------------------------------------------
# bundle subcommands


def _cmd_cohomology(args) -> int:
    e = _load_expr(args.expr, args.n)
    _warn_zero(e)
    table = cohomology_table(e)
    text = render_expression(e)
    payload = {
        "ambient": table.ambient,
        "expression": text,
        "h": list(table.dims),
        "euler_characteristic": table.euler_characteristic(),
        "contributions": [
            {
                "degree": c.degree,
                "summand": str(c.summand),
                "multiplicity": c.multiplicity,
                "dim": c.dim,
            }
            for c in table.contributions
        ],
    }
    _check_size(payload)
    lines = [f"P^{table.ambient}: {text}"]
    for p, d in enumerate(table.dims):
        contribs = [c for c in table.contributions if c.degree == p]
        suffix = ""
        if contribs:
            suffix = "   from " + ", ".join(
                f"{c.summand} x{c.multiplicity} (dim {c.dim})" for c in contribs
            )
        lines.append(f"h^{p} = {d}{suffix}")
    lines.append(f"chi = {table.euler_characteristic()}")
    _emit(args, payload, lines)
    return 0


def _cmd_chern(args) -> int:
    e = _load_expr(args.expr, args.n)
    _warn_zero(e)
    ch = chern_character(e)
    c = total_chern(e)
    r = rank(e)
    _check_size(r, ch.coeffs, c.coeffs)
    text = render_expression(e)
    payload = {
        "ambient": e.ambient,
        "expression": text,
        "rank": r,
        "chern_character": [str(x) for x in ch.coeffs],
        "total_chern": [int(x) for x in c.coeffs],
    }
    lines = [
        f"P^{e.ambient}: {text}",
        f"rank = {r}",
        f"ch = {_chow_text(ch)}",
        f"c  = {_chow_text(c)}",
    ]
    _emit(args, payload, lines)
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
    _check_size(payload)
    lines = [
        f"P^{e.ambient}: {text}",
        f"chi = {chi} (Riemann-Roch and cohomology agree)",
        "h = (" + ", ".join(str(d) for d in table.dims) + ")",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_en_resolution(args) -> int:
    E = _load_expr(args.E, args.n)
    G = _load_expr(args.G, args.n)
    report = en_resolution(E, G, twisted=args.twisted)
    terms = []
    for offset, term in enumerate(report.terms):
        terms.append(
            {
                "i": report.g + offset,
                "expr": render_expression(term),
                "rank": rank(term),
            }
        )
    payload = {
        "n": E.ambient,
        "e": report.e,
        "g": report.g,
        "twisted": report.twisted,
        "terms": terms,
    }
    lines = [
        f"resolution on P^{E.ambient}: E = {render_expression(E)}, "
        f"G = {render_expression(G)} (e = {report.e}, g = {report.g}, "
        f"{'twisted' if report.twisted else 'untwisted'})"
    ]
    for term in terms:
        lines.append(f"M_{term['i']}: {term['expr']}  (rank {term['rank']})")
    _emit(args, payload, lines)
    return 0


def _cmd_certificate(args) -> int:
    E = _load_expr(args.E, args.n)
    G = _load_expr(args.G, args.n)
    cert = vanishing_certificate(E, G)
    payload = cert.to_json_dict()
    _check_size(payload, cert.endomorphism_dim)
    _emit(args, payload, cert.text_lines())
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
        "class": [int(x) for x in result.cls.coeffs],
    }
    _check_size(payload)
    lines = [
        f"degeneracy locus on P^{n}: E = {render_expression(E)}, "
        f"G = {render_expression(G)}",
        f"expected codimension = {result.codim}",
    ]
    if result.within_ambient:
        lines.append(f"expected dimension = {n - result.codim}")
        lines.append(f"class = {_chow_text(result.cls)}")
        lines.append(f"degree = {result.degree}")
    else:
        lines.append("codimension exceeds the ambient: empty expected locus")
    _emit(args, payload, lines)
    return 0


# canonical id -> (flags it needs, other flags it takes, builder of its
# TheoremReport from args)
CHECKS = {
    "thm-1-1": (
        ["--E", "--G"],
        ["--n"],
        lambda a: check_map_recovery(_load_expr(a.E, a.n), _load_expr(a.G, a.n)),
    ),
    "thm-1-2": (
        ["--n", "--k", "--degrees"],
        [],
        lambda a: check_split_distribution(a.n, a.k, _parse_degrees(a.degrees)),
    ),
    "thm-1-4": (["--n", "--r"], [], lambda a: check_codim1_generic(a.n, a.r)),
    "prop-4-5": (
        ["--n", "--k", "--degrees"],
        [],
        lambda a: check_split_vanishing(a.n, a.k, _parse_degrees(a.degrees)),
    ),
    "lemma-4-4": (["--n", "--k"], [], lambda a: check_endomorphism_space(a.k, a.n)),
}


def _cmd_check(args) -> int:
    ident = CHECK_ALIASES.get(args.id, args.id)
    if ident not in CHECKS:
        known = sorted({*CHECK_ALIASES, *CHECKS})
        raise InputError(f"unknown check id {args.id!r}; choose from {', '.join(known)}")
    flags, optional, build = CHECKS[ident]
    _require(args, flags, f"check {ident}")
    unused = [
        flag
        for flag, _ in COMMANDS["check"][2]
        if flag.startswith("--") and flag not in flags + optional
        and getattr(args, flag[2:]) is not None
    ]
    if unused:
        raise InputError(f"check {ident} does not take {', '.join(unused)}")
    report = build(args)
    _emit(args, report.to_json_dict(), report.text_lines())
    return 0 if report.verdict == HOLD else 1


# ---------------------------------------------------------------------------
# pfaff subcommands


def _form_summary(w: TwistedOneForm) -> dict:
    return {
        "ambient": w.ambient,
        "twist": w.twist,
        "coefficients": [str(c) for c in w.coeffs],
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
    lines = [
        f"form on P^{w.ambient}, twist {w.twist}: {w}",
        f"singular scheme dimension = {report.scheme.dimension}",
        f"twist-{w.twist} forms vanishing on it: dimension = {report.sections.dim}",
        f"verdict: {report.verdict}",
        f"cross-check {report.cross_check.theorem}: {report.cross_check.verdict}",
    ]
    lines.extend(f"note: {note}" for note in report.notes)
    _emit(args, payload, lines)
    return 0 if report.verdict == "unique-up-to-scalar" else 1


def _cmd_pfaff_singular(args) -> int:
    w = _read_form(args.file)
    scheme = singular_scheme(w)
    payload = {
        **_form_summary(w),
        "dimension": scheme.dimension,
        "zero_dimensional": scheme.is_zero_dimensional(),
        "generators": [str(g) for g in scheme.ideal.generators],
        "charts": [
            {"chart": i, "basis": [str(g) for g in basis]}
            for i, basis in enumerate(scheme.ideal.charts)
        ],
    }
    lines = [
        f"form on P^{w.ambient}, twist {w.twist}: {w}",
        f"singular scheme dimension = {scheme.dimension}",
        "generators: " + "; ".join(str(g) for g in scheme.ideal.generators),
    ]
    for i, basis in enumerate(scheme.ideal.charts):
        body = "; ".join(str(g) for g in basis) if basis else "(zero ideal)"
        lines.append(f"chart x{i} = 1 basis: {body}")
    _emit(args, payload, lines)
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
        "basis": [[str(c) for c in form.coeffs] for form in space.basis],
    }
    lines = [
        f"forms of twist {twist} vanishing on the singular scheme of {w}",
        f"dimension = {space.dim}",
    ]
    for idx, form in enumerate(space.basis):
        lines.append(f"basis[{idx}]: {form}")
    _emit(args, payload, lines)
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
                "generators": [[str(c) for c in gen] for gen in s.generators],
            }
            for s in slices
        ],
    }
    lines = [f"annihilator of {w} by vector-field degree"]
    for s in slices:
        lines.append(f"degree {s.degree}: kernel dimension {s.dim}")
    _emit(args, payload, lines)
    return 0


def _cmd_pfaff_random_pencil(args) -> int:
    w = random_pencil_form(args.n, args.degree, args.seed)
    text = render_form_file(w)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    if args.format == "json":
        payload = {**_form_summary(w), "degree": args.degree, "seed": args.seed}
        if args.out:
            payload["out"] = args.out
        print(json.dumps(payload, sort_keys=True, indent=2))
    elif args.out:
        print(f"wrote twist-{w.twist} form on P^{w.ambient} to {args.out}")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# sweeps


def _sweep_task_codim1(n: int, r: int) -> dict:
    return {"n": n, "r": r, "verdict": check_codim1_generic(n, r).verdict}


def _sweep_task_split(n: int, k: int, d: int) -> dict:
    report = check_split_distribution(n, k, (d,) * k)
    return {"n": n, "k": k, "d": d, "verdict": report.verdict}


def _sweep_task_endo(n: int, k: int) -> dict:
    report = check_endomorphism_space(k, n)
    return {"n": n, "k": k, "dim": report.groups[0].dim, "verdict": report.verdict}


def _sweep_task_certificate(E: BundleExpr, G: BundleExpr, t: int) -> dict:
    cert = vanishing_certificate(E, tensor(G, o(t, E.ambient)))
    return {"twist": t, "verdict": HOLD if cert.verdict else "hypotheses-fail"}


def _sweep(args, task, grid: list[tuple]) -> int:
    """Run task(*point) over the grid, serially or across a worker pool."""
    if args.workers < 1:
        raise InputError(f"--workers must be at least 1; got {args.workers}")
    workers = min(args.workers, os.cpu_count() or 1)
    if workers == 1:
        results = [task(*point) for point in grid]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, *zip(*grid)))
    failures = sum(1 for r in results if r["verdict"] != HOLD)
    payload = {
        "sweep": args.sweep_command,
        "count": len(results),
        "failures": failures,
        "results": results,
    }
    lines = []
    for r in results:
        inputs = " ".join(f"{k}={v}" for k, v in r.items() if k != "verdict")
        lines.append(f"{inputs} -> {r['verdict']}")
    lines.append(f"{len(results)} entries, {failures} failures")
    _emit(args, payload, lines)
    return 0 if failures == 0 else 1


def _cmd_sweep_codim1(args) -> int:
    grid = [(n, r) for n in _parse_range(args.n) for r in _parse_range(args.r)]
    return _sweep(args, _sweep_task_codim1, grid)


def _cmd_sweep_split(args) -> int:
    grid = [
        (n, k, d)
        for n in _parse_range(args.n)
        for k in _parse_range(args.k)
        if 1 <= k <= n
        for d in _parse_range(args.d)
    ]
    if not grid:
        raise InputError("sweep grid is empty after the 1 <= k <= n filter")
    return _sweep(args, _sweep_task_split, grid)


def _cmd_sweep_endo(args) -> int:
    grid = [(n, k) for n in _parse_range(args.n) for k in range(n + 1)]
    if not grid:
        raise InputError(f"sweep grid is empty: --n {args.n} has no n >= 0")
    return _sweep(args, _sweep_task_endo, grid)


def _cmd_sweep_certificate(args) -> int:
    if args.n is None:
        raise InputError("sweep certificate needs --n")
    E = _load_expr(args.E, args.n)
    G = _load_expr(args.G, args.n)
    grid = [(E, G, t) for t in _parse_range(args.twist)]
    return _sweep(args, _sweep_task_certificate, grid)


# ---------------------------------------------------------------------------
# parser assembly


_N = ("--n", {"type": int})
_E_G_N = [("E", {}), ("G", {}), _N]
_REQ = {"required": True}
_FILE = ("--file", _REQ)
_WORKERS = ("--workers", {"type": int, "default": 1})

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
    "check": ("named hypothesis checkers", _cmd_check, [
        ("id", {"help": "thm-1-1 | thm-1-2 | thm-1-4 | prop-4-5 | lemma-4-4"}),
        _N, ("--k", {"type": int}), ("--r", {"type": int}),
        ("--degrees", {"help": "comma-separated, e.g. -1,-1"}),
        ("--E", {"help": "source expression (thm-1-1)"}),
        ("--G", {"help": "target expression (thm-1-1)"}),
    ]),
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
            ("--n", {"type": int, "required": True}),
            ("--degree", {"type": int, "required": True}),
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
            ("--E", _REQ), ("--G", _REQ), _N,
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


_NEGATIVE_VALUE = re.compile(r"^-\d")


def _join_negative_values(argv: list[str]) -> list[str]:
    """Glue '--flag -1,-1' into '--flag=-1,-1' so argparse accepts it."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (
            token.startswith("--")
            and "=" not in token
            and i + 1 < len(argv)
            and _NEGATIVE_VALUE.match(argv[i + 1])
        ):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
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
