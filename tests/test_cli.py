"""Command-line interface: parsing, output formats, exit codes, sweeps."""

from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import jsonschema
import pytest

from pnsheaf import (
    CHECK_IDS,
    HOLD,
    Cotangent,
    DirectSum,
    Dual,
    LineBundle,
    Poly,
    ScaleExceeded,
    Tangent,
    Tensor,
    TheoremReport,
    Wedge,
    parse_expression,
    parse_form_file,
    parse_poly,
    pencil_form,
    render_expression,
    render_form_file,
)
from pnsheaf.cli import CHECK_ALIASES, CHECKS, main

from helpers import random_expression


def _run(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv) -> tuple[int, dict]:
    code, out, _ = _run(capsys, argv + ["--format", "json"])
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# expression grammar round trip


def test_parse_literal_corpus():
    e = parse_expression("wedge(2,T) (x) Omega^3 on P^3", 3)
    assert e == Tensor(3, Wedge(3, 2, Tangent(3)), Cotangent(3, 3))

    s = parse_expression("dual(O(3)) (+) 2*O(-1)", 2)
    assert s == DirectSum(
        2, (Dual(2, LineBundle(2, 3)), LineBundle(2, -1)), (1, 2)
    )


def test_ascii_and_symbolic_operators_agree():
    assert parse_expression("T * O(1)", 2) == parse_expression("T (x) O(1)", 2)
    assert parse_expression("T + O(1)", 2) == parse_expression("T (+) O(1)", 2)


def test_render_parse_round_trip_on_random_expressions():
    seed = 616161
    print(f"cli round-trip seed {seed}")
    rng = random.Random(seed)
    for _ in range(120):
        n = rng.randint(1, 4)
        e = random_expression(rng, n)
        assert parse_expression(render_expression(e), n) == e


def test_trailing_ambient_must_agree():
    code = main(["cohomology", "O(1) on P^2", "--n", "3"])
    assert code == 2


# ---------------------------------------------------------------------------
# exit codes


def test_success_is_zero(capsys):
    code, out, err = _run(capsys, ["cohomology", "O(3) on P^2"])
    assert code == 0
    assert "h^0 = 10" in out
    assert err == ""


def test_failed_verdicts_are_one(capsys):
    code, out, _ = _run(capsys, ["check", "codim1", "--n", "3", "--r", "3"])
    assert code == 1
    assert "hypotheses-fail" in out

    code, out, _ = _run(
        capsys, ["certificate", "Omega^1 on P^3", "O(0) (+) O(-1) on P^3"]
    )
    assert code == 1
    assert "fails" in out


def test_not_determined_form_is_one(tmp_path, capsys):
    path = tmp_path / "log.form"
    path.write_text(
        "P^2 twist 3\nA_0: x1*x2\nA_1: x0*x2\nA_2: -2*x0*x1\n", encoding="utf-8"
    )
    code, out, _ = _run(capsys, ["pfaff", "uniqueness", "--file", str(path)])
    assert code == 1
    assert "not-determined" in out


def test_bad_input_is_two(capsys):
    assert main(["cohomology", "O( on P^2"]) == 2  # unparseable
    capsys.readouterr()
    assert main(["cohomology", "T"]) == 2  # no ambient anywhere
    capsys.readouterr()
    assert main(["check", "thm-9-9", "--n", "2"]) == 2  # unknown id
    capsys.readouterr()
    assert main(["check", "thm-1-2", "--n", "3", "--k", "2"]) == 2  # missing flag
    capsys.readouterr()
    assert main(["pfaff", "uniqueness", "--file", "/nonexistent.form"]) == 2
    capsys.readouterr()
    assert main([]) == 2  # missing subcommand
    capsys.readouterr()


def test_refused_computation_is_three(tmp_path, capsys):
    assert main(["cohomology", "wedge(2, sym(2,T)) on P^3"]) == 3
    _, err = capsys.readouterr()
    assert "wedge(2, S(2,0,0)Q(2))" in err

    big = pencil_form(parse_poly("x0^5", 3), parse_poly("x1^5", 3))
    path = tmp_path / "big.form"
    path.write_text(render_form_file(big), encoding="utf-8")
    assert main(["pfaff", "singular", "--file", str(path)]) == 3
    _, err = capsys.readouterr()
    assert "degree 9" in err


# the small powers run the expansion the large ones skip, and give the same text
@pytest.mark.parametrize("k", [3, 100000])
def test_large_sym_of_a_line_bundle_is_immediate(capsys, k):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["cohomology", f"sym({k}, O(1)) on P^2"])
    assert time.perf_counter() - start < 1.0
    h0 = (k + 2) * (k + 1) // 2
    assert (code, err) == (0, "")
    assert out == (
        f"P^2: sym({k}, O(1))\nh^0 = {h0}   from O({k}) x1 (dim {h0})\n"
        f"h^1 = 0\nh^2 = 0\nchi = {h0}\n"
    )


@pytest.mark.parametrize("k", [5, 100000])
def test_wedge_beyond_the_rank_is_immediate(capsys, k):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["cohomology", f"wedge({k}, 2*T) on P^2"])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (
        0, "warning: expression is the zero bundle (a wedge power exceeds the rank)\n"
    )
    assert out == f"P^2: wedge({k}, 2*T)\nh^0 = 0\nh^1 = 0\nh^2 = 0\nchi = 0\n"


def test_large_power_of_a_sum_is_refused_before_it_starts(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["cohomology", "sym(3000, O(1) (+) O(2)) on P^2"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        "error: sym^3000 of a sum of 2 summands needs 9009002 expansion steps;"
        " the bound is 1000000\n"
    )


def test_sym_of_a_repeated_summand_is_fast(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["cohomology", "sym(300, 2*T) on P^2"])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "chi = 436497132386"


def test_large_power_of_a_repeated_summand_is_refused_before_it_starts(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["cohomology", "sym(3000, 9*T) on P^9"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        "error: sym^3000 of a sum of 9 summands needs 164685792114786377267976"
        " expansion steps; the bound is 1000000\n"
    )


def test_sym_of_many_copies_is_fast(capsys):
    # the GL(m) dimensions are taken without padding the partitions to length m
    start = time.perf_counter()
    code, out, err = _run(capsys, ["cohomology", "sym(2, 1000000000*T) on P^2"])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert "O(3) x499999999500000000 (dim 10)" in out
    assert "S(2,0)Q(2) x500000000500000000 (dim 27)" in out


@pytest.mark.parametrize(
    "expr, k",
    [("sym(20000, 20000*O(1)) on P^1", 20000), (f"sym(2, 1{'0' * 4000}*T) on P^2", 2)],
)
def test_power_with_huge_multiplicities_is_refused_before_it_starts(capsys, expr, k):
    # multiplicities are bounded by the rank; ints above 4300 digits do not print
    start = time.perf_counter()
    code, out, err = _run(capsys, ["cohomology", expr])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == f"error: sym^{k} has rank above 10^1000, the bound\n"


@pytest.mark.parametrize("n", ["100001", "99999999999"])
def test_cohomology_refuses_a_huge_ambient_before_it_starts(capsys, n):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["cohomology", f"O(1) on P^{n}"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == f"error: bundle expressions on P^{n} are refused; the bound is P^100000\n"


def test_cohomology_on_a_large_ambient_is_fast(capsys):
    for n in (1200, 20000):
        start = time.perf_counter()
        code, out, err = _run(capsys, ["cohomology", f"O(1) on P^{n}"])
        assert time.perf_counter() - start < 2.0, n
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f"h^0 = {n + 1}   from O(1) x1 (dim {n + 1})"
        assert out.splitlines()[-1] == f"chi = {n + 1}"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv, bits",
    [
        (["cohomology", "O(20000) on P^20000"], 39993),
        (["cohomology", f"O({10**80}) on P^64"], 16713),
        (["chi", f"O({10**80}) on P^64"], 16713),
        (["chern", f"O({10**80}) on P^64"], 14537),
        (["certificate", "Omega^1", f"O({10**80})", "--n", "64"], 16730),
        (["porteous", f"8*O(-{10**600})", "O(1)", "--n", "8"], 15946),
    ],
)
def test_results_too_long_to_print_are_refused(capsys, argv, bits, fmt):
    code, out, err = _run(capsys, argv + ["--format", fmt])
    assert (code, out) == (3, "")
    assert err == f"error: a result has {bits} bits; the output bound is 14284 bits (4300 digits)\n"


def test_output_bound_is_the_longest_int_python_prints():
    from pnsheaf.cli import MAX_OUTPUT_BITS, _check_size

    largest = 2**MAX_OUTPUT_BITS - 1
    assert len(str(largest)) == 4300
    _check_size([{"h": [largest, -largest, Fraction(1, largest)]}])
    with pytest.raises(ScaleExceeded):
        _check_size({"h": [Fraction(1, largest + 1)]})


@pytest.mark.parametrize(
    "argv",
    [
        ["chern", "O(1) on P^1200"],
        ["chi", "O(1) on P^1200"],
        ["chi", "T on P^100"],
        ["porteous", "T", "O(1)", "--n", "1200"],
    ],
)
def test_chow_commands_refuse_large_ambients_before_they_start(capsys, argv):
    start = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    n = argv[-1] if argv[-2] == "--n" else argv[1].rpartition("^")[2]
    assert (code, out) == (3, "")
    assert err == f"error: Chow-ring arithmetic on P^{n} is refused; the bound is P^64\n"


def test_chern_refuses_large_skew_solves_before_they_start(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["chern", "sym(20, Omega^1) (x) sym(10, T) on P^64"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        "error: the Chern character of 11 distinct summands needs skew Jacobi-Trudi"
        " solves of work 2750517 (sum of cubed lengths); the bound is 262144\n"
    )


def test_bad_form_label_is_two(tmp_path, capsys):
    path = tmp_path / "bad.form"
    path.write_text("P^2 twist 2\nA_x: x0\n", encoding="utf-8")
    code, out, err = _run(capsys, ["pfaff", "singular", "--file", str(path)])
    assert (code, out, err) == (2, "", "error: bad coefficient label 'A_x'\n")


def test_zero_denominator_in_form_file_is_two(tmp_path, capsys):
    path = tmp_path / "zero.form"
    path.write_text("P^2 twist 2\nA_0: 1/0*x1\nA_1: 0\nA_2: 0\n", encoding="utf-8")
    code, out, err = _run(capsys, ["pfaff", "singular", "--file", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: zero denominator in 1/0 at position 0\n"


def test_non_utf8_form_file_is_two(tmp_path, capsys):
    path = tmp_path / "utf16.form"
    path.write_bytes(b"\xff\xfeP\x00^\x002\x00")
    code, out, err = _run(capsys, ["pfaff", "singular", "--file", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: form file {path} is not UTF-8 text: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_form_file_with_too_few_lines_is_refused_before_parsing(tmp_path, capsys):
    path = tmp_path / "huge.form"
    path.write_text("P^1000000 twist 2\nA_0: x0\n", encoding="utf-8")
    code, out, err = _run(capsys, ["pfaff", "singular", "--file", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: P^1000000 needs 1000001 coefficient lines; found 1\n"
    assert len(err) < 200


def test_failed_cross_check_is_four(monkeypatch, capsys):
    monkeypatch.setattr("pnsheaf.cli.hrr_chi", lambda e: -1)
    code, out, err = _run(capsys, ["chi", "T on P^2"])
    assert (code, out) == (4, "")
    assert err == (
        "error: internal cross-check failed: "
        "Riemann-Roch chi -1 != alternating sum 8\n"
    )


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out, _ = capsys.readouterr()
    assert "cohomology" in out


# ---------------------------------------------------------------------------
# warnings


def test_zero_bundle_warning_on_stderr(capsys):
    code, out, err = _run(capsys, ["cohomology", "wedge(4,T) on P^3"])
    assert code == 0
    assert "zero bundle" in err
    assert "h^0 = 0" in out


# ---------------------------------------------------------------------------
# JSON output


CERTIFICATE_SCHEMA = {
    "type": "object",
    "required": ["e", "g", "n", "required", "assumptions", "verdict"],
    "properties": {
        "e": {"type": "integer"},
        "g": {"type": "integer"},
        "n": {"type": "integer"},
        "required": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["i", "expr", "h", "ok"],
                "properties": {
                    "i": {"type": "integer"},
                    "expr": {"type": "string"},
                    "h": {"type": "array", "items": {"type": "integer"}},
                    "ok": {"type": "boolean"},
                },
            },
        },
        "assumptions": {"type": "array", "items": {"type": "string"}},
        "verdict": {"type": "boolean"},
    },
}

CHECK_SCHEMA = {
    "type": "object",
    "required": ["theorem", "inputs", "conditions", "groups", "verdict", "notes"],
    "properties": {
        "theorem": {"type": "string"},
        "inputs": {"type": "object"},
        "conditions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ok"],
                "properties": {"name": {"type": "string"}, "ok": {"type": "boolean"}},
            },
        },
        "groups": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["i", "p", "dim"],
                "properties": {
                    "i": {"type": "integer"},
                    "p": {"type": "integer"},
                    "dim": {"type": "integer"},
                },
            },
        },
        "verdict": {"type": "string"},
        "notes": {"type": "array", "items": {"type": "string"}},
    },
}


def test_certificate_json_schema(capsys):
    code, payload = _run_json(
        capsys, ["certificate", "Omega^1 on P^3", "O(1) (+) O(1) on P^3"]
    )
    assert code == 0
    jsonschema.validate(payload, CERTIFICATE_SCHEMA)
    assert payload["verdict"] is True
    assert payload["e"] == 3 and payload["g"] == 2


def test_check_json_schema(capsys):
    code, payload = _run_json(
        capsys, ["check", "split", "--n", "3", "--k", "2", "--degrees", "-1,-1"]
    )
    assert code == 0
    jsonschema.validate(payload, CHECK_SCHEMA)
    assert payload["theorem"] == "thm-1-2"
    assert payload["verdict"] == "hypotheses-hold"


def test_json_output_is_deterministic(capsys):
    argv = ["cohomology", "T (x) Omega^1 on P^3", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_installed_script_is_deterministic():
    """The `pnsheaf` console script prints the same JSON in two processes.

    It runs the `[project.scripts]` entry point declared in this checkout's
    `pyproject.toml`, imported from this checkout's `src`, not a `pnsheaf`
    found on PATH. Each child does what the generated script does: import
    the function, set `sys.argv[0]` and `sys.exit` with its result. The two
    children get different `PYTHONHASHSEED` values, so output that depends
    on string-hash order shows up as a mismatch.
    """
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pnsheaf"]
    module, func = target.split(":")
    script = (
        "import sys\n"
        f"from {module} import {func}\n"
        "sys.argv[0] = 'pnsheaf'\n"
        f"sys.exit({func}())\n"
    )
    src = str(root / "src")
    inherited = os.environ.get("PYTHONPATH")
    pythonpath = os.pathsep.join([src, inherited]) if inherited else src
    argv = [sys.executable, "-c", script, "chern", "T on P^3", "--format", "json"]
    runs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": seed}
        run = subprocess.run(
            argv, capture_output=True, text=True, env=env, cwd=src, timeout=60
        )
        assert run.returncode == 0, run.stderr
        assert run.stderr == ""
        runs.append(run)
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["rank"] == 3


def test_seed_is_echoed_in_json(capsys):
    code, payload = _run_json(capsys, ["cohomology", "O(1) on P^2", "--seed", "9"])
    assert code == 0
    assert payload["seed"] == 9


# ---------------------------------------------------------------------------
# individual subcommands


def test_chern_reports_character_and_class(capsys):
    code, payload = _run_json(capsys, ["chern", "T on P^2"])
    assert code == 0
    assert payload["rank"] == 2
    assert payload["total_chern"] == [1, 3, 3]
    assert payload["chern_character"] == ["2", "3", "3/2"]


def test_chi_cross_checks_riemann_roch(capsys):
    code, out, _ = _run(capsys, ["chi", "T on P^2"])
    assert code == 0
    assert "chi = 8" in out


def test_en_resolution_lists_terms(capsys):
    code, payload = _run_json(
        capsys, ["en-resolution", "Omega^1 on P^3", "O(1) (+) O(1) on P^3"]
    )
    assert code == 0
    assert [t["i"] for t in payload["terms"]] == [2, 3]
    assert [t["rank"] for t in payload["terms"]] == [3, 2]


def test_porteous_via_cli(capsys):
    code, payload = _run_json(capsys, ["porteous", "T", "3*O(2)", "--n", "4"])
    assert code == 0
    assert payload["codim"] == 2
    assert payload["expected_dimension"] == 2
    assert payload["degree"] == 4


def test_check_accepts_space_separated_negative_degrees(capsys):
    code, _, _ = _run(
        capsys, ["check", "thm-1-2", "--n", "3", "--k", "2", "--degrees", "-1,-1"]
    )
    assert code == 0


def test_check_alias_matches_canonical_id(capsys):
    _, alias = _run_json(
        capsys, ["check", "split", "--n", "3", "--k", "2", "--degrees", "-1,-1"]
    )
    _, canonical = _run_json(
        capsys, ["check", "thm-1-2", "--n", "3", "--k", "2", "--degrees", "-1,-1"]
    )
    assert alias == canonical


def test_every_check_id_and_alias_reaches_the_check_table(monkeypatch, capsys):
    assert tuple(CHECKS) == CHECK_IDS
    stubs = {
        ident: ([], [], lambda args, ident=ident: TheoremReport(ident, {}, (), (), HOLD))
        for ident in CHECKS
    }
    monkeypatch.setattr("pnsheaf.cli.CHECKS", stubs)
    for name in CHECK_IDS + tuple(CHECK_ALIASES):
        code, payload = _run_json(capsys, ["check", name])
        assert (code, payload["theorem"]) == (0, CHECK_ALIASES.get(name, name))


def test_check_refuses_flags_it_does_not_take(capsys):
    code, out, err = _run(
        capsys,
        ["check", "thm-1-4", "--n", "3", "--r", "5", "--k", "2", "--degrees=-1", "--E", "T"],
    )
    assert (code, out) == (2, "")
    assert err == "error: check thm-1-4 does not take --k, --degrees, --E\n"
    argv = ["check", "map", "--E", "T", "--G", "O(1)", "--n", "2", "--r", "3"]
    code, _, err = _run(capsys, argv)
    assert (code, err) == (2, "error: check thm-1-1 does not take --r\n")


def test_map_check_takes_the_ambient_from_n(capsys):
    code, _, err = _run(capsys, ["check", "thm-1-1", "--E", "T", "--G", "O(1)", "--n", "2"])
    assert (code, err) == (0, "")


def test_deep_codim1_check_does_not_recurse(capsys):
    # the LR enumeration once recursed about rows x labels frames deep
    code, out, err = _run(capsys, ["check", "codim1", "--n", "60", "--r", "70"])
    assert (code, err) == (0, "")
    assert "verdict: hypotheses-hold" in out.splitlines()


def test_endomorphism_check_via_cli(capsys):
    code, payload = _run_json(capsys, ["check", "endo", "--n", "4", "--k", "2"])
    assert code == 0
    assert payload["groups"] == [{"i": 2, "p": 0, "dim": 1}]


# ---------------------------------------------------------------------------
# pfaff workflows


def test_random_pencil_stdout_reparses(capsys):
    code, out, _ = _run(capsys, ["pfaff", "random-pencil", "--n", "2", "--degree", "2", "--seed", "7"])
    assert code == 0
    w = parse_form_file(out)
    assert w.ambient == 2 and w.twist == 4


@pytest.mark.parametrize("n, degree", [("0", "1"), ("2", "0"), ("-1", "2")])
def test_random_pencil_rejects_impossible_sizes(capsys, n, degree):
    # these sizes admit no pencil at all, so drawing again can never succeed
    code, out, err = _run(capsys, ["pfaff", "random-pencil", "--n", n, "--degree", degree])
    assert (code, out) == (2, "")
    assert err == (
        f"error: a random pencil needs n >= 1 and degree >= 1; got n={n}, degree={degree}\n"
    )


def test_smallest_random_pencil_still_draws(capsys):
    code, out, _ = _run(capsys, ["pfaff", "random-pencil", "--n", "1", "--degree", "1"])
    assert code == 0
    assert parse_form_file(out).twist == 2


@pytest.mark.parametrize("n, degree", [("2", "100"), ("5", "2")])
def test_random_pencil_refuses_sizes_singular_would_refuse(capsys, n, degree):
    # refused before drawing: degree 100 used to run until killed
    start = time.perf_counter()
    code, out, err = _run(capsys, ["pfaff", "random-pencil", "--n", n, "--degree", degree])
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_largest_random_pencil_singular_accepts_still_draws(capsys):
    code, out, _ = _run(capsys, ["pfaff", "random-pencil", "--n", "2", "--degree", "4"])
    assert code == 0
    assert parse_form_file(out).twist == 8


def test_pencil_file_workflow(tmp_path, capsys):
    path = tmp_path / "pencil.form"
    code, out, _ = _run(
        capsys,
        [
            "pfaff", "random-pencil", "--n", "2", "--degree", "2",
            "--seed", "7", "--out", str(path),
        ],
    )
    assert code == 0
    assert "wrote" in out

    code, payload = _run_json(capsys, ["pfaff", "uniqueness", "--file", str(path)])
    assert code == 0
    assert payload["verdict"] == "unique-up-to-scalar"
    assert payload["section_space_dim"] == 1
    assert payload["singular_scheme"]["zero_dimensional"] is True

    code, payload = _run_json(capsys, ["pfaff", "singular", "--file", str(path)])
    assert code == 0
    assert payload["dimension"] == 0

    code, payload = _run_json(
        capsys, ["pfaff", "annihilator", "--file", str(path), "--bound", "1"]
    )
    assert code == 0
    assert [s["degree"] for s in payload["slices"]] == [0, 1]


def test_pfaff_sections_match_unconstrained_count(tmp_path, capsys):
    w = pencil_form(Poly.variable(0, 3), Poly.variable(1, 3))
    path = tmp_path / "coord.form"
    path.write_text(render_form_file(w), encoding="utf-8")
    code, payload = _run_json(capsys, ["pfaff", "sections", "--file", str(path)])
    assert code == 0
    assert payload["twist"] == 2
    assert payload["dim"] >= 1


# ---------------------------------------------------------------------------
# sweeps


@pytest.mark.parametrize(
    "flags, degree, unknowns",
    [(["sections", "--twist", "100"], 99, 15150), (["annihilator", "--bound", "60"], 60, 5673)],
)
def test_pfaff_refuses_large_linear_systems_before_they_start(tmp_path, capsys, flags, degree, unknowns):
    path = tmp_path / "golden.form"
    path.write_text(
        "P^2 twist 4\nA_0: -2*x0*x1^2 + x0^2*x2 + x1*x2^2\n"
        "A_1: 2*x0^2*x1 - x1^2*x2 - x0*x2^2\nA_2: -x0^3 + x1^3\n",
        encoding="utf-8",
    )
    start = time.perf_counter()
    code, out, err = _run(capsys, ["pfaff", *flags, "--file", str(path)])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        f"error: 3 polynomials of degree {degree} on P^2 have {unknowns} unknown"
        " coefficients; the bound is 500\n"
    )


def test_sweep_results_keep_grid_order(capsys):
    code, payload = _run_json(capsys, ["sweep", "codim1", "--n", "2:3", "--r", "4:5"])
    assert code == 1  # n=3, r=4 misses the r > n+1 bound
    assert payload["count"] == 4
    assert payload["failures"] == 1
    assert [(r["n"], r["r"]) for r in payload["results"]] == [
        (2, 4), (2, 5), (3, 4), (3, 5),
    ]
    verdicts = [r["verdict"] for r in payload["results"]]
    assert verdicts == [
        "hypotheses-hold", "hypotheses-hold", "hypotheses-fail", "hypotheses-hold",
    ]


def test_sweep_worker_pool_matches_serial(capsys):
    argv = ["sweep", "endo", "--n", "2:3"]
    code_serial, serial = _run_json(capsys, argv)
    code_pool, pooled = _run_json(capsys, argv + ["--workers", "2"])
    assert code_serial == code_pool == 0
    assert serial == pooled
    assert serial["count"] == 7  # k = 0..n for n = 2, 3


def test_sweep_split_filters_invalid_codimension(capsys):
    code, payload = _run_json(
        capsys, ["sweep", "split", "--n", "3", "--k", "2:5", "--d", "-1"]
    )
    assert code == 0
    assert [(r["n"], r["k"]) for r in payload["results"]] == [(3, 2), (3, 3)]


def test_sweep_certificate_over_twists(capsys):
    code, payload = _run_json(
        capsys,
        ["sweep", "certificate", "--E", "Omega^1", "--G", "O(1) (+) O(1)",
         "--n", "3", "--twist", "-1:1"],
    )
    assert code == 1  # twisting G down to O(0) (+) O(0) breaks the vanishing
    assert [r["twist"] for r in payload["results"]] == [-1, 0, 1]
    assert [r["verdict"] for r in payload["results"]] == [
        "hypotheses-fail", "hypotheses-hold", "hypotheses-hold",
    ]
    assert payload["failures"] == 1


def test_sweep_rejects_bad_range(capsys):
    assert main(["sweep", "codim1", "--n", "3:2", "--r", "4"]) == 2
    capsys.readouterr()
    assert main(["sweep", "codim1", "--n", "x", "--r", "4"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("n", ["-1", "-3:-1"])
def test_sweep_endo_rejects_an_empty_grid(capsys, n):
    code, out, err = _run(capsys, ["sweep", "endo", "--n", n])
    assert (code, out) == (2, "")
    assert err == f"error: sweep grid is empty: --n {n} has no n >= 0\n"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_workers_below_one(capsys, workers):
    code, out, err = _run(capsys, ["sweep", "endo", "--n", "2", "--workers", workers])
    assert (code, out) == (2, "")
    assert err == f"error: --workers must be at least 1; got {workers}\n"


def test_sweep_workers_are_clamped_to_the_cpu_count(monkeypatch, capsys):
    import concurrent.futures

    sizes = []

    class RecordingPool:
        """Stands in for the process pool; runs the tasks in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # also replace a pool bound into pnsheaf.cli at import, so that no
    # version of the front end starts real processes here
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("pnsheaf.cli.ProcessPoolExecutor", RecordingPool, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = ["sweep", "endo", "--n", "2:3", "--workers"]
    _, serial = _run_json(capsys, argv + ["1"])
    _, clamped = _run_json(capsys, argv + ["8"])
    _, two = _run_json(capsys, argv + ["2"])
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    _, unknown = _run_json(capsys, argv + ["8"])
    assert sizes == [3, 2]
    assert serial == clamped == two == unknown


def test_cli_import_leaves_the_worker_pool_unloaded():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import pnsheaf.cli; "
        "print('concurrent.futures' in sys.modules)"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")
