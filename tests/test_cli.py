"""Command-line interface: parsing, output formats, exit codes, sweeps."""

from __future__ import annotations

import ast
import hashlib
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import jsonschema
import pytest

from pnsheaf import (
    CHECK_IDS,
    HOLD,
    Cotangent,
    DirectSum,
    Dual,
    IrreducibleBundle,
    LineBundle,
    Poly,
    ScaleExceeded,
    Tangent,
    Tensor,
    TwistedOneForm,
    Wedge,
    cohomology_table,
    parse_expression,
    parse_form_file,
    parse_poly,
    pencil_form,
    render_expression,
    render_form_file,
)
from pnsheaf.bundles import _normalize_cached
from pnsheaf.cli import COMMANDS, _join_negative_values, main
from pnsheaf.cohomology import _bott

from helpers import random_expression
from test_cache_bounds import clear_all


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
    assert main(["check", "--n", "3", "thm-1-4", "--r", "5"]) == 2  # flags before the id
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


@pytest.mark.parametrize(
    "argv, term, work",
    [
        # 13.7 s and exit 1 before the bracket guard
        (["certificate", "T (+) T", "O(1) (+) O(1)", "--n", "50"], 10, 108000),
        # 4.7 s, inside the sweep bound
        (["sweep", "certificate", "--E", "T (+) T", "--G", "O(1) (+) O(1)", "--n", "40",
          "--twist", "0:1"], 14, 103040),
    ],
    ids=["certificate-p50", "sweep-certificate-p40"],
)
def test_bracket_lr_work_is_refused_at_once(capsys, argv, term, work):
    start = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        f"error: the certificate term M_{term} needs {work} units of LR work;"
        " the bound is 100000\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["certificate", "T", "wedge(3,T)", "--n", "2"],
        ["check", "thm-1-1", "--E", "O(2)", "--G", "wedge(4,T)", "--n", "3"],
        ["porteous", "O(1)", "wedge(4,T)", "--n", "3"],
        ["en-resolution", "T", "wedge(3,T)", "--n", "2"],
        ["sweep", "certificate", "--E", "T", "--G", "wedge(3,T)", "--n", "2", "--twist", "0:2"],
    ],
    ids=lambda argv: argv[0] if argv[0] != "sweep" else "sweep-certificate",
)
def test_a_map_into_a_zero_rank_bundle_is_bad_input(capsys, argv):
    assert _run(capsys, argv) == (2, "", "error: G must have positive rank\n")


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


# the 36-fold tensor power of sym(300, 150*O(1)) on P^2: C(449, 300)^36 copies
# of O(10800), a rank of 14,652 bits
_BIG = " (x) ".join(["sym(300, 150*O(1))"] * 36)
_TOO_LONG = "error: a result has {} bits; the output bound is 14284 bits (4300 digits)\n"
_RANK_MISMATCH = "error: need rank(E) >= rank(G); got 1 < {}\n"
_D = 10**4000  # 13,288 bits: printable, but not its square


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["check", "thm-1-1", "--E", _BIG, "--G", _BIG, "--n", "2"], 3, _TOO_LONG.format(14652)),
        (["en-resolution", _BIG, _BIG, "--n", "2"], 3, _TOO_LONG.format(14652)),
        (["certificate", _BIG, _BIG, "--n", "2"], 3, _TOO_LONG.format(14652)),
        (["porteous", _BIG, _BIG, "--n", "2"], 3, _TOO_LONG.format(14652)),
        # the one term's O(-10^8000) is refused with the expression it is printed in
        (["en-resolution", f"{_D}*O(1)", f"{_D}*O({_D})", "--n", "1"], 3, _TOO_LONG.format(26576)),
        (["certificate", "O(1)", _BIG, "--n", "2"], 2, _RANK_MISMATCH.format("a rank of 14652 bits")),
        (["porteous", "O(1)", _BIG, "--n", "2"], 2, _RANK_MISMATCH.format("a rank of 14652 bits")),
        (["en-resolution", "O(1)", _BIG, "--n", "2"], 2, _RANK_MISMATCH.format("a rank of 14652 bits")),
        (["check", "thm-1-1", "--E", "O(1)", "--G", _BIG, "--n", "2"], 2,
         _RANK_MISMATCH.format("a rank of 14652 bits")),
        (["sweep", "certificate", "--E", "O(1)", "--G", _BIG, "--n", "2", "--twist", "0"], 2,
         _RANK_MISMATCH.format("a rank of 14652 bits")),
        # a rank that fits is printed in full
        (["certificate", "O(1)", "2*O(1)", "--n", "2"], 2, _RANK_MISMATCH.format(2)),
        (["porteous", "O(1)", "2*O(1)", "--n", "2"], 2, _RANK_MISMATCH.format(2)),
        (["porteous", "O(1) on P^2", "2*O(1) on P^3"], 2,
         "error: E and G live on different ambients\n"),
    ],
    ids=[
        "check-big", "en-resolution-big", "certificate-big", "porteous-big",
        "en-resolution-term", "certificate-rank", "porteous-rank", "en-resolution-rank",
        "check-rank", "sweep-certificate-rank", "certificate-rank-fits", "porteous-rank-fits",
        "porteous-ambients",
    ],
)
def test_oversized_maps_exit_with_one_error_line(capsys, argv, code, err, fmt):
    # main(argv) in-process: an uncaught exception fails the test
    assert _run(capsys, argv + ["--format", fmt]) == (code, "", err)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["cohomology", "chern"])
def test_plethysm_refusal_names_a_long_twist_by_its_bit_length(capsys, command, fmt):
    # the refused summand S(2,0)Q(10^4300 + 2) has a twist of 4,301 digits
    expr = f"wedge(2, sym(2, T) (x) sym({10**300}, O({10**4000}))) on P^2"
    err = ("error: wedge(2, S(2,0)Q(a twist of 14285 bits)) is outside the supported"
           " summand classes\n")
    assert _run(capsys, [command, expr, "--format", fmt]) == (3, "", err)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_pfaff_refuses_a_basis_too_long_to_print(tmp_path, capsys, fmt):
    # every coefficient of the form has at most 4,200 digits, but the chart
    # bases of its singular scheme do not
    a, b = 10**2100 + 7, 10**2099 + 3
    w = pencil_form(parse_poly(f"{a}*x0^2 + x1*x2", 3), parse_poly(f"{b}*x1^2 + x0*x2", 3))
    path = tmp_path / "long.form"
    path.write_text(render_form_file(w), encoding="utf-8")
    argv = ["pfaff", "singular", "--file", str(path), "--format", fmt]
    assert _run(capsys, argv) == (3, "", _TOO_LONG.format(20926))


def test_en_resolution_stops_at_its_first_refused_term(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["en-resolution", "1000000*O(1)", "O(2)", "--n", "2"])
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (3, "", "error: wedge^282 has rank above 10^1000, the bound\n")


def test_en_resolution_ranks_its_terms_without_forming_them(capsys):
    # 59 terms wedge^2(E*) (x) wedge^i(E) (x) Sym^(i-2)(G*) on P^50, whose
    # tableau products took about 10 s when each term was normalized
    clear_all()
    argv = ["en-resolution", "T (+) T", "O(1) (+) O(1)", "--n", "50", "--twisted"]
    start = time.perf_counter()
    code, out, err = _run(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, len(out), err) == (0, 12098, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3411da7164dd7520589c1d678c0a6e8d2717928e84c041758ea887bcd854a793")


def test_results_become_text_only_in_emit():
    # _emit is the one place that prints a result or calls json.dumps or
    # _check_size; every other print goes to stderr
    import pnsheaf.cli

    tree = ast.parse(pathlib.Path(pnsheaf.cli.__file__).read_text(encoding="utf-8"))
    outside = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or func.name in ("_emit", "_check_size"):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            name = ast.unparse(node.func)
            to_stderr = any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                            for k in node.keywords)
            if name in ("json.dumps", "_check_size") or name == "print" and not to_stderr:
                outside.append(f"{func.name}: {ast.unparse(node)}")
    assert outside == []


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


def test_porteous_refuses_large_entries_before_the_solve(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["porteous", f"64*O(-{10**80})", "O(1)", "--n", "64"])
    # the degree c_64(E - G) comes from Newton's identities, with no determinant
    # to solve, and is too long to print
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == "error: a result has 17009 bits; the output bound is 14284 bits (4300 digits)\n"


def test_chern_refuses_large_skew_solves_before_they_start(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["chern", "sym(20, Omega^1) (x) sym(10, T) on P^64"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        "error: the Chern character of 11 distinct summands needs skew Jacobi-Trudi"
        " solves of work 279024669 (squared lengths times row bits); the bound is 134217728\n"
    )


def test_chi_refuses_a_skew_solve_of_large_entries_before_it_starts(capsys):
    # one 63-row kernel whose entries have about 3,300 bits, which ran 1.3 s;
    # the charge weighs each row by the bits of its largest entry
    start = time.perf_counter()
    code, out, err = _run(capsys, ["chi", f"sym({10**17}, Omega^1) on P^64"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert err == (
        "error: the Chern character of 1 distinct summands needs skew Jacobi-Trudi"
        " solves of work 829905993 (squared lengths times row bits); the bound is 134217728\n"
    )


def test_chi_runs_a_skew_solve_with_one_long_row(capsys):
    # the 63-row kernels of sym^k(T) (x) Omega^1 have one long row, and are
    # charged by the bits of each row, not 63 times those of the longest
    start = time.perf_counter()
    code, out, err = _run(capsys, ["chi", f"sym({10**17}, T) (x) Omega^1 on P^64"])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "") and "Riemann-Roch and cohomology agree" in out


BIG = "1" + "0" * 5000  # 5,001 digits, past Python's 4,300-digit int limit


@pytest.mark.parametrize(
    "argv, form",
    [
        (["chi", f"O({BIG}) on P^2"], None),
        (["chi", f"O(1) on P^{BIG}"], None),
        (["cohomology", f"wedge({BIG}, T) on P^2"], None),
        (["sweep", "codim1", "--n", BIG, "--r", "3"], None),
        (["sweep", "codim1", "--n", "2", "--r", f"1:{BIG}"], None),
        (["pfaff", "singular", "--file"], f"A_0: {BIG}*x1"),
        (["pfaff", "singular", "--file"], f"A_0: 1/{BIG}*x1"),
        (["pfaff", "singular", "--file"], f"A_0: x{BIG}"),
        (["pfaff", "singular", "--file"], f"A_0: x1^{BIG}"),
    ],
)
def test_integer_literals_past_the_int_limit_are_bad_input(tmp_path, capsys, argv, form):
    if form is not None:
        path = tmp_path / "big.form"
        path.write_text(f"P^2 twist 3\n{form}\nA_1: x2\nA_2: x0\n", encoding="utf-8")
        argv = argv + [str(path)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err[:200]
    assert "5001 characters is too long" in err


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


@pytest.mark.parametrize("flags", [["annihilator", "--bound", "0"], ["singular"]])
def test_monomials_past_the_packed_degree_range_are_refused(tmp_path, capsys, flags):
    # a polynomial holds monomials of degree below 2^31; these have degree 3 * 10^9
    path = tmp_path / "deep.form"
    path.write_text(
        "P^1 twist 3000000001\nA_0: x0^2999999999*x1\nA_1: -x0^3000000000\n", encoding="utf-8"
    )
    code, out, err = _run(capsys, ["pfaff", *flags, "--file", str(path)])
    assert (code, out) == (3, "")
    assert err == (
        "error: a monomial of degree 3000000000 exceeds the polynomial degree bound 2147483647\n"
    )


def test_failed_cross_check_is_four(monkeypatch, capsys):
    monkeypatch.setattr("pnsheaf.cli.hrr_chi", lambda e: -1)
    code, out, err = _run(capsys, ["chi", "T on P^2"])
    assert (code, out) == (4, "")
    assert err == (
        "error: internal cross-check failed: "
        "Riemann-Roch chi -1 != alternating sum 8\n"
    )


def test_non_integral_weyl_dimension_is_a_failed_cross_check(monkeypatch, capsys):
    # no weakly decreasing weight reaches the exactness check, so force it:
    # every falling factorial one too large makes (1, 0) come out 3/2
    import pnsheaf.weights

    fake = SimpleNamespace(perm=lambda a, k: math.perm(a, k) + 1, comb=math.comb)
    monkeypatch.setattr(pnsheaf.weights, "math", fake)
    pnsheaf.weights._weyl_dim_cached.cache_clear()
    try:
        code, out, err = _run(capsys, ["cohomology", "T on P^2"])
    finally:
        pnsheaf.weights._weyl_dim_cached.cache_clear()
    assert (code, out) == (4, "")
    assert err == (
        "error: internal cross-check failed: "
        "Weyl formula produced a non-integer for (1, 0)\n"
    )


def test_non_integral_determinant_is_a_failed_cross_check(monkeypatch, capsys):
    # Omega^1 on P^3 has |lam| = 2; a rank of 1 makes its det exponent 2/3
    monkeypatch.setattr("pnsheaf.bundles.weyl_dim", lambda lam, n: 1)
    code, out, err = _run(capsys, ["en-resolution", "T", "T", "--n", "3"])
    assert (code, out) == (4, "")
    assert err.startswith("error: internal cross-check failed: determinant exponent of ")
    assert err.endswith(" is not integral\n") and err.count("\n") == 1


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cohomology_renders_each_summand_once(monkeypatch, capsys, fmt):
    text = "sym(3, T (+) Omega^1) on P^2"
    count = len(cohomology_table(parse_expression(text, 2)).contributions)
    render, calls = IrreducibleBundle.__str__, []

    def counting(self):
        calls.append(self)
        return render(self)

    monkeypatch.setattr(IrreducibleBundle, "__str__", counting)
    code, out, _ = _run(capsys, ["cohomology", text, "--format", fmt])
    assert code == 0 and out
    assert len(calls) == count > 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cohomology_builds_each_contribution_once(monkeypatch, capsys, fmt):
    # contributions are built lazily; a table that rebuilt them on every read
    # would build each one per line of text and again for the size check
    import pnsheaf.cohomology

    text = "sym(3, T (+) Omega^1) on P^2"
    expected = [
        IrreducibleBundle(2, lam, d)
        for (lam, d), _ in _normalize_cached(parse_expression(text, 2)) if _bott(2, lam, d)
    ]
    build, built = pnsheaf.cohomology.Contribution, []

    def counting(degree, summand, multiplicity, dim):
        built.append(summand)
        return build(degree, summand, multiplicity, dim)

    monkeypatch.setattr(pnsheaf.cohomology, "Contribution", counting)
    code, out, _ = _run(capsys, ["cohomology", text, "--format", fmt])
    assert code == 0 and out
    assert len(built) == len(set(built)) == len(expected) > 1
    assert set(built) == set(expected)


_CORPUS = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cli_corpus.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("case_id", [
    "sweep-codim1-json", "sweep-split-json", "sweep-endo-json", "sweep-certificate-json",
    "certificate-json", "check-thm-1-1-json", "check-thm-1-2-json", "check-thm-1-4-json",
    "check-lemma-4-4-json",
])
def test_sweeps_certificates_and_checkers_build_no_summand(monkeypatch, capsys, case_id):
    # their tables read only dims, straight off the count map: no
    # IrreducibleBundle, and so no Contribution, is built
    def refuse(self):
        raise AssertionError(f"built {self.lam} on P^{self.ambient}")

    (case,) = [c for c in _CORPUS["cases"] if c["id"] == case_id]
    monkeypatch.setattr(IrreducibleBundle, "__post_init__", refuse)
    assert _run(capsys, list(case["argv"])) == (case["exit"], case["stdout"], case["stderr"])


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


CHECK_GROUP = COMMANDS["check"][1]
# a value for each flag a check can take: every check below runs on P^3
_CHECK_VALUES = {"--E": "T", "--G": "O(1)", "--n": "3", "--k": "1", "--r": "5", "--degrees": "-3"}


def _check_argv(name: str, leave_out: str | None = None) -> list[str]:
    """check NAME with a value for every flag its entry lists, but leave_out."""
    flags = [flag for flag, _ in CHECK_GROUP[name][2] if flag != leave_out]
    return ["check", name, *(word for flag in flags for word in (flag, _CHECK_VALUES[flag]))]


def test_every_check_id_and_alias_reaches_the_check_table(capsys):
    ids = [name for name, (help_text, *_) in CHECK_GROUP.items()
           if not help_text.startswith("alias of ")]
    assert tuple(ids) == CHECK_IDS
    for name, (help_text, handler, flags) in CHECK_GROUP.items():
        ident = help_text.removeprefix("alias of ") if name not in ids else name
        # an alias is one more entry with its id's handler and flag list
        assert handler is CHECK_GROUP[ident][1] and flags is CHECK_GROUP[ident][2]
        code, payload = _run_json(capsys, _check_argv(name))
        assert (code, payload["theorem"]) == (0, ident), name


def _refused(capsys, argv: list[str], error: str) -> None:
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, ""), argv
    assert err.endswith(f" error: {error}\n"), argv


def test_check_refuses_flags_it_does_not_take(capsys):
    # each flag of _CHECK_VALUES that a check or alias does not read
    for name, (_, _, flags) in CHECK_GROUP.items():
        taken = [flag for flag, _ in flags]
        for flag, value in _CHECK_VALUES.items():
            if flag not in taken:
                # main glues '--degrees -3' into '--degrees=-3' before argparse
                words = " ".join(_join_negative_values([flag, value]))
                _refused(capsys, _check_argv(name) + [flag, value],
                         f"unrecognized arguments: {words}")


def test_check_needs_each_required_flag(capsys):
    for name, (_, _, flags) in CHECK_GROUP.items():
        for flag, kwargs in flags:
            if kwargs.get("required"):
                _refused(capsys, _check_argv(name, flag),
                         f"the following arguments are required: {flag}")


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
    code, out, _ = _run(capsys, ["pfaff", "random-pencil", "--n", "1", "--degree", "1", "--seed", "1"])
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
    code, out, _ = _run(capsys, ["pfaff", "random-pencil", "--n", "2", "--degree", "4", "--seed", "1"])
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


def test_json_output_renders_no_form_text(tmp_path, capsys, monkeypatch):
    path = tmp_path / "pencil.form"
    w = pencil_form(parse_poly("x0^2 + x1*x2", 3), parse_poly("x1^2", 3))
    path.write_text(render_form_file(w), encoding="utf-8")

    def no_text(self):
        raise AssertionError("a form was rendered as text")

    monkeypatch.setattr(TwistedOneForm, "__str__", no_text)
    for flags in (["uniqueness"], ["singular"], ["sections"], ["annihilator", "--bound", "1"]):
        code, payload = _run_json(capsys, ["pfaff", *flags, "--file", str(path)])
        assert code in (0, 1) and payload, flags


def test_form_file_failing_the_euler_relation_is_two(tmp_path, capsys):
    path = tmp_path / "bad.form"
    path.write_text("P^2 twist 3\nA_0: x1*x2\nA_1: x0*x2\nA_2: x0*x1\n", encoding="utf-8")
    code, out, err = _run(capsys, ["pfaff", "uniqueness", "--file", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: Euler relation violated, residual 3*x0*x1*x2\n"


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
    # --workers is accepted and has no effect: every N >= 1 prints the same bytes
    argv = ["sweep", "endo", "--n", "2:3", "--format", "json"]
    runs = {workers: _run(capsys, argv + ["--workers", workers]) for workers in ("1", "2", "8")}
    assert runs["1"] == runs["2"] == runs["8"] == _run(capsys, argv)
    code, out, err = runs["1"]
    assert (code, err) == (0, "")
    assert json.loads(out)["count"] == 7  # k = 0..n for n = 2, 3


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


def test_ranges_and_negative_values_read_decimal_digits_only():
    # a digit is what str.isdecimal and the regex \d accept: Arabic-Indic
    # digits are, a superscript two is not
    from pnsheaf.cli import _join_negative_values, _parse_range
    from pnsheaf.errors import InputError

    assert _parse_range(" \u0663:\u0665 ") == range(3, 6)
    assert _parse_range("-2") == range(-2, -1)
    for text in ("\u00b2", "1:\u00b2", "-", "1:", "--1", "1:2:3", "1 :2"):
        with pytest.raises(InputError, match=r"^bad range "):
            _parse_range(text)
    joined = _join_negative_values(["--d", "-\u0663", "--n", "-\u00b2"])
    assert joined == ["--d=-\u0663", "--n", "-\u00b2"]


@pytest.mark.parametrize("n", ["-1", "-3:-1"])
def test_sweep_endo_rejects_an_empty_grid(capsys, n):
    code, out, err = _run(capsys, ["sweep", "endo", "--n", n])
    assert (code, out) == (2, "")
    assert err == f"error: sweep grid is empty: --n {n} has no n >= 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["codim1", "--n", "2:3", "--r", "1:30000000"],
        ["split", "--n", "2:2", "--k", "1:1", "--d", "1:40000000"],
        ["endo", "--n", "0:100000"],
        ["endo", "--n", "3000:3000"],
        ["certificate", "--E", "T", "--G", "O(1)", "--n", "3", "--twist", "1:2000000"],
        ["split", "--n", "1:10", "--k", "-1000000000000:1", "--d", f"1:{10**18}"],
        ["endo", "--n", f"0:{10**4000}"],
        # few points, but each costs seconds: about a minute, 7 s, 2.4 s and 30 s
        ["codim1", "--n", "1000:1000", "--r", "1:99"],
        ["codim1", "--n", "1000:1000", "--r", "1:12"],
        ["split", "--n", "500:500", "--k", "1:5", "--d", "1"],
        ["endo", "--n", "1200:1200"],
    ],
)
def test_sweep_refuses_a_large_grid_before_building_it(capsys, monkeypatch, argv):
    for kind in ("codim1", "split", "endo", "certificate"):
        monkeypatch.setattr(f"pnsheaf.cli._sweep_task_{kind}", lambda *p: pytest.fail("a point ran"))
    start = time.perf_counter()
    code, out, err = _run(capsys, ["sweep", *argv])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert re.fullmatch(r"error: a sweep grid of (\d+|2\^\d+ or more) points up to P\^\d+"
                        r" is refused; the bound there is \d+ points\n", err), err[:200]


def test_sweep_bound_admits_grids_at_the_bound(capsys, monkeypatch):
    # 25,000 codim1 points on P^2..P^3 have work 4,300,000 of the 5,000,000;
    # split and endo grids whose ranges run far below k >= 1 and n >= 0 run
    # only their points, at once
    grids = {}

    def task(kind):
        return lambda *point: grids.setdefault(kind, []).append(point) or {"verdict": HOLD}

    for kind in ("codim1", "split", "endo"):
        monkeypatch.setattr(f"pnsheaf.cli._sweep_task_{kind}", task(kind))
    assert main(["sweep", "codim1", "--n", "2:3", "--r", "1:12500"]) == 0
    assert main(["sweep", "split", "--n", f"-{10**12}:3", "--k", f"-{10**12}:2", "--d", "0"]) == 0
    assert main(["sweep", "endo", "--n", f"-{10**12}:1"]) == 0
    assert len(grids["codim1"]) == 25000
    assert grids["split"] == [(1, 1, 0), (2, 1, 0), (2, 2, 0), (3, 1, 0), (3, 2, 0)]
    assert grids["endo"] == [(0, 0), (1, 0), (1, 1)]


@pytest.mark.parametrize(
    "argv, points, refused",
    [
        (["codim1", "--n", "1000", "--r", "1:2"], 2, ["--r", "1:3"]),
        (["certificate", "--E", "T", "--G", "O(1)", "--n", "1000", "--twist", "1:2"], 2,
         ["--twist", "1:3"]),
        (["split", "--n", "291", "--k", "145", "--d", "4"], 1, ["--n", "292"]),
        (["endo", "--n", "337"], 338, ["--n", "338"]),
    ],
)
def test_sweep_bound_admits_the_largest_grids_on_a_large_ambient(capsys, monkeypatch, argv,
                                                                points, refused):
    # each grid takes 0.7-2.8 s when it runs; one more point, or P^(n+1), is refused
    ran = []
    for kind in ("codim1", "split", "endo", "certificate"):
        monkeypatch.setattr(f"pnsheaf.cli._sweep_task_{kind}",
                            lambda *p: ran.append(p) or {"verdict": HOLD})
    assert main(["sweep", *argv]) == 0
    assert len(ran) == points
    capsys.readouterr()
    flag = argv.index(refused[0])
    bigger = argv[:flag] + refused + argv[flag + 2:]
    code, out, err = _run(capsys, ["sweep", *bigger])
    assert (code, out, len(ran)) == (3, "", points), err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_workers_below_one(capsys, workers):
    code, out, err = _run(capsys, ["sweep", "endo", "--n", "2", "--workers", workers])
    assert (code, out) == (2, "")
    assert err == f"error: --workers must be at least 1; got {workers}\n"


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
