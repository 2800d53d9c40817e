"""Hypothesis checkers for the uniqueness statements."""

from __future__ import annotations

import pytest

import pnsheaf.cohomology
import pnsheaf.complexes
from pnsheaf import (
    FAIL,
    HOLD,
    InputError,
    check_codim1_generic,
    check_endomorphism_space,
    check_map_recovery,
    check_split_distribution,
    check_split_vanishing,
    cohomology_table,
    direct_sum,
    dual,
    endomorphism_space_dim,
    o,
    omega,
    split_bundle,
    sym,
    tangent,
    tensor,
    vanishing_certificate,
    wedge,
)


# ---------------------------------------------------------------------------
# split-distribution checker


def test_split_basic_positive():
    report = check_split_distribution(3, 2, (-1, -1))
    assert report.verdict == HOLD
    assert report.theorem == "thm-1-2"
    assert all(g.dim == 0 for g in report.groups)
    assert vanishing_certificate(omega(1, 3), dual(split_bundle((-1, -1), 3))).verdict


def test_split_group_index_set():
    report = check_split_distribution(5, 2, (-4, -4))
    assert [(g.i, g.p) for g in report.groups] == [
        (3, 1),
        (4, 1),
        (4, 2),
        (5, 1),
        (5, 2),
        (5, 3),
    ]


def test_split_positive_degrees_fail():
    report = check_split_distribution(3, 2, (0, 1))
    assert report.verdict == FAIL
    assert not any(c.ok for c in report.conditions)


def test_split_boundary_degrees_use_second_condition():
    report = check_split_distribution(5, 3, (-2, -2, -2))
    assert report.verdict == HOLD
    cond = {c.name: c.ok for c in report.conditions}
    assert cond["dual twisted by O(k-n) ample"] is False
    assert cond["split form: dual twisted by O(k-n+1) ample"] is True


def test_split_full_codimension_has_no_groups():
    report = check_split_distribution(3, 3, (-1, -1, -1))
    assert report.groups == ()
    assert report.verdict == HOLD


def test_split_validates_inputs():
    with pytest.raises(InputError):
        check_split_distribution(3, 0, ())
    with pytest.raises(InputError):
        check_split_distribution(3, 4, (-1, -1, -1, -1))
    with pytest.raises(InputError):
        check_split_distribution(3, 2, (-1,))


# ---------------------------------------------------------------------------
# codimension-one checker


def test_codim1_positive_and_negative():
    assert check_codim1_generic(3, 5).verdict == HOLD
    assert check_codim1_generic(3, 3).verdict == FAIL
    assert check_codim1_generic(3, 4).verdict == FAIL  # needs r > n + 1
    assert check_codim1_generic(2, 4).verdict == HOLD


def test_codim1_reports_every_intermediate_group():
    report = check_codim1_generic(4, 7)
    assert [(g.i, g.p) for g in report.groups] == [(1, 1), (2, 2), (3, 3)]
    assert all(g.dim == 0 for g in report.groups)


def test_codim1_threshold_is_sharp():
    for n in range(2, 5):
        assert check_codim1_generic(n, n + 1).verdict == FAIL
        for r in range(n + 2, n + 7):
            assert check_codim1_generic(n, r).verdict == HOLD


def test_codim1_rejects_small_ambient():
    with pytest.raises(InputError):
        check_codim1_generic(1, 5)


# ---------------------------------------------------------------------------
# endomorphism space


def test_endomorphism_space_is_always_a_line():
    for n in range(0, 7):
        for k in range(0, n + 1):
            assert endomorphism_space_dim(k, n) == 1


def test_endomorphism_checker_reports_hold():
    report = check_endomorphism_space(2, 4)
    assert report.theorem == "lemma-4-4"
    assert report.verdict == HOLD
    assert report.groups == (type(report.groups[0])(2, 0, 1),)


def test_endomorphism_rejects_out_of_range():
    with pytest.raises(InputError):
        endomorphism_space_dim(4, 3)


# ---------------------------------------------------------------------------
# generic map-recovery wrapper


def test_map_recovery_wraps_certificate():
    report = check_map_recovery(omega(1, 3), direct_sum(o(1, 3), o(1, 3)))
    assert report.theorem == "thm-1-1"
    assert report.verdict == HOLD
    assert report.inputs["E"] == "Omega^1"
    assert report.inputs["G"] == "O(1) (+) O(1)"
    assert vanishing_certificate(omega(1, 3), direct_sum(o(1, 3), o(1, 3))).verdict is True


def test_map_recovery_failure_propagates():
    report = check_map_recovery(omega(1, 3), direct_sum(o(0, 3), o(-1, 3)))
    assert report.verdict == FAIL
    assert any(g.dim > 0 for g in report.groups)


# ---------------------------------------------------------------------------
# bare vanishing statement


def test_split_vanishing_same_computation_different_name():
    a = check_split_distribution(4, 2, (-2, -2))
    b = check_split_vanishing(4, 2, (-2, -2))
    assert b.theorem == "prop-4-5"
    assert b.verdict == a.verdict == HOLD
    assert b.groups == a.groups
    assert b.conditions == a.conditions


# ---------------------------------------------------------------------------
# the thm-1-2 and thm-1-4 groups are the Eagon-Northcott certificate's terms
#
# The reference computes each theorem's groups from its own bundle
# expression; the checkers read them off the certificate of the map.


def _split_reference(n, k, degrees):
    F = split_bundle(degrees, n)
    return [
        (i, p, cohomology_table(tensor(wedge(k, tangent(n)), omega(i, n), sym(i - k, F))).dims[p])
        for i in range(k + 1, n + 1)
        for p in range(1, i - k + 1)
    ]


def _codim1_reference(n, r):
    return [
        (i, i,
         cohomology_table(tensor(omega(1, n), wedge(i + 1, tangent(n)), o(-i * r, n))).dims[i])
        for i in range(1, n)
    ]


def _groups(report):
    return [(g.i, g.p, g.dim) for g in report.groups]


def test_codim1_groups_equal_the_theorem_expressions():
    for n in range(2, 7):
        for r in range(-3, 13):
            report = check_codim1_generic(n, r)
            reference = _codim1_reference(n, r)
            assert _groups(report) == reference, (n, r)
            vanish = not any(dim for _, _, dim in reference)
            assert report.verdict == (HOLD if r > n + 1 and vanish else FAIL)


def test_split_groups_equal_the_theorem_expressions():
    for n in range(1, 7):
        for k in range(1, n + 1):
            tuples = {(d,) * k for d in (-n - 2, k - n - 1, k - n, -1, 0, 2)}
            tuples.add(tuple(range(-k, 0)))
            tuples.add((1,) + (-n - 1,) * (k - 1))
            for degrees in sorted(tuples):
                report = check_split_distribution(n, k, degrees)
                reference = _split_reference(n, k, degrees)
                assert _groups(report) == reference, (n, k, degrees)
                ample = all(-d + k - n + 1 >= 1 for d in degrees)
                vanish = not any(dim for _, _, dim in reference)
                assert report.verdict == (HOLD if ample and vanish else FAIL)


@pytest.mark.parametrize(
    "check, args, calls",
    [
        (check_codim1_generic, (5, 8), 4),
        (check_split_distribution, (5, 2, (-3, -3)), 3),
        (check_split_distribution, (6, 1, (-7,)), 5),
    ],
)
def test_each_required_term_is_read_once(monkeypatch, check, args, calls):
    # one Bott pass per required term of the certificate, and none for its
    # endomorphism space; every h-vector is read off a count map by this helper
    seen = []
    dims = pnsheaf.cohomology._count_map_dims

    def counting(n, terms, shift=0):
        seen.append(terms)
        return dims(n, terms, shift)

    monkeypatch.setattr(pnsheaf.cohomology, "_count_map_dims", counting)
    monkeypatch.setattr(pnsheaf.complexes, "_count_map_dims", counting)
    check(*args)
    assert len(seen) == calls


# ---------------------------------------------------------------------------
# serialization


def test_report_json_shape():
    d = check_split_distribution(3, 2, (-1, -1)).to_json_dict()
    assert set(d) == {"theorem", "inputs", "conditions", "groups", "verdict", "notes"}
    assert d["verdict"] == HOLD
    assert all(set(c) == {"name", "ok"} for c in d["conditions"])
    assert all(set(g) == {"i", "p", "dim"} for g in d["groups"])
    assert isinstance(d["notes"], list)
