"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import checks, harness, inputs, tracer  # noqa: E402
from perfbench.checks import Response  # noqa: E402
from perfbench.inputs import Request, Round  # noqa: E402


@pytest.fixture(scope="module")
def client(tmp_path_factory):
    c = harness.Client(str(tmp_path_factory.mktemp("work")))
    yield c
    c.cleanup()


# ---------------------------------------------------------------------------
# self time


def test_self_time_of_a_nested_span_tree():
    #   0 root [0, 100]
    #   1   a  [10, 40]
    #   2     a1 [15, 25]
    #   3   b  [50, 90]
    #   4     b1 [60, 70]
    #   5     b2 [75, 80]
    parents = [-1, 0, 1, 0, 3, 3]
    starts = [0, 10, 15, 50, 60, 75]
    ends = [100, 40, 25, 90, 70, 80]
    assert tracer.self_times(parents, starts, ends) == [30, 20, 10, 25, 10, 5]


def test_layer_stats_sum_self_time_by_layer():
    names = ["cli.main", "chow.hrr_chi", "weights.lr_product"]
    rec = tracer.Recording()
    for name, parent, start, end in ((0, -1, 0, 1_000_000), (1, 0, 100_000, 700_000),
                                     (2, 1, 200_000, 300_000), (2, 1, 400_000, 500_000)):
        rec.names.append(name)
        rec.parents.append(parent)
        rec.starts.append(start)
        rec.ends.append(end)
    stats = tracer.LayerStats(names)
    stats.add(rec.dump())
    m = stats.metrics()
    assert m["cli.self_ms"] == (0.4, "ms")
    assert m["chow.self_ms"] == (0.4, "ms")
    assert m["weights.self_ms"] == (0.2, "ms")
    assert m["weights.lr_product.calls"] == (2.0, "count")
    assert m["polyideal.calls"] == (0.0, "count")


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generators_are_deterministic_per_seed_and_differ_across_seeds(workload):
    first, again, other = (inputs.make_round(workload, s) for s in (7, 7, 8))
    assert first == again
    assert [r.facts for r in first.requests] == [r.facts for r in again.requests]
    assert (first.requests, first.forms) != (other.requests, other.forms)


@pytest.mark.parametrize("make", [
    lambda rng: inputs.pencil_coefficients(rng, 2, 2),
    lambda rng: inputs.pencil_coefficients(rng, 3, 2),
    lambda rng: inputs.log_coefficients(rng, 2, (1, 1, 2)),
    lambda rng: inputs.log_coefficients(rng, 3, (1, 1, 1)),
])
def test_generated_forms_satisfy_the_euler_relation(make):
    twist, coeffs = make(random.Random(4))
    nvars = len(coeffs)
    total: dict = {}
    for i, a in enumerate(coeffs):
        assert all(sum(m) == twist - 1 for m in a)
        x_i = {tuple(int(j == i) for j in range(nvars)): 1}
        total = inputs.poly_add(total, inputs.poly_mul(x_i, a))
    assert total == {} and any(coeffs)


def test_polynomial_helper():
    p = {(1, 0): 2, (0, 1): -1}  # 2 x0 - x1
    assert inputs.poly_mul(p, p) == {(2, 0): 4, (1, 1): -4, (0, 2): 1}
    assert inputs.poly_diff(inputs.poly_mul(p, p), 0) == {(1, 0): 8, (0, 1): -4}
    assert inputs.poly_text(inputs.poly_mul(p, p)) == "4*x0^2 - 4*x0*x1 + 1*x1^2"


def test_rank_rules():
    n = 4
    assert inputs.rank(("wedge", 2, ("sum", ((1, ("T",)), (2, ("O", 1))))), n) == 15
    assert inputs.rank(("sym", 2, ("Omega", 1)), n) == 10
    assert inputs.rank(("tensor", ("T",), ("Omega", 2)), n) == 24


# ---------------------------------------------------------------------------
# output checks


def _pair_round() -> Round:
    facts = {"n": 2, "rank": 1}
    return Round((
        Request("cohomology", ("cohomology", "O(1) on P^2"), facts, pair="p"),
        Request("chi", ("chi", "O(1) on P^2"), facts, pair="p"),
    ))


def _table(h):
    return json.dumps({"h": h, "euler_characteristic": sum((-1) ** p * d for p, d in enumerate(h))})


def _chi(chi, h):
    return json.dumps({"chi": chi, "h": h})


def _resp(stdout, exit_code=0, stderr=""):
    return Response(exit_code, stdout, stderr, 0.01, 1000)


def test_well_formed_responses_pass():
    rnd = _pair_round()
    responses = [_resp(_table([3, 0, 0])), _resp(_chi(3, [3, 0, 0]))]
    assert checks.check_round(rnd, responses, None) == [None, None]


@pytest.mark.parametrize("responses", [
    [_resp(_table([3, 0, 0])[:-4]), _resp(_chi(3, [3, 0, 0]))],          # truncated JSON
    [_resp(_table([3, 0, 0])), _resp(_chi(4, [4, 0, 0]))],               # chi disagrees
    [_resp(_table([3, 0, 0]), exit_code=1), _resp(_chi(3, [3, 0, 0]))],  # wrong exit code
    [_resp(_table([3, 0, 0]), stderr="Traceback"), _resp(_chi(3, [3, 0, 0]))],
    [_resp(_table([3, 0])), _resp(_chi(3, [3, 0]))],                     # wrong length
    [_resp(""), _resp(_chi(3, [3, 0, 0]))],                              # nothing printed
])
def test_corrupted_response_counts_as_a_failure(responses):
    rnd = _pair_round()
    tally = harness.Tally()
    tally.add(rnd, responses, None)
    assert tally.attempted == 2
    assert len(tally.failures) >= 1


def test_golden_mismatch_counts_as_a_failure():
    rnd = _pair_round()
    responses = [_resp(_table([3, 0, 0])), _resp(_chi(3, [3, 0, 0]))]
    goldens = {req.key(rnd.forms): checks.digest(resp) for req, resp in zip(rnd.requests, responses)}
    assert checks.check_round(rnd, responses, goldens) == [None, None]
    responses[1] = _resp(_chi(3, [3, 0, 0]).replace(":", ": "))
    assert checks.check_round(rnd, responses, goldens)[1] == "stdout differs from the golden"
    assert checks.check_round(rnd, responses, {})[0] == "no golden recorded for this request"


def test_a_request_that_exits_2_is_counted_not_dropped(client):
    rnd = Round((Request("cohomology", ("cohomology", "Q(1) on P^2", "--format", "json"), {"n": 2}),))
    tally = harness.Tally()
    tally.add(rnd, client.run_round(rnd, {}), None)
    assert (tally.attempted, len(tally.failures)) == (1, 1)
    assert "exit code 2" in tally.failures[0]


# ---------------------------------------------------------------------------
# cold caches


def test_cached_functions_include_private_caches(client):
    names = {name for name, _ in client.cached}
    assert "pnsheaf.bundles._normalize_cached" in names
    assert "pnsheaf.chow.todd_class" in names


def test_caches_are_empty_in_the_parent_at_every_fork(client, monkeypatch):
    seen = []
    real_fork = os.fork

    def fork():
        seen.append(harness.warm_caches(client.cached))
        return real_fork()

    monkeypatch.setattr(harness.os, "fork", fork)
    for workload in inputs.WORKLOADS:
        rnd = inputs.make_round(workload, 5)
        cheap = [r for r in rnd.requests if r.kind != "chi" and r.form in (None, "log-2-111")]
        small = Round(tuple(cheap[:4]), rnd.forms)
        paths = client.write_forms(small)
        for traced in (False, True):
            responses = client.run_round(small, paths, traced=traced)
            assert checks.check_round(small, responses, None) == [None] * 4
    assert len(seen) == 24
    assert all(warm == [] for warm in seen)


def test_a_warm_cache_stops_the_run(client):
    import pnsheaf.weights

    pnsheaf.weights.weyl_dim((1, 0), 2)
    try:
        with pytest.raises(harness.WarmCacheError, match="_weyl_dim_cached"):
            client.request(["chi", "T on P^2"])
    finally:
        for _, fn in client.cached:
            fn.cache_clear()


# ---------------------------------------------------------------------------
# traced run


def test_traced_request_reports_layers_and_restores_modules(client):
    import pnsheaf.cli
    import pnsheaf.pfaff

    main, kernel = pnsheaf.cli.main, pnsheaf.pfaff.kernel_basis
    rnd = Round((Request("chi", ("chi", "T on P^3", "--format", "json"), {"n": 3}),))
    stats = tracer.LayerStats(client.tracer.span_names)
    client.run_round(rnd, {}, traced=True, stats=stats)
    m = stats.metrics()
    assert m["cli.calls"][0] >= 1 and m["chow.hrr_chi.calls"] == (1.0, "count")
    assert m["polyideal.calls"] == (0.0, "count") and m["linalg.calls"] == (0.0, "count")
    assert m["chow.self_ms"][0] > 0
    assert (pnsheaf.cli.main, pnsheaf.pfaff.kernel_basis) == (main, kernel)


def test_metric_names_match_benchmark_json(client):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    tally = harness.Tally()
    tally.rounds = [[0.1, 0.2, 0.3]]
    e2e = set(tally.end_to_end()) | {"setup_s"}
    assert {m["name"] for m in spec["end_to_end"]} == e2e
    per_layer = set(tracer.LayerStats(client.tracer.span_names).metrics()) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {w["name"] for w in spec["workloads"]} == set(inputs.WORKLOADS)
