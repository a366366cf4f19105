"""The tracer, the workloads' grading and BENCHMARK.json agree with the
benchmark's code."""
import importlib
import json
import os
import subprocess
import sys
import types

import pytest

import gpcover
import reference as ref
import run
import tracer
import worker
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_tracer_sees_calls_made_inside_the_package():
    census = importlib.import_module("gpcover.census")
    original = census.kronecker_involutions
    t = tracer.Tracer()
    assert t.install() == []
    try:
        assert census.kronecker_involutions is not original
        gpcover.verify(6)
        # Relabelled, so no cached search from another test answers it.
        n = 12
        perm = [(7 * v + 5) % (2 * n) for v in range(2 * n)]
        g = gpcover.graph(2 * n, [(perm[u], perm[v]) for u, v in ref.gp_edges(n, 5)])
        assert gpcover.quotients_up_to_iso(g)
    finally:
        t.uninstall()
    assert census.kronecker_involutions is original

    m = t.metrics(wall_s=10.0)
    assert m["census.verify.calls"] == 1
    assert m["families.gp.calls"] > 1 and m["oracle.quotients_up_to_iso.classes"] > 1
    # Reached only through other modules' namespaces.
    assert m["oracle.kronecker_involutions.calls"] > 0
    assert m["covers.kronecker_involution_failure.calls"] > 0
    assert m["graphs.bipartition.calls"] > 0
    assert m["oracle.automorphisms.found"] >= m["covers.is_kronecker_involution.calls"] > 0
    assert 0 < m["oracle.inv_per_aut"] <= 1
    # Self times are non-negative and add up to the time inside root spans.
    assert all(m[f"{name}.self_s"] >= 0 for name in tracer.traced_names())
    roots = sum(end - start for _, start, end, parent in t.spans if parent < 0)
    total_self = sum(m[f"{layer}.self_s"] for layer in tracer.TRACED)
    assert total_self == pytest.approx(roots)
    assert set(m) == set(tracer.metric_names())


def _no_pace(done):
    return 0.0


def _api(**overrides):
    api = types.SimpleNamespace(**{name: getattr(gpcover, name) for name in dir(gpcover)})
    for name, value in overrides.items():
        setattr(api, name, value)
    return api


def test_closed_form_grading_catches_a_wrong_quotient():
    queries = workloads.ClosedForm.make_inputs(1)[:6]
    assert workloads.ClosedForm.run(gpcover, queries, _no_pace).failed == 0

    def quotient(g, p):
        q = gpcover.quotient(g, p)
        return gpcover.graph(q.vertex_count, q.edges[1:])

    rep = workloads.ClosedForm.run(_api(quotient=quotient), queries, _no_pace)
    assert rep.failed == len(queries) and rep.errors


def test_iso_grading_catches_wrong_verdicts_and_raised_answers():
    queries = workloads.IsoQueries.make_inputs(1)[:20]
    assert workloads.IsoQueries.run(gpcover, queries, _no_pace).failed == 0

    def automorphisms(g):
        raise RuntimeError("boom")

    api = _api(is_isomorphic=lambda g, h: True, automorphisms=automorphisms)
    rep = workloads.IsoQueries.run(api, queries, _no_pace)
    wrong = sum(1 for q in queries if q[0] == "aut" or not q[5])
    assert rep.failed == wrong > 0


def test_verify_grading_catches_changed_output(monkeypatch):
    cli = importlib.import_module("gpcover.cli")

    def main(argv):
        print("1/1 checks passed")
        return 0

    monkeypatch.setattr(cli, "main", main)
    rep = workloads.VerifySweep.run(gpcover, workloads.VerifySweep.make_inputs(0), _no_pace)
    assert rep.failed == rep.items == len(ref.gp_pairs(3, workloads.VERIFY_MAX_N))


def test_pacer_scales_each_block_by_its_reference_speed():
    pacer = worker.Pacer()
    pacer.marks = [(0, 0.01), (2, 0.03), (3, 0.02)]
    # Blocks [0, 2) and [2, 3) run at mean round times 0.02 s and 0.025 s.
    assert pacer.scaled([4.0, 6.0, 5.0]) == pytest.approx([2.0, 3.0, 2.0])
    assert pacer(3) > 0 and pacer.marks[-1][0] == 3


def test_inputs_depend_only_on_the_seed():
    for w in (workloads.IsoQueries, workloads.ClosedForm):
        assert w.make_inputs(7) == w.make_inputs(7)
        assert w.make_inputs(7) != w.make_inputs(8)


def test_closed_form_draw_is_half_rim_switch():
    queries = workloads.ClosedForm.make_inputs(3)
    cases = [case for _, _, case, _ in queries]
    assert cases.count("B1") + cases.count("B2") == len(queries) // 2
    assert "B2" in cases and "A1" in cases and "A2" in cases
    assert all(workloads.CF_N[0] <= n <= workloads.CF_N[1] for n, *_ in queries)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_run_refuses_a_set_oracle_bound():
    env = dict(os.environ, GPCOVER_ORACLE_BOUND="200")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed_form",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "GPCOVER_ORACLE_BOUND" in proc.stderr
    assert proc.stdout == ""
