"""Self-tests of the benchmark's own arithmetic, checks and tracer.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

import run
import speed
import tracer as tracing
from tracer import Span, self_times

REF = json.loads(run.REFERENCE.read_text())
TOL = REF["rel_tol"]


@pytest.fixture(scope="module")
def tbctrl():
    return run.import_program()


# -- self time -----------------------------------------------------------------


def test_self_time_nested_and_adjacent_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),        # adjacent to b
        Span("a.1", 1.5, 2.5, 1),      # nested one level down
        Span("b", 3.0, 6.0, 0),
        Span("d", 8.0, 9.5, 0),
        Span("other-root", 20.0, 21.0, None),
    ]
    assert self_times(spans) == [10.0 - 2.0 - 3.0 - 1.5, 1.0, 1.0, 3.0, 1.5, 1.0]


# -- speed scaling ---------------------------------------------------------------


def test_sampler_samples_during_block_and_restores_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        end = time.perf_counter() + 3.5 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    # one sample on entry, one on exit, and one per timer tick in between
    assert len(sampler.samples) >= 4
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.scale == speed.REF_SAMPLE_S / statistics.fmean(sampler.samples)


# -- correctness gate ------------------------------------------------------------


def _solution(cost, converged=True):
    return SimpleNamespace(cost=cost, report=SimpleNamespace(converged=converged))


def _perturbed(value):
    return value * (1.0 + 10.0 * TOL)


def test_flagship_check_accepts_reference_and_rejects_perturbed():
    ref = REF["fbs-flagship"]
    assert run.check_flagship(_solution(ref["cost"]), None, ref, TOL) == []
    assert run.check_flagship(_solution(ref["cost"]), None,
                              {"cost": _perturbed(ref["cost"])}, TOL)
    assert run.check_flagship(_solution(ref["cost"], converged=False), None, ref, TOL)


def test_direct_check_rejects_perturbed_reference_and_gap_to_fbs():
    ref = REF["direct-coarse"]
    assert run.check_direct(_solution(ref["cost"]), None, ref, TOL) == []
    assert run.check_direct(_solution(ref["cost"]), None,
                            {**ref, "cost": _perturbed(ref["cost"])}, TOL)
    far = {**ref, "fbs_cost_same_grid": ref["cost"] * 1.02}
    assert any("from FBS" in p for p in run.check_direct(_solution(ref["cost"]), None, far, TOL))


def _rows(expected):
    return [{"value": e["value"], "cost": repr(e["cost"]), "status": e["status"]}
            for e in expected]


def test_sweep_check_rejects_perturbed_cost_and_status():
    name = "seirs-fig3-sweep"
    expected = REF["sweep-bundled"][name]
    assert run.check_sweep_rows(name, _rows(expected), expected, TOL) == []
    bad_cost = [dict(e) for e in expected]
    bad_cost[1]["cost"] = _perturbed(bad_cost[1]["cost"])
    assert len(run.check_sweep_rows(name, _rows(expected), bad_cost, TOL)) == 1
    bad_status = [dict(e) for e in expected]
    bad_status[0]["status"] = "non-converged"
    assert len(run.check_sweep_rows(name, _rows(expected), bad_status, TOL)) == 1
    assert run.check_sweep_rows(name, _rows(expected)[:-1], expected, TOL)


def test_verify_check_needs_ok_for_every_model():
    ref = REF["verify-all"]
    lines = [f"{m} adjoint=1e-9 stationarity=0 [ok]" for m in ref["models"]]
    assert run.check_verify((0, "\n".join(lines)), None, ref, TOL) == []
    lines[5] = lines[5].replace("[ok]", "[FAIL]")
    assert len(run.check_verify((2, "\n".join(lines)), None, ref, TOL)) == 2
    assert run.check_verify((0, "\n".join(lines[:-1])), None, ref, TOL)


def test_perturbed_reference_counts_as_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_BASE", tmp_path)
    ref = REF["fbs-flagship"]
    workload = replace(run.WORKLOADS["fbs-flagship"],
                       body=lambda ctx, out, jobs: _solution(ref["cost"]))
    problems = []
    good = run.run_op(workload, None, 1, ref, TOL, problems.append)
    bad = run.run_op(workload, None, 1, {"cost": _perturbed(ref["cost"])}, TOL,
                     problems.append)
    assert not good.failed and bad.failed and len(problems) == 1


def test_exception_counts_as_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_BASE", tmp_path)

    def boom(ctx, out, jobs):
        raise ValueError("boom")
    workload = replace(run.WORKLOADS["fbs-flagship"], body=boom)
    problems = []
    assert run.run_op(workload, None, 1, REF["fbs-flagship"], TOL, problems.append).failed
    assert "ValueError: boom" in problems[0]


# -- tracer isolation ------------------------------------------------------------


def test_tracer_restores_every_site(tbctrl):
    import tbctrl.cli
    import tbctrl.solver
    from tbctrl import models
    from tbctrl.core import ParameterSet

    snap = tracing.snapshot()
    for key in ("tbctrl.solver.integrate_forward", "tbctrl.cli.solve_fbs",
                "tbctrl.cli.integrate_forward", "MODELS[seirs]", "ParameterSet.value"):
        assert key in snap
    t = tracing.Tracer()
    with t.installed():
        with pytest.raises(RuntimeError, match="tracer wrappers left installed"):
            tracing.check_untraced(snap)
        assert tbctrl.cli.solve_fbs is tbctrl.solver.solve_fbs
        assert tbctrl.cli.solve_fbs is not snap["tbctrl.cli.solve_fbs"]
        for mid, defn in models.MODELS.items():
            original = snap[f"MODELS[{mid.value}]"]
            assert defn is not original and defn.rhs is not original.rhs
            assert (defn.adjoint is None) == (original.adjoint is None)
    tracing.check_untraced(snap)
    assert ParameterSet.__dict__["value"] is snap["ParameterSet.value"]


def test_tracer_restores_after_error(tbctrl):
    snap = tracing.snapshot()
    with pytest.raises(KeyError):
        with tracing.Tracer().installed():
            raise KeyError("inside traced pass")
    tracing.check_untraced(snap)


def test_traced_small_solve_counts_and_spans(tbctrl):
    scenario = tbctrl.get_scenario("seirs-fig1")
    scenario = replace(scenario, grid=tbctrl.make_time_grid(0.0, 5.0, 50))
    untraced = tbctrl.solve_fbs(scenario)
    t = tracing.Tracer()
    with t.installed():
        traced = tbctrl.solve_fbs(scenario)
    assert traced.cost == untraced.cost
    iterations = untraced.report.iterations
    assert t.attr_sum("solve_fbs", "iterations") == iterations
    # one forward and one backward pass per iteration, plus the final re-integration
    assert t.count("integrate_forward") == t.count("integrate_adjoint_backward") == iterations + 1
    assert t.calls["rhs"][0] == 4 * 50 * (iterations + 1)
    assert t.calls["characterize"][0] == 51 * iterations
    assert t.param_lookups > 0
    assert all(s.parent == 0 for s in t.spans[1:])
