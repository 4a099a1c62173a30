"""Self-tests of the benchmark: generator, checker and tracing.

    python3 -m pytest perfbench
"""

import json
import math

import pytest

import tracing
import workloads as wl

NAMES = ("galerkin-varying", "ode-varying", "sphere-heat", "cli-mix", "known-defects")


@pytest.fixture(scope="module")
def refs():
    return wl.load_refs()


def _signature(workload):
    return [
        (inst.stratum, json.dumps(inst.params, sort_keys=True), inst.reference, inst.argv)
        for rnd in workload.rounds
        for inst in rnd
    ] + [(workload.warmup.stratum, json.dumps(workload.warmup.params, sort_keys=True))]


@pytest.mark.parametrize("name", NAMES)
def test_generator_is_deterministic_per_seed(refs, name):
    a = wl.build_workload(name, 7, refs, rounds=2)
    b = wl.build_workload(name, 7, refs, rounds=2)
    c = wl.build_workload(name, 8, refs, rounds=2)
    assert _signature(a) == _signature(b)
    assert _signature(a) != _signature(c)


@pytest.mark.parametrize("name", NAMES[:4])
def test_rounds_keep_the_same_strata_across_seeds(refs, name):
    a = wl.build_workload(name, 1, refs, rounds=3)
    b = wl.build_workload(name, 2, refs, rounds=3)
    strata = lambda w: [sorted(i.stratum for i in rnd) for rnd in w.rounds]  # noqa: E731
    assert strata(a) == strata(b)


def _numeric_instance():
    return wl.Instance("ode", "zeta-1024-n2", {}, reference=2.0, tol=wl.ROUTE_TOL)


def test_checker_flags_a_planted_wrong_value():
    inst = _numeric_instance()
    assert wl.judge(inst, 2.0 * (1.0 + 1e-7)).ok
    out = wl.judge(inst, 2.0 * (1.0 + 1e-3))
    assert not out.ok and "relative error" in out.reason


@pytest.mark.parametrize("bad", [math.nan, math.inf, None])
def test_checker_flags_non_finite_values(bad):
    assert not wl.judge(_numeric_instance(), bad).ok


def test_checker_flags_nan_with_exit_code_zero(refs):
    inst = wl.Instance("cli", "det-gy-json", {}, reference=1.0,
                       argv=wl.cli_argv("det-gy", "json", kappa=-1.0, r=1.0, n=2))
    report = json.dumps({"command": "det-gy", "value": math.nan, "error_estimate": 0.0})
    out = wl.judge_cli(inst, refs, 0, report, "")
    assert not out.ok and "non-finite" in out.reason


def test_checker_flags_a_traceback(refs):
    inst = wl.Instance("cli", "heat", {}, reference=1.0,
                       argv=wl.cli_argv("heat-limit", "json", n=2, radius=2.0, case="antipodal"))
    err = 'Traceback (most recent call last):\n  File "x"\nZeroDivisionError: float division by zero\n'
    out = wl.judge_cli(inst, refs, 1, "", err)
    assert not out.ok and "traceback" in out.reason


def test_checker_flags_a_named_error_where_a_value_is_expected(refs):
    inst = wl.Instance("cli", "det-gy-json", {}, reference=1.0,
                       argv=wl.cli_argv("det-gy", "json", kappa=1.0, r=1.0, n=2))
    report = json.dumps({"command": "det-gy", "error": "DomainError", "message": "x"})
    assert not wl.judge_cli(inst, refs, 1, report, "").ok


def test_checker_parses_every_format():
    text = "command: det-gy\nvalue: 1.25\nroute: gelfand_yaglom\n"
    assert wl.parse_cli_value("text", text) == 1.25
    assert wl.parse_cli_value("csv", "command,value,error_estimate,route\ndet-gy,1.5,0.0,gy\n") == 1.5
    assert wl.parse_cli_value("csv", "level,value\n128,1.0\nfinal,2.5\n") == 2.5
    assert wl.parse_cli_value("json", '{"value": 3.5}') == 3.5


def test_checker_compares_validate_reports_with_the_seed_records(refs):
    stored = refs["validate"]["telescoping"]
    (name, (computed, passed, _)), = stored["records"].items()
    inst = wl.Instance("cli", "validate", {"group": "telescoping"},
                       argv=wl.cli_argv("validate", "csv", filter="telescoping"))
    row = "check_name,expected,computed,tolerance,passed,runtime_ms\n{},0.5,{!r},0.001,{},1.0\n"
    assert wl.judge_cli(inst, refs, 0, row.format(name, computed, passed), "").ok
    assert not wl.judge_cli(inst, refs, 0, row.format(name, computed * 1.01, passed), "").ok


def test_known_defects_are_failures(refs):
    workload = wl.build_workload("known-defects", 3, refs, rounds=1)
    underflow = next(i for i in workload.rounds[0] if i.kind == "heat" and i.params["case"] == "antipodal")
    out = wl.execute(underflow, refs, wl.cli_env())
    assert not out.ok and "ZeroDivisionError" in out.reason


def test_traced_self_times_are_consistent(refs):
    workload = wl.build_workload("ode-varying", 5, refs, rounds=1)
    picks = [workload.warmup] + [i for i in workload.rounds[0] if i.stratum.startswith("degenerate")][:1]
    picks.append(wl.build_workload("galerkin-varying", 5, refs, rounds=1).warmup)
    picks.append(wl._heat_instance(3, 1.0, "nondegenerate", 5, 0.4))
    tracer = tracing.Tracer()
    walls = []
    with tracing.installed(tracer):
        for i, inst in enumerate(picks):
            tracer.instance = i
            t0 = tracing.time.perf_counter()
            assert wl.execute(inst, refs, {}, tracer.potential_hook).ok
            walls.append(tracing.time.perf_counter() - t0)
    assert tracer.potential[0] > 0 and not tracer.stack
    for i, wall in enumerate(walls):
        spans = [sp for sp in tracer.spans if sp.instance == i]
        assert spans
        assert all(sp.self_s >= -1e-9 for sp in spans)
        assert sum(sp.self_s for sp in spans) <= wall
    assert sum(sp.self_s for sp in tracer.spans) + tracer.potential[1] <= sum(walls)
    metrics = tracing.per_layer_metrics(tracer, set(), sum(walls), sum(walls))
    assert metrics["gelfand_yaglom.rk4_steps"] > 0 and metrics["galerkin.fourier_dim_max"] == 2 * 64
    assert metrics["heat.sphere_heat_kernel.calls"] == 5 and metrics["trace.outside_ms"] >= 0


def test_tracing_restores_the_public_functions():
    from geodet import gelfand_yaglom, heat

    before = (gelfand_yaglom.solve_jacobi_ode, heat.solve_jacobi_ode)
    with tracing.installed(tracing.Tracer()):
        assert heat.solve_jacobi_ode is gelfand_yaglom.solve_jacobi_ode
        assert heat.solve_jacobi_ode is not before[0]
    assert (gelfand_yaglom.solve_jacobi_ode, heat.solve_jacobi_ode) == before


def test_benchmark_json_lists_the_printed_metrics():
    import os
    import run

    with open(os.path.join(os.path.dirname(wl.HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    printed = tracing.per_layer_metrics(tracing.Tracer(), set(), 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run._layer_unit(name) for name in printed
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(wl.ROUNDS)
