"""The benchmark's tracer patches these names, and its workloads set up and solve through
the public API; each must still work, at the Newton steps the benchmark counts."""

import importlib.util
import sys
from pathlib import Path

from ocfem.solver import STATUS_CONVERGED, solve

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered while it runs: a module's dataclasses look themselves up by module name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists(monkeypatch):
    spans = load("spans", monkeypatch)
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _ in spans.TARGETS
        if attr not in owner.__dict__
    ]
    assert not missing, missing


def test_every_workload_case_sets_up(monkeypatch):
    # build_setup, then replace(params, omega=, tau=) where a case fixes them
    workloads = load("workloads", monkeypatch)
    cases = [case for workload in workloads.WORKLOADS.values() for case in workload.cases]
    assert len(cases) == 14
    for case in cases:
        nlp = workloads.build(case)
        assert (nlp.params.d, nlp.params.h) == (case.d, case.h)
        if case.omega is not None:
            assert (nlp.params.omega, nlp.params.tau) == (case.omega, case.tau)


def test_every_workload_solves_to_its_counted_steps(monkeypatch):
    # the benchmark counts these Newton steps exactly; a change to the default start,
    # schedule or step shows here before a benchmark run
    workloads = load("workloads", monkeypatch)
    steps = {}
    for name, workload in workloads.WORKLOADS.items():
        outcomes = []
        for case in workload.cases:
            nlp = workloads.build(case)
            outcomes.append(workloads.Outcome(case, nlp, solve(nlp)))
        assert [o.report.status for o in outcomes] == [STATUS_CONVERGED] * len(outcomes)
        assert workload.check(outcomes) == []
        steps[name] = sum(o.report.total_iterations for o in outcomes)
    assert steps == {"refine-d4": 246, "refine-d8": 99, "barrier-floor": 87}
