"""One benchmark run: set-up, warm-up, timed rounds and the side passes.

A round sets up every case of a workload, then solves each once, in orders
drawn from the seed; the seed changes nothing else, since the cases are
fixed grids.  One operation is one ``solve`` plus the checks on its output.
Untraced runs add an allocation pass after the timed rounds; traced runs
follow each untraced round with a traced one.
"""

from __future__ import annotations

import gc
import random
import statistics
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

from ocfem import SolverOptions, solve

import spans
from workloads import WORKLOADS, Outcome, Workload, build

#: Set-ups per round.  One set-up of a workload takes milliseconds, so it is
#: repeated and setup_s is the median over every repeat of the run.
SETUP_REPS = 5

#: Newton steps per stage of the warm-up solve: enough to reach the dense
#: factorization and the line search once, on the largest case.
WARMUP_ITERS = 2


@dataclass
class Round:
    outcomes: list[Outcome]
    seconds: list[float]  # solve time per case, in case order
    problems: list[str]
    summary: Optional[dict] = None  # Tracer.summary of a traced round

    @property
    def solve_s(self) -> float:
        return sum(self.seconds)

    @property
    def failed(self) -> int:
        return sum(o.report.status != "converged" for o in self.outcomes)

    @property
    def newton_iterations(self) -> int:
        return sum(o.report.total_iterations for o in self.outcomes)


class _Run:
    def __init__(self, workload: Workload, seed: int, tracer: Optional[spans.Tracer]):
        self.workload = workload
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.setup_s: list[float] = []
        self.setup_spans: list[dict] = []

    def _traced(self):
        return spans.installed(self.tracer) if self.tracer else nullcontext()

    def order(self) -> list[int]:
        order = list(range(len(self.workload.cases)))
        self.rng.shuffle(order)
        return order

    def set_up(self) -> list:
        """SETUP_REPS timed set-ups of every case; returns the last one."""
        for _ in range(SETUP_REPS):
            gc.collect()
            nlps: list = [None] * len(self.workload.cases)
            mark = self.tracer.mark() if self.tracer else 0
            took = 0.0
            with self._traced():
                for i in self.order():
                    started = time.perf_counter()
                    nlps[i] = build(self.workload.cases[i])
                    took += time.perf_counter() - started
            self.setup_s.append(took)
            if self.tracer:
                self.setup_spans.append(self.tracer.summary(mark))
        return nlps

    def round(self, nlps: list, traced: bool = False) -> Round:
        gc.collect()
        tracer = self.tracer if traced else None
        mark = tracer.mark() if tracer else 0
        outcomes: list = [None] * len(nlps)
        seconds = [0.0] * len(nlps)
        with self._traced() if traced else nullcontext():
            for i in self.order():
                root = tracer.open("solver.solve") if tracer else None
                started = time.perf_counter()
                report = solve(nlps[i])
                seconds[i] = time.perf_counter() - started
                if tracer:
                    tracer.close(root)
                outcomes[i] = Outcome(self.workload.cases[i], nlps[i], report)
        summary = tracer.summary(mark) if tracer else None
        return Round(outcomes, seconds, self.workload.check(outcomes), summary)


def _peak_alloc_mb(nlp) -> float:
    """tracemalloc peak of one solve of the workload's largest case.

    The Newton step holds dense N x N copies, so the smaller cases never set
    the peak; tracing only the largest keeps the pass short, since
    tracemalloc slows a solve by 1.6x to 3x.
    """
    gc.collect()
    tracemalloc.start()
    try:
        solve(nlp)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _layer_metrics(run: _Run, traced: Round) -> dict:
    summary = traced.summary

    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def setup(layer: str) -> float:
        return statistics.median(s.get(layer, {}).get("total_s", 0.0) for s in run.setup_spans)

    steps = traced.newton_iterations
    # Each stage evaluates the objective once before its first step and
    # solve once more at the end; every other evaluation is a trial point.
    trials = get("assembly.objective", "count") - sum(
        len(o.report.stages) + 1 for o in traced.outcomes
    )
    return {
        "mesh.build_s": (setup("mesh.build"), "s"),
        "quadrature.build_s": (setup("quadrature.build"), "s"),
        "fespace.build_s": (setup("fespace.build"), "s"),
        "ocp_model.callback_calls": (get("ocp_model.callback", "count"), "count"),
        "ocp_model.callback_s": (get("ocp_model.callback", "total_s"), "s"),
        "assembly.objective_calls": (get("assembly.objective", "count"), "count"),
        "assembly.objective_s": (get("assembly.objective", "total_s"), "s"),
        "assembly.gradient_s": (get("assembly.gradient", "total_s"), "s"),
        "assembly.hessian_calls": (get("assembly.hessian", "count"), "count"),
        "assembly.hessian_s": (get("assembly.hessian", "total_s"), "s"),
        "assembly.hessian_nnz": (run.tracer.hessian_nnz, "count"),
        "assembly.self_s": (
            sum(v["self_s"] for k, v in summary.items() if k.startswith("assembly.")),
            "s",
        ),
        "solver.self_s": (get("solver.solve", "self_s"), "s"),
        "solver.ls_trials": (trials, "count"),
        "solver.ls_accept_ratio": (steps / trials if trials else 0.0, "ratio"),
    }


def run(name: str, seed: int, seconds: float, trace: bool, span_path=None) -> tuple[dict, list[Round]]:
    """Measure one workload; return the printed result object and all rounds.

    solve_s is the mean over the run's rounds of the time a round spends in
    ``solve``; the mean varied least between runs, see README.md.  A traced
    run reports the layers of its median traced round, and as tracing
    overhead that round's time less the mean untraced round's.
    """
    workload = WORKLOADS[name]
    run = _Run(workload, seed, spans.Tracer() if trace else None)
    nlps = run.set_up()
    largest = max(nlps, key=lambda nlp: nlp.N)
    solve(largest, None, SolverOptions(max_iters=WARMUP_ITERS))

    rounds: list[Round] = []
    traced: list[Round] = []
    started = time.perf_counter()
    while True:
        if rounds:
            nlps = run.set_up()
        rounds.append(run.round(nlps))
        if trace:
            traced.append(run.round(nlps, traced=True))
        if time.perf_counter() - started >= seconds:
            break

    if trace:
        typical = sorted(traced, key=lambda r: r.solve_s)[len(traced) // 2]
        metrics = _layer_metrics(run, typical)
        metrics["trace.overhead_s"] = (
            typical.solve_s - statistics.mean(r.solve_s for r in rounds), "s"
        )
        if span_path is not None:
            run.tracer.write(span_path)
    else:
        metrics = {
            "solve_s": (statistics.mean(r.solve_s for r in rounds), "s"),
            "setup_s": (statistics.median(run.setup_s), "s"),
            "newton_iterations": (rounds[0].newton_iterations, "count"),
            "peak_alloc_mb": (_peak_alloc_mb(largest), "MB"),
        }

    rounds += traced
    problems = [p for r in rounds for p in r.problems]
    counts = [r.newton_iterations for r in rounds]
    if len(set(counts)) != 1:
        problems.append(f"Newton step counts differ between rounds: {counts}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(len(r.outcomes) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, rounds
