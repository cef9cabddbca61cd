"""Workload definitions, independent references and output checks.

Every input is a fixed grid of (problem, d, h, omega, tau) cases; nothing is
drawn at random.  The references below are written out from the problem
statements and share no code with ``ocfem.harness``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ocfem import AssembledNlp, SolveReport, build_setup, get_benchmark

# -- independent references ---------------------------------------------------

#: Optimal cost of lq: min 1/2 int_0^1 y^2 + u^2 with y' = u, y(0) = 1.
LQ_COST = math.tanh(1.0) / 2.0


def lq_y(t: np.ndarray) -> np.ndarray:
    """Optimal state of lq, y*(t) = cosh(1 - t) / cosh(1)."""
    return np.cosh(1.0 - t) / math.cosh(1.0)


def pull_z(omega: float, tau: float) -> float:
    """Pointwise minimizer of z + omega z^2 / 2 - tau log z.

    The positive root of omega z^2 + z - tau = 0, (sqrt(1 + 4 omega tau) - 1)
    / (2 omega), written in the form that does not cancel for small omega tau.
    """
    return 2.0 * tau / (1.0 + math.sqrt(1.0 + 4.0 * omega * tau))


def loglog_slope(h: list[float], values: list[float]) -> float:
    """Least-squares slope of log|value| against log h."""
    xs = [math.log(v) for v in h]
    ys = [math.log(abs(v)) for v in values]
    x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
    num = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    den = sum((x - x_bar) ** 2 for x in xs)
    return num / den


# -- cases --------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    problem: str
    d: int
    h: float
    omega: Optional[float] = None  # None: default coupling omega = h^(d/2)
    tau: Optional[float] = None  # None: default coupling tau = h^d

    @property
    def label(self) -> str:
        text = f"{self.problem} d={self.d} h=1/{round(1 / self.h)}"
        if self.tau is not None:
            text += f" omega={self.omega:g} tau={self.tau:g}"
        return text


def build(case: Case) -> AssembledNlp:
    """The timed set-up of one case: ``build_setup`` plus ``AssembledNlp``."""
    bench = get_benchmark(case.problem)
    space, params = build_setup(bench, case.h, case.d)
    if case.omega is not None:
        params = replace(params, omega=case.omega, tau=case.tau)
    return AssembledNlp(bench.problem, space, params)


@dataclass
class Outcome:
    case: Case
    nlp: AssembledNlp
    report: SolveReport


def _lq_gap(outcome: Outcome) -> float:
    return outcome.report.terms.f - LQ_COST


def _point_values(outcome: Outcome) -> np.ndarray:
    """Stacked (dy, y, z) values at the quadrature points, one row per point."""
    nlp = outcome.nlp
    return (nlp.eval_op @ outcome.report.x_final.values).reshape(nlp.M, -1)


def _y_error(outcome: Outcome) -> float:
    """max |y_h - y*| over the quadrature points of lq, whose rows are (dy, y, z1, z2)."""
    y = _point_values(outcome)[:, 1]
    return float(np.abs(y - lq_y(outcome.nlp.rule.points)).max())


def _common(outcome: Outcome, problems: list[str]) -> None:
    if outcome.report.terms is None:
        problems.append(f"{outcome.case.label}: final point left the barrier domain")
    if not outcome.report.min_z > 0.0:
        problems.append(f"{outcome.case.label}: min z = {outcome.report.min_z!r} <= 0")


# -- checks -------------------------------------------------------------------

#: A fitted order must lie this close to its expected value.
ORDER_TOL = 0.3


def ladder_orders(outcomes: list[Outcome]) -> dict[str, tuple[float, float, list[float]]]:
    """Per problem: fitted gap order, fitted residual order, max |y_h - y*| by h."""
    out = {}
    for problem in sorted({o.case.problem for o in outcomes}):
        ladder = sorted((o for o in outcomes if o.case.problem == problem), key=lambda o: -o.case.h)
        h = [o.case.h for o in ladder]
        out[problem] = (
            loglog_slope(h, [_lq_gap(o) for o in ladder]),
            loglog_slope(h, [o.report.residual for o in ladder]),
            [_y_error(o) for o in ladder],
        )
    return out


def check_ladder(outcomes: list[Outcome]) -> list[str]:
    """lq refinement ladder: orders d/2 (gap) and d (residual), y error falls."""
    problems: list[str] = []
    for o in outcomes:
        _common(o, problems)
    if problems:
        return problems
    d = outcomes[0].case.d
    for problem, (gap, residual, errors) in ladder_orders(outcomes).items():
        for name, order, expected in (("objective gap", gap, d / 2), ("residual", residual, d)):
            if abs(order - expected) > ORDER_TOL:
                problems.append(f"{problem} d={d}: {name} order {order:.3f}, expected {expected}")
        if any(b >= a for a, b in zip(errors, errors[1:])):
            problems.append(f"{problem} d={d}: max |y_h - y*| does not fall: {errors}")
    return problems


#: Largest accepted max |z_h / z* - 1| on barrier-floor.
PULL_RTOL = 1e-4


def check_pull(outcomes: list[Outcome]) -> list[str]:
    """barrier-pull: every auxiliary quadrature value sits at the closed-form z*."""
    problems: list[str] = []
    for o in outcomes:
        _common(o, problems)
        z = _point_values(o)[:, 0]  # n_y = 0: the rows hold z alone
        worst = float(np.abs(z / pull_z(o.nlp.params.omega, o.nlp.params.tau) - 1.0).max())
        if not worst <= PULL_RTOL:
            problems.append(f"{o.case.label}: max |z_h/z* - 1| = {worst:.3e}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    check: Callable[[list[Outcome]], list[str]]


def _ladder(problem: str, d: int, widths: list[int]) -> tuple[Case, ...]:
    return tuple(Case(problem, d, 1.0 / n) for n in widths)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "refine-d4",
            _ladder("lq", 4, [16, 32, 64, 128]) + _ladder("lq-multimesh", 4, [16, 32, 64, 128]),
            check_ladder,
        ),
        Workload("refine-d8", _ladder("lq", 8, [4, 8, 16]), check_ladder),
        Workload(
            "barrier-floor",
            tuple(Case("barrier-pull", 4, 1.0 / 256, 1e-2, tau) for tau in (1e-2, 1e-4, 1e-6)),
            check_pull,
        ),
    )
}
