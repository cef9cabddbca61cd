"""Damped-Newton minimization of the penalty-barrier program.

A solve runs a short continuation over decreasing (omega, tau), warm-starting
each stage from the previous minimizer.  Every stage is plain Newton with a
symmetric inertia correction, an Armijo backtracking line search, and a
fraction-to-the-boundary cap that keeps the auxiliary values strictly
positive at all quadrature points.  The program gives the inertia-corrected
direction (``AssembledNlp.newton_direction``) and the auxiliary values and their
change along it (``z_values``, ``z_step``); this module reads no operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .assembly import AssembledNlp, ObjectiveTerms, lifted_objective  # the last is re-exported
from .errors import BarrierDomainError
from .fespace import CoefficientVector
from .ocp_model import check_positive

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_LINE_SEARCH = "line_search_failure"
STATUS_ROUNDING_FLOOR = "rounding_floor"

#: Armijo line search: step shrink factor, sufficient-decrease constant and
#: the number of backtracks before the stage reports a line-search failure.
_LS_BACKTRACK = 0.5
_LS_SUFFICIENT_DECREASE = 1e-4
_LS_MAX_BACKTRACKS = 60

#: Share of the distance to z = 0 that one step may cover at any quadrature point.
_BOUNDARY_FRACTION = 0.995

#: A stage is at the rounding floor, where rounding and not progress moves x, when its Newton
#: decrement -slope / 2 is at most kappa eps |F| (kappa = 256) and |g| fell by less than half.
_FLOOR_DECREMENT = 256 * np.finfo(float).eps

#: Stages of the default geometric (omega, tau) continuation.
_CONTINUATION_STAGES = 4

#: Auxiliary components whose smallest quadrature value is at or below zero
#: get shifted up to this level before the first barrier evaluation.
_INTERIOR_MARGIN = 1e-2


@dataclass
class SolverOptions:
    """Tolerances of the damped-Newton solve; the stages are always ``_schedule``'s."""

    grad_tol: Optional[float] = None  # default 1e-8 * max(1, sqrt(N))
    max_iters: int = 200

    def __post_init__(self) -> None:
        if self.grad_tol is not None:
            check_positive("grad_tol", self.grad_tol)
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer)):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")

    def resolved_grad_tol(self, n: int) -> float:
        if self.grad_tol is not None:
            return self.grad_tol
        return 1e-8 * max(1.0, math.sqrt(n))


@dataclass
class StageResult:
    omega: float
    tau: float
    iterations: int
    grad_norm: float
    objective: float
    residual: float
    status: str


@dataclass
class SolveReport:
    """Outcome of ``solve`` at ``x_final`` and the target (omega, tau).  ``status`` is that
    of the last stage that did not converge, else ``converged``: a stage at the rounding
    floor hands its iterate to the next stage, and any other ending stops the solve, so a
    stop is reported over an earlier floor.  Every iterate is interior, so ``terms`` exists
    and ``min_z`` > 0: the default start is interior by construction, ``ensure_interior``
    shifts a caller's ``x0``, and a trial is accepted only where the barrier is defined."""

    x_final: CoefficientVector
    status: str
    stages: list[StageResult]
    grad_norm: float
    terms: ObjectiveTerms
    residual: float
    multipliers: tuple[np.ndarray, np.ndarray]  # (lambda, nu), see penalty_multipliers
    min_z: float

    @property
    def iterations(self) -> list[int]:
        return [s.iterations for s in self.stages]

    @property
    def total_iterations(self) -> int:
        return sum(self.iterations)


def default_start(nlp: AssembledNlp) -> CoefficientVector:
    """Hinted differential values and auxiliaries at max(1, tau), interpolated at the basis
    nodes.  Interior by construction: the basis reproduces a constant to rounding."""
    space, hint = nlp.space, nlp.problem.initial_guess

    def start(t: np.ndarray) -> np.ndarray:
        y = np.zeros((t.size, space.n_y)) if hint is None else hint(t)
        if np.shape(y) != (t.size, space.n_y):
            raise ValueError(f"initial_guess returns shape {np.shape(y)}, need {(t.size, space.n_y)}")
        return np.hstack([y, np.full((t.size, space.n_z), max(1.0, nlp.params.tau))])

    return space.interpolate(start)


def ensure_interior(nlp: AssembledNlp, x: CoefficientVector) -> CoefficientVector:
    """Shift auxiliary components whose quadrature values are not positive up to the
    margin; a shift lost to rounding against large coefficients is doubled until the
    component's values are positive."""
    space, shifted = nlp.space, x
    mins = nlp.z_values(x).min(axis=0)
    shifts = np.where(mins <= 0, _INTERIOR_MARGIN - mins, 0.0)
    while (mins <= 0).any():
        values = x.values.copy()
        for comp_z in np.flatnonzero(shifts):
            # auxiliary blocks are disjoint: one add per coefficient
            values[space.index_map[space.n_y + comp_z].ravel()] += shifts[comp_z]
        shifted = nlp.coefficients(values)
        mins = nlp.z_values(shifted).min(axis=0)
        shifts[mins <= 0] *= 2.0
    return shifted


def _schedule(omega: float, tau: float) -> list[tuple[float, float]]:
    """The (omega, tau) stages, geometric from max(omega, 0.1), max(tau, 0.1) to the
    target, which the last stage is exactly (x**0 == 1, x**1 == x); a repeat of the
    stage before would take no step and is dropped."""
    start_omega, start_tau = max(omega, 1e-1), max(tau, 1e-1)
    fracs = [i / (_CONTINUATION_STAGES - 1) for i in range(_CONTINUATION_STAGES)]
    pairs = [(start_omega ** (1 - f) * omega**f, start_tau ** (1 - f) * tau**f) for f in fracs]
    return [pair for i, pair in enumerate(pairs) if i == 0 or pair != pairs[i - 1]]


def _boundary_cap(nlp: AssembledNlp, x: CoefficientVector, step: np.ndarray) -> float:
    z, dz = nlp.z_values(x), nlp.z_step(step)
    shrinking = dz < 0
    caps = _BOUNDARY_FRACTION * z[shrinking] / -dz[shrinking]
    return float(caps.min(initial=1.0))


def _stage_status(
    total: float, slope: float, norms: list[float], tol: float, max_iters: int
) -> Optional[str]:
    """How the stage ends at its latest iterate, or None to take another step; ``total`` is
    F there, ``slope`` is g.s along its Newton step s (``inf`` if none; a slope that is not
    negative never floors) and ``norms`` holds |g| at every iterate of the stage."""
    if norms[-1] <= tol:
        return STATUS_CONVERGED
    stalled = len(norms) > 1 and norms[-1] > norms[-2] / 2
    if stalled and 0.0 < -slope / 2 <= _FLOOR_DECREMENT * abs(total):
        return STATUS_ROUNDING_FLOOR
    if len(norms) - 1 >= max_iters:
        return STATUS_MAX_ITERS
    return None


def _newton_stage(
    nlp: AssembledNlp, x: CoefficientVector, opts: SolverOptions, tol: float
) -> tuple[CoefficientVector, StageResult]:
    omega, tau = nlp.params.omega, nlp.params.tau
    total = nlp.objective_terms(x).total
    norms: list[float] = []
    while True:
        grad = nlp.gradient(x)
        norms.append(math.sqrt(grad @ grad))
        step = None if norms[-1] <= tol else nlp.newton_direction(x, grad)
        slope = math.inf if step is None else float(grad @ step)
        status = _stage_status(total, slope, norms, tol, opts.max_iters)
        if status is not None:
            break
        if slope >= 0.0:  # no descent direction: a gradient step
            step, slope = -grad, -float(grad @ grad)
        alpha = _boundary_cap(nlp, x, step)
        for _ in range(_LS_MAX_BACKTRACKS):
            trial = x.values + alpha * step
            if np.isfinite(trial).all():
                trial = nlp.coefficients(trial)  # keeps a copy; the sum is dropped here
                try:
                    trial_total = nlp.objective_terms(trial).total
                except BarrierDomainError:
                    trial_total = math.inf
                if math.isfinite(trial_total) and trial_total <= total + (
                    _LS_SUFFICIENT_DECREASE * alpha * slope
                ):
                    break
            alpha *= _LS_BACKTRACK
        else:
            status = STATUS_LINE_SEARCH
            break
        x, total = trial, trial_total
        del step  # the next step's band is assembled without this one beside it
    residual = nlp.residual_value(x)
    return x, StageResult(omega, tau, len(norms) - 1, norms[-1], total, residual, status)


def solve(
    nlp: AssembledNlp,
    x0: Optional[CoefficientVector] = None,
    opts: Optional[SolverOptions] = None,
) -> SolveReport:
    """Minimize the assembled program, continuing over decreasing (omega, tau)."""
    opts = opts or SolverOptions()
    tol = opts.resolved_grad_tol(nlp.N)
    params = nlp.params
    if x0 is not None and x0.space is not nlp.space:
        raise ValueError("start vector belongs to another space than the program's")
    x = default_start(nlp) if x0 is None else ensure_interior(nlp, x0)
    stages: list[StageResult] = []
    for omega, tau in _schedule(params.omega, params.tau):
        nlp = nlp.with_params(omega, tau)  # a clone keeps the last point data
        start = [x]
        del x  # from CPython 3.11 the stage's parameter is the start's only reference
        x, stage = _newton_stage(nlp, start.pop(), opts, tol)
        stages.append(stage)
        if stage.status not in (STATUS_CONVERGED, STATUS_ROUNDING_FLOOR):
            break

    nlp = nlp.with_params(params.omega, params.tau)  # as does the report's
    grad = nlp.gradient(x)
    ends = [stage.status for stage in stages if stage.status != STATUS_CONVERGED]
    return SolveReport(
        x_final=x,
        status=ends[-1] if ends else STATUS_CONVERGED,
        stages=stages,
        grad_norm=math.sqrt(grad @ grad),
        terms=nlp.objective_terms(x),
        residual=nlp.residual_value(x),
        multipliers=nlp.penalty_multipliers(x),
        min_z=float(nlp.z_values(x).min(initial=math.inf)),
    )
