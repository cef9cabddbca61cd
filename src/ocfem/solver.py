"""Damped-Newton minimization of the penalty-barrier program.

A solve runs a short continuation over decreasing (omega, tau), warm-starting
each stage from the previous minimizer.  Every stage is plain Newton with a
symmetric inertia correction, an Armijo backtracking line search, and a
fraction-to-the-boundary cap that keeps the auxiliary values strictly
positive at all quadrature points.

Newton steps are taken in the ``band_order`` of ``AssembledNlp.hessian_layout``,
which sorts coefficients by the position of their support and under which
the Hessian is banded: ``AssembledNlp.hessian_band`` sums the element and point
terms into its (kd + 1, N) lower band with one constant sparse sum operator,
and LAPACK ``pbtrf`` and ``pbtrs`` factor and solve it at O(N kd^2) time and
O(N kd) memory.  kd is the largest offset holding a nonzero at this step, not
the structural one: the pattern stores the possible y(t0)-y(tE) coupling even
when it is zero (kd 14, not 1782, for ``lq`` at N = 1793).  Point constraints
that couple distant times widen kd up to N - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs

from .assembly import AssembledNlp, MultiplierSet, ObjectiveTerms
from .errors import BarrierDomainError
from .fespace import CoefficientVector
from .ocp_model import check_positive

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_LINE_SEARCH = "line_search_failure"
STATUS_BARRIER = "barrier_domain_violation"
STATUS_ROUNDING_FLOOR = "rounding_floor"

#: Largest inertia-correction shift tried before falling back to a gradient
#: step, as a multiple of the regularization floor.
_MAX_SHIFT_FACTOR = 1e8

#: First inertia-correction shift; later shifts double it.
_REGULARIZATION_FLOOR = 1e-12

_PBTRF, _PBTRS = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)

#: Armijo line search: step shrink factor, sufficient-decrease constant and
#: the number of backtracks before the stage reports a line-search failure.
_LS_BACKTRACK = 0.5
_LS_SUFFICIENT_DECREASE = 1e-4
_LS_MAX_BACKTRACKS = 60

#: Share of the distance to z = 0 that one step may cover at any quadrature point.
_BOUNDARY_FRACTION = 0.995

#: A stage is at the rounding floor when each of its last ``_FLOOR_STEPS``
#: accepted steps changed F by at most ``_FLOOR_REL_CHANGE`` |F| and none
#: took |g| below its least earlier value: rounding, not progress, moves x.
_FLOOR_STEPS = 8
_FLOOR_REL_CHANGE = 4 * np.finfo(float).eps

#: Stages of the default geometric (omega, tau) continuation.
_CONTINUATION_STAGES = 4

#: Auxiliary components whose smallest quadrature value is at or below zero
#: get shifted up to this level before the first barrier evaluation.
_INTERIOR_MARGIN = 1e-2


@dataclass
class SolverOptions:
    """Tolerances and schedule of the damped-Newton solve."""

    grad_tol: Optional[float] = None  # default 1e-8 * max(1, sqrt(N))
    max_iters: int = 200
    continuation: Optional[Sequence[tuple[float, float]]] = None

    def __post_init__(self) -> None:
        if self.grad_tol is not None:
            check_positive("grad_tol", self.grad_tol)
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
    objective_history: list[float] = field(default_factory=list)


@dataclass
class SolveReport:
    x_final: CoefficientVector
    status: str
    stages: list[StageResult]
    grad_norm: float
    terms: Optional[ObjectiveTerms]
    residual: float
    multipliers: MultiplierSet
    min_z: float

    @property
    def iterations(self) -> list[int]:
        return [s.iterations for s in self.stages]

    @property
    def total_iterations(self) -> int:
        return sum(self.iterations)


def default_start(nlp: AssembledNlp) -> CoefficientVector:
    """Interior starting point: hinted differential values, auxiliaries at max(1, tau).

    The basis is nodal, so a component's coefficients are its values at the nodes.
    """
    space, hint = nlp.space, nlp.problem.initial_guess
    values = np.zeros(space.N)
    if hint is not None:
        for comp in range(space.n_y):
            index, ts = space.nodes(comp)
            values[index] = np.fromiter((float(hint(float(t))[comp]) for t in ts), float)
    for index in space.index_map[space.n_y :]:
        values[index.ravel()] = max(1.0, nlp.params.tau)
    return ensure_interior(nlp, space.coefficient_vector(values))


def ensure_interior(nlp: AssembledNlp, x: CoefficientVector) -> CoefficientVector:
    """Shift auxiliary components whose quadrature values are not positive."""
    mins = nlp.z_values(x).min(axis=0)
    if (mins > 0).all():
        return x
    values = x.values.copy()
    for comp_z, low in enumerate(mins):
        if low <= 0:
            # auxiliary blocks are disjoint: one add per coefficient
            values[nlp.space.index_map[nlp.space.n_y + comp_z].ravel()] += _INTERIOR_MARGIN - low
    return x.replace_values(values)


def _schedule(
    omega: float, tau: float, continuation: Optional[Sequence[tuple[float, float]]]
) -> list[tuple[float, float]]:
    """The (omega, tau) stages: by default geometric from max(omega, 0.1), max(tau, 0.1),
    then the target; a repeat of the stage before would take no step and is dropped."""
    if continuation is None:
        start_omega, start_tau = max(omega, 1e-1), max(tau, 1e-1)
        fracs = [i / (_CONTINUATION_STAGES - 1) for i in range(_CONTINUATION_STAGES)]
        pairs = [(start_omega ** (1 - f) * omega**f, start_tau ** (1 - f) * tau**f) for f in fracs]
    else:
        pairs = [(float(w), float(t)) for w, t in continuation]
    pairs.append((omega, tau))
    return [pair for i, pair in enumerate(pairs) if i == 0 or pair != pairs[i - 1]]


def _newton_direction(
    band: np.ndarray, grad: np.ndarray, floor: float
) -> Optional[np.ndarray]:
    """Solve (H + delta I) p = -g for H in lower band form, doubling delta until PD;
    the band is left unchanged, as a shifted retry factors a copy of it."""
    if not np.isfinite(band).all():
        raise ValueError("array must not contain infs or NaNs")
    # hessian_band's band is Fortran-contiguous, so the copy pbtrf overwrites is one memcpy
    delta, (factor, info) = 0.0, _PBTRF(band.copy(order="F"), lower=1, overwrite_ab=1)
    while info != 0:
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of internal pbtrf")
        delta = floor if delta == 0.0 else 2.0 * delta
        if delta > _MAX_SHIFT_FACTOR * floor:
            return None
        shifted = band.copy(order="F")
        shifted[0] += delta
        factor, info = _PBTRF(shifted, lower=1, overwrite_ab=1)
    return _PBTRS(factor, -grad, lower=1, overwrite_b=1)[0]


def _newton_step(
    nlp: AssembledNlp, x: CoefficientVector, grad: np.ndarray
) -> Optional[np.ndarray]:
    """Inertia-corrected Newton step at x, solved in the layout's ``band_order``."""
    band, layout = nlp.hessian_band(x), nlp.hessian_layout
    step = _newton_direction(band, grad[layout.band_order], _REGULARIZATION_FLOOR)
    return None if step is None else step[layout.band_position]


def _boundary_cap(nlp: AssembledNlp, x: CoefficientVector, step: np.ndarray) -> float:
    n_y, B = nlp.space.n_y, nlp.space.block_width
    z = nlp.z_values(x)
    dz = (nlp.eval_op @ step).reshape(nlp.M, B)[:, 2 * n_y :]
    shrinking = dz < 0
    if not shrinking.any():
        return 1.0
    caps = _BOUNDARY_FRACTION * z[shrinking] / -dz[shrinking]
    return min(1.0, float(caps.min()))


def _stage_status(
    history: list[float], norms: list[float], tol: float, max_iters: int
) -> Optional[str]:
    """How the stage ends at its latest iterate, or None to take another step;
    ``history`` and ``norms`` hold F and |g| at every iterate of the stage."""
    if norms[-1] <= tol:
        return STATUS_CONVERGED
    k = _FLOOR_STEPS
    if len(history) > k and min(norms[-k:]) >= min(norms[:-k]):
        changes = zip(history[-k - 1 : -1], history[-k:])
        if all(abs(new - old) <= _FLOOR_REL_CHANGE * abs(new) for old, new in changes):
            return STATUS_ROUNDING_FLOOR
    if len(history) - 1 >= max_iters:
        return STATUS_MAX_ITERS
    return None


def _newton_stage(
    nlp: AssembledNlp, x: CoefficientVector, opts: SolverOptions, tol: float
) -> tuple[CoefficientVector, StageResult]:
    omega, tau = nlp.params.omega, nlp.params.tau
    try:
        total = nlp.objective_terms(x).total
    except BarrierDomainError:
        return x, StageResult(omega, tau, 0, math.inf, math.inf, math.inf, STATUS_BARRIER)
    history, norms = [total], []
    while True:
        grad = nlp.gradient(x)
        norms.append(math.sqrt(grad @ grad))
        status = _stage_status(history, norms, tol, opts.max_iters)
        if status is not None:
            break
        step = _newton_step(nlp, x, grad)
        slope = math.inf if step is None else float(grad @ step)
        if slope >= 0.0:  # no descent direction: a gradient step
            step = -grad
            slope = float(grad @ step)
        alpha = _boundary_cap(nlp, x, step)
        for _ in range(_LS_MAX_BACKTRACKS):
            trial_values = x.values + alpha * step
            if np.isfinite(trial_values).all():
                trial = x.replace_values(trial_values)
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
        history.append(total)
    residual = nlp.residual_value(x)
    return x, StageResult(omega, tau, len(history) - 1, norms[-1], total, residual, status, history)


def solve(
    nlp: AssembledNlp,
    x0: Optional[CoefficientVector] = None,
    opts: Optional[SolverOptions] = None,
) -> SolveReport:
    """Minimize the assembled program, continuing over decreasing (omega, tau)."""
    opts = opts or SolverOptions()
    tol = opts.resolved_grad_tol(nlp.N)
    params = nlp.params
    x = default_start(nlp) if x0 is None else ensure_interior(nlp, x0)
    stages: list[StageResult] = []
    for omega, tau in _schedule(params.omega, params.tau, opts.continuation):
        nlp = nlp.with_params(omega, tau)  # a clone keeps the last point data
        x, stage = _newton_stage(nlp, x, opts, tol)
        stages.append(stage)
        if stage.status != STATUS_CONVERGED:
            break

    nlp = nlp.with_params(params.omega, params.tau)  # as does the report's
    status = stages[-1].status
    grad_norm = stages[-1].grad_norm
    try:
        terms = nlp.objective_terms(x)
        grad = nlp.gradient(x)
        grad_norm = math.sqrt(grad @ grad)
    except BarrierDomainError:
        terms = None
    return SolveReport(
        x_final=x,
        status=status,
        stages=stages,
        grad_norm=grad_norm,
        terms=terms,
        residual=nlp.residual_value(x),
        multipliers=nlp.penalty_multipliers(x),
        min_z=float(nlp.z_values(x).min(initial=math.inf)),
    )


def lifted_objective(
    nlp: AssembledNlp, x: CoefficientVector, lam: np.ndarray, nu: np.ndarray
) -> float:
    """Objective of the lifted constrained reformulation at (x, lambda, nu).

    Substituting lambda = H_c / omega, nu = H_b / omega recovers the
    barrier-free part of the unconstrained objective exactly.
    """
    terms = nlp.objective_terms(x)
    omega = nlp.params.omega
    lam = np.asarray(lam, dtype=float)
    nu = np.asarray(nu, dtype=float)
    return (
        terms.f
        + 0.5 * omega * terms.quad_norm
        + 0.5 * omega * (float(lam @ lam) + float(nu @ nu))
    )


def lifted_patterns(nlp: AssembledNlp) -> dict[str, tuple[int, int, np.ndarray, np.ndarray]]:
    """Jacobian patterns of the lifted program as ``{name: (n_rows, n_cols, i, j)}``.

    ``JH_x`` and ``JH_lambda_nu`` are the equality rows ``H(x) - omega (lambda; nu)``,
    ``JG_x`` and ``JG_s`` the slack rows ``Gpt(x) - s``.  Every row of eval_op
    holds the d + 1 coefficients of its source interval, ascending, and the
    components' blocks ascend: coordinates come out sorted by row, then column.
    """
    problem, space, d1 = nlp.problem, nlp.space, nlp.space.degree + 1
    m_rows, slack_rows = problem.m * nlp.M, space.n_z * nlp.M
    eq_rows = m_rows + problem.p
    support = nlp.eval_op.indices.reshape(nlp.M, space.block_width, d1)
    path_cols = support[:, space.n_y :].reshape(nlp.M, -1).repeat(problem.m, axis=0)
    point_cols = np.unique(nlp.point_op.indices)[None].repeat(problem.p, axis=0)
    slack_cols = support[:, 2 * space.n_y :].reshape(slack_rows, d1)
    widths = [path_cols.shape[1]] * m_rows + [point_cols.shape[1]] * problem.p
    jh_rows = np.arange(eq_rows).repeat(widths)
    jh_cols = np.concatenate([path_cols.ravel(), point_cols.ravel()])
    eq_diag, slack_diag = np.arange(eq_rows), np.arange(slack_rows)
    return {
        "JH_x": (eq_rows, nlp.N, jh_rows, jh_cols),
        "JH_lambda_nu": (eq_rows, eq_rows, eq_diag, eq_diag),
        "JG_x": (slack_rows, nlp.N, slack_diag.repeat(d1), slack_cols.ravel()),
        "JG_s": (slack_rows, slack_rows, slack_diag, slack_diag),
    }


def export_lifted_nlp(nlp: AssembledNlp) -> str:
    """Text of the constrained reformulation of the penalty-barrier program.

    Variables are the coefficient vector, one multiplier per scaled
    path-constraint row, one per point constraint, and one slack per
    auxiliary quadrature value.  Positivity is encoded on the slacks through
    Gpt(x), the plain stacked auxiliary values; an interior-point solver run
    with barrier target theta = tau reproduces the unconstrained program.
    The layout is specified in ``docs/lifted_nlp_format.md``.
    """
    problem, omega, tau = nlp.problem, nlp.params.omega, nlp.params.tau
    dims = dict(
        n_y=problem.n_y, n_z=problem.n_z, m=problem.m, p=problem.p, M=nlp.M, n_T=problem.n_T
    )
    lines = ["lifted-nlp v1"] + [f"dim {key} {value}" for key, value in dims.items()]
    lines += [f"param omega {omega!r}", f"param tau {tau!r}", f"param theta {tau!r}"]
    lines += [
        f"var x {nlp.N}",
        f"var lambda {problem.m * nlp.M}",
        f"var nu {problem.p}",
        f"var s {nlp.space.n_z * nlp.M}",
        "objective F(x) + (omega/2)*x'*S*x + (omega/2)*(||lambda||^2 + ||nu||^2)",
        "subjectto H(x) - omega*(lambda;nu) = 0",
        "subjectto Gpt(x) - s = 0",
        "bounds s >= 0",
    ]
    for name, (n_rows, n_cols, rows, cols) in lifted_patterns(nlp).items():
        lines.append(f"pattern {name} {n_rows} {n_cols} {len(rows)}")
        lines += [f"{r} {c}" for r, c in zip(rows.tolist(), cols.tolist())]
    lines += [
        f"option mu_min = {tau!r}  barrier floor handed to an interior-point solver",
        f"option mu_target = {tau!r}  barrier target; theta = tau recovers the penalty-barrier program",
        "end",
    ]
    return "\n".join(lines) + "\n"
