"""Problem definition: dimensions, time grid, derivative-supplying callbacks.

The running cost f and the path constraints c are evaluated at all M
quadrature points of a rule in one call: they receive the read-only stacks
``dy, y: (M, n_y)``, ``z: (M, n_z)`` and ``t: (M,)`` and return the value,
first-derivative and Hessian stacks of every point at once.  Their outputs are
never written, so a callback may return views of its read-only inputs (``z[:, 0]``)
or broadcast constants (``np.broadcast_to``) in place of copies.  The point
constraints b are evaluated once per coefficient vector.

Callbacks must return analytic first and second derivatives; the assembled
Hessians rely on them and a silent finite-difference fallback would corrupt
convergence measurements.  ``check_derivatives(problem, n_samples=, seed=)``
is the supported way to validate user-coded derivatives: it compares them
with central differences at ``n_samples`` random points drawn from ``seed``.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fespace import CoefficientVector, FESpace, build_eval_operator, build_point_eval_operator
from .polybasis import MAX_DEGREE
from .quadrature import GlobalRule

#: (dy, y, z, t) -> (value, gradient over (dy, y, z), Hessian over (dy, y, z))
#: as (M,), (M, B), (M, B, B) stacks, with B = 2 n_y + n_z
RunningCost = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    tuple[np.ndarray, np.ndarray, np.ndarray],
]
#: (dy, y, z, t) -> (values, Jacobian, Hessians) as (M, m), (M, m, B),
#: (M, m, B, B) stacks
PathConstraint = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    tuple[np.ndarray, np.ndarray, np.ndarray],
]
#: stacked y(t_0..t_E) -> (p values, (p, n_y n_T) Jacobian, (p, ., .) Hessians)
PointConstraint = Callable[
    [np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]
]

@dataclass(frozen=True)
class MethodParams:
    """Discretization parameters plus the penalty and barrier weights."""

    h: float
    sigma: float
    d: int
    omega: float
    tau: float

    def __post_init__(self) -> None:
        check_positive("mesh size", self.h)
        if not 0 < self.sigma <= 1:
            raise ValueError(f"invalid mesh ratio {self.sigma}: need 0 < sigma <= 1")
        if not 0 <= self.d <= MAX_DEGREE:
            raise ValueError(f"invalid degree {self.d}: need 0..{MAX_DEGREE}")
        check_positive("penalty parameter omega", self.omega)
        check_positive("barrier parameter tau", self.tau)


def check_positive(name: str, value: float) -> None:
    """Reject a value that is not a finite number above zero (NaN included)."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"invalid {name} {value}: need a finite value > 0")


def default_params(h: float, space: FESpace) -> MethodParams:
    """Default coupling omega = h^(d/2), tau = h^d; an overflowing power is inf.  d is
    the space's degree and sigma its meshes' least width ratio, so ``space`` is admitted."""
    d = space.degree
    sigma = min(mesh.width_ratio for mesh, _ in space.mesh_groups)
    omega = tau = math.inf
    with contextlib.suppress(OverflowError):
        omega = h ** (d / 2)
        tau = float(h) ** d
    return MethodParams(h=h, sigma=sigma, d=d, omega=omega, tau=tau)


@dataclass(frozen=True)
class OcpProblem:
    """Optimal control problem over the time grid ``time_points``.

    Minimize the integral of f(dy, y, z, t) subject to the point conditions
    b(y(t_0), ..., y(t_E)) = 0, the differential-algebraic constraints
    c(dy, y, z, t) = 0 almost everywhere, and z >= 0.  ``initial_guess``, if
    given, maps a (K,) array of times to y's (K, n_y) start values; ``default_start``
    checks the shape.
    """

    n_y: int
    n_z: int
    m: int
    p: int
    time_points: tuple[float, ...]
    f_eval: RunningCost
    c_eval: Optional[PathConstraint] = None
    b_eval: Optional[PointConstraint] = None
    initial_guess: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        for name in ("n_y", "n_z", "m", "p"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.n_x < 1:
            raise ValueError("need at least one solution component")
        object.__setattr__(self, "time_points", tuple(float(t) for t in self.time_points))
        if len(self.time_points) < 2:
            raise ValueError("need at least two time points (t_0 and t_E)")
        for a, b in zip(self.time_points, self.time_points[1:]):
            if not a < b:
                raise ValueError("time points must be strictly increasing")
        if self.m > 0 and self.c_eval is None:
            raise ValueError("m > 0 requires a path-constraint callback")
        if self.p > 0 and self.b_eval is None:
            raise ValueError("p > 0 requires a point-constraint callback")
        if self.m == 0 and self.c_eval is not None:
            raise ValueError("m = 0 leaves the path-constraint callback c_eval unused")
        if self.p == 0 and self.b_eval is not None:
            raise ValueError("p = 0 leaves the point-constraint callback b_eval unused")

    @property
    def n_x(self) -> int:
        return self.n_y + self.n_z

    @property
    def n_T(self) -> int:
        return len(self.time_points)

    @property
    def domain(self) -> tuple[float, float]:
        return (self.time_points[0], self.time_points[-1])


def _checked(what: str, arrays, shapes: list[tuple[int, ...]], batch: bool):
    """Callback outputs as float arrays of the expected shapes, the last symmetric.

    With ``batch`` the leading axis indexes points and each point's Hessians
    are tested against their own scale: asym_j > 1e-12 max(1, max |H_j|).
    A stack with leading stride 0, as ``np.broadcast_to`` returns, holds the
    same Hessians at every point and is tested once.
    """
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    if [a.shape for a in arrays] != shapes:
        got = "/".join(str(a.shape) for a in arrays)
        raise ValueError(
            f"{what} outputs have shapes {got}, expected {'/'.join(map(str, shapes))}"
        )
    hess = arrays[-1]
    width = hess.shape[-1]
    squares = hess.reshape(len(hess) if batch else 1, -1, width, width)
    if squares.strides[0] == 0:
        squares = squares[:1]
    asym = np.abs(squares - squares.swapaxes(2, 3)).max(axis=(1, 2, 3), initial=0.0)
    # the cheap half of the test first: |H_j| is needed only where asym_j > 1e-12;
    # a NaN at one point leaves the others' verdicts as they are
    suspect = (asym > 1e-12).nonzero()[0]
    if suspect.size:
        scale = np.abs(squares[suspect]).max(axis=(1, 2, 3))
        bad = suspect[asym[suspect] > 1e-12 * scale]
        if bad.size:
            j = bad[0]
            where = f" at batch point {j}" if batch else ""
            raise ValueError(f"{what} Hessian is asymmetric{where} (max deviation {asym[j]})")
    return arrays


def _eval_batch(what: str, fn, problem: OcpProblem, values, t, shapes):
    """One call of a running-cost or path-constraint callback on a point stack.

    The callback sees read-only views, so it cannot change the cached point
    values or times behind them.
    """
    values, t = values.view(), t.view()
    values.setflags(write=False)
    t.setflags(write=False)
    n_y = problem.n_y
    try:
        outputs = fn(values[:, :n_y], values[:, n_y : 2 * n_y], values[:, 2 * n_y :], t)
    except Exception as exc:
        raise RuntimeError(
            f"{what} callback failed on a batch of {len(t)} points "
            f"(t={float(t[0])}..{float(t[-1])})"
        ) from exc
    return _checked(what, outputs, shapes, batch=True)


def eval_running_cost(problem: OcpProblem, values: np.ndarray, t: np.ndarray):
    """f at M points, validated: ``values`` holds the (dy, y, z) rows, (M, B)."""
    M, B = values.shape
    return _eval_batch(
        "objective", problem.f_eval, problem, values, t, [(M,), (M, B), (M, B, B)]
    )


def eval_path_constraints(problem: OcpProblem, values: np.ndarray, t: np.ndarray):
    """c at M points, validated: ``values`` holds the (dy, y, z) rows, (M, B)."""
    (M, B), m = values.shape, problem.m
    return _eval_batch(
        "path-constraint", problem.c_eval, problem, values, t,
        [(M, m), (M, m, B), (M, m, B, B)],
    )


def eval_point_constraints(problem: OcpProblem, stacked_y):
    try:
        values, jac, hess = problem.b_eval(np.asarray(stacked_y, dtype=float))
    except Exception as exc:
        raise RuntimeError("point-constraint callback failed") from exc
    width, p = problem.n_y * problem.n_T, problem.p
    return _checked(
        "point-constraint",
        (values, jac, hess),
        [(p,), (p, width), (p, width, width)],
        batch=False,
    )


def residual(
    problem: OcpProblem,
    x_h: CoefficientVector,
    space: FESpace,
    rule: GlobalRule,
) -> float:
    """Squared constraint residual: quadrature of |c|^2 plus |b|^2.

    Deliberately accumulates alpha_j |c_j|^2 point by point, independently of
    the stacked penalty blocks used during assembly, so the two routes check
    each other.
    """
    if (space.n_y, space.n_z) != (problem.n_y, problem.n_z):
        raise ValueError(
            f"space has (n_y, n_z) = {(space.n_y, space.n_z)}, problem needs "
            f"{(problem.n_y, problem.n_z)}"
        )
    total = 0.0
    if problem.m > 0:
        values = (build_eval_operator(space, rule) @ x_h.values).reshape(
            rule.M, space.block_width
        )
        c, _, _ = eval_path_constraints(problem, values, rule.points)
        for j in range(rule.M):
            total += float(rule.weights[j]) * float(c[j] @ c[j])
    if problem.p > 0:
        point_op = build_point_eval_operator(space, problem.time_points)
        b, _, _ = eval_point_constraints(problem, point_op @ x_h.values)
        total += float(b @ b)
    return total


@dataclass
class DerivativeReport:
    """Max relative finite-difference error per callback derivative, by name:
    f_gradient and f_hessian, then c_jacobian and c_hessian when m > 0, then
    b_jacobian and b_hessian when p > 0."""

    n_samples: int
    errors: dict[str, float]

    def __str__(self) -> str:
        lines = [f"  {name}: max relative error {err:.3e}" for name, err in self.errors.items()]
        return "\n".join([f"derivative check over {self.n_samples} samples", *lines])


def _rel_error(approx: np.ndarray, exact: np.ndarray) -> float:
    scale = max(1.0, float(np.abs(exact).max(initial=0.0)))
    return float(np.abs(approx - exact).max(initial=0.0)) / scale


#: Central-difference step, scaled by the argument magnitude.
_FD_STEP = 1e-6


def _fd_errors(func, v0: np.ndarray) -> tuple[float, float]:
    """Relative errors of the first and second derivatives ``func`` codes at v0.

    ``func(v)`` returns (value, first derivative, second derivative).  Central
    differences of the values check the first derivative and central
    differences of the first derivative check the second.
    """
    _, first, second = func(v0)
    steps = _FD_STEP * np.maximum(1.0, np.abs(v0))
    first_fd = np.empty(np.shape(first))
    second_fd = np.empty(np.shape(second))
    for i in range(v0.size):
        vp, vm = v0.copy(), v0.copy()
        vp[i] += steps[i]
        vm[i] -= steps[i]
        value_p, first_p, _ = func(vp)
        value_m, first_m, _ = func(vm)
        first_fd[..., i] = (value_p - value_m) / (2 * steps[i])
        second_fd[..., i] = (first_p - first_m) / (2 * steps[i])
    return _rel_error(first_fd, first), _rel_error(second_fd, second)


def check_derivatives(problem: OcpProblem, *, n_samples: int = 5, seed: int = 0) -> DerivativeReport:
    """Compare coded derivatives against central finite differences.

    Each callback is checked at ``n_samples`` points drawn from ``seed``:
    (dy, y) in [-1, 1], z in [0.5, 1.5] and t in the domain for f and c,
    stacked y in [-1, 1] for b.  Gradients and Jacobians are differenced from
    values; Hessians from the coded first derivatives.  The check only
    reports errors, it never raises on a mismatch.
    """
    for name, count in (("n_samples", n_samples), ("seed", seed)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {count!r}")
    if n_samples < 1:
        raise ValueError(f"derivative check needs n_samples >= 1, got {n_samples}")
    if seed < 0:
        raise ValueError(f"derivative check needs seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    t0, t_end = problem.domain
    errors: dict[str, float] = {}  # in order of first record: f, then c, then b

    def record(first: str, second: str, func, v0: np.ndarray) -> None:
        for name, err in zip((first, second), _fd_errors(func, v0)):
            errors[name] = float(np.maximum(errors.get(name, err), err))  # a NaN stays

    def at_point(evaluate, t: float):
        # one-point batches: (value, first, second) of the point v
        t = np.array([t])
        return lambda v: [out[0] for out in evaluate(problem, v[None], t)]

    for _ in range(n_samples):
        dy, y = rng.uniform(-1.0, 1.0, problem.n_y), rng.uniform(-1.0, 1.0, problem.n_y)
        v0 = np.concatenate([dy, y, rng.uniform(0.5, 1.5, problem.n_z)])
        t = float(rng.uniform(t0, t_end))
        record("f_gradient", "f_hessian", at_point(eval_running_cost, t), v0)
        if problem.m > 0:
            record("c_jacobian", "c_hessian", at_point(eval_path_constraints, t), v0)
    for _ in range(n_samples if problem.p > 0 else 0):
        yv = rng.uniform(-1.0, 1.0, problem.n_y * problem.n_T)
        record("b_jacobian", "b_hessian", lambda v: eval_point_constraints(problem, v), yv)
    return DerivativeReport(n_samples, errors)
