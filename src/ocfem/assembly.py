"""Assembly of the discrete penalty-barrier program and its derivatives.

The program minimized over the coefficient vector x is

    F(x) + (omega/2) x'Sx + (1/(2 omega)) (|H_c(x)|^2 + |H_b(x)|^2)
         - tau * sum_j alpha_j sum_k log z_k(rho_j)

where F is the quadrature of the running cost, S the solution-norm Gram
matrix, H_c the sqrt(alpha_j)-scaled path-constraint values, H_b the point
constraints, and the last term the log barrier keeping the auxiliary
components positive.  The weight matrices of the derivation are inline
scalings: x'Sx is sum_j alpha_j |v_j|^2 over the (dy, y, z) rows v_j at the
quadrature points, so objective, gradient and Hessian never form S.  The
evaluation operators are reused; their CSR support (``HessianLayout``, the lifted
export's ``lifted_patterns``) and (dy, y, z) row layout are read in this module only.

The Newton direction (``AssembledNlp.newton_direction``) is solved in the layout's
``band_order``, where LAPACK ``pbtrf`` and ``pbtrs`` factor and solve the Hessian's
(kd + 1, N) lower band at O(N kd^2) time and O(N kd) memory.  kd is the widest offset
holding a nonzero at this step (14, not 1782, for ``lq`` at N = 1793, whose possible
y(t0)-y(tE) coupling is zero); point constraints between distant times widen it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import get_lapack_funcs

from .errors import BarrierDomainError
from .fespace import (
    CoefficientVector,
    FESpace,
    build_eval_operator,
    build_point_eval_operator,
    build_regularizer,
)
from .ocp_model import (
    MethodParams,
    OcpProblem,
    eval_path_constraints,
    eval_point_constraints,
    eval_running_cost,
)
from .quadrature import compose_rule, gauss_legendre_unit
from .mesh import merge_meshes


#: Relative slack of the mesh-ratio check: uniform widths differ in the last bits.
_MESH_RATIO_RTOL = 1e-12

#: Inertia correction: the first shift, which later shifts double, and the largest
#: shift tried, as a multiple of the first.
_REGULARIZATION_FLOOR, _MAX_SHIFT_FACTOR = 1e-12, 1e8

_PBTRF, _PBTRS = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)


def _newton_direction(
    assemble: Callable[[], np.ndarray], grad: np.ndarray, order: np.ndarray
) -> Optional[np.ndarray]:
    """Solve (H + delta I) p = -grad[order] for H in lower band form, delta 0 first, then
    doubling from the floor up to the cap; None if no such shift makes H positive definite.
    Every try takes a fresh Fortran-contiguous band from ``assemble``, adds delta to its
    diagonal and factors it in place: one band is alive per try, and ``grad`` is permuted
    only once a factor exists."""
    delta = 0.0
    while delta <= _MAX_SHIFT_FACTOR * _REGULARIZATION_FLOOR:
        band = assemble()
        if not np.isfinite(band).all():
            raise ValueError("array must not contain infs or NaNs")
        if delta:
            band[0] += delta
        factor, info = _PBTRF(band, lower=1, overwrite_ab=1)
        if info == 0:
            return _PBTRS(factor, -grad[order], lower=1, overwrite_b=1)[0]
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of internal pbtrf")
        del band, factor  # before the next try assembles its own
        delta = _REGULARIZATION_FLOOR if delta == 0.0 else 2.0 * delta
    return None


class ObjectiveTerms(NamedTuple):
    """Value of each objective term; ``total`` subtracts the barrier."""

    f: float
    quad_norm: float
    penalty: float
    barrier: float
    total: float

    @property
    def barrier_free(self) -> float:
        """Objective without the barrier term (penalty part only)."""
        return self.total + self.barrier


@dataclass
class _PointData:
    values: np.ndarray  # (M, B) stacked (dy, y, z) rows
    z: np.ndarray  # (M, n_z) view of the auxiliary columns
    z_min: float  # smallest auxiliary value, inf without auxiliaries
    f: np.ndarray
    f_grad: np.ndarray
    f_hess: np.ndarray
    c: Optional[np.ndarray]
    c_jac: Optional[np.ndarray]
    c_hess: Optional[np.ndarray]
    b: np.ndarray
    b_jac: Optional[np.ndarray]
    b_hess: Optional[np.ndarray]


class HessianLayout:
    """Fixed pattern of the Hessian and the band it is summed and factored in.

    Each merged interval's element dofs are read off ``eval_op.indices``.
    ``band_order`` sorts the coefficients by first + last merged interval of
    their support, ties kept in the natural numbering (a stable argsort).  On
    a shared mesh each interval's coefficients form one window, shared
    endpoints between windows, so the half-bandwidth is the clique bound
    n_x (d + 1) - 1 whatever the number of intervals (14 for ``lq`` at d = 4);
    per-component meshes give more (``lq-multimesh`` 24).  ``band_position``
    is its inverse.  Coefficients ascend in each interval (the numbering is component-
    major), so its natural pairs i >= j are the local lower triangle ``element_lower``;
    ``band_index`` places these E L (L + 1) / 2 entries at ``column * (kd + 1) + offset``
    in the C-order (N, kd + 1) lower band, kd the widest element offset.  The point
    square's pairs i >= j, ``point_lower``, are kept with ``point_offset``, ``point_column``.
    """

    def __init__(self, nlp: "AssembledNlp"):
        space, B, N = nlp.space, nlp.space.block_width, nlp.N
        E, d1, n_x = nlp.rule.mesh.n_intervals, space.degree + 1, space.n_x
        # eval_op on each merged interval's own L coefficients, in the column order
        # of its first point's value rows; block row b is of component b or b - n_y
        dofs = nlp.eval_op.indices.reshape(E, d1, B, d1)[:, 0, space.n_y :].reshape(E, -1)
        local = np.zeros((E, d1, B, n_x, d1))
        local[:, :, np.arange(B), np.r_[: space.n_y, :n_x]] = nlp.eval_op.data.reshape(E, d1, B, d1)
        self.local_eval = local.reshape(E, d1 * B, n_x * d1)
        # first and last merged interval of each coefficient's support
        element = np.repeat(np.arange(E), dofs.shape[1])
        first, last = np.full(N, E), np.zeros(N, int)
        np.minimum.at(first, dofs.ravel(), element)
        np.maximum.at(last, dofs.ravel(), element)
        self.band_order = order = np.argsort(first + last, kind="stable")
        self.band_position = pos = np.empty(N, int)
        pos[order] = np.arange(N)
        # point_op on the coefficients its rows hold
        op = nlp.point_op
        point_dofs = np.unique(op.indices) if nlp.problem.p > 0 else np.zeros(0, int)
        self.point_eval = op[:, point_dofs].toarray()
        # each element's lower triangle: its natural pairs i >= j, as element matrices are
        # symmetric only to rounding and natural indices keep values off band_order
        row, col = np.tril_indices(dofs.shape[1])
        self.element_lower = row * dofs.shape[1] + col
        i, j = pos[dofs[:, row]], pos[dofs[:, col]]
        self.kd = kd = int(np.abs(i - j).max())
        self.band_index = (np.minimum(i, j) * (kd + 1) + np.abs(i - j)).ravel()
        # the point square's pairs i >= j, as point_dofs is sorted
        self.point_lower = np.tril_indices(point_dofs.size)
        i, j = (pos[point_dofs[k]] for k in self.point_lower)
        self.point_offset, self.point_column = np.abs(i - j), np.minimum(i, j)


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


class AssembledNlp:
    """Discrete program bound to a problem, space and parameters.

    The quadrature rule is the (d + 1)-point Gauss rule composed over the
    merged mesh of the space.

    Immutable apart from a single-slot evaluation cache; ``with_params``
    shares all operators while swapping (omega, tau), which is what the
    continuation schedule of the solver uses, and keeps the cache, which does
    not depend on (omega, tau).
    """

    def __init__(self, problem: OcpProblem, space: FESpace, params: MethodParams):
        if (space.n_y, space.n_z) != (problem.n_y, problem.n_z):
            raise ValueError(
                f"space has (n_y, n_z) = {(space.n_y, space.n_z)}, problem needs "
                f"{(problem.n_y, problem.n_z)}"
            )
        if space.domain != problem.domain:
            raise ValueError(
                f"space domain {space.domain} differs from problem domain {problem.domain}"
            )
        if params.d != space.degree:
            raise ValueError(f"params.d = {params.d} differs from space degree {space.degree}")
        for mesh, comps in space.mesh_groups:
            if (ratio := mesh.width_ratio) < params.sigma * (1 - _MESH_RATIO_RTOL):
                raise ValueError(
                    f"component {comps[0]} mesh has width ratio {ratio:.6g}, below sigma = "
                    f"{params.sigma}; pass sigma <= {ratio!r}, as default_params does"
                )
        self.problem = problem
        self.space = space
        self.params = params
        meshes = [mesh for mesh, _ in space.mesh_groups]
        rule = compose_rule(merge_meshes(meshes), gauss_legendre_unit(space.degree + 1))
        self.rule = rule
        self.eval_op = build_eval_operator(space, rule)
        self.point_op = build_point_eval_operator(space, problem.time_points)
        self._alpha = rule.weights
        self._sqrt_alpha = np.sqrt(rule.weights)
        self._cache_values: Optional[np.ndarray] = None
        self._cache: Optional[_PointData] = None
        self._shared: dict = {}  # built on first use, shared by clones

    @property
    def N(self) -> int:
        return self.space.N

    @property
    def M(self) -> int:
        return self.rule.M

    def with_params(self, omega: float, tau: float) -> "AssembledNlp":
        """Same operators and point-data cache, different penalty/barrier weights."""
        clone = copy.copy(self)
        clone.params = replace(self.params, omega=omega, tau=tau)
        return clone

    @property
    def regularizer(self) -> sparse.csr_matrix:
        """Gram matrix S, built on each access; the program weights per-point rows."""
        return build_regularizer(self.space, self.rule, self.eval_op)

    def _on_first_use(self, name: str, build):
        if name not in self._shared:
            self._shared[name] = build(self)
        return self._shared[name]

    @property
    def hessian_layout(self) -> HessianLayout:
        """Fixed pattern of the Hessian, built on first use."""
        return self._on_first_use("layout", HessianLayout)

    def coefficients(self, values) -> CoefficientVector:
        return self.space.coefficient_vector(values)

    # -- evaluation at the quadrature points ----------------------------------

    def _point_data(self, x: CoefficientVector) -> _PointData:
        if x.values is self._cache_values:  # values are read-only: the same array, the same x
            return self._cache
        problem = self.problem
        values = (self.eval_op @ x.values).reshape(self.M, self.space.block_width)
        z = values[:, 2 * self.space.n_y :]
        f, f_grad, f_hess = eval_running_cost(problem, values, self.rule.points)
        if problem.m > 0:
            c, c_jac, c_hess = eval_path_constraints(problem, values, self.rule.points)
        else:
            c = c_jac = c_hess = None
        if problem.p > 0:
            b, b_jac, b_hess = eval_point_constraints(problem, self.point_op @ x.values)
        else:
            b, b_jac, b_hess = np.zeros(0), None, None

        z_min = float(z.min(initial=np.inf))
        data = _PointData(values, z, z_min, f, f_grad, f_hess, c, c_jac, c_hess, b, b_jac, b_hess)
        self._cache_values, self._cache = x.values, data
        return data

    def z_values(self, x: CoefficientVector) -> np.ndarray:
        """Auxiliary-component values at the quadrature points, shape (M, n_z)."""
        return self._point_data(x).z

    def y_step(self, step: np.ndarray) -> np.ndarray:
        """Change of the (dy, y) values along the coefficient step ``step``, shape (M, 2 n_y)."""
        return (self.eval_op @ step).reshape(self.M, self.space.block_width)[:, : 2 * self.space.n_y]

    def z_step(self, step: np.ndarray) -> np.ndarray:
        """Change of the auxiliary values along the coefficient step ``step``, shape (M, n_z)."""
        return (self.eval_op @ step).reshape(self.M, self.space.block_width)[:, 2 * self.space.n_y :]

    @staticmethod
    def _checked_z(data: _PointData) -> np.ndarray:
        z = data.z
        if data.z_min <= 0.0:
            j, k = np.unravel_index(np.argmin(z), z.shape)
            raise BarrierDomainError(j, k, z[j, k])
        return z

    # -- objective, blocks, derivatives --------------------------------------

    def objective_terms(self, x: CoefficientVector) -> ObjectiveTerms:
        """All objective terms at x; raises BarrierDomainError if some z <= 0."""
        data = self._point_data(x)
        omega, tau = self.params.omega, self.params.tau
        f_term = float(self._alpha @ data.f)
        quad_norm = float(self._alpha @ (data.values**2).sum(axis=1))
        penalty = self._residual(data) / (2.0 * omega)
        barrier = tau * float(self._alpha @ np.log(self._checked_z(data)).sum(axis=1))
        total = f_term + 0.5 * omega * quad_norm + penalty - barrier
        return ObjectiveTerms(f_term, quad_norm, penalty, barrier, total)

    def _h_c(self, data: _PointData) -> np.ndarray:
        if self.problem.m > 0:
            return (self._sqrt_alpha[:, None] * data.c).ravel()
        return np.zeros(0)

    def penalty_blocks(self, x: CoefficientVector) -> tuple[np.ndarray, np.ndarray]:
        """H_c (sqrt(alpha_j) c_j stacked) and H_b (point-constraint values)."""
        data = self._point_data(x)
        return self._h_c(data), data.b.copy()

    def _residual(self, data: _PointData) -> float:
        h_c = self._h_c(data)
        return float(h_c @ h_c) + float(data.b @ data.b)

    def residual_value(self, x: CoefficientVector) -> float:
        """Squared constraint residual |H_c|^2 + |H_b|^2."""
        return self._residual(self._point_data(x))

    def gradient(self, x: CoefficientVector) -> np.ndarray:
        """Gradient of the total objective with respect to the coefficients."""
        data = self._point_data(x)
        omega, tau = self.params.omega, self.params.tau
        n_y = self.space.n_y
        w = self._alpha[:, None] * (data.f_grad + omega * data.values)
        if self.problem.m > 0:
            w += (self._alpha / omega)[:, None] * np.einsum(
                "jib,ji->jb", data.c_jac, data.c
            )
        w[:, 2 * n_y :] -= tau * self._alpha[:, None] / self._checked_z(data)
        eval_t, point_t = self._on_first_use("transposes", lambda nlp: (nlp.eval_op.T, nlp.point_op.T))
        grad = eval_t @ w.ravel()
        if self.problem.p > 0:
            grad += (point_t @ (data.b_jac.T @ data.b)) / omega
        return np.asarray(grad)

    def hessian_band(self, x: CoefficientVector) -> np.ndarray:
        """Exact Hessian at x as LAPACK's Fortran-contiguous (kd + 1, N) lower band in
        the layout's ``band_order``; kd is the widest offset holding a nonzero.

        Per quadrature point the curvature of f, the Gauss-Newton and curvature
        terms of the path penalty, the barrier diagonal tau alpha_j / z^2 and
        omega alpha_j (its share of omega S) form a (B, B) block.  The element
        matrices V_e' blocks V_e are written into one buffer, the weighted rows blocks @
        V_e formed in ceil(E rows L / (N (kd + 1))) element slices, so no slice's rows
        outgrow the band; the blocks are dropped before the last slice's squares are
        written.  The buffer's lower triangles (``element_lower``) are taken into a
        C-contiguous array, the buffer is dropped, and one ``np.bincount`` over
        ``band_index`` sums them into the band in element order.  The point square is
        then added in one block, up to the widest offset holding a nonzero point value,
        zeros included.  The band is a new array on every call.

        Memory budget: the element slices are a Newton step's peak, the buffer beside a
        slice's weighted rows (and the blocks) and the N-vectors the next step reads (the
        iterate, the gradient, the point values); no earlier step is alive, and a
        built-in callback's outputs are views or broadcast constants.  From CPython 3.11
        the stage's start is not alive either; on 3.10 a call's arguments stay on its
        caller's stack until it returns, so ``solve`` still holds it.
        """
        data = self._point_data(x)
        layout = self.hessian_layout
        omega, tau = self.params.omega, self.params.tau
        B, n_y, N, kd = self.space.block_width, self.space.n_y, self.N, layout.kd
        blocks = self._alpha[:, None, None] * data.f_hess
        if self.problem.m > 0:
            # the path penalty's Gauss-Newton and curvature terms, summed in place
            path = np.einsum("jia,jib->jab", data.c_jac, data.c_jac)
            path += np.einsum("ji,jiab->jab", data.c, data.c_hess)
            path *= (self._alpha / omega)[:, None, None]
            blocks += path
            del path
        diagonal = np.einsum("jbb->jb", blocks)  # a writable view
        diagonal += omega * self._alpha[:, None]
        diagonal[:, 2 * n_y :] += tau * self._alpha[:, None] / self._checked_z(data) ** 2
        del diagonal
        local = layout.local_eval  # (E, points x B, L)
        E, rows, L = local.shape
        blocks, local_rows = blocks.reshape(E, -1, B, B), local.reshape(E, -1, B, L)
        slices = -(-E * rows * L // (N * (kd + 1)))  # weighted rows of at most a band each
        size = -(-E // slices)
        for start in range(0, E, size):
            part = slice(start, start + size)
            weighted = (blocks[part] @ local_rows[part]).reshape(-1, rows, L)
            if start + size >= E:
                del blocks  # the last slice's rows are formed
            if start == 0:  # after the first rows, and after the blocks if that is all
                squares = np.empty((E, L, L))
            np.matmul(local[part].transpose(0, 2, 1), weighted, out=squares[part])
            del weighted
        squares = squares.reshape(E, L * L).take(layout.element_lower, axis=1)  # C-contiguous
        band = np.bincount(layout.band_index, squares.ravel(), N * (kd + 1)).reshape(N, kd + 1)
        del squares
        if self.problem.p > 0:
            point_block = data.b_jac.T @ data.b_jac + np.einsum("i,iab->ab", data.b, data.b_hess)
            evals, offset = layout.point_eval, layout.point_offset
            point = (evals.T @ point_block @ evals)[layout.point_lower] / omega
            kd = max(kd, int(offset[point != 0].max(initial=0)))
            if kd > layout.kd:  # a nonzero point entry past the element band
                band = np.hstack([band, np.zeros((N, kd - layout.kd))])
            inside = offset <= kd
            band[layout.point_column[inside], offset[inside]] += point[inside]
        while kd and not band[:, kd].any():  # from the widest offset down
            kd -= 1
        return np.ascontiguousarray(band[:, : kd + 1]).T

    def newton_direction(self, x: CoefficientVector, grad: np.ndarray) -> Optional[np.ndarray]:
        """Inertia-corrected Newton step at x for the gradient ``grad``, in the natural
        order, or None when no shift up to the cap gives a direction.  It is solved in the
        layout's ``band_order``; a shifted try assembles ``hessian_band`` anew from the
        cached point data, with no callback call."""
        layout = self.hessian_layout
        step = _newton_direction(lambda: self.hessian_band(x), grad, layout.band_order)
        return None if step is None else step[layout.band_position]

    def full_hessian(self, x: CoefficientVector) -> sparse.csr_matrix:
        """Exact Hessian at x as a CSR matrix, for export and as an oracle: the band's
        entries mirrored, every structurally possible one stored, zeros included."""
        layout, N, band = self.hessian_layout, self.N, self.hessian_band(x)
        column, offset = np.divmod(layout.band_index, layout.kd + 1)
        slots = np.r_[offset * N + column, layout.point_offset * N + layout.point_column]
        offset, column = np.divmod(np.unique(slots), N)  # sorted by (offset, column)
        kd, order = band.shape[0] - 1, layout.band_order
        values = np.where(offset <= kd, band[np.minimum(offset, kd), column], 0.0)
        i, j, off = order[column + offset], order[column], np.flatnonzero(offset)
        entries = (np.r_[values, values[off]], (np.r_[i, j[off]], np.r_[j, i[off]]))
        return sparse.coo_matrix(entries, (N,) * 2).tocsr()

    def penalty_multipliers(self, x: CoefficientVector) -> tuple[np.ndarray, np.ndarray]:
        """Multiplier estimates (lambda, nu) induced by the penalty terms at x,
        lambda per scaled path-constraint row and nu per point constraint.

        With lambda = -H_c / omega and nu = -H_b / omega the penalty gradient
        (J_c' H_c + J_b' H_b) / omega equals -(J_c' lambda + J_b' nu), the
        constraint term of the Lagrangian gradient of F - lambda'H_c - nu'H_b.
        The lifted export's H - omega (lambda; nu) = 0 holds at their negatives.
        """
        h_c, h_b = self.penalty_blocks(x)
        omega = self.params.omega
        return -h_c / omega, -h_b / omega
