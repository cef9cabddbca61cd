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
evaluation operators and the Hessian pattern (``HessianLayout``) are reused.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sparse

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


@dataclass(frozen=True)
class MultiplierSet:
    """Multiplier estimates: lambda per scaled path-constraint row, nu per point constraint."""

    lam: np.ndarray
    nu: np.ndarray


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
    b_jac: np.ndarray
    b_hess: np.ndarray


class HessianLayout:
    """Fixed pattern of the Hessian and the band order it is factored in.

    Each merged interval's element dofs are read off ``eval_op.indices``.
    ``band_order`` sorts the coefficients by first + last merged interval of
    their support, ties kept in the natural numbering (a stable argsort).  On
    a shared mesh each interval's coefficients form one window, shared
    endpoints between windows, so the half-bandwidth is the clique bound
    n_x (d + 1) - 1 whatever the number of intervals (14 for ``lq`` at d = 4);
    per-component meshes give more (``lq-multimesh`` 24).  ``band_position``
    is its inverse.  Values are summed in lower entries, the coefficient pairs
    (i, j) with i at or after j in ``band_order``, sorted by their slot
    offset * N + column in LAPACK lower band storage.
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
        # point_op on its own coefficients, read off its CSR arrays
        op = nlp.point_op
        point_dofs = np.unique(op.indices) if nlp.problem.p > 0 else np.zeros(0, int)
        self.point_eval = np.zeros((op.shape[0], point_dofs.size))
        if point_dofs.size:
            rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
            self.point_eval[rows, np.searchsorted(point_dofs, op.indices)] = op.data
        # flat pairs i >= j of the element and point squares; element matrices are
        # symmetric only to rounding, and natural indices keep values off band_order
        pairs, slots = [], []
        for local_dofs in (dofs, point_dofs):
            rows, cols = np.broadcast_arrays(local_dofs[..., :, None], local_dofs[..., None, :])
            pairs.append(np.flatnonzero(rows >= cols))
            rows, cols = pos[rows.ravel()[pairs[-1]]], pos[cols.ravel()[pairs[-1]]]
            slots.append(np.abs(rows - cols) * N + np.minimum(rows, cols))
        self.element_pairs, self.point_pairs = pairs
        # the lower entry of each element pair, then of each point pair
        self.band_slot, self.target = np.unique(np.concatenate(slots), return_inverse=True)
        # the first lower entry of each offset, where ``hessian_band`` looks for kd
        self.offset_start = np.flatnonzero(np.diff(self.band_slot // N, prepend=-1))


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
        for comp, mesh in enumerate(space.component_meshes):
            if mesh.width_ratio < params.sigma * (1 - _MESH_RATIO_RTOL):
                raise ValueError(
                    f"component {comp} mesh has width ratio {mesh.width_ratio:.6g}, "
                    f"below sigma = {params.sigma}"
                )
        self.problem = problem
        self.space = space
        self.params = params
        rule = compose_rule(
            merge_meshes(space.component_meshes), gauss_legendre_unit(space.degree + 1)
        )
        self.rule = rule
        self.eval_op = build_eval_operator(space, rule)
        self.point_op = build_point_eval_operator(space, problem.time_points)
        self._alpha = rule.weights
        self._sqrt_alpha = np.sqrt(rule.weights)
        self._cache_key: Optional[bytes] = None
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
        key = x.values.tobytes()
        if key == self._cache_key and self._cache is not None:
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
            width = problem.n_y * problem.n_T
            b = np.zeros(0)
            b_jac = np.zeros((0, width))
            b_hess = np.zeros((0, width, width))

        z_min = float(z.min()) if z.size else np.inf
        data = _PointData(values, z, z_min, f, f_grad, f_hess, c, c_jac, c_hess, b, b_jac, b_hess)
        self._cache_key = key
        self._cache = data
        return data

    def z_values(self, x: CoefficientVector) -> np.ndarray:
        """Auxiliary-component values at the quadrature points, shape (M, n_z)."""
        return self._point_data(x).z

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
        if self.space.n_z > 0:
            z = self._checked_z(data)
            barrier = tau * float(self._alpha @ np.log(z).sum(axis=1))
        else:
            barrier = 0.0
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
        B, n_y = self.space.block_width, self.space.n_y
        w = self._alpha[:, None] * (data.f_grad + omega * data.values)
        if self.problem.m > 0:
            w += (self._alpha / omega)[:, None] * np.einsum(
                "jib,ji->jb", data.c_jac, data.c
            )
        if self.space.n_z > 0:
            z = self._checked_z(data)
            w[:, 2 * n_y :] -= tau * self._alpha[:, None] / z
        eval_t, point_t = self._on_first_use("transposes", lambda nlp: (nlp.eval_op.T, nlp.point_op.T))
        grad = eval_t @ w.ravel()
        if self.problem.p > 0:
            grad += (point_t @ (data.b_jac.T @ data.b)) / omega
        return np.asarray(grad)

    def _lower_sums(self, x: CoefficientVector) -> np.ndarray:
        """The Hessian's lower entries at x, in ``hessian_layout.band_slot`` order.

        Per quadrature point the curvature of f, the Gauss-Newton and
        curvature terms of the path penalty, the barrier diagonal
        tau alpha_j / z^2 and omega alpha_j (its share of omega S) form a
        (B, B) block.  Element matrices V_e' blocks V_e and the point term are
        summed into every structurally possible entry, zeros included.
        """
        data = self._point_data(x)
        layout = self.hessian_layout
        omega, tau = self.params.omega, self.params.tau
        B, n_y, n_z = self.space.block_width, self.space.n_y, self.space.n_z
        blocks = self._alpha[:, None, None] * data.f_hess
        if self.problem.m > 0:
            # the path penalty's Gauss-Newton and curvature terms, summed in place
            path = np.einsum("jia,jib->jab", data.c_jac, data.c_jac)
            path += np.einsum("ji,jiab->jab", data.c, data.c_hess)
            path *= (self._alpha / omega)[:, None, None]
            blocks += path
        diagonal = np.einsum("jbb->jb", blocks)  # a writable view
        diagonal += omega * self._alpha[:, None]
        if n_z > 0:
            diagonal[:, 2 * n_y :] += tau * self._alpha[:, None] / self._checked_z(data) ** 2
        local = layout.local_eval  # (E, points x B, L)
        E, rows, L = local.shape
        weighted = blocks.reshape(E, -1, B, B) @ local.reshape(E, -1, B, L)
        element = local.transpose(0, 2, 1) @ weighted.reshape(E, rows, L)
        sums = element.ravel()[layout.element_pairs]
        if self.problem.p > 0:
            point_block = data.b_jac.T @ data.b_jac + np.einsum("i,iab->ab", data.b, data.b_hess)
            point = layout.point_eval.T @ point_block @ layout.point_eval / omega
            sums = np.concatenate([sums, point.ravel()[layout.point_pairs]])
        return np.bincount(layout.target, sums)

    def hessian_band(self, x: CoefficientVector) -> np.ndarray:
        """Exact Hessian at x as LAPACK's (kd + 1, N) lower band in the layout's
        ``band_order``, kd the widest offset holding a nonzero: stored zeros do
        not widen it."""
        values, layout, N = self._lower_sums(x), self.hessian_layout, self.N
        end = values.size
        for start in layout.offset_start[::-1]:  # from the widest offset down
            if values[start:end].any():
                break
            end = start
        kd = int(layout.band_slot[end - 1]) // N if end else 0
        band = np.zeros((kd + 1) * N)
        band[layout.band_slot[:end]] = values[:end]
        return band.reshape(kd + 1, N)

    def full_hessian(self, x: CoefficientVector) -> sparse.csr_matrix:
        """Exact Hessian at x as a CSR matrix, for export and as an oracle: the lower
        entries mirrored, every structurally possible one stored, zeros included."""
        layout = self.hessian_layout
        order, (offset, column) = layout.band_order, np.divmod(layout.band_slot, self.N)
        i, j, off = order[column + offset], order[column], np.flatnonzero(offset)
        values = self._lower_sums(x)
        entries = (np.r_[values, values[off]], (np.r_[i, j[off]], np.r_[j, i[off]]))
        return sparse.coo_matrix(entries, (self.N,) * 2).tocsr()

    def penalty_multipliers(self, x: CoefficientVector) -> MultiplierSet:
        """Multiplier estimates induced by the penalty terms at x.

        With lambda = -H_c / omega and nu = -H_b / omega the penalty gradient
        (J_c' H_c + J_b' H_b) / omega equals -(J_c' lambda + J_b' nu), the
        constraint term of the Lagrangian gradient of F - lambda'H_c - nu'H_b.
        """
        h_c, h_b = self.penalty_blocks(x)
        omega = self.params.omega
        return MultiplierSet(lam=-h_c / omega, nu=-h_b / omega)
