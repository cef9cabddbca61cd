"""Assembly of the discrete penalty-barrier program and its derivatives.

The program minimized over the coefficient vector x is

    F(x) + (omega/2) x'Sx + (1/(2 omega)) (|H_c(x)|^2 + |H_b(x)|^2)
         - tau * sum_j alpha_j sum_k log z_k(rho_j)

where F is the quadrature of the running cost, S the solution-norm Gram
matrix, H_c the sqrt(alpha_j)-scaled path-constraint values, H_b the point
constraints, and the last term the log barrier keeping the auxiliary
components positive.  The weight bookkeeping matrices of the derivation are
realized as inline scalings; only the evaluation operators and S are
materialized because they are reused.
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
from .quadrature import GlobalRule, compose_rule, gauss_legendre_unit
from .mesh import merge_meshes


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
    """Multipliers for the Lagrangian: scalar rho, per-point lambda and mu, nu."""

    rho: float
    lam: np.ndarray
    nu: np.ndarray
    mu: np.ndarray


@dataclass
class _PointData:
    values: np.ndarray  # (M, B) stacked (dy, y, z) rows
    f: np.ndarray
    f_grad: np.ndarray
    f_hess: np.ndarray
    c: Optional[np.ndarray]
    c_jac: Optional[np.ndarray]
    c_hess: Optional[np.ndarray]
    b: np.ndarray
    b_jac: np.ndarray
    b_hess: np.ndarray


class AssembledNlp:
    """Discrete program bound to a problem, space, rule and parameters.

    Immutable apart from a single-slot evaluation cache; ``with_params``
    shares all operators while swapping (omega, tau), which is what the
    continuation schedule of the solver uses.
    """

    def __init__(
        self,
        problem: OcpProblem,
        space: FESpace,
        params: MethodParams,
        rule: Optional[GlobalRule] = None,
    ):
        if (space.n_y, space.n_z) != (problem.n_y, problem.n_z):
            raise ValueError(
                f"space has (n_y, n_z) = {(space.n_y, space.n_z)}, problem needs "
                f"{(problem.n_y, problem.n_z)}"
            )
        if space.domain != problem.domain:
            raise ValueError(
                f"space domain {space.domain} differs from problem domain {problem.domain}"
            )
        self.problem = problem
        self.space = space
        self.params = params
        if rule is None:
            merged = merge_meshes(space.component_meshes)
            rule = compose_rule(merged, gauss_legendre_unit(space.degree + 1))
        self.rule = rule
        self.eval_op = build_eval_operator(space, rule)
        self.point_op = build_point_eval_operator(space, problem.time_points)
        self.regularizer = build_regularizer(space, rule, self.eval_op)
        self._alpha = rule.weights
        self._sqrt_alpha = np.sqrt(rule.weights)
        self._cache_key: Optional[bytes] = None
        self._cache: Optional[_PointData] = None

    @property
    def N(self) -> int:
        return self.space.N

    @property
    def M(self) -> int:
        return self.rule.M

    def with_params(self, omega: float, tau: float) -> "AssembledNlp":
        """Same operators, different penalty/barrier weights."""
        clone = copy.copy(self)
        clone.params = replace(self.params, omega=omega, tau=tau)
        clone._cache_key = None
        clone._cache = None
        return clone

    def coefficients(self, values) -> CoefficientVector:
        return self.space.coefficient_vector(values)

    # -- pointwise evaluation ------------------------------------------------

    def _point_data(self, x: CoefficientVector) -> _PointData:
        key = x.values.tobytes()
        if key == self._cache_key and self._cache is not None:
            return self._cache
        problem, space = self.problem, self.space
        B, M, n_y = space.block_width, self.M, space.n_y
        values = (self.eval_op @ x.values).reshape(M, B)

        f = np.empty(M)
        f_grad = np.empty((M, B))
        f_hess = np.empty((M, B, B))
        if problem.m > 0:
            c = np.empty((M, problem.m))
            c_jac = np.empty((M, problem.m, B))
            c_hess = np.empty((M, problem.m, B, B))
        else:
            c = c_jac = c_hess = None
        for j in range(M):
            dy = values[j, :n_y]
            y = values[j, n_y : 2 * n_y]
            z = values[j, 2 * n_y :]
            t = float(self.rule.points[j])
            f[j], f_grad[j], f_hess[j] = eval_running_cost(
                problem, dy, y, z, t, point_index=j
            )
            if problem.m > 0:
                c[j], c_jac[j], c_hess[j] = eval_path_constraints(
                    problem, dy, y, z, t, point_index=j
                )

        if problem.p > 0:
            b, b_jac, b_hess = eval_point_constraints(problem, self.point_op @ x.values)
        else:
            width = problem.n_y * problem.n_T
            b = np.zeros(0)
            b_jac = np.zeros((0, width))
            b_hess = np.zeros((0, width, width))

        data = _PointData(values, f, f_grad, f_hess, c, c_jac, c_hess, b, b_jac, b_hess)
        self._cache_key = key
        self._cache = data
        return data

    def z_values(self, x: CoefficientVector) -> np.ndarray:
        """Auxiliary-component values at the quadrature points, shape (M, n_z)."""
        data = self._point_data(x)
        return data.values[:, 2 * self.space.n_y :]

    def _checked_z(self, data: _PointData) -> np.ndarray:
        z = data.values[:, 2 * self.space.n_y :]
        if z.size and z.min() <= 0.0:
            j, k = np.unravel_index(np.argmin(z), z.shape)
            raise BarrierDomainError(j, k, z[j, k])
        return z

    # -- objective, blocks, derivatives --------------------------------------

    def objective_terms(self, x: CoefficientVector) -> ObjectiveTerms:
        """All objective terms at x; raises BarrierDomainError if some z <= 0."""
        data = self._point_data(x)
        omega, tau = self.params.omega, self.params.tau
        f_term = float(self._alpha @ data.f)
        quad_norm = float(x.values @ (self.regularizer @ x.values))
        h_c, h_b = self.penalty_blocks(x)
        penalty = (float(h_c @ h_c) + float(h_b @ h_b)) / (2.0 * omega)
        if self.space.n_z > 0:
            z = self._checked_z(data)
            barrier = tau * float(self._alpha @ np.log(z).sum(axis=1))
        else:
            barrier = 0.0
        total = f_term + 0.5 * omega * quad_norm + penalty - barrier
        return ObjectiveTerms(f_term, quad_norm, penalty, barrier, total)

    def penalty_blocks(self, x: CoefficientVector) -> tuple[np.ndarray, np.ndarray]:
        """H_c (sqrt(alpha_j) c_j stacked) and H_b (point-constraint values)."""
        data = self._point_data(x)
        if self.problem.m > 0:
            h_c = (self._sqrt_alpha[:, None] * data.c).ravel()
        else:
            h_c = np.zeros(0)
        return h_c, data.b.copy()

    def residual_value(self, x: CoefficientVector) -> float:
        """Squared constraint residual |H_c|^2 + |H_b|^2."""
        h_c, h_b = self.penalty_blocks(x)
        return float(h_c @ h_c) + float(h_b @ h_b)

    def gradient(self, x: CoefficientVector) -> np.ndarray:
        """Gradient of the total objective with respect to the coefficients."""
        data = self._point_data(x)
        omega, tau = self.params.omega, self.params.tau
        B, n_y = self.space.block_width, self.space.n_y
        w = self._alpha[:, None] * data.f_grad
        if self.problem.m > 0:
            w += (self._alpha / omega)[:, None] * np.einsum(
                "jib,ji->jb", data.c_jac, data.c
            )
        if self.space.n_z > 0:
            z = self._checked_z(data)
            w[:, 2 * n_y :] -= tau * self._alpha[:, None] / z
        grad = self.eval_op.T @ w.ravel() + omega * (self.regularizer @ x.values)
        if self.problem.p > 0:
            grad += (self.point_op.T @ (data.b_jac.T @ data.b)) / omega
        return np.asarray(grad)

    def constraint_jacobians(self, x: CoefficientVector) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
        """Jacobians of H_c (m M x N) and H_b (p x N) at x."""
        data = self._point_data(x)
        if self.problem.m > 0:
            blocks = self._sqrt_alpha[:, None, None] * data.c_jac
            jac_c = (_block_rect(blocks) @ self.eval_op).tocsr()
        else:
            jac_c = sparse.csr_matrix((0, self.N))
        if self.problem.p > 0:
            jac_b = (sparse.csr_matrix(data.b_jac) @ self.point_op).tocsr()
        else:
            jac_b = sparse.csr_matrix((0, self.N))
        return jac_c, jac_b

    def _sandwich(self, blocks: np.ndarray) -> sparse.csr_matrix:
        """P' blockdiag(blocks) P for per-point (B, B) blocks."""
        B, M = self.space.block_width, self.M
        row_t = np.repeat(np.arange(B), B)
        col_t = np.tile(np.arange(B), B)
        offsets = (np.arange(M) * B)[:, None]
        rows = (offsets + row_t[None, :]).ravel()
        cols = (offsets + col_t[None, :]).ravel()
        mid = sparse.coo_matrix(
            (blocks.reshape(M, B * B).ravel(), (rows, cols)), shape=(B * M, B * M)
        ).tocsr()
        return (self.eval_op.T @ mid @ self.eval_op).tocsr()

    def full_hessian(self, x: CoefficientVector) -> sparse.csr_matrix:
        """Exact Hessian of the total objective at x.

        Combines the curvature of f, the Gauss-Newton and curvature terms of
        the penalties, the barrier diagonal tau alpha_j / z^2, and omega S.
        """
        data = self._point_data(x)
        omega, tau = self.params.omega, self.params.tau
        B, n_y, n_z = self.space.block_width, self.space.n_y, self.space.n_z
        blocks = self._alpha[:, None, None] * data.f_hess
        if self.problem.m > 0:
            gauss_newton = np.einsum("jia,jib->jab", data.c_jac, data.c_jac)
            curvature = np.einsum("ji,jiab->jab", data.c, data.c_hess)
            blocks = blocks + (self._alpha / omega)[:, None, None] * (
                gauss_newton + curvature
            )
        if n_z > 0:
            z = self._checked_z(data)
            idx = np.arange(2 * n_y, B)
            blocks[:, idx, idx] += tau * self._alpha[:, None] / z**2
        hess = self._sandwich(blocks) + omega * self.regularizer
        if self.problem.p > 0:
            point_block = (
                data.b_jac.T @ data.b_jac
                + np.einsum("i,iab->ab", data.b, data.b_hess)
            ) / omega
            hess = hess + self.point_op.T @ sparse.csr_matrix(point_block) @ self.point_op
        return _symmetrized(hess)

    def lagrangian_hessian(
        self, x: CoefficientVector, multipliers: MultiplierSet
    ) -> sparse.csr_matrix:
        """Hessian of the Lagrangian rho (F + omega/2 |x|_S^2) - lam'H_c - nu'H_b - mu'G.

        Per quadrature point the block is alpha_j rho f''_j minus
        sqrt(alpha_j) lam_j' c''_j; the barrier block contributes the
        curvature diag(alpha_j mu_jk / z_k^2), so that with the barrier
        multipliers mu = tau it matches the barrier term of the objective.
        """
        problem, space = self.problem, self.space
        lam = np.asarray(multipliers.lam, dtype=float)
        nu = np.asarray(multipliers.nu, dtype=float)
        mu = np.asarray(multipliers.mu, dtype=float)
        if lam.shape != (problem.m * self.M,):
            raise ValueError(f"lambda has shape {lam.shape}, expected ({problem.m * self.M},)")
        if nu.shape != (problem.p,):
            raise ValueError(f"nu has shape {nu.shape}, expected ({problem.p},)")
        if mu.shape != (space.n_z * self.M,):
            raise ValueError(f"mu has shape {mu.shape}, expected ({space.n_z * self.M},)")

        data = self._point_data(x)
        omega = self.params.omega
        B, n_y, n_z = space.block_width, space.n_y, space.n_z
        blocks = (multipliers.rho * self._alpha)[:, None, None] * data.f_hess
        if problem.m > 0 and lam.any():
            lam_points = lam.reshape(self.M, problem.m)
            blocks = blocks - self._sqrt_alpha[:, None, None] * np.einsum(
                "ji,jiab->jab", lam_points, data.c_hess
            )
        if n_z > 0 and mu.any():
            z = self._checked_z(data)
            mu_points = mu.reshape(self.M, n_z)
            idx = np.arange(2 * n_y, B)
            blocks[:, idx, idx] += self._alpha[:, None] * mu_points / z**2
        hess = (multipliers.rho * omega) * self.regularizer + self._sandwich(blocks)
        if problem.p > 0 and nu.any():
            point_block = np.einsum("i,iab->ab", nu, data.b_hess)
            hess = hess - self.point_op.T @ sparse.csr_matrix(point_block) @ self.point_op
        dense_max = max(1.0, abs(hess).max() if hess.nnz else 0.0)
        asym = abs(hess - hess.T).max() if hess.nnz else 0.0
        if asym > 1e-10 * dense_max:
            raise RuntimeError(
                f"assembled Lagrangian Hessian lost symmetry: max asymmetry {asym}"
            )
        return _symmetrized(hess)

    def penalty_multipliers(self, x: CoefficientVector) -> MultiplierSet:
        """Multiplier estimates induced by the penalty terms at x.

        lambda = -H_c / omega and nu = -H_b / omega make the Lagrangian
        gradient match the penalty gradient; mu = tau are the barrier
        multipliers under the curvature convention of lagrangian_hessian.
        """
        h_c, h_b = self.penalty_blocks(x)
        omega = self.params.omega
        return MultiplierSet(
            rho=1.0,
            lam=-h_c / omega,
            nu=-h_b / omega,
            mu=np.full(self.space.n_z * self.M, self.params.tau),
        )

    # -- structural patterns ---------------------------------------------------

    def structural_patterns(self) -> dict[str, sparse.csr_matrix]:
        """Sparsity patterns of the lifted-program Jacobians (x-independent).

        Per-point derivative blocks are taken structurally dense and the
        evaluation operator stores its structural zeros, so the patterns are
        safe for any problem instance on this space.
        """
        problem = self.problem
        B, M, N = self.space.block_width, self.M, self.N
        support = self.eval_op.copy()
        support.data = np.ones_like(support.data)

        if problem.m > 0:
            dense_blocks = np.ones((M, problem.m, B))
            jac_c = (_block_rect(dense_blocks) @ support).tocsr()
        else:
            jac_c = sparse.csr_matrix((0, N))
        if problem.p > 0:
            bool_pt = self.point_op.copy()
            bool_pt.data = np.ones_like(bool_pt.data)
            jac_b = (sparse.csr_matrix(np.ones((problem.p, bool_pt.shape[0]))) @ bool_pt).tocsr()
        else:
            jac_b = sparse.csr_matrix((0, N))
        h_x = sparse.vstack([jac_c, jac_b]).tocsr() if (problem.m or problem.p) else sparse.csr_matrix((0, N))

        n_z = self.space.n_z
        if n_z > 0:
            z_rows = (
                (np.arange(M) * B)[:, None] + np.arange(2 * self.space.n_y, B)[None, :]
            ).ravel()
            g_x = support[z_rows, :].tocsr()
        else:
            g_x = sparse.csr_matrix((0, N))
        return {"H_x": h_x, "G_x": g_x}


def _block_rect(blocks: np.ndarray) -> sparse.csr_matrix:
    """Block-diagonal rectangular matrix from per-point (r, c) blocks."""
    M, r, c = blocks.shape
    row_t = np.repeat(np.arange(r), c)
    col_t = np.tile(np.arange(c), r)
    rows = ((np.arange(M) * r)[:, None] + row_t[None, :]).ravel()
    cols = ((np.arange(M) * c)[:, None] + col_t[None, :]).ravel()
    return sparse.coo_matrix(
        (blocks.ravel(), (rows, cols)), shape=(M * r, M * c)
    ).tocsr()


def _symmetrized(mat: sparse.spmatrix) -> sparse.csr_matrix:
    out = ((mat + mat.T) * 0.5).tocsr()
    out.eliminate_zeros()
    return out
