"""Global finite-element spaces and their sparse evaluation operators.

A space couples one mesh per solution component with a single polynomial
degree, the one record of its basis: the Gauss-Lobatto nodes and basis rows
are looked up by ``degree``.  Differential components (the first ``n_y``)
are kept continuous by sharing endpoint coefficients between neighbouring
intervals; auxiliary components (the remaining ``n_z``) are discontinuous.
Coefficients are numbered component-major, then interval-major, then by
local basis index.  Components whose meshes have equal breakpoints form one
of the space's ``mesh_groups``, and set-up works once per group, not once
per component.  An evaluation operator makes one ``Mesh.interval_index``
call per group at the rule's interval midpoints, which finds the interval
holding each rule interval and checks that the rule refines the merge of the
meshes, and one ``eval_basis`` call, with slopes only for a group holding a
differential component.  Only the columns come from each component's own
``index_map``.
The CSR arrays of the evaluation operator are the one record of which
coefficients each quadrature point touches: every row holds the d + 1
coefficients of its component's source interval, zero basis values
included, so the Hessian's band order and the lifted export's patterns are
read off them (``assembly.HessianLayout``, ``solver.lifted_patterns``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sparse

from .mesh import ENDPOINT_COLLAPSE_RTOL, Mesh
from .polybasis import check_degree, eval_basis, gauss_lobatto_nodes
from .quadrature import GlobalRule

_FOREIGN_RULE = "quadrature rule was not composed over the merged mesh of this space"


@dataclass(frozen=True)
class FESpace:
    """Piecewise-polynomial space over per-component meshes.

    ``index_map[c][k, a]`` is the global coefficient index of local basis
    function ``a`` on interval ``k`` of component ``c``.
    """

    component_meshes: tuple[Mesh, ...]
    degree: int
    n_y: int
    n_z: int
    index_map: tuple[np.ndarray, ...]
    N: int

    @property
    def n_x(self) -> int:
        return self.n_y + self.n_z

    @property
    def domain(self) -> tuple[float, float]:
        return self.component_meshes[0].domain

    @property
    def block_width(self) -> int:
        """Rows per quadrature point in the evaluation operator: 2 n_y + n_z."""
        return 2 * self.n_y + self.n_z

    @cached_property
    def mesh_groups(self) -> tuple[tuple[Mesh, tuple[int, ...]], ...]:
        """Each distinct component mesh with the components on it, in order of
        first use; meshes with bitwise equal breakpoints are one."""
        groups: dict[bytes, tuple[Mesh, list[int]]] = {}
        for comp, mesh in enumerate(self.component_meshes):
            groups.setdefault(mesh.breakpoints.tobytes(), (mesh, []))[1].append(comp)
        return tuple((mesh, tuple(comps)) for mesh, comps in groups.values())

    def coefficient_vector(self, values) -> "CoefficientVector":
        return CoefficientVector(values, self)

    def interpolate(self, func: Callable[[np.ndarray], np.ndarray]) -> "CoefficientVector":
        """Interpolate ``func``, a map of (K,) times to (K, n_x) values, at the basis
        nodes.  ``func`` is called once per mesh group, at all nodes of the group's
        mesh; each coefficient is written once, a shared endpoint from the right interval."""
        out = np.zeros(self.N)
        nodes = gauss_lobatto_nodes(self.degree)
        for mesh, comps in self.mesh_groups:
            ts = (mesh.breakpoints[:-1, None] + mesh.lengths[:, None] * nodes).ravel()
            values, need = np.asarray(func(ts), dtype=float), (ts.size, self.n_x)
            if values.shape != need:
                raise ValueError(f"interpolated function returns shape {values.shape}, need {need}")
            for comp in comps:
                index = self.index_map[comp].ravel()
                last = np.append(index[1:] != index[:-1], True)
                out[index[last]] = values[last, comp]
        return CoefficientVector(out, self)


@dataclass(frozen=True)
class CoefficientVector:
    """Finite coefficient vector tied to its space; it owns a read-only copy of
    the values it was given."""

    values: np.ndarray
    space: FESpace

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.space.N,):
            raise ValueError(
                f"coefficient vector has shape {vals.shape}, space needs ({self.space.N},)"
            )
        if not np.isfinite(vals).all():
            raise ValueError("coefficient vector contains non-finite entries")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def build_space(meshes: Sequence[Mesh], degree: int, n_y: int, n_z: int) -> FESpace:
    """Assemble the global space from one mesh per component."""
    meshes = tuple(meshes)
    if n_y < 0 or n_z < 0 or n_y + n_z < 1:
        raise ValueError(f"invalid component counts n_y={n_y}, n_z={n_z}")
    if len(meshes) != n_y + n_z:
        raise ValueError(
            f"need {n_y + n_z} meshes (one per component), got {len(meshes)}"
        )
    domain = meshes[0].domain
    for m in meshes[1:]:
        if m.domain != domain:
            raise ValueError(f"domain mismatch: {m.domain} vs {domain}")
    if n_y > 0 and degree < 1:
        raise ValueError(
            "degree 0 cannot represent continuous differential components; "
            "need degree >= 1"
        )
    check_degree(degree)

    start, index_map = 0, []
    for comp, mesh in enumerate(meshes):
        # a continuous component's interval starts on its left neighbour's last index
        stride = degree if comp < n_y else degree + 1
        index = start + stride * np.arange(mesh.n_intervals)[:, None] + np.arange(degree + 1)
        index.flags.writeable = False
        index_map.append(index)
        start = int(index[-1, -1]) + 1
    return FESpace(meshes, degree, n_y, n_z, tuple(index_map), start)


def _basis_table(degree: int, mesh: Mesh, t: np.ndarray, src: np.ndarray, slopes: bool):
    """Basis values on ``mesh`` at times ``t`` in its intervals ``src`` and, with
    ``slopes``, their 1 / |T|-scaled derivatives, else None."""
    lengths = mesh.lengths[src]
    local = np.clip((t - mesh.breakpoints[src]) / lengths, 0.0, 1.0)
    values, derivs = eval_basis(degree, local, slopes=slopes)
    return values, None if derivs is None else derivs / lengths[:, None]


def build_eval_operator(space: FESpace, rule: GlobalRule) -> sparse.csr_matrix:
    """Map coefficients to stacked per-point values.

    For each quadrature point rho_j the rows are ordered as the n_y
    derivative values, then the n_y function values of the differential
    components, then the n_z auxiliary values.  Derivative rows carry the
    1 / |T| chain-rule factor of the containing source interval.  Zero basis
    values stay stored, so the stored entries are the structural support.

    The CSR arrays are written directly: every row holds the d + 1
    coefficients of its source interval in local basis order, so ``indices``
    and ``data`` reshape to (M, B, d + 1), a derivative row has the columns
    of its value row, and ``indptr`` steps by d + 1.  Values are computed
    once per mesh group, slopes only for a group holding a differential
    component, and both are copied into the rows of its components.  A rule
    over another domain, or with an interval reaching more than the merge's
    collapse tolerance outside the interval of a group's mesh that holds its
    midpoint, is not composed over the merged mesh and is rejected.
    """
    if rule.mesh.domain != space.domain:
        raise ValueError(_FOREIGN_RULE)
    tol = ENDPOINT_COLLAPSE_RTOL * (space.domain[1] - space.domain[0])
    lefts, rights = rule.mesh.breakpoints[:-1], rule.mesh.breakpoints[1:]
    mids = 0.5 * (lefts + rights)
    B, M, d1, n_y = space.block_width, rule.M, space.degree + 1, space.n_y
    indices = np.empty((M, B, d1), dtype=int)
    data = np.empty((M, B, d1))
    for mesh, comps in space.mesh_groups:
        src = mesh.interval_index(mids)
        lo, hi = mesh.breakpoints[src], mesh.breakpoints[src + 1]
        if (lo - lefts > tol).any() or (rights - hi > tol).any():
            raise ValueError(_FOREIGN_RULE)
        src = src[rule.interval_of]
        differential = comps[0] < n_y  # components are numbered y first
        values, slopes = _basis_table(space.degree, mesh, rule.points, src, slopes=differential)
        for comp in comps:
            cols = space.index_map[comp][src]
            indices[:, n_y + comp], data[:, n_y + comp] = cols, values
            if comp < n_y:
                indices[:, comp], data[:, comp] = cols, slopes
    indptr = np.arange(0, data.size + 1, d1)
    return sparse.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(B * M, space.N))


def build_point_eval_operator(space: FESpace, time_points: Sequence[float]) -> sparse.csr_matrix:
    """Evaluate the differential components at fixed times.

    Row i * n_y + c holds the evaluation of component c at time_points[i].
    Evaluation at an interior mesh point uses the interval on its left; the
    continuity of the differential components makes the choice immaterial.
    The CSR arrays are written in (n_T, n_y, d + 1) order, then zero basis
    values are dropped: the Hessian's band and the export's patterns read the
    stored entries as the coefficients a point constraint couples.
    """
    ts = np.asarray(time_points, dtype=float)
    n_y, d1 = space.n_y, space.degree + 1
    indices = np.empty((ts.size, n_y, d1), dtype=int)
    data = np.empty((ts.size, n_y, d1))
    for mesh, comps in space.mesh_groups:
        src = mesh.interval_index(ts)  # rejects outside times also when n_y = 0
        differential = [comp for comp in comps if comp < n_y]
        if differential:
            values, _ = _basis_table(space.degree, mesh, ts, src, slopes=False)
            for comp in differential:
                indices[:, comp], data[:, comp] = space.index_map[comp][src], values
    indptr = np.arange(0, data.size + 1, d1)
    op = sparse.csr_matrix(
        (data.ravel(), indices.ravel(), indptr), shape=(n_y * ts.size, space.N)
    )
    op.eliminate_zeros()
    return op


def build_regularizer(
    space: FESpace, rule: GlobalRule, eval_op: sparse.csr_matrix
) -> sparse.csr_matrix:
    """Quadrature Gram matrix of the solution-space norm.

    x' S x approximates the H1 norm squared of the differential components
    plus the L2 norm squared of the auxiliary ones: every row block of the
    evaluation operator (derivatives included) is weighted by alpha_j.  A solve
    weights the rows itself, as does the study's x_error; S serves ``ocfem sparsity``.
    """
    B, M = space.block_width, rule.M
    if eval_op.shape != (B * M, space.N):
        raise ValueError(
            f"evaluation operator has shape {eval_op.shape}, expected {(B * M, space.N)}"
        )
    weights = np.repeat(rule.weights, B)
    gram = eval_op.T @ sparse.diags(weights) @ eval_op
    gram = ((gram + gram.T) * 0.5).tocsr()
    gram.eliminate_zeros()
    return gram
