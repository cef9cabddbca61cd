"""Global finite-element spaces and their sparse evaluation operators.

A space couples one mesh per solution component with a single polynomial
degree, the one record of its basis: the Gauss-Lobatto nodes and basis rows
are looked up by ``degree``.  Differential components (the first ``n_y``)
are kept continuous by sharing endpoint coefficients between neighbouring
intervals; auxiliary components (the remaining ``n_z``) are discontinuous.
Coefficients are numbered component-major, then interval-major, then by
local basis index.  Components whose meshes have equal breakpoints form one
of the space's ``mesh_groups``, and set-up works once per group, not once
per component.  An evaluation operator accepts a rule composed over the
merge of the space's meshes or any refinement of it, finds the interval of
each distinct mesh holding each rule interval with one
``mesh.source_intervals`` call, and takes each group's basis values and
slopes from one ``eval_basis(degree, points)`` call; only the columns come
from each component's own ``index_map``.
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

from .mesh import ENDPOINT_COLLAPSE_RTOL, Mesh, source_intervals
from .polybasis import check_degree, eval_basis, gauss_lobatto_nodes
from .quadrature import GlobalRule


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

    def nodes(self, comp: int) -> tuple[np.ndarray, np.ndarray]:
        """Coefficient indices of component ``comp``, each once, and the times of
        their basis nodes; a shared endpoint takes the left node of the right interval."""
        mesh, index = self.component_meshes[comp], self.index_map[comp].ravel()
        nodes = gauss_lobatto_nodes(self.degree)
        ts = (mesh.breakpoints[:-1, None] + mesh.lengths[:, None] * nodes).ravel()
        last = np.append(index[1:] != index[:-1], True)
        return index[last], ts[last]

    def interpolate(self, component_functions: Sequence[Callable[[float], float]]) -> "CoefficientVector":
        """Interpolate one scalar function per component at the basis nodes."""
        if len(component_functions) != self.n_x:
            raise ValueError(
                f"need {self.n_x} component functions, got {len(component_functions)}"
            )
        out = np.zeros(self.N)
        for comp, func in enumerate(component_functions):
            index, ts = self.nodes(comp)
            out[index] = np.fromiter((func(float(t)) for t in ts), float)
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


def _check_rule(space: FESpace, rule: GlobalRule) -> None:
    """Reject a rule whose mesh does not refine every component mesh on the space's
    domain: each component breakpoint must lie within the merge's collapse
    tolerance of a breakpoint of the rule's mesh."""
    points = rule.mesh.breakpoints
    t0, t_end = space.domain
    tol = ENDPOINT_COLLAPSE_RTOL * (t_end - t0)
    ends = np.concatenate([mesh.breakpoints for mesh, _ in space.mesh_groups])
    k = np.clip(np.searchsorted(points, ends), 1, points.size - 1)
    gaps = np.minimum(ends - points[k - 1], points[k] - ends)
    if rule.mesh.domain != space.domain or (gaps > tol).any():
        raise ValueError("quadrature rule was not composed over the merged mesh of this space")


def _basis_table(degree: int, mesh: Mesh, t: np.ndarray, src: np.ndarray):
    """Basis values and 1 / |T|-scaled derivatives on ``mesh`` at times ``t`` in
    its intervals ``src``."""
    lengths = mesh.lengths[src]
    local = np.clip((t - mesh.breakpoints[src]) / lengths, 0.0, 1.0)
    values, derivs = eval_basis(degree, local)
    return values, derivs / lengths[:, None]


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
    of its value row, and ``indptr`` steps by d + 1.  Values and slopes are
    computed once per mesh group and copied into the rows of its components.
    """
    _check_rule(space, rule)
    B, M, d1, n_y = space.block_width, rule.M, space.degree + 1, space.n_y
    groups = space.mesh_groups
    sources = source_intervals([mesh for mesh, _ in groups], rule.mesh.breakpoints)
    src_of_point = sources[rule.interval_of]
    indices = np.empty((M, B, d1), dtype=int)
    data = np.empty((M, B, d1))
    for (mesh, comps), src in zip(groups, src_of_point.T):
        values, slopes = _basis_table(space.degree, mesh, rule.points, src)
        for comp in comps:
            cols = space.index_map[comp][src]
            indices[:, n_y + comp], data[:, n_y + comp] = cols, values
            if comp < n_y:
                indices[:, comp], data[:, comp] = cols, slopes
    indptr = np.arange(0, data.size + 1, d1)
    return sparse.csr_matrix(
        (data.ravel(), indices.ravel(), indptr), shape=(B * M, space.N)
    )


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
            values, _ = _basis_table(space.degree, mesh, ts, src)
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
