"""Polynomial bases on the unit interval and the minimum-norm constant check.

The finite-element basis of degree d is the Lagrange basis on Gauss-Lobatto
nodes: nodal values are the coefficients and the endpoints are nodes for
d >= 1, so continuity across mesh intervals reduces to sharing endpoint
coefficients.  A basis is named by its degree alone: one barycentric
kernel, ``eval_basis(degree, points)``, returns its values and first
derivatives together.  The values of the L2(0,1)-orthonormal shifted
Legendre basis serve the minimum-norm constant check, where the L2 norm is
the coefficient 2-norm.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import roots_jacobi

from .quadrature import gauss_legendre_unit

MAX_DEGREE = 30

#: Points closer than this to a Lagrange node are evaluated with the exact
#: at-node formulas instead of the barycentric quotient.
_NODE_SNAP = 1e-14

#: Grid resolution used to certify sup norms of polynomials.
_LINF_GRID = 10001


def check_degree(degree: int) -> None:
    """Reject a basis degree outside 0..MAX_DEGREE."""
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"unsupported degree {degree}: need 0..{MAX_DEGREE}")


def gauss_lobatto_nodes(degree: int) -> np.ndarray:
    """Gauss-Lobatto points on [0, 1] for a degree-d basis (d + 1 nodes).

    For d = 0 the single node is the midpoint; for d >= 1 the endpoints are
    included and the interior nodes are the extrema of the degree-d Legendre
    polynomial.
    """
    return _lobatto_data(int(degree))[0].copy()


@lru_cache(maxsize=None)
def _lobatto_data(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, barycentric weights and the basis derivatives at the nodes
    (row k at node k), cached per degree."""
    check_degree(degree)
    if degree == 0:
        nodes = np.array([0.5])
    elif degree == 1:
        nodes = np.array([0.0, 1.0])
    else:
        interior, _ = roots_jacobi(degree - 1, 1.0, 1.0)
        nodes = np.concatenate(([0.0], 0.5 * (interior + 1.0), [1.0]))
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    bary = 1.0 / diff.prod(axis=1)
    at_nodes = np.zeros((degree + 1, degree + 1))
    for k in range(degree + 1):
        others = np.arange(degree + 1) != k
        at_nodes[k, others] = (bary[others] / bary[k]) / (nodes[k] - nodes[others])
        at_nodes[k, k] = -at_nodes[k, others].sum()
    for a in (nodes, bary, at_nodes):
        a.flags.writeable = False
    return nodes, bary, at_nodes


def _check_points(points: np.ndarray) -> np.ndarray:
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.min(initial=0.0) < 0.0 or pts.max(initial=0.0) > 1.0:
        bad = pts[(pts < 0.0) | (pts > 1.0)][0]
        raise ValueError(f"point {bad} outside [0, 1]")
    return pts


def _shifted_legendre(points: np.ndarray, degree: int) -> np.ndarray:
    """Values of the orthonormal shifted Legendre basis, (n_points, degree + 1).

    The three-term recurrence runs on x = 2t - 1 and stays stable through
    degree 30 and beyond.
    """
    t = np.asarray(points, dtype=float)
    x = 2.0 * t - 1.0
    values = np.empty((t.size, degree + 1))
    values[:, 0] = 1.0
    if degree >= 1:
        values[:, 1] = x
    for k in range(1, degree):
        values[:, k + 1] = (
            (2 * k + 1) * x * values[:, k] - k * values[:, k - 1]
        ) / (k + 1)
    return values * np.sqrt(2.0 * np.arange(degree + 1) + 1.0)


def _near_nodes(points: np.ndarray, nodes: np.ndarray):
    """Differences to the nodes, the rows farther than ``_NODE_SNAP`` from
    every node, and for the other rows the index of the first node in reach."""
    diff = points[:, None] - nodes[None, :]
    at_node = np.abs(diff) < _NODE_SNAP
    regular = ~at_node.any(axis=1)
    return diff, regular, at_node[~regular].argmax(axis=1)


def eval_basis(degree: int, points) -> tuple[np.ndarray, np.ndarray]:
    """Degree-d basis values and first derivatives at many points, two (n_points, d + 1)
    matrices from one pass of node distances and barycentric quotients."""
    pts = _check_points(points)
    nodes, bary, at_nodes = _lobatto_data(degree)
    if degree == 0:
        return np.ones((pts.size, 1)), np.zeros((pts.size, 1))
    values = np.empty((pts.size, degree + 1))
    derivs = np.empty_like(values)
    diff, regular, node = _near_nodes(pts, nodes)
    if regular.any():
        d = diff[regular]
        q = bary / d
        q /= q.sum(axis=1, keepdims=True)
        inverse = 1.0 / d
        values[regular] = q
        derivs[regular] = q * (inverse.sum(axis=1, keepdims=True) - inverse)
    values[~regular] = np.eye(degree + 1)[node]
    derivs[~regular] = at_nodes[node]
    return values, derivs


def _unit_value_minimizer(degree: int) -> np.ndarray:
    """Orthonormal coefficients of the minimum-L2 polynomial with value 1 at 0.

    In the orthonormal basis the squared norm is the coefficient 2-norm and
    the value-at-zero constraint is affine, so the minimizer is the closed
    form projection c = phi(0) / ||phi(0)||^2.
    """
    k = np.arange(degree + 1)
    phi0 = np.sqrt(2.0 * k + 1.0) * (-1.0) ** k
    return phi0 / (degree + 1) ** 2


class NormConstantRow(NamedTuple):
    d: int
    computed: float
    expected: float
    abs_error: float


def verify_norm_constants(d_max: int) -> list[NormConstantRow]:
    """Tabulate the minimum L2 norm against 1 / (d + 1) for d = 0..d_max.

    The reported norm is recomputed by Gauss quadrature on the minimizer's
    values rather than read off the closed form.  Additionally certifies on a
    dense grid that the minimizer's sup norm equals its value 1 at t = 0.
    """
    check_degree(d_max)
    grid = np.linspace(0.0, 1.0, _LINF_GRID)
    rows = []
    for d in range(d_max + 1):
        coeffs = _unit_value_minimizer(d)
        rule = gauss_legendre_unit(d + 1)
        vals = _shifted_legendre(rule.nodes, d) @ coeffs
        computed = float(np.sqrt(rule.weights @ vals**2))
        expected = 1.0 / (d + 1)
        rows.append(NormConstantRow(d, computed, expected, abs(computed - expected)))

        grid_vals = _shifted_legendre(grid, d) @ coeffs
        sup = float(np.abs(grid_vals).max())
        at_zero = float(grid_vals[0])
        if abs(sup - at_zero) > 1e-9 or abs(at_zero - 1.0) > 1e-9:
            raise RuntimeError(
                f"sup-norm certificate failed for degree {d}: "
                f"max |v| = {sup}, v(0) = {at_zero}"
            )
    return rows


def norm_constants_csv(rows: Sequence[NormConstantRow]) -> str:
    lines = ["d,computed,expected,error"]
    for r in rows:
        lines.append(f"{r.d},{r.computed!r},{r.expected!r},{r.abs_error!r}")
    return "\n".join(lines) + "\n"
