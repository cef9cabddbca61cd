"""Gauss-Legendre quadrature on (0, 1) and its composition over a merged mesh."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .mesh import Mesh

MAX_NODES = 64


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class UnitRule:
    """Quadrature nodes and weights on the unit interval (0, 1)."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class GlobalRule:
    """Composite rule over a mesh: points rho_j, weights alpha_j, j = 1..M.

    ``interval_of[j]`` is the index of the mesh interval containing point j,
    and ``mesh`` is the triangulation the rule was composed over.
    """

    points: np.ndarray
    weights: np.ndarray
    interval_of: np.ndarray
    mesh: Mesh

    @property
    def M(self) -> int:
        return len(self.points)


@lru_cache(maxsize=None)
def gauss_legendre_unit(n_nodes: int) -> UnitRule:
    """Gauss-Legendre rule with ``n_nodes`` nodes on (0, 1), cached per node count.

    Nodes and weights come from the eigen-decomposition of the symmetric
    tridiagonal matrix of the Legendre three-term recurrence, which is
    numerically stable for every supported order, then get mapped affinely
    from (-1, 1) to (0, 1).  Both arrays are read-only, so every caller
    shares one rule.
    """
    if not 1 <= n_nodes <= MAX_NODES:
        raise ValueError(f"unsupported rule order {n_nodes}: need 1..{MAX_NODES}")
    if n_nodes == 1:
        return UnitRule(_readonly(np.array([0.5])), _readonly(np.array([1.0])))
    k = np.arange(1, n_nodes, dtype=float)
    off_diag = k / np.sqrt(4.0 * k * k - 1.0)
    x, vectors = eigh_tridiagonal(np.zeros(n_nodes), off_diag)
    nodes = 0.5 * (x + 1.0)
    # weights on (-1, 1) are 2 * v0^2; the affine map halves them
    weights = vectors[0] ** 2
    return UnitRule(_readonly(nodes), _readonly(weights))


def compose_rule(mesh: Mesh, unit: UnitRule) -> GlobalRule:
    """Apply ``unit`` on every interval of ``mesh``, in interval order."""
    lefts, lengths = mesh.breakpoints[:-1, None], mesh.lengths[:, None]
    interval_of = np.repeat(np.arange(mesh.n_intervals), unit.n_nodes)
    interval_of.flags.writeable = False
    return GlobalRule(
        _readonly((lefts + lengths * unit.nodes).ravel()),
        _readonly((lengths * unit.weights).ravel()),
        interval_of,
        mesh,
    )
