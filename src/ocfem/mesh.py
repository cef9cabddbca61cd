"""Interval meshes on a one-dimensional domain and their common refinement.

A mesh is one read-only array of finite, strictly increasing breakpoints:
interval k is [breakpoints[k], breakpoints[k + 1]].  Building meshes and
locating points are numpy operations on those arrays; ``Mesh.interval_index``
is the one lookup of the interval holding a time.  Merging walks the sorted
endpoints of all meshes once and returns a plain mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

#: Relative tolerance (scaled by the domain width) below which nearly
#: coincident endpoints are collapsed while merging meshes.  Prevents
#: zero-length intervals when breakpoints agree only up to rounding.
ENDPOINT_COLLAPSE_RTOL = 1e-12


def _finite(points: np.ndarray) -> np.ndarray:
    bad = points[~np.isfinite(points)]
    if bad.size:
        raise ValueError(f"mesh endpoint {bad[0]} is not finite")
    return points


@dataclass(frozen=True, eq=False)
class Mesh:
    """Partition of the domain [breakpoints[0], breakpoints[-1]] into intervals.

    ``breakpoints`` is copied, validated once at construction time (at least
    two finite, strictly increasing values) and stored read-only together
    with the interval ``lengths``, so consumers never re-check it.  Instances
    are immutable and safe to share across workers.
    """

    breakpoints: np.ndarray
    lengths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        points = np.array(self.breakpoints, dtype=float)
        if points.ndim != 1 or points.size < 2:
            raise ValueError("need a 1-D array of at least two breakpoints")
        lengths = np.diff(_finite(points))
        if not (lengths > 0).all():
            k = int(np.argmin(lengths > 0))
            raise ValueError(
                f"breakpoints must be strictly increasing, got {points[k]} >= {points[k + 1]}"
            )
        points.flags.writeable = lengths.flags.writeable = False
        object.__setattr__(self, "breakpoints", points)
        object.__setattr__(self, "lengths", lengths)

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def n_intervals(self) -> int:
        return self.lengths.size

    @property
    def mesh_size(self) -> float:
        """Largest interval length."""
        return float(self.lengths.max())

    @property
    def width_ratio(self) -> float:
        """Smallest over largest interval length, the mesh ratio sigma bounds below."""
        return float(self.lengths.min()) / self.mesh_size

    def interval_index(self, t):
        """Index of the interval holding each time in ``t``; a float gives an int.

        The one statement of the rule: an interior mesh point belongs to the
        interval on its left, the domain start to the first interval.
        """
        t0, t_end = self.domain
        ts = np.asarray(t, dtype=float)
        outside = ~((ts >= t0) & (ts <= t_end))  # NaN is outside too
        if outside.any():
            raise ValueError(f"point {ts[outside][0]} outside domain {self.domain}")
        k = np.minimum(np.searchsorted(self.breakpoints[1:], ts), self.n_intervals - 1)
        return int(k) if k.ndim == 0 else k


def uniform_mesh(domain: tuple[float, float], n_intervals: int) -> Mesh:
    """Equal-length partition of ``domain`` into ``n_intervals`` pieces."""
    t0, t_end = _finite(np.array(domain, dtype=float)).tolist()
    if not t0 < t_end:
        raise ValueError(f"invalid domain ({t0}, {t_end}): need t0 < tE")
    if isinstance(n_intervals, bool) or not isinstance(n_intervals, (int, np.integer)):
        raise ValueError(f"n_intervals must be an integer, got {n_intervals!r}")
    if n_intervals < 1:
        raise ValueError(f"invalid interval count {n_intervals}: need >= 1")
    points = t0 + (t_end - t0) / n_intervals * np.arange(n_intervals + 1)
    points[-1] = t_end
    return Mesh(points)


def merge_meshes(meshes: Sequence[Mesh]) -> Mesh:
    """Common refinement of meshes sharing one domain.

    Walking the sorted endpoints, one is kept when it lies more than
    ``ENDPOINT_COLLAPSE_RTOL`` times the domain width past the last kept one,
    and the last kept one becomes the domain end.  A chain of gaps below the
    tolerance thus keeps a point each time the gaps add up to more than it.
    """
    if not meshes:
        raise ValueError("need at least one mesh to merge")
    domain = meshes[0].domain
    for m in meshes[1:]:
        if m.domain != domain:
            raise ValueError(f"domain mismatch: {m.domain} vs {domain}")
    tol = ENDPOINT_COLLAPSE_RTOL * (domain[1] - domain[0])
    points = np.unique(np.concatenate([m.breakpoints for m in meshes])).tolist()
    kept = points[:1]
    for p in points[1:]:
        if p - kept[-1] > tol:
            kept.append(p)
    kept[-1] = domain[1]
    return Mesh(kept)
