"""Interval meshes on a one-dimensional domain and their common refinement."""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

#: Relative tolerance (scaled by the domain width) below which nearly
#: coincident endpoints are collapsed while merging meshes.  Prevents
#: zero-length intervals when breakpoints agree only up to rounding.
ENDPOINT_COLLAPSE_RTOL = 1e-12


@dataclass(frozen=True)
class Interval:
    """Bounded interval with strictly positive length."""

    left: float
    right: float

    def __post_init__(self) -> None:
        if not self.left < self.right:
            raise ValueError(
                f"interval requires left < right, got ({self.left}, {self.right})"
            )

    @property
    def length(self) -> float:
        return self.right - self.left


@dataclass(frozen=True)
class Mesh:
    """Ordered partition of ``domain`` into contiguous intervals.

    Geometry is validated once at construction time (sorted intervals that
    share endpoints exactly and cover the domain), so consumers never
    re-check it.  Instances are immutable and safe to share across workers.
    """

    intervals: tuple[Interval, ...]
    domain: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", tuple(self.intervals))
        object.__setattr__(
            self, "domain", (float(self.domain[0]), float(self.domain[1]))
        )
        t0, t_end = self.domain
        if not t0 < t_end:
            raise ValueError(f"invalid domain ({t0}, {t_end}): need t0 < tE")
        if not self.intervals:
            raise ValueError("mesh requires at least one interval")
        if self.intervals[0].left != t0 or self.intervals[-1].right != t_end:
            raise ValueError("intervals do not span the domain")
        for a, b in zip(self.intervals, self.intervals[1:]):
            if a.right != b.left:
                raise ValueError(f"gap or overlap between {a} and {b}")

    @property
    def n_intervals(self) -> int:
        return len(self.intervals)

    @cached_property
    def _rights(self) -> tuple[float, ...]:
        return tuple(iv.right for iv in self.intervals)

    def lengths(self) -> np.ndarray:
        return np.array([iv.length for iv in self.intervals])

    @property
    def mesh_size(self) -> float:
        """Largest interval length."""
        return max(iv.length for iv in self.intervals)

    def breakpoints(self) -> np.ndarray:
        return np.array([self.intervals[0].left, *self._rights])

    def interval_index(self, t: float) -> int:
        """Index of the interval containing ``t``.

        Interior mesh points resolve to the interval on their left; the
        domain start resolves to the first interval.
        """
        t0, t_end = self.domain
        if t < t0 or t > t_end:
            raise ValueError(f"point {t} outside domain {self.domain}")
        idx = bisect.bisect_left(self._rights, t)
        return min(idx, self.n_intervals - 1)


@dataclass(frozen=True)
class MergedMesh(Mesh):
    """Common refinement of several meshes over one domain.

    ``provenance[i][s]`` is the index of the interval of source mesh ``s``
    that contains merged interval ``i``.
    """

    provenance: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(
            self, "provenance", tuple(tuple(int(i) for i in row) for row in self.provenance)
        )
        if len(self.provenance) != self.n_intervals:
            raise ValueError("provenance must have one row per merged interval")
        widths = {len(row) for row in self.provenance}
        if len(widths) != 1:
            raise ValueError("provenance rows must all reference the same sources")


def uniform_mesh(domain: tuple[float, float], n_intervals: int) -> Mesh:
    """Equal-length partition of ``domain`` into ``n_intervals`` pieces."""
    t0, t_end = float(domain[0]), float(domain[1])
    if not t0 < t_end:
        raise ValueError(f"invalid domain ({t0}, {t_end}): need t0 < tE")
    if n_intervals < 1:
        raise ValueError(f"invalid interval count {n_intervals}: need >= 1")
    step = (t_end - t0) / n_intervals
    points = t0 + step * np.arange(n_intervals + 1)
    points[-1] = t_end
    intervals = tuple(
        Interval(float(points[k]), float(points[k + 1])) for k in range(n_intervals)
    )
    return Mesh(intervals, (t0, t_end))


def mesh_from_breakpoints(points: Sequence[float]) -> Mesh:
    """Mesh whose interval endpoints are the given strictly increasing reals."""
    pts = [float(p) for p in points]
    if len(pts) < 2:
        raise ValueError("need at least two breakpoints")
    for a, b in zip(pts, pts[1:]):
        if not a < b:
            raise ValueError(f"breakpoints must be strictly increasing, got {a} >= {b}")
    intervals = tuple(Interval(a, b) for a, b in zip(pts, pts[1:]))
    return Mesh(intervals, (pts[0], pts[-1]))


def merged_breakpoints(meshes: Sequence[Mesh]) -> np.ndarray:
    """Endpoints of the common refinement of meshes sharing one domain.

    Endpoints closer than ``ENDPOINT_COLLAPSE_RTOL`` times the domain width
    are collapsed.
    """
    t0, t_end = meshes[0].domain
    tol = ENDPOINT_COLLAPSE_RTOL * (t_end - t0)
    all_points = np.sort(np.concatenate([m.breakpoints() for m in meshes]))
    kept = [t0]
    for p in all_points:
        if p - kept[-1] > tol:
            kept.append(float(p))
    if t_end - kept[-1] <= tol:
        kept[-1] = t_end
    else:
        kept.append(t_end)
    return np.array(kept)


def source_intervals(meshes: Sequence[Mesh], points: np.ndarray) -> np.ndarray:
    """(n, len(meshes)) index of the interval of each mesh holding each midpoint.

    The midpoints are those of the n intervals between consecutive
    ``points``; the lookup is ``Mesh.interval_index``'s.
    """
    mids = 0.5 * (points[:-1] + points[1:])
    return np.column_stack(
        [
            np.minimum(np.searchsorted(m.breakpoints()[1:], mids), m.n_intervals - 1)
            for m in meshes
        ]
    )


def merge_meshes(meshes: Sequence[Mesh]) -> MergedMesh:
    """Common refinement: intervals between all neighbouring source endpoints.

    All meshes must share the same domain.  Endpoints closer than
    ``ENDPOINT_COLLAPSE_RTOL`` times the domain width are collapsed.
    """
    if not meshes:
        raise ValueError("need at least one mesh to merge")
    domain = meshes[0].domain
    for m in meshes[1:]:
        if m.domain != domain:
            raise ValueError(f"domain mismatch: {m.domain} vs {domain}")
    points = merged_breakpoints(meshes)
    intervals = tuple(Interval(a, b) for a, b in zip(points.tolist(), points[1:].tolist()))
    return MergedMesh(intervals, domain, source_intervals(meshes, points))
