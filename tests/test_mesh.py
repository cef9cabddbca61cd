import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ocfem.mesh import (
    Mesh,
    merge_meshes,
    uniform_mesh,
)


def midpoints(mesh):
    return 0.5 * (mesh.breakpoints[:-1] + mesh.breakpoints[1:])


class TestInterval:
    def test_length(self):
        assert Mesh([0.25, 0.75]).lengths.tolist() == [0.5]

    @pytest.mark.parametrize("left,right", [(1.0, 1.0), (2.0, 1.0)])
    def test_degenerate_rejected(self, left, right):
        with pytest.raises(ValueError, match="strictly increasing"):
            Mesh([left, right])


class TestUniformMesh:
    def test_single_interval_identity(self):
        mesh = uniform_mesh((0.0, 1.0), 1)
        assert mesh.breakpoints.tolist() == [0.0, 1.0]

    def test_equal_split(self):
        mesh = uniform_mesh((0.0, 1.0), 4)
        assert mesh.breakpoints.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_size_and_ratio(self):
        mesh = uniform_mesh((0.0, 2.0), 8)
        assert mesh.mesh_size == pytest.approx(0.25, abs=0)
        assert mesh.width_ratio == 1.0
        assert Mesh([0.0, 0.1, 0.5, 1.0]).width_ratio == 0.1 / 0.5

    def test_invalid_domain(self):
        with pytest.raises(ValueError, match="invalid domain"):
            uniform_mesh((1.0, 0.0), 2)

    def test_invalid_count(self):
        with pytest.raises(ValueError, match="invalid interval count"):
            uniform_mesh((0.0, 1.0), 0)

    @pytest.mark.parametrize("count", [2.5, 2.0, True, np.float64(3.0)])
    def test_count_not_an_integer(self, count):
        # 2.5 would give the breakpoints [0, 0.4, 0.8, 1], a mesh that is not uniform
        with pytest.raises(ValueError, match=re.escape(f"n_intervals must be an integer, got {count!r}")):
            uniform_mesh((0.0, 1.0), count)

    @pytest.mark.parametrize("count", [np.int64(4), np.int32(4), np.uint8(4)])
    def test_numpy_integer_count(self, count):
        assert uniform_mesh((0.0, 1.0), count).breakpoints.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_breakpoints_rejected(self, bad):
        for points in ([0.0, 0.5, bad], [bad, 0.5, 1.0], [0.0, bad, 1.0]):
            with pytest.raises(ValueError, match=f"mesh endpoint {bad} is not finite"):
                Mesh(points)

    @pytest.mark.parametrize("domain", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan)])
    def test_uniform_domain_rejected_without_warning(self, domain):
        bad = next(t for t in domain if not np.isfinite(t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"mesh endpoint {bad} is not finite"):
                uniform_mesh(domain, 2)


class TestBreakpoints:
    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Mesh([0.0, 0.5, 0.5, 1.0])

    def test_two_points_minimum(self):
        with pytest.raises(ValueError, match="at least two"):
            Mesh([0.0])

    def test_lengths(self):
        mesh = Mesh([0.0, 0.1, 1.0])
        assert mesh.lengths == pytest.approx([0.1, 0.9])


class TestMerge:
    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="need at least one mesh to merge"):
            merge_meshes([])

    def test_self_merge(self):
        mesh = uniform_mesh((0.0, 1.0), 2)
        merged = merge_meshes([mesh])
        assert merged.breakpoints == pytest.approx(mesh.breakpoints, abs=0)
        assert np.array_equal(mesh.interval_index(midpoints(merged)), [0, 1])

    def test_two_and_three(self):
        merged = merge_meshes([uniform_mesh((0.0, 1.0), 2), uniform_mesh((0.0, 1.0), 3)])
        expected = np.union1d(
            uniform_mesh((0.0, 1.0), 2).breakpoints,
            uniform_mesh((0.0, 1.0), 3).breakpoints,
        )
        assert merged.n_intervals == 4
        assert merged.breakpoints == pytest.approx(expected, abs=0)

    def test_nested_refinement(self):
        fine = uniform_mesh((0.0, 1.0), 4)
        merged = merge_meshes([uniform_mesh((0.0, 1.0), 2), fine])
        assert merged.breakpoints == pytest.approx(fine.breakpoints, abs=1e-15)
        assert merged.n_intervals == 4

    def test_domain_mismatch(self):
        with pytest.raises(ValueError, match="domain mismatch"):
            merge_meshes([uniform_mesh((0.0, 1.0), 2), uniform_mesh((0.0, 2.0), 2)])

    def test_provenance_points_to_containing_interval(self):
        meshes = [uniform_mesh((0.0, 1.0), 2), uniform_mesh((0.0, 1.0), 3)]
        merged = merge_meshes(meshes)
        mids = midpoints(merged)
        sources = np.column_stack([mesh.interval_index(mids) for mesh in meshes])
        assert sources.shape == (merged.n_intervals, len(meshes))
        for i, mid in enumerate(mids):
            for s, mesh in enumerate(meshes):
                k = sources[i, s]
                assert mesh.breakpoints[k] <= mid <= mesh.breakpoints[k + 1]

    def test_near_duplicate_endpoints_collapse(self):
        eps = 1e-15
        a = Mesh([0.0, 0.5, 1.0])
        b = Mesh([0.0, 0.5 + eps, 1.0])
        merged = merge_meshes([a, b])
        assert merged.n_intervals == 2


breakpoint_lists = st.lists(
    st.integers(min_value=1, max_value=99), min_size=1, max_size=8, unique=True
).map(lambda ks: [0.0] + sorted(k / 100 for k in ks) + [1.0])


class TestMergeProperties:
    @given(breakpoint_lists, breakpoint_lists)
    def test_lengths_cover_domain(self, pts_a, pts_b):
        merged = merge_meshes([Mesh(pts_a), Mesh(pts_b)])
        assert merged.lengths.sum() == pytest.approx(1.0, rel=1e-12)

    @given(breakpoint_lists, breakpoint_lists)
    def test_idempotent(self, pts_a, pts_b):
        sources = [Mesh(pts_a), Mesh(pts_b)]
        merged = merge_meshes(sources)
        again = merge_meshes([merged, *sources])
        assert again.breakpoints == pytest.approx(merged.breakpoints, abs=0)

    @given(breakpoint_lists, st.floats(min_value=0.001, max_value=0.999))
    def test_interior_point_location(self, pts, t):
        mesh = Mesh(pts)
        merged = merge_meshes([mesh, uniform_mesh((0.0, 1.0), 3)])
        bp = merged.breakpoints
        hits = np.flatnonzero((bp[:-1] < t) & (t < bp[1:]))
        if not hits.size:  # t landed on a merged endpoint
            return
        assert len(hits) == 1
        idx = merged.interval_index(t)
        k = mesh.interval_index(midpoints(merged))[idx]
        assert mesh.breakpoints[k] <= t <= mesh.breakpoints[k + 1]

    @given(breakpoint_lists)
    def test_source_endpoints_survive(self, pts):
        mesh = Mesh(pts)
        merged = merge_meshes([mesh, uniform_mesh((0.0, 1.0), 2)])
        merged_pts = merged.breakpoints
        for p in mesh.breakpoints:
            assert np.abs(merged_pts - p).min() <= 1e-12


class TestMeshValidation:
    def test_gap_rejected(self):
        # a breakpoint array has no gaps; an overlap is a decreasing step
        with pytest.raises(ValueError, match="strictly increasing, got 0.5 >= 0.4"):
            Mesh(np.array([0.0, 0.5, 0.4, 1.0]))

    def test_span_rejected(self):
        # the domain is the span of the breakpoints, so one point spans none
        for points in ([0.5], [[0.0, 1.0]]):
            with pytest.raises(ValueError, match="at least two breakpoints"):
                Mesh(np.array(points))
        assert Mesh(np.array([0.25, 0.5, 2.0])).domain == (0.25, 2.0)

    def test_interval_index_left_limit(self):
        mesh = uniform_mesh((0.0, 1.0), 4)
        assert mesh.interval_index(0.0) == 0
        assert mesh.interval_index(0.25) == 0
        assert mesh.interval_index(0.26) == 1
        assert mesh.interval_index(1.0) == 3
        with pytest.raises(ValueError, match="outside"):
            mesh.interval_index(1.5)

    @pytest.mark.parametrize("t", [float("nan"), np.array([0.5, np.nan, 1.0])])
    def test_interval_index_rejects_nan(self, t):
        # NaN fails every comparison, so it must not pass as "not outside"
        with pytest.raises(ValueError, match="outside domain"):
            uniform_mesh((0.0, 1.0), 4).interval_index(t)
