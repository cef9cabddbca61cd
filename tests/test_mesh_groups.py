"""Set-up once per distinct mesh: grouping, operators against the per-component
loop, basis calls and slope passes, mesh call counts, the cached unit rule and
the sigma checks."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse

import ocfem.fespace
import ocfem.harness
from ocfem.assembly import AssembledNlp
from ocfem.fespace import build_eval_operator, build_space
from ocfem.harness import benchmark_names, build_setup, get_benchmark
from ocfem.mesh import Mesh, merge_meshes, uniform_mesh
from ocfem.polybasis import eval_basis
from ocfem.quadrature import compose_rule, gauss_legendre_unit


def reference_basis_rows(space, comp, t, src):
    """Columns, values and, for a differential component, scaled slopes of one component."""
    mesh = space.component_meshes[comp]
    lengths = mesh.lengths[src]
    local = np.clip((t - mesh.breakpoints[src]) / lengths, 0.0, 1.0)
    values, derivs = eval_basis(space.degree, local)
    derivs = derivs / lengths[:, None] if comp < space.n_y else None
    return space.index_map[comp][src], values, derivs


def reference_eval_operator(space, rule):
    """The evaluation operator built component by component."""
    B, M, d1, n_y = space.block_width, rule.M, space.degree + 1, space.n_y
    points = rule.mesh.breakpoints
    mids = 0.5 * (points[:-1] + points[1:])
    sources = np.column_stack([mesh.interval_index(mids) for mesh in space.component_meshes])
    src_of_point = sources[rule.interval_of]
    indices = np.empty((M, B, d1), dtype=int)
    data = np.empty((M, B, d1))
    for comp in range(space.n_x):
        cols, values, derivs = reference_basis_rows(space, comp, rule.points, src_of_point[:, comp])
        indices[:, n_y + comp], data[:, n_y + comp] = cols, values
        if derivs is not None:
            indices[:, comp], data[:, comp] = cols, derivs
    indptr = np.arange(0, data.size + 1, d1)
    return sparse.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(B * M, space.N))


def reference_point_operator(space, time_points):
    """The point operator built component by component."""
    ts = np.asarray(time_points, dtype=float)
    n_y, d1 = space.n_y, space.degree + 1
    space.component_meshes[0].interval_index(ts)
    indices = np.empty((ts.size, n_y, d1), dtype=int)
    data = np.empty((ts.size, n_y, d1))
    for comp in range(n_y):
        src = space.component_meshes[comp].interval_index(ts)
        indices[:, comp], data[:, comp], _ = reference_basis_rows(space, comp, ts, src)
    indptr = np.arange(0, data.size + 1, d1)
    op = sparse.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(n_y * ts.size, space.N))
    op.eliminate_zeros()
    return op


def assert_same_csr(got, expected):
    assert got.shape == expected.shape
    assert got.has_sorted_indices == expected.has_sorted_indices
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


STRETCHED = [0.0, 0.1, 0.35, 0.5, 0.9, 1.0]

#: Explicit breakpoint lists where two components get equal but distinct meshes.
EQUAL_COPIES = [
    ("lq", 3, [STRETCHED, list(STRETCHED), [0.0, 0.5, 1.0]], ((0, 1), (2,))),
    ("lq", 2, [[0.0, 0.5, 1.0], STRETCHED, list(STRETCHED)], ((0,), (1, 2))),
    ("lq-multimesh", 4, [STRETCHED, [0.0, 0.3, 1.0], list(STRETCHED)], ((0, 2), (1,))),
    ("trivial", 2, [STRETCHED, list(STRETCHED)], ((0, 1),)),
]


def setup_cases():
    cases = [
        pytest.param(name, d, 1.0 / n, None, id=f"{name}-d{d}-n{n}")
        for name in benchmark_names()
        for d in (1, 2, 4, 8)
        for n in (3, 16)
    ]
    cases += [
        pytest.param(name, d, None, bps, id=f"{name}-d{d}-copies{i}")
        for i, (name, d, bps, _) in enumerate(EQUAL_COPIES)
    ]
    return cases


@pytest.mark.parametrize("name,d,h,breakpoints", setup_cases())
def test_operators_match_per_component_loop(name, d, h, breakpoints):
    bench = get_benchmark(name)
    space, params = build_setup(bench, h, d, breakpoints)
    nlp = AssembledNlp(bench.problem, space, params)
    assert_same_csr(nlp.eval_op, reference_eval_operator(space, nlp.rule))
    assert_same_csr(nlp.point_op, reference_point_operator(space, bench.problem.time_points))


class TestMeshGroups:
    def test_lq_has_one_group(self):
        space, _ = build_setup(get_benchmark("lq"), 0.25, 2)
        ((mesh, comps),) = space.mesh_groups
        assert comps == (0, 1, 2)
        assert all(m is mesh for m in space.component_meshes)

    def test_lq_multimesh_has_two_groups(self):
        space, _ = build_setup(get_benchmark("lq-multimesh"), 0.25, 2)
        assert [comps for _, comps in space.mesh_groups] == [(0,), (1, 2)]
        assert [mesh.n_intervals for mesh, _ in space.mesh_groups] == [2, 4]
        assert space.component_meshes[1] is space.component_meshes[2]

    @pytest.mark.parametrize("name,d,breakpoints,groups", EQUAL_COPIES)
    def test_equal_copies_are_one_group(self, name, d, breakpoints, groups):
        space, _ = build_setup(get_benchmark(name), None, d, breakpoints)
        assert len({id(m) for m in space.component_meshes}) == len(breakpoints)
        assert tuple(comps for _, comps in space.mesh_groups) == groups
        for mesh, comps in space.mesh_groups:
            assert mesh is space.component_meshes[comps[0]]

    def test_groups_built_once(self):
        space = build_space([uniform_mesh((0.0, 1.0), 4)] * 2, 2, 1, 1)
        assert space.mesh_groups is space.mesh_groups

    def test_merge_of_groups_is_merge_of_components(self):
        space, _ = build_setup(get_benchmark("lq"), None, 3, EQUAL_COPIES[0][2])
        merged = merge_meshes(space.component_meshes).breakpoints
        grouped = merge_meshes([mesh for mesh, _ in space.mesh_groups]).breakpoints
        assert merged.tobytes() == grouped.tobytes()


class TestCallCounts:
    @pytest.fixture
    def basis_calls(self, monkeypatch):
        calls = []

        def counting(degree, points, *, slopes=True):
            calls.append((np.size(points), slopes))
            return eval_basis(degree, points, slopes=slopes)

        monkeypatch.setattr(ocfem.fespace, "eval_basis", counting)
        return calls

    @pytest.mark.parametrize("name,calls_at_rule", [("lq", 1), ("lq-multimesh", 2)])
    def test_basis_once_per_group(self, basis_calls, name, calls_at_rule):
        bench = get_benchmark(name)
        nlp = AssembledNlp(bench.problem, *build_setup(bench, 0.125, 4))
        # the point rows only evaluate the group holding the differential component
        sizes = [size for size, _ in basis_calls]
        assert sizes == [nlp.M] * calls_at_rule + [len(bench.problem.time_points)]

    @pytest.mark.parametrize(
        "name,slopes_at_rule",
        [("lq", [True]), ("lq-multimesh", [True, False]), ("barrier-pull", [False])],
        ids=["lq", "lq-multimesh", "barrier-pull"],
    )
    def test_slopes_only_for_differential_groups(self, basis_calls, name, slopes_at_rule):
        bench = get_benchmark(name)
        nlp = AssembledNlp(bench.problem, *build_setup(bench, 0.125, 4))
        # barrier-pull has no differential component, hence no point rows
        points = [False] if nlp.space.n_y else []
        assert [slopes for _, slopes in basis_calls] == slopes_at_rule + points

    @pytest.mark.parametrize("name,meshes", [("lq", 1), ("lq-multimesh", 2), ("barrier-pull", 1)])
    def test_uniform_mesh_once_per_interval_count(self, monkeypatch, name, meshes):
        counts = []

        def counting(domain, n_intervals):
            counts.append(n_intervals)
            return uniform_mesh(domain, n_intervals)

        monkeypatch.setattr(ocfem.harness, "uniform_mesh", counting)
        build_setup(get_benchmark(name), 0.125, 2)
        assert len(counts) == len(set(counts)) == meshes


class TestCachedUnitRule:
    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_repeated_calls_share_one_read_only_rule(self, n):
        rule = gauss_legendre_unit(n)
        assert gauss_legendre_unit(n) is rule
        for a in (rule.nodes, rule.weights):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_cached_rule_equals_a_fresh_one(self, n):
        fresh = gauss_legendre_unit.__wrapped__(n)
        rule = gauss_legendre_unit(n)
        assert rule.nodes.tobytes() == fresh.nodes.tobytes()
        assert rule.weights.tobytes() == fresh.weights.tobytes()

    def test_invalid_order_still_rejected(self):
        for n in (0, 65):
            with pytest.raises(ValueError, match="unsupported rule order"):
                gauss_legendre_unit(n)


class TestSigmaPerGroup:
    def test_shared_failing_mesh_names_its_first_component(self):
        bench = get_benchmark("lq")
        graded = [0.0, 0.1, 0.5, 1.0]  # widths 0.1, 0.4, 0.5: ratio 0.2
        space, params = build_setup(bench, None, 2, [[0.0, 1.0], graded, list(graded)])
        assert params.sigma == 0.1 / 0.5
        message = "component 1 mesh has width ratio 0.2, below sigma = 0.25"
        with pytest.raises(ValueError, match=message):
            AssembledNlp(bench.problem, space, replace(params, sigma=0.25))

    def test_rule_check_reads_every_group(self):
        space, _ = build_setup(get_benchmark("lq-multimesh"), 0.25, 2)
        coarse = space.mesh_groups[0][0]
        rule = compose_rule(Mesh(coarse.breakpoints), gauss_legendre_unit(3))
        with pytest.raises(ValueError, match="not composed over the merged mesh"):
            build_eval_operator(space, rule)
