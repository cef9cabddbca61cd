"""Set-up steps against their loop forms, compared bitwise.

Each reference below is a per-interval (or per-point) loop form of a set-up
step, most of them the loops the array code replaced; the two must agree to
the last bit on uniform, explicit-breakpoint and per-component
(``lq-multimesh``) meshes.
"""

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, strategies as st

from conftest import stacked
from ocfem.fespace import build_eval_operator, build_point_eval_operator, build_space
from ocfem.harness import build_setup, get_benchmark
from ocfem.mesh import (
    ENDPOINT_COLLAPSE_RTOL,
    Mesh,
    merge_meshes,
    uniform_mesh,
)
from ocfem.polybasis import _lobatto_data, eval_basis, gauss_lobatto_nodes
from ocfem.quadrature import compose_rule, gauss_legendre_unit

DEGREES = [1, 2, 3, 4, 8]


def loop_merged_breakpoints(meshes):
    t0, t_end = meshes[0].domain
    tol = ENDPOINT_COLLAPSE_RTOL * (t_end - t0)
    all_points = np.sort(np.concatenate([m.breakpoints for m in meshes]))
    kept = [t0]
    for p in all_points:
        if p - kept[-1] > tol:
            kept.append(float(p))
    if t_end - kept[-1] <= tol:
        kept[-1] = t_end
    else:
        kept.append(t_end)
    return np.array(kept)


def loop_compose_rule(mesh, unit):
    points, weights, owner = [], [], []
    for k, (left, right) in enumerate(zip(mesh.breakpoints.tolist(), mesh.breakpoints[1:].tolist())):
        points.append(left + (right - left) * unit.nodes)
        weights.append((right - left) * unit.weights)
        owner.append(np.full(unit.n_nodes, k))
    return np.concatenate(points), np.concatenate(weights), np.concatenate(owner).astype(int)


def loop_index_map(meshes, degree, n_y):
    counter, index_map = 0, []
    for comp, mesh in enumerate(meshes):
        arr = np.empty((mesh.n_intervals, degree + 1), dtype=int)
        for k in range(mesh.n_intervals):
            for a in range(degree + 1):
                if comp < n_y and a == 0 and k > 0:
                    arr[k, 0] = arr[k - 1, degree]
                else:
                    arr[k, a] = counter
                    counter += 1
        index_map.append(arr)
    return index_map, counter


def loop_at_node_rows(points, degree):
    """Values and derivatives of the rows within the snap distance of a node."""
    nodes, bary, _ = _lobatto_data(degree)
    at_node = np.abs(points[:, None] - nodes[None, :]) < 1e-14
    values, derivs = [], []
    for i in np.nonzero(at_node.any(axis=1))[0]:
        k = int(np.argmax(at_node[i]))
        row = np.zeros(degree + 1)
        row[k] = 1.0
        values.append(row)
        row = np.empty(degree + 1)
        others = np.arange(degree + 1) != k
        row[others] = (bary[others] / bary[k]) / (nodes[k] - nodes[others])
        row[k] = -row[others].sum()
        derivs.append(row)
    return at_node.any(axis=1), np.array(values), np.array(derivs)


def loop_interpolate(space, func):
    """Every node of every component, left to right, ``func`` called one time at a time."""
    out = np.zeros(space.N)
    nodes = gauss_lobatto_nodes(space.degree)
    for comp in range(space.n_x):
        bp = space.component_meshes[comp].breakpoints.tolist()
        for k, (left, right) in enumerate(zip(bp, bp[1:])):
            ts = left + (right - left) * nodes
            out[space.index_map[comp][k]] = [func(np.array([t]))[0, comp] for t in ts]
    return out


def loop_interval_index(mesh, t):
    """The first interval whose right end is at or past ``t``."""
    bp = mesh.breakpoints.tolist()
    return next(k for k in range(mesh.n_intervals) if t <= bp[k + 1] or k == mesh.n_intervals - 1)


def loop_point_eval_operator(space, time_points):
    t0, t_end = space.domain
    pts = [float(t) for t in time_points]
    for t in pts:
        if t < t0 or t > t_end:
            raise ValueError(f"point {t} outside domain {space.domain}")
    rows, cols, vals = [], [], []
    for comp in range(space.n_y):
        mesh = space.component_meshes[comp]
        for i, t in enumerate(pts):
            k = loop_interval_index(mesh, t)
            local = min(max((t - mesh.breakpoints[k]) / mesh.lengths[k], 0.0), 1.0)
            values = eval_basis(space.degree, [local])[0][0]
            rows.extend([i * space.n_y + comp] * (space.degree + 1))
            cols.extend(space.index_map[comp][k])
            vals.extend(values)
    op = sparse.coo_matrix(
        (vals, (rows, cols)), shape=(space.n_y * len(pts), space.N)
    ).tocsr()
    op.eliminate_zeros()
    return op


def point_times(meshes):
    """The domain ends, every interior breakpoint of every mesh, one time off every node."""
    t0, t_end = meshes[0].domain
    points = np.unique(np.concatenate([m.breakpoints for m in meshes]))
    return np.append(points, t0 + 0.3137 * (t_end - t0))


def mesh_sets():
    """(label, meshes, n_y): uniform, explicit breakpoints, lq-multimesh."""
    multimesh = build_setup(get_benchmark("lq-multimesh"), 1.0 / 16, 4)[0]
    explicit = [
        Mesh([0.0, 0.1, 0.45, 0.7, 1.0]),
        Mesh([0.0, 0.1, 0.55, 0.7 + 3e-13, 1.0]),
        Mesh([0.0, 0.5, 1.0 - 4e-13, 1.0]),
    ]
    return [
        ("uniform", [uniform_mesh((0.0, 1.0), 5)] * 2, 1),
        ("uniform-shifted", [uniform_mesh((-1.0, 2.5), 7), uniform_mesh((-1.0, 2.5), 3)], 0),
        ("explicit", explicit, 1),
        ("lq-multimesh", list(multimesh.component_meshes), 1),
    ]


SETS = mesh_sets()


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("label,meshes,n_y", SETS, ids=[s[0] for s in SETS])
@pytest.mark.parametrize("degree", DEGREES)
class TestAgainstLoops:
    def test_merged_mesh_and_rule(self, label, meshes, n_y, degree):
        merged = merge_meshes(meshes)
        assert bitwise(merged.breakpoints, loop_merged_breakpoints(meshes))
        unit = gauss_legendre_unit(degree + 1)
        rule = compose_rule(merged, unit)
        points, weights, owner = loop_compose_rule(merged, unit)
        assert bitwise(rule.points, points)
        assert bitwise(rule.weights, weights)
        assert bitwise(rule.interval_of, owner)

    def test_numbering(self, label, meshes, n_y, degree):
        space = build_space(meshes, degree, n_y, len(meshes) - n_y)
        index_map, count = loop_index_map(meshes, degree, n_y)
        assert space.N == count
        for got, expected in zip(space.index_map, index_map):
            assert bitwise(got, expected)

    def test_interpolate(self, label, meshes, n_y, degree):
        space = build_space(meshes, degree, n_y, len(meshes) - n_y)
        func = stacked(*[lambda t, c=c: np.sin(3.0 * t + c) + 1e-3 * c for c in range(len(meshes))])
        assert bitwise(space.interpolate(func).values, loop_interpolate(space, func))

    def test_point_operator(self, label, meshes, n_y, degree):
        space = build_space(meshes, degree, n_y, len(meshes) - n_y)
        times = point_times(meshes)
        op = build_point_eval_operator(space, times)
        expected = loop_point_eval_operator(space, times)
        assert op.shape == expected.shape
        for name in ("data", "indices", "indptr"):
            assert bitwise(getattr(op, name), getattr(expected, name))

    def test_at_node_rows(self, label, meshes, n_y, degree):
        merged = merge_meshes(meshes)
        rule = compose_rule(merged, gauss_legendre_unit(degree + 1))
        nodes = _lobatto_data(degree)[0]
        # the rule's local coordinates (the middle Gauss point is a node for
        # even d), every node, and points inside and outside the snap distance
        local = (rule.points - merged.breakpoints[rule.interval_of]) / merged.lengths[rule.interval_of]
        points = np.concatenate([local, nodes, np.clip(nodes + 5e-15, 0, 1), np.clip(nodes - 3e-14, 0, 1)])
        near, values, derivs = loop_at_node_rows(points, degree)
        assert near.any()
        got_values, got_derivs = eval_basis(degree, points)
        assert bitwise(got_values[near], values)
        assert bitwise(got_derivs[near], derivs)


def test_shared_endpoint_written_by_right_interval():
    # the left interval's last node is 0.1 + (0.45 - 0.1) = 0.44999999999999996;
    # the loop let the right interval's first node, 0.45 itself, overwrite it
    space = build_space([Mesh([0.0, 0.1, 0.45, 1.0])], 1, 1, 0)
    values = space.interpolate(stacked(lambda t: t)).values
    assert values[space.index_map[0][2, 0]] == 0.45
    assert bitwise(values, loop_interpolate(space, stacked(lambda t: t)))


@pytest.mark.parametrize("label,meshes,n_y", SETS, ids=[s[0] for s in SETS])
def test_interval_index_on_arrays(label, meshes, n_y):
    for mesh in meshes:
        mids = 0.5 * (mesh.breakpoints[:-1] + mesh.breakpoints[1:])
        times = np.concatenate([point_times(meshes), mids])
        scalar = [mesh.interval_index(float(t)) for t in times]
        assert all(type(k) is int for k in scalar)
        assert scalar == [loop_interval_index(mesh, float(t)) for t in times]
        assert mesh.interval_index(times).tolist() == scalar


class TestOutsideTimes:
    def test_array_with_one_outside_time(self):
        mesh = uniform_mesh((0.0, 1.0), 4)
        with pytest.raises(ValueError, match=r"point 1\.5 outside domain"):
            mesh.interval_index(np.array([0.0, 0.5, 1.5, 1.0]))

    @pytest.mark.parametrize("n_y", [0, 1])
    def test_point_operator_rejects_outside_time(self, n_y):
        space = build_space([uniform_mesh((0.0, 1.0), 4)] * 2, 2, n_y, 2 - n_y)
        with pytest.raises(ValueError, match=r"point -0\.25 outside domain"):
            build_point_eval_operator(space, [0.5, -0.25])


class TestMergedBreakpointChains:
    def test_chain_below_tolerance(self):
        # gaps of 0.6 tol: each alone collapses, two together exceed tol
        step = 0.6e-12
        meshes = [
            Mesh([0.0, 0.5, 0.5 + 2 * step, 1.0]),
            Mesh([0.0, 0.5 + step, 0.5 + 3 * step, 0.5 + 5 * step, 1.0]),
            Mesh([0.0, 0.5 + 4 * step, 1.0]),
        ]
        expected = loop_merged_breakpoints(meshes)
        assert expected.tolist() == [0.0, 0.5, 0.5 + 2 * step, 0.5 + 4 * step, 1.0]
        assert bitwise(merge_meshes(meshes).breakpoints, expected)

    def test_collapse_at_end(self):
        meshes = [
            Mesh([0.0, 0.5, 1.0 - 6e-13, 1.0]),
            Mesh([0.0, 1.0 - 1.2e-12, 1.0]),
        ]
        expected = loop_merged_breakpoints(meshes)
        assert expected.tolist() == [0.0, 0.5, 1.0 - 1.2e-12, 1.0]
        assert bitwise(merge_meshes(meshes).breakpoints, expected)

    @given(
        st.lists(
            st.lists(st.sampled_from([3e-13, 6e-13, 9e-13, 1e-12, 1.1e-12, 1e-3, 0.05]), min_size=1, max_size=30),
            min_size=1,
            max_size=4,
        ),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_matches_greedy_walk(self, gap_lists, t0):
        t_end = t0 + 1.0
        meshes = []
        for gaps in gap_lists:
            interior = t0 + np.cumsum(gaps)
            interior = interior[interior < t_end]
            meshes.append(Mesh([t0, *interior.tolist(), t_end]))
        assert bitwise(merge_meshes(meshes).breakpoints, loop_merged_breakpoints(meshes))


FOREIGN_RULE = "quadrature rule was not composed over the merged mesh of this space"


def search_rule_check(space, rule):
    """The rule check as a search of every component breakpoint among the rule's
    breakpoints: the message when rejected, else None, and each breakpoint's
    distance to the nearest rule breakpoint over the tolerance."""
    points = rule.mesh.breakpoints
    t0, t_end = space.domain
    tol = ENDPOINT_COLLAPSE_RTOL * (t_end - t0)
    ends = np.concatenate([mesh.breakpoints for mesh, _ in space.mesh_groups])
    k = np.clip(np.searchsorted(points, ends), 1, points.size - 1)
    gaps = np.minimum(ends - points[k - 1], points[k] - ends)
    rejected = rule.mesh.domain != space.domain or (gaps > tol).any()
    return (FOREIGN_RULE if rejected else None), gaps / tol


def eval_operator_verdict(space, rule):
    try:
        build_eval_operator(space, rule)
    except ValueError as exc:
        return str(exc)
    return None


def random_space(rng):
    """One to three random meshes on a random domain; half the later ones also
    hold a breakpoint of the first moved by less than the tolerance."""
    t0 = float(rng.uniform(-10.0, 10.0))
    t_end = t0 + float(rng.choice([0.25, 1.0, 4.0]))
    tol = ENDPOINT_COLLAPSE_RTOL * (t_end - t0)
    meshes = []
    for _ in range(rng.integers(1, 4)):
        inner = rng.uniform(t0, t_end, rng.integers(0, 8))
        if meshes and rng.random() < 0.5:
            first = meshes[0].breakpoints
            near = rng.choice(first[1:-1]) if first.size > 2 else 0.5 * (t0 + t_end)
            inner = np.append(inner, near + rng.uniform(-0.9, 0.9) * tol)
        meshes.append(Mesh(np.unique(np.concatenate([[t0], inner, [t_end]]))))
    n_y = int(rng.integers(0, len(meshes) + 1))
    return build_space(meshes, 1, n_y, len(meshes) - n_y)


def random_rule_meshes(rng, space):
    """The merge, a refinement of it, the merge with one breakpoint moved, and
    unrelated uniform meshes on the space's domain and on a wider one."""
    t0, t_end = space.domain
    merged = merge_meshes(space.component_meshes)
    yield "merge", merged
    extra = rng.uniform(t0, t_end, rng.integers(1, 6))
    yield "refinement", Mesh(np.unique(np.concatenate([merged.breakpoints, extra])))
    for move in (5e-13, 1.5e-12, 1e-9, 1e-3):
        points = merged.breakpoints.copy()
        if points.size > 2:
            sign = rng.choice([-1.0, 1.0])
            points[rng.integers(1, points.size - 1)] += sign * move * (t_end - t0)
            if (np.diff(points) > 0).all():
                yield f"moved by {move}", Mesh(points)
    yield "uniform", uniform_mesh((t0, t_end), int(rng.integers(1, 20)))
    yield "wider domain", uniform_mesh((t0, 2 * t_end - t0), int(rng.integers(1, 20)))


class TestRuleCheckAgainstBreakpointSearch:
    @pytest.mark.parametrize("seed", range(8))
    def test_same_verdict_and_message(self, seed):
        # the interval lookup accepts a rule exactly when every component
        # breakpoint lies within the tolerance of a rule breakpoint; a distance
        # equal to the tolerance up to rounding may go either way, so a rule
        # with one is left out (none among these seeds)
        rng = np.random.default_rng(seed)
        verdicts = {}
        for _ in range(100):
            space = random_space(rng)
            for kind, mesh in random_rule_meshes(rng, space):
                rule = compose_rule(mesh, gauss_legendre_unit(2))
                expected, gaps = search_rule_check(space, rule)
                if (np.abs(gaps - 1.0) < 0.01).any():
                    continue
                assert eval_operator_verdict(space, rule) == expected, kind
                verdicts.setdefault(kind, set()).add(expected)
        assert verdicts["merge"] == verdicts["refinement"] == {None}
        assert verdicts["moved by 5e-13"] >= {None}
        for kind in ("moved by 1.5e-12", "moved by 1e-09", "moved by 0.001", "wider domain"):
            assert verdicts[kind] == {FOREIGN_RULE}
        assert verdicts["uniform"] == {None, FOREIGN_RULE}
