import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import stacked
from ocfem.assembly import AssembledNlp
from ocfem.fespace import (
    CoefficientVector,
    build_eval_operator,
    build_point_eval_operator,
    build_regularizer,
    build_space,
)
from ocfem.harness import build_setup, get_benchmark
from ocfem.mesh import Mesh, merge_meshes, uniform_mesh
from ocfem.ocp_model import OcpProblem, default_params
from ocfem.polybasis import eval_basis
from ocfem.quadrature import compose_rule, gauss_legendre_unit


def assert_same_csr(op, expected):
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(op, name), getattr(expected, name))


def space_and_rule(meshes, degree, n_y, n_z, n_nodes=None):
    space = build_space(meshes, degree, n_y, n_z)
    merged = merge_meshes(space.component_meshes)
    rule = compose_rule(merged, gauss_legendre_unit(n_nodes or degree + 1))
    return space, rule


class TestBuildSpace:
    def test_continuous_hat_count(self):
        space = build_space([uniform_mesh((0.0, 1.0), 2)], 1, 1, 0)
        assert space.N == 3

    def test_discontinuous_count(self):
        space = build_space([uniform_mesh((0.0, 1.0), 2)], 1, 0, 1)
        assert space.N == 4

    def test_mixed_meshes_count(self):
        space = build_space(
            [uniform_mesh((0.0, 1.0), 2), uniform_mesh((0.0, 1.0), 3)], 2, 1, 1
        )
        assert space.N == (2 * 2 + 1) + (3 * 3)

    def test_count_formula(self):
        for degree in (1, 2, 5):
            for k_y, k_z in ((1, 1), (3, 2), (4, 7)):
                space = build_space(
                    [uniform_mesh((0.0, 1.0), k_y), uniform_mesh((0.0, 1.0), k_z)],
                    degree,
                    1,
                    1,
                )
                assert space.N == (k_y * degree + 1) + k_z * (degree + 1)

    def test_every_index_referenced(self):
        space = build_space(
            [uniform_mesh((0.0, 1.0), 3), uniform_mesh((0.0, 1.0), 2)], 2, 1, 1
        )
        seen = np.unique(np.concatenate([m.ravel() for m in space.index_map]))
        assert seen.tolist() == list(range(space.N))

    def test_degree_zero_continuous_conflict(self):
        with pytest.raises(ValueError, match="degree 0 cannot represent continuous"):
            build_space([uniform_mesh((0.0, 1.0), 2)], 0, 1, 0)

    def test_degree_zero_auxiliary_only_allowed(self):
        space = build_space([uniform_mesh((0.0, 1.0), 2)], 0, 0, 1)
        assert space.N == 2

    def test_domain_mismatch(self):
        with pytest.raises(ValueError, match="domain mismatch"):
            build_space(
                [uniform_mesh((0.0, 1.0), 2), uniform_mesh((0.0, 2.0), 2)], 1, 1, 1
            )

    @pytest.mark.parametrize("n_y, n_z", [(0, 0), (-1, 1), (1, -1)])
    def test_component_counts_rejected(self, n_y, n_z):
        with pytest.raises(ValueError, match=f"invalid component counts n_y={n_y}, n_z={n_z}"):
            build_space([uniform_mesh((0.0, 1.0), 2)] * max(0, n_y + n_z), 1, n_y, n_z)

    def test_mesh_count_mismatch(self):
        with pytest.raises(ValueError, match="one per component"):
            build_space([uniform_mesh((0.0, 1.0), 2)], 1, 1, 1)


class TestCoefficientVector:
    def test_length_checked(self):
        space = build_space([uniform_mesh((0.0, 1.0), 2)], 1, 1, 0)
        with pytest.raises(ValueError, match="shape"):
            CoefficientVector(np.zeros(5), space)

    def test_finite_checked(self):
        space = build_space([uniform_mesh((0.0, 1.0), 2)], 1, 1, 0)
        with pytest.raises(ValueError, match="non-finite"):
            CoefficientVector(np.array([0.0, np.nan, 0.0]), space)

    def test_values_are_its_own_copy(self):
        # the caller's array stays writeable, and a later write through it or
        # through the array a view was taken of cannot reach a validated vector
        space = build_space([uniform_mesh((0.0, 1.0), 2)], 1, 1, 0)
        a = np.array([0.0, 1.0, 2.0])
        x = space.coefficient_vector(a)
        assert a.flags.writeable
        a[0] = 7.0
        b = np.array([3.0, 4.0, 5.0])
        y = space.coefficient_vector(b[:])
        b[0] = np.nan
        assert x.values.tolist() == [0.0, 1.0, 2.0]
        assert y.values.tolist() == [3.0, 4.0, 5.0]
        assert not x.values.flags.writeable and not y.values.flags.writeable


class TestInterpolate:
    def test_wrong_output_shape_rejected(self):
        # 2 intervals of degree 1 carry 4 nodes; the space has 2 components
        space = build_space([uniform_mesh((0.0, 1.0), 2)] * 2, 1, 1, 1)
        for func, shape in ((stacked(lambda t: t), (4, 1)), (lambda t: t, (4,))):
            message = f"interpolated function returns shape {shape}, need (4, 2)"
            with pytest.raises(ValueError, match=re.escape(message)):
                space.interpolate(func)

    @pytest.mark.parametrize("name, calls", [("lq", 1), ("lq-multimesh", 2)])
    def test_one_call_per_mesh_group(self, name, calls):
        bench = get_benchmark(name)
        space, _ = build_setup(bench, 0.25, 3)
        sizes = []

        def func(t):
            sizes.append(t.size)
            return np.hstack([bench.y(t), bench.z(t)])

        space.interpolate(func)
        assert len(sizes) == calls == len(space.mesh_groups)
        # every node of the group's mesh, d + 1 = 4 per interval
        assert sizes == [4 * mesh.n_intervals for mesh, _ in space.mesh_groups]


class TestEvalOperator:
    def test_constant_reproduction(self):
        space, rule = space_and_rule([uniform_mesh((0.0, 1.0), 3)], 2, 1, 0)
        op = build_eval_operator(space, rule)
        x = space.interpolate(stacked(lambda t: 1.0))
        values = (op @ x.values).reshape(rule.M, 2)
        assert values[:, 0] == pytest.approx(np.zeros(rule.M), abs=1e-13)
        assert values[:, 1] == pytest.approx(np.ones(rule.M), abs=1e-13)

    def test_linear_with_midpoint_rule(self):
        space, rule = space_and_rule([uniform_mesh((0.0, 1.0), 2)], 1, 1, 0, n_nodes=1)
        op = build_eval_operator(space, rule)
        x = space.interpolate(stacked(lambda t: t))
        values = (op @ x.values).reshape(2, 2)
        assert values[:, 0] == pytest.approx([1.0, 1.0])
        assert values[:, 1] == pytest.approx([0.25, 0.75])

    def test_piecewise_constant_selection(self):
        space, rule = space_and_rule([uniform_mesh((0.0, 1.0), 3)], 0, 0, 1)
        op = build_eval_operator(space, rule)
        x = space.coefficient_vector([2.0, -1.0, 5.0])
        values = op @ x.values
        assert values == pytest.approx([2.0, -1.0, 5.0], abs=0)

    def test_row_layout_per_point(self):
        # rows per point: dy (n_y), y (n_y), z (n_z)
        space, rule = space_and_rule(
            [uniform_mesh((0.0, 1.0), 2)] * 3, 2, 2, 1
        )
        op = build_eval_operator(space, rule)
        x = space.interpolate(stacked(lambda t: t, lambda t: 2 * t, lambda t: 3.0))
        values = (op @ x.values).reshape(rule.M, 5)
        assert values[:, 0] == pytest.approx(np.ones(rule.M))
        assert values[:, 1] == pytest.approx(2 * np.ones(rule.M))
        assert values[:, 2] == pytest.approx(rule.points)
        assert values[:, 3] == pytest.approx(2 * rule.points)
        assert values[:, 4] == pytest.approx(3 * np.ones(rule.M))

    def test_chain_rule_uses_source_interval(self):
        meshes = [uniform_mesh((0.0, 1.0), 1), uniform_mesh((0.0, 1.0), 4)]
        space, rule = space_and_rule(meshes, 2, 1, 1)
        op = build_eval_operator(space, rule)
        x = space.interpolate(stacked(lambda t: t * t, lambda t: 1.0))
        values = (op @ x.values).reshape(rule.M, 3)
        assert values[:, 0] == pytest.approx(2 * rule.points, abs=1e-12)

    def test_foreign_rule_rejected(self):
        space, _ = space_and_rule([uniform_mesh((0.0, 1.0), 2)], 1, 1, 0)
        other = compose_rule(
            merge_meshes([uniform_mesh((0.0, 1.0), 3)]), gauss_legendre_unit(2)
        )
        with pytest.raises(ValueError, match="merged mesh"):
            build_eval_operator(space, other)

    def test_rule_over_a_wider_domain_rejected(self):
        space, _ = space_and_rule([uniform_mesh((0.0, 1.0), 2)], 1, 1, 0)
        wider = compose_rule(uniform_mesh((0.0, 2.0), 4), gauss_legendre_unit(2))
        with pytest.raises(ValueError, match="merged mesh"):
            build_eval_operator(space, wider)

    def test_rule_over_reordered_meshes_accepted(self):
        # the merge does not depend on the order of the meshes, and the
        # operator looks up each component's intervals itself
        coarse, fine = uniform_mesh((0.0, 1.0), 2), uniform_mesh((0.0, 1.0), 4)
        space, rule = space_and_rule([coarse, fine], 1, 1, 1)
        swapped = compose_rule(merge_meshes([fine, coarse]), gauss_legendre_unit(2))
        assert_same_csr(build_eval_operator(space, swapped), build_eval_operator(space, rule))

    def test_rule_over_equal_copies_of_the_meshes_accepted(self):
        meshes = [uniform_mesh((0.0, 1.0), 2), Mesh([0.0, 0.3, 1.0])]
        space, rule = space_and_rule(meshes, 2, 1, 1)
        copies = [Mesh(m.breakpoints.copy()) for m in meshes]
        assert all(a is not b for a, b in zip(copies, meshes))
        again = compose_rule(merge_meshes(copies), gauss_legendre_unit(3))
        assert_same_csr(build_eval_operator(space, again), build_eval_operator(space, rule))

    def test_hand_built_merged_mesh_accepted(self):
        meshes = [uniform_mesh((0.0, 1.0), 2), uniform_mesh((0.0, 1.0), 3)]
        space, rule = space_and_rule(meshes, 1, 1, 1)
        by_hand = compose_rule(Mesh(rule.mesh.breakpoints.copy()), gauss_legendre_unit(2))
        assert_same_csr(build_eval_operator(space, by_hand), build_eval_operator(space, rule))

    def test_refinement_of_the_merge_accepted(self):
        # every rule interval lies in one interval of each component, so a
        # degree-2 interpolant of quadratics is evaluated exactly
        meshes = [uniform_mesh((0.0, 1.0), 2), uniform_mesh((0.0, 1.0), 3)]
        space = build_space(meshes, 2, 1, 1)
        rule = compose_rule(uniform_mesh((0.0, 1.0), 12), gauss_legendre_unit(3))
        op = build_eval_operator(space, rule)
        x = space.interpolate(stacked(lambda t: t * t, lambda t: 1.0 - t * t))
        values = (op @ x.values).reshape(rule.M, 3)
        t = rule.points
        assert np.allclose(values, np.column_stack([2 * t, t * t, 1.0 - t * t]), rtol=0, atol=1e-13)

    def test_row_sparsity_bound(self):
        space, rule = space_and_rule(
            [uniform_mesh((0.0, 1.0), 4), uniform_mesh((0.0, 1.0), 3)], 3, 1, 1
        )
        op = build_eval_operator(space, rule)
        per_row = np.diff(op.indptr)
        assert per_row.max() <= space.degree + 1

    @pytest.mark.parametrize("name", ["lq-multimesh", "stretched"])
    def test_csr_layout_contract(self, name):
        # the Hessian's band order and the lifted export read the support off
        # these arrays: (M, B, d + 1) point/row/entry order, d + 1 per row
        breakpoints = None
        if name == "stretched":
            t = np.linspace(0.0, 1.0, 9)
            breakpoints = [(t + 0.3 * t * (1 - t)).tolist(), t.tolist(), (t**1.5).tolist()]
        bench = get_benchmark("lq" if name == "stretched" else name)
        meshes = build_setup(bench, 1 / 8, 3, breakpoints)[0].component_meshes
        space, rule = space_and_rule(meshes, 3, bench.problem.n_y, bench.problem.n_z)
        op = build_eval_operator(space, rule)
        B, d1, n_y = space.block_width, space.degree + 1, space.n_y
        assert np.array_equal(op.indptr, np.arange(0, op.nnz + 1, d1))
        cols = op.indices.reshape(rule.M, B, d1)
        for comp, mesh in enumerate(space.component_meshes):
            src = [mesh.interval_index(float(t)) for t in rule.points]
            assert np.array_equal(cols[:, n_y + comp], space.index_map[comp][src])
        # each derivative row has the columns of its value row
        assert np.array_equal(cols[:, :n_y], cols[:, n_y : 2 * n_y])

    @given(
        degree=st.integers(min_value=1, max_value=6),
        pieces=st.integers(min_value=1, max_value=4),
    )
    def test_polynomial_reproduction(self, degree, pieces):
        coeffs = np.linspace(-1.0, 1.0, degree + 1)
        poly = np.polynomial.Polynomial(coeffs)
        dpoly = poly.deriv()
        space, rule = space_and_rule([uniform_mesh((0.0, 1.0), pieces)], degree, 1, 0)
        op = build_eval_operator(space, rule)
        x = space.interpolate(stacked(poly))
        values = (op @ x.values).reshape(rule.M, 2)
        assert values[:, 1] == pytest.approx(poly(rule.points), abs=1e-12)
        assert values[:, 0] == pytest.approx(dpoly(rule.points), abs=1e-11)


class TestPointOperator:
    def test_unit_row_at_start(self):
        space = build_space([uniform_mesh((0.0, 1.0), 2)], 1, 1, 0)
        op = build_point_eval_operator(space, [0.0])
        row = op.toarray()[0]
        assert row == pytest.approx([1.0, 0.0, 0.0], abs=0)

    def test_linear_values(self):
        space = build_space([uniform_mesh((0.0, 1.0), 2)], 1, 1, 0)
        op = build_point_eval_operator(space, [0.0, 0.5, 1.0])
        x = space.interpolate(stacked(lambda t: t))
        assert op @ x.values == pytest.approx([0.0, 0.5, 1.0], abs=1e-15)

    def test_shape_two_components(self):
        space = build_space([uniform_mesh((0.0, 1.0), 2)] * 2, 1, 2, 0)
        op = build_point_eval_operator(space, [0.0, 1.0])
        assert op.shape == (4, space.N)

    def test_out_of_range_point(self):
        space = build_space([uniform_mesh((0.0, 1.0), 2)], 1, 1, 0)
        with pytest.raises(ValueError, match="outside"):
            build_point_eval_operator(space, [1.5])

    def test_interior_mesh_point_side_immaterial(self):
        # shared endpoint coefficient: both one-sided evaluations give the
        # same operator row for a continuous component
        space = build_space([uniform_mesh((0.0, 1.0), 2)], 3, 1, 0)
        op = build_point_eval_operator(space, [0.5]).toarray()[0]
        left = np.zeros(space.N)
        right = np.zeros(space.N)
        left[space.index_map[0][0]] = eval_basis(space.degree, [1.0])[0][0]
        right[space.index_map[0][1]] = eval_basis(space.degree, [0.0])[0][0]
        assert op == pytest.approx(left, abs=0)
        assert left == pytest.approx(right, abs=0)


class TestRegularizer:
    def test_constant_function(self):
        space, rule = space_and_rule([uniform_mesh((0.0, 1.0), 2)], 1, 1, 0)
        op = build_eval_operator(space, rule)
        gram = build_regularizer(space, rule, op)
        x = space.interpolate(stacked(lambda t: 1.0))
        assert x.values @ (gram @ x.values) == pytest.approx(1.0, rel=1e-13)

    def test_linear_function_h1_norm(self):
        space, rule = space_and_rule([uniform_mesh((0.0, 1.0), 2)], 1, 1, 0, n_nodes=2)
        op = build_eval_operator(space, rule)
        gram = build_regularizer(space, rule, op)
        x = space.interpolate(stacked(lambda t: t))
        assert x.values @ (gram @ x.values) == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_auxiliary_l2_norm(self):
        space, rule = space_and_rule([uniform_mesh((0.0, 1.0), 2)], 1, 0, 1)
        op = build_eval_operator(space, rule)
        gram = build_regularizer(space, rule, op)
        x = space.interpolate(stacked(lambda t: 2.0))
        assert x.values @ (gram @ x.values) == pytest.approx(4.0, rel=1e-13)

    def test_exact_symmetry_and_psd(self, rng):
        space, rule = space_and_rule(
            [uniform_mesh((0.0, 1.0), 3), uniform_mesh((0.0, 1.0), 2)], 2, 1, 1
        )
        op = build_eval_operator(space, rule)
        gram = build_regularizer(space, rule, op)
        assert abs(gram - gram.T).max() == 0.0
        eigenvalues = np.linalg.eigvalsh(gram.toarray())
        assert eigenvalues.min() >= -1e-12

    def test_bandwidth_within_component(self):
        space, rule = space_and_rule([uniform_mesh((0.0, 1.0), 5)], 3, 1, 0)
        op = build_eval_operator(space, rule)
        gram = build_regularizer(space, rule, op).tocoo()
        assert np.abs(gram.row - gram.col).max() <= 2 * (space.degree + 1)

    def test_shape_mismatch(self):
        space, rule = space_and_rule([uniform_mesh((0.0, 1.0), 2)], 1, 1, 0)
        op = build_eval_operator(space, rule)
        with pytest.raises(ValueError, match="shape"):
            build_regularizer(space, rule, op[:2, :])


def loop_interleaved_order(space):
    """Reference: sort (first + last merged interval of the support, component,
    local index in the first interval) tuples."""
    merged = merge_meshes(space.component_meshes).breakpoints
    mids = (merged[:-1] + merged[1:]) / 2
    support, entries = {}, {}
    for comp, mesh in enumerate(space.component_meshes):
        for k, (left, right) in enumerate(zip(mesh.breakpoints, mesh.breakpoints[1:])):
            inside = [e for e, mid in enumerate(mids) if left < mid < right]
            for a in range(space.degree + 1):
                g = int(space.index_map[comp][k, a])
                support.setdefault(g, []).extend(inside)
                entries.setdefault(g, (comp, a))
    keys = [(min(s) + max(s), *entries[g], g) for g, s in support.items()]
    return np.array([g for *_, g in sorted(keys)])


def zero_cost_nlp(space):
    """The space's AssembledNlp under a zero-cost problem, for its Hessian layout."""
    width = space.block_width

    def f_eval(dy, y, z, t):
        M = len(t)
        return np.zeros(M), np.zeros((M, width)), np.zeros((M, width, width))

    problem = OcpProblem(
        n_y=space.n_y, n_z=space.n_z, m=0, p=0, time_points=space.domain, f_eval=f_eval
    )
    return AssembledNlp(problem, space, default_params(0.25, d=space.degree))


class TestInterleavedOrder:
    @pytest.mark.parametrize("counts,n_y", [([4], 1), ([3, 5, 5], 1), ([6, 4], 0), ([5, 2, 7], 2)])
    def test_matches_loop_reference(self, counts, n_y):
        meshes = [uniform_mesh((0.0, 1.0), n) for n in counts]
        space = build_space(meshes, 3, n_y, len(counts) - n_y)
        layout = zero_cost_nlp(space).hessian_layout
        assert np.array_equal(layout.band_order, loop_interleaved_order(space))

    def test_is_permutation(self):
        space = build_space(
            [uniform_mesh((0.0, 1.0), 3), uniform_mesh((0.0, 1.0), 3)], 2, 1, 1
        )
        layout = zero_cost_nlp(space).hessian_layout
        assert np.sort(layout.band_order).tolist() == list(range(space.N))
        assert np.array_equal(layout.band_order[layout.band_position], np.arange(space.N))

    def test_groups_by_interval(self):
        space = build_space([uniform_mesh((0.0, 1.0), 2)] * 2, 1, 1, 1)
        order = zero_cost_nlp(space).hessian_layout.band_order
        # first interval's coefficients of both components come first
        first = {int(space.index_map[0][0][a]) for a in range(2)}
        first |= {int(space.index_map[1][0][a]) for a in range(2)}
        assert set(order[: len(first)].tolist()) == first
