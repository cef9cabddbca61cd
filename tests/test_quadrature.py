import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ocfem.mesh import merge_meshes, uniform_mesh
from ocfem.quadrature import compose_rule, gauss_legendre_unit


def reference_unit_rule(n):
    """Independent construction: companion-matrix roots plus a moment solve."""
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    roots = np.polynomial.legendre.legroots(coeffs)
    nodes = np.sort(0.5 * (roots + 1.0))
    vander = np.vander(nodes, n, increasing=True).T
    moments = 1.0 / np.arange(1, n + 1)
    weights = np.linalg.solve(vander, moments)
    return nodes, weights


class TestUnitRule:
    def test_midpoint(self):
        rule = gauss_legendre_unit(1)
        assert rule.nodes == pytest.approx([0.5], abs=0)
        assert rule.weights == pytest.approx([1.0], abs=0)

    def test_two_nodes_against_companion_roots(self):
        rule = gauss_legendre_unit(2)
        assert rule.nodes == pytest.approx(
            [0.5 - 1 / (2 * math.sqrt(3)), 0.5 + 1 / (2 * math.sqrt(3))], abs=1e-14
        )
        assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_three_node_weights(self):
        rule = gauss_legendre_unit(3)
        assert rule.weights == pytest.approx([5 / 18, 8 / 18, 5 / 18], abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_matches_reference_construction(self, n):
        # moment solve is only well conditioned for small n
        rule = gauss_legendre_unit(n)
        nodes, weights = reference_unit_rule(n)
        assert rule.nodes == pytest.approx(nodes, abs=1e-11)
        assert rule.weights == pytest.approx(weights, abs=1e-11)

    @pytest.mark.parametrize("n", [13, 21, 40, 64])
    def test_matches_library_rule(self, n):
        rule = gauss_legendre_unit(n)
        x, w = np.polynomial.legendre.leggauss(n)
        assert rule.nodes == pytest.approx(0.5 * (x + 1.0), abs=1e-13)
        assert rule.weights == pytest.approx(0.5 * w, abs=1e-13)

    @pytest.mark.parametrize("n", range(1, 33))
    def test_invariants(self, n):
        rule = gauss_legendre_unit(n)
        assert abs(rule.weights.sum() - 1.0) < 1e-14
        assert (rule.weights > 0).all()
        assert (np.diff(rule.nodes) > 0).all()
        assert rule.nodes[0] > 0.0 and rule.nodes[-1] < 1.0

    @pytest.mark.parametrize("n", [0, -1, 65])
    def test_unsupported_order(self, n):
        with pytest.raises(ValueError, match="unsupported rule order"):
            gauss_legendre_unit(n)


class TestCompose:
    def test_single_interval_midpoint(self):
        merged = merge_meshes([uniform_mesh((0.0, 1.0), 1)])
        rule = compose_rule(merged, gauss_legendre_unit(1))
        assert rule.points == pytest.approx([0.5], abs=0)
        assert rule.weights == pytest.approx([1.0], abs=0)

    def test_two_interval_midpoints(self):
        merged = merge_meshes([uniform_mesh((0.0, 1.0), 2)])
        rule = compose_rule(merged, gauss_legendre_unit(1))
        assert rule.points == pytest.approx([0.25, 0.75], abs=0)
        assert rule.weights == pytest.approx([0.5, 0.5], abs=0)

    def test_counts_and_weight_sum(self):
        merged = merge_meshes([uniform_mesh((0.0, 2.0), 2)])
        rule = compose_rule(merged, gauss_legendre_unit(2))
        assert rule.M == 4
        assert rule.weights.sum() == pytest.approx(2.0, rel=1e-12)

    def test_points_strictly_inside_owner(self):
        merged = merge_meshes([uniform_mesh((0.0, 1.0), 3), uniform_mesh((0.0, 1.0), 4)])
        rule = compose_rule(merged, gauss_legendre_unit(3))
        for t, k in zip(rule.points, rule.interval_of):
            assert merged.breakpoints[k] < t < merged.breakpoints[k + 1]


class TestIntegrate:
    def test_constant(self):
        merged = merge_meshes([uniform_mesh((0.0, 1.0), 3)])
        rule = compose_rule(merged, gauss_legendre_unit(2))
        assert rule.weights @ np.ones_like(rule.points) == pytest.approx(1.0, rel=1e-14)

    def test_quadratic_exact_with_two_nodes(self):
        merged = merge_meshes([uniform_mesh((0.0, 1.0), 2)])
        rule = compose_rule(merged, gauss_legendre_unit(2))
        assert rule.weights @ rule.points**2 == pytest.approx(1 / 3, abs=1e-14)

    def test_midpoint_rule_error_on_quadratic(self):
        merged = merge_meshes([uniform_mesh((0.0, 1.0), 1)])
        rule = compose_rule(merged, gauss_legendre_unit(1))
        value = rule.weights @ rule.points**2
        assert value == pytest.approx(0.25, abs=0)
        assert abs(value - 1 / 3) == pytest.approx(1 / 12, abs=1e-15)


@st.composite
def polynomial_cases(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    degree = draw(st.integers(min_value=0, max_value=2 * n - 1))
    coeffs = draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0),
            min_size=degree + 1,
            max_size=degree + 1,
        )
    )
    pieces = draw(st.integers(min_value=1, max_value=4))
    return n, coeffs, pieces


class TestExactness:
    @given(polynomial_cases())
    def test_polynomials_integrate_exactly(self, case):
        n, coeffs, pieces = case
        poly = np.polynomial.Polynomial(coeffs)
        merged = merge_meshes(
            [uniform_mesh((0.0, 1.0), pieces), uniform_mesh((0.0, 1.0), 3)]
        )
        rule = compose_rule(merged, gauss_legendre_unit(n))
        exact = poly.integ()(1.0) - poly.integ()(0.0)
        value = rule.weights @ poly(rule.points)
        assert abs(value - exact) <= 1e-12 * max(1.0, abs(exact))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_refinement_order_for_exp(self, n):
        errors = []
        exact = math.e - 1.0
        for pieces in (1, 2, 4, 8):
            merged = merge_meshes([uniform_mesh((0.0, 1.0), pieces)])
            rule = compose_rule(merged, gauss_legendre_unit(n))
            errors.append(abs(rule.weights @ np.exp(rule.points) - exact))
        for coarse, fine in zip(errors, errors[1:]):
            if fine < 1e-13:
                break
            assert fine < coarse
            assert math.log2(coarse / fine) >= 2 * n - 0.2
