import numpy as np
import pytest

import ocfem.polybasis
from ocfem.fespace import build_space
from ocfem.harness import cli_main
from ocfem.mesh import uniform_mesh
from ocfem.polybasis import (
    _NODE_SNAP,
    _lobatto_data,
    _shifted_legendre,
    eval_basis,
    gauss_lobatto_nodes,
    verify_norm_constants,
)
from ocfem.quadrature import gauss_legendre_unit


def legendre_values(d, points):
    return _shifted_legendre(np.asarray(points, dtype=float), d)


def lagrange_values(d, points):
    return eval_basis(d, points)[0]


def lagrange_derivatives(d, points):
    return eval_basis(d, points)[1]


#: Value evaluators of the Lagrange finite-element basis and of the
#: orthonormal Legendre basis behind the norm-constant check.
EVALUATORS = {
    "lagrange_gauss_lobatto": lagrange_values,
    "legendre_orthonormal": legendre_values,
}


class TestEvaluation:
    def test_lagrange_linear_at_left_node(self):
        assert lagrange_values(1, [0.0])[0] == pytest.approx([1.0, 0.0], abs=0)

    def test_lagrange_quadratic_at_midpoint_node(self):
        assert lagrange_values(2, [0.5])[0] == pytest.approx([0.0, 1.0, 0.0], abs=0)

    def test_lagrange_unit_rows_at_own_nodes(self):
        for d in (1, 3, 7, 15, 30):
            values = lagrange_values(d, gauss_lobatto_nodes(d))
            assert values == pytest.approx(np.eye(d + 1), abs=0)

    def test_legendre_linear_vanishes_at_center(self):
        assert legendre_values(1, [0.5])[0] == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_point_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            lagrange_values(2, [1.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.1])
    def test_non_finite_or_outside_point_rejected(self, bad):
        # NaN fails both bounds comparisons, so it is rejected like the rest
        with pytest.raises(ValueError, match=rf"point {bad} outside \[0, 1\]"):
            lagrange_values(3, [0.5, bad, 0.25])

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError, match="unsupported degree 31: need 0..30"):
            eval_basis(31, [0.5])
        with pytest.raises(ValueError, match="unsupported degree 31: need 0..30"):
            build_space([uniform_mesh((0.0, 1.0), 2)], 31, 1, 0)


class TestDerivatives:
    def test_lagrange_hat_slopes(self):
        for point in (0.0, 0.3, 1.0):
            assert lagrange_derivatives(1, [point])[0] == pytest.approx([-1.0, 1.0])

    @pytest.mark.parametrize("d", [1, 2, 5, 12])
    def test_partition_of_unity_differentiates_to_zero(self, d):
        for point in (0.0, 0.17, 0.5, 0.99, *gauss_lobatto_nodes(d)):
            assert lagrange_derivatives(d, [point])[0].sum() == pytest.approx(
                0.0, abs=1e-10
            )

    @pytest.mark.parametrize("basis", ["lagrange_gauss_lobatto"])
    def test_derivative_matches_finite_difference(self, basis, rng):
        values, derivatives = EVALUATORS[basis], lagrange_derivatives
        points = rng.uniform(0.05, 0.95, 20)
        step = 1e-6
        for point in points:
            fd = (values(6, [point + step])[0] - values(6, [point - step])[0]) / (2 * step)
            assert derivatives(6, [point])[0] == pytest.approx(fd, abs=1e-7)


class TestStructure:
    @pytest.mark.parametrize("d", [0, 1, 4, 10, 30])
    def test_orthonormality(self, d):
        rule = gauss_legendre_unit(31)  # exact through degree 61
        values = legendre_values(d, rule.nodes)
        gram = values.T @ (rule.weights[:, None] * values)
        assert np.abs(gram - np.eye(d + 1)).max() < 1e-12

    @pytest.mark.parametrize("basis", sorted(EVALUATORS))
    @pytest.mark.parametrize("d", [0, 1, 3, 8])
    def test_unisolvence(self, basis, d, rng):
        points = np.sort(rng.uniform(0.0, 1.0, d + 1))
        matrix = EVALUATORS[basis](d, points)
        assert np.linalg.matrix_rank(matrix) == d + 1

    def test_lobatto_nodes_include_endpoints(self):
        assert gauss_lobatto_nodes(0) == pytest.approx([0.5])
        assert gauss_lobatto_nodes(2) == pytest.approx([0.0, 0.5, 1.0], abs=1e-15)
        nodes = gauss_lobatto_nodes(9)
        assert nodes[0] == 0.0 and nodes[-1] == 1.0
        assert (np.diff(nodes) > 0).all()

    @pytest.mark.parametrize("d", list(range(0, 31, 3)) + [30])
    def test_basis_change_round_trip(self, d, rng):
        # orthonormal coefficients -> nodal values -> Lagrange interpolant,
        # which must reproduce the Legendre expansion away from the nodes
        coeffs = rng.uniform(-1.0, 1.0, d + 1)
        nodal = legendre_values(d, gauss_lobatto_nodes(d)) @ coeffs
        points = rng.uniform(0.0, 1.0, 50)
        back = lagrange_values(d, points) @ nodal
        assert np.abs(back - legendre_values(d, points) @ coeffs).max() < 1e-11


class TestNormConstants:
    def test_single_row(self):
        rows = verify_norm_constants(0)
        assert len(rows) == 1
        assert rows[0] == pytest.approx((0, 1.0, 1.0, 0.0), abs=1e-14)

    def test_degree_two_value(self):
        rows = verify_norm_constants(2)
        assert rows[2].computed == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_all_degrees_within_tolerance(self):
        rows = verify_norm_constants(30)
        assert len(rows) == 31
        assert max(row.abs_error for row in rows) <= 1e-9

    def test_failed_certificate_raises(self, monkeypatch):
        # a minimizer of value 2 at t = 0 fails the sup-norm certificate at d = 0
        minimizer = ocfem.polybasis._unit_value_minimizer
        monkeypatch.setattr(ocfem.polybasis, "_unit_value_minimizer", lambda d: 2.0 * minimizer(d))
        with pytest.raises(RuntimeError, match=r"certificate failed for degree 0: max \|v\| = 2.0, v\(0\) = 2.0"):
            verify_norm_constants(1)

    def test_csv_shape(self, capsys):
        # the CLI writes the rows: ints by str, floats by repr, LF endings
        assert cli_main(["norm-check", "--d-max", "2"]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines[0] == "d,computed,expected,error"
        rows = verify_norm_constants(2)
        assert lines[1:] == [f"{r.d},{r.computed!r},{r.expected!r},{r.abs_error!r}" for r in rows] + [""]


class TestNormEquivalence:
    def test_random_polynomials_respect_bound(self, rng):
        grid = np.linspace(0.0, 1.0, 10001)
        for d in range(11):
            values_matrix = legendre_values(d, grid)
            coeffs = rng.uniform(-1.0, 1.0, (1000, d + 1))
            l2 = np.linalg.norm(coeffs, axis=1)
            sup = np.abs(values_matrix @ coeffs.T).max(axis=0)
            assert (l2 >= sup / (d + 1) - 1e-12).all()


def masked_reference_basis(degree, points):
    """The masked kernel the split replaced: quotients on the rows away from
    every node only, gathered and scattered through boolean masks."""
    pts = np.asarray(points, dtype=float)
    nodes, bary, at_nodes = _lobatto_data(degree)
    if degree == 0:
        return np.ones((pts.size, 1)), np.zeros((pts.size, 1))
    values = np.empty((pts.size, degree + 1))
    derivs = np.empty_like(values)
    diff = pts[:, None] - nodes[None, :]
    at_node = np.abs(diff) < _NODE_SNAP
    regular = ~at_node.any(axis=1)
    node = at_node[~regular].argmax(axis=1)
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


def kernel_points(d):
    """Gauss points, every Lobatto node, points just inside and outside the
    snap distance of each node, the endpoints and a 97-point grid."""
    nodes = gauss_lobatto_nodes(d)
    return np.concatenate([
        gauss_legendre_unit(d + 1).nodes,
        nodes,
        np.clip(nodes + 0.5 * _NODE_SNAP, 0.0, 1.0),
        np.clip(nodes - 0.5 * _NODE_SNAP, 0.0, 1.0),
        np.clip(nodes + 3 * _NODE_SNAP, 0.0, 1.0),
        [0.0, 1.0],
        np.linspace(0.0, 1.0, 97),
    ])


class TestSplitKernel:
    """The kernel against the masked form it replaced, bitwise, with and
    without the slope pass."""

    @pytest.mark.parametrize("d", range(31))
    def test_matches_masked_kernel(self, d):
        points = kernel_points(d)
        values, derivs = eval_basis(d, points)
        expected_values, expected_derivs = masked_reference_basis(d, points)
        assert values.tobytes() == expected_values.tobytes()
        assert derivs.tobytes() == expected_derivs.tobytes()

    @pytest.mark.parametrize("d", range(31))
    def test_one_point_at_a_time(self, d):
        for point in kernel_points(d)[:: max(1, d // 4)]:
            values, derivs = eval_basis(d, [point])
            expected_values, expected_derivs = masked_reference_basis(d, [point])
            assert values.tobytes() == expected_values.tobytes()
            assert derivs.tobytes() == expected_derivs.tobytes()

    @pytest.mark.parametrize("d", range(31))
    def test_values_only_call_returns_the_full_values(self, d):
        points = kernel_points(d)
        values, derivs = eval_basis(d, points, slopes=False)
        assert derivs is None
        assert values.tobytes() == eval_basis(d, points)[0].tobytes()

    def test_empty_points(self):
        values, derivs = eval_basis(3, np.empty(0))
        assert values.shape == derivs.shape == (0, 4)
        assert eval_basis(3, np.empty(0), slopes=False)[1] is None
