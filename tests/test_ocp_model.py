from dataclasses import replace

import numpy as np
import pytest

from conftest import stacked
from ocfem.fespace import build_space
from ocfem.mesh import merge_meshes, uniform_mesh
from ocfem.ocp_model import (
    MethodParams,
    OcpProblem,
    check_derivatives,
    default_params,
    eval_point_constraints,
    residual,
)
from ocfem.quadrature import compose_rule, gauss_legendre_unit


def zero_cost(dy, y, z, t):
    """f = 0 for n_y = 1, n_z = 0, so B = 2."""
    M = len(t)
    return np.zeros(M), np.zeros((M, 2)), np.zeros((M, 2, 2))


def quadratic_problem():
    """f = (y^2 + z^2) / 2, c = dy - z, b = y(0) - 1."""

    def f_eval(dy, y, z, t):
        M = len(t)
        value = 0.5 * (y[:, 0] ** 2 + z[:, 0] ** 2)
        grad = np.stack([np.zeros(M), y[:, 0], z[:, 0]], axis=1)
        hess = np.broadcast_to(np.diag([0.0, 1.0, 1.0]), (M, 3, 3))
        return value, grad, hess

    def c_eval(dy, y, z, t):
        M = len(t)
        jac = np.broadcast_to([[1.0, 0.0, -1.0]], (M, 1, 3))
        return dy - z, jac, np.zeros((M, 1, 3, 3))

    def b_eval(stacked_y):
        jac = np.zeros((1, len(stacked_y)))
        jac[0, 0] = 1.0
        return (
            np.array([stacked_y[0] - 1.0]),
            jac,
            np.zeros((1, len(stacked_y), len(stacked_y))),
        )

    return OcpProblem(
        n_y=1, n_z=1, m=1, p=1, time_points=(0.0, 1.0),
        f_eval=f_eval, c_eval=c_eval, b_eval=b_eval,
    )


def setup(problem, n_intervals, degree):
    meshes = [uniform_mesh(problem.domain, n_intervals) for _ in range(problem.n_x)]
    space = build_space(meshes, degree, problem.n_y, problem.n_z)
    rule = compose_rule(merge_meshes(meshes), gauss_legendre_unit(degree + 1))
    return space, rule


class TestMethodParams:
    def test_unit_mesh_size(self):
        params = default_params(1.0, 1.0, 7)
        assert params.omega == 1.0 and params.tau == 1.0

    def test_small_h(self):
        params = default_params(0.01, 1.0, 4)
        assert params.omega == pytest.approx(1e-4, rel=1e-12)
        assert params.tau == pytest.approx(1e-8, rel=1e-12)

    def test_quarter_h(self):
        params = default_params(0.25, 1.0, 2)
        assert params.omega == pytest.approx(0.25, abs=0)
        assert params.tau == pytest.approx(0.0625, abs=0)

    def test_invalid_h(self):
        for h in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="invalid mesh size"):
                default_params(h, 1.0, 2)
            with pytest.raises(ValueError, match="invalid mesh size"):
                MethodParams(h=h, sigma=1.0, d=2, omega=1.0, tau=1.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_penalty_and_barrier(self, value):
        with pytest.raises(ValueError, match="omega"):
            MethodParams(h=0.5, sigma=1.0, d=2, omega=value, tau=1.0)
        with pytest.raises(ValueError, match="tau"):
            MethodParams(h=0.5, sigma=1.0, d=2, omega=1.0, tau=value)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError, match="mesh ratio"):
            MethodParams(h=0.5, sigma=1.5, d=2, omega=1.0, tau=1.0)

    def test_invalid_degree(self):
        with pytest.raises(ValueError, match="invalid degree"):
            MethodParams(h=0.5, sigma=1.0, d=31, omega=1.0, tau=1.0)


class TestProblemValidation:
    def test_time_points_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            OcpProblem(
                n_y=1, n_z=0, m=0, p=0, time_points=(0.0, 0.0),
                f_eval=zero_cost,
            )

    def test_missing_constraint_callback(self):
        with pytest.raises(ValueError, match="path-constraint callback"):
            OcpProblem(
                n_y=1, n_z=0, m=1, p=0, time_points=(0.0, 1.0),
                f_eval=zero_cost,
            )

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"m": -1}, "m must be nonnegative"),
            ({"n_y": 0, "n_z": 0}, "need at least one solution component"),
            ({"time_points": (0.0,)}, "need at least two time points"),
            ({"p": 1}, "p > 0 requires a point-constraint callback"),
            ({"c_eval": zero_cost}, "m = 0 leaves the path-constraint callback c_eval unused"),
            ({"b_eval": zero_cost}, "p = 0 leaves the point-constraint callback b_eval unused"),
        ],
        ids=["negative-m", "no-component", "one-time-point", "p-without-b", "c-without-m",
             "b-without-p"],
    )
    def test_invalid_definition_rejected(self, changes, message):
        fields = dict(
            n_y=1, n_z=0, m=0, p=0, time_points=(0.0, 1.0),
            f_eval=zero_cost,
        )
        with pytest.raises(ValueError, match=message):
            OcpProblem(**(fields | changes))

    def test_point_constraint_failure_wrapped(self):
        def bad_b(stacked_y):
            raise ArithmeticError("boom")

        problem = replace(quadratic_problem(), b_eval=bad_b)
        with pytest.raises(RuntimeError, match="point-constraint callback failed") as info:
            eval_point_constraints(problem, np.zeros(problem.n_T))
        assert isinstance(info.value.__cause__, ArithmeticError)


class TestResidual:
    def test_feasible_interpolant_is_zero(self):
        problem = quadratic_problem()
        space, rule = setup(problem, 4, 3)
        # y = t, z = 1 satisfies dy = z exactly but not y(0) = 1 -> use y = t + 1
        x = space.interpolate(stacked(lambda t: t + 1.0, lambda t: 1.0))
        assert residual(problem, x, space, rule) == pytest.approx(0.0, abs=1e-22)

    def test_derivative_mismatch_value(self):
        problem = quadratic_problem()
        space, rule = setup(problem, 3, 2)
        # c = dy - z = 1 with y = t + 1, z = 0; b = y(0) - 1 = 0
        x = space.interpolate(stacked(lambda t: t + 1.0, lambda t: 0.0))
        assert residual(problem, x, space, rule) == pytest.approx(1.0, rel=1e-13)

    def test_boundary_block_value(self):
        problem = quadratic_problem()
        space, rule = setup(problem, 3, 2)
        # y = 3, z = 0: c = 0 - 0, b = 3 - 1 = 2 -> residual 4
        x = space.interpolate(stacked(lambda t: 3.0, lambda t: 0.0))
        assert residual(problem, x, space, rule) == pytest.approx(4.0, rel=1e-13)

    def test_refinement_invariance_for_polynomial_integrand(self):
        # y = t^2, z = 0: c = 2t, residual = int 4 t^2 = 4/3 on every mesh
        problem = quadratic_problem()
        values = []
        for n_intervals in (2, 4, 8):
            space, rule = setup(problem, n_intervals, 3)
            x = space.interpolate(stacked(lambda t: t * t, lambda t: 0.0))
            r = residual(problem, x, space, rule)
            assert r == pytest.approx(4.0 / 3.0 + 1.0, rel=1e-13)  # + b^2 = (0-1)^2
            values.append(r)
        assert max(values) - min(values) < 1e-12

    def test_nonnegative(self, rng):
        problem = quadratic_problem()
        space, rule = setup(problem, 3, 2)
        for _ in range(10):
            x = space.coefficient_vector(rng.uniform(-2, 2, space.N))
            assert residual(problem, x, space, rule) >= 0.0

    def test_callback_failure_context(self):
        def bad_c(dy, y, z, t):
            raise RuntimeError("boom")

        problem = OcpProblem(
            n_y=1, n_z=0, m=1, p=0, time_points=(0.0, 1.0),
            f_eval=zero_cost,
            c_eval=bad_c,
        )
        space, rule = setup(problem, 2, 2)
        x = space.interpolate(stacked(lambda t: t))
        with pytest.raises(RuntimeError, match="path-constraint callback failed on a batch of"):
            residual(problem, x, space, rule)

    def test_dimension_mismatch(self):
        problem = quadratic_problem()
        other = OcpProblem(
            n_y=1, n_z=0, m=0, p=0, time_points=(0.0, 1.0),
            f_eval=zero_cost,
        )
        space, rule = setup(other, 2, 2)
        x = space.interpolate(stacked(lambda t: t))
        with pytest.raises(ValueError, match="n_y, n_z"):
            residual(problem, x, space, rule)


class TestCheckDerivatives:
    def test_quadratic_problem_clean(self):
        report = check_derivatives(quadratic_problem(), n_samples=4, seed=1)
        assert report.errors["f_gradient"] <= 1e-6
        assert report.errors["f_hessian"] <= 1e-6
        assert report.errors["c_jacobian"] <= 1e-9  # linear constraint, exact up to rounding
        assert report.errors["b_jacobian"] <= 1e-9

    def test_wrong_hessian_flagged(self):
        base = quadratic_problem()

        def bad_f(dy, y, z, t):
            value, grad, _ = base.f_eval(dy, y, z, t)
            hess = np.broadcast_to(np.diag([0.0, 5.0, 1.0]), (len(t), 3, 3))
            return value, grad, hess  # wrong y curvature

        broken = OcpProblem(
            n_y=1, n_z=1, m=1, p=1, time_points=(0.0, 1.0),
            f_eval=bad_f, c_eval=base.c_eval, b_eval=base.b_eval,
        )
        report = check_derivatives(broken, n_samples=3, seed=2)
        assert report.errors["f_hessian"] > 1e-2
        assert report.errors["f_gradient"] <= 1e-6

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_no_samples_rejected(self, n_samples):
        with pytest.raises(ValueError, match="n_samples"):
            check_derivatives(quadratic_problem(), n_samples=n_samples)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed >= 0, got -1"):
            check_derivatives(quadratic_problem(), seed=-1)

    def test_nan_derivative_stays_in_report(self):
        # seed 0 draws t = 0.017, 0.729, 0.003, 0.176: only the second sample
        # meets the NaN, and the finite samples around it must not hide it
        base = quadratic_problem()

        def nan_f(dy, y, z, t):
            value, grad, hess = base.f_eval(dy, y, z, t)
            return value, np.where((t > 0.5)[:, None] & [False, False, True], np.nan, grad), hess

        broken = OcpProblem(
            n_y=1, n_z=1, m=1, p=1, time_points=(0.0, 1.0),
            f_eval=nan_f, c_eval=base.c_eval, b_eval=base.b_eval,
        )
        errors = check_derivatives(broken, n_samples=4, seed=0).errors
        assert np.isnan(errors["f_gradient"]) and np.isnan(errors["f_hessian"])
        assert errors["c_jacobian"] <= 1e-9 and errors["b_jacobian"] <= 1e-9

    def test_report_lists_entries(self):
        report = check_derivatives(quadratic_problem(), n_samples=2, seed=3)
        names = list(report.errors)
        assert names == [
            "f_gradient", "f_hessian", "c_jacobian", "c_hessian",
            "b_jacobian", "b_hessian",
        ]
        assert "derivative check" in str(report)

    def test_shape_validation(self):
        problem = OcpProblem(
            n_y=1, n_z=0, m=0, p=0, time_points=(0.0, 1.0),
            f_eval=lambda dy, y, z, t: (
                np.zeros(len(t)), np.zeros((len(t), 3)), np.zeros((len(t), 3, 3))
            ),
        )
        with pytest.raises(ValueError, match="expected"):
            check_derivatives(problem, n_samples=1)

    def test_asymmetric_hessian_rejected(self):
        hess = np.zeros((2, 2))
        hess[0, 1] = 1e-3
        problem = OcpProblem(
            n_y=1, n_z=0, m=0, p=0, time_points=(0.0, 1.0),
            f_eval=lambda dy, y, z, t: (
                np.zeros(len(t)), np.zeros((len(t), 2)), np.broadcast_to(hess, (len(t), 2, 2))
            ),
        )
        with pytest.raises(ValueError, match="asymmetric"):
            check_derivatives(problem, n_samples=1)
