"""The callback protocol: f and c take point stacks, each batch validated once."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import stacked
from ocfem.assembly import AssembledNlp
from ocfem.fespace import build_space
from ocfem.harness import build_setup, get_benchmark
from ocfem.mesh import merge_meshes, uniform_mesh
from ocfem.ocp_model import (
    OcpProblem,
    check_derivatives,
    default_params,
    eval_path_constraints,
    eval_point_constraints,
    eval_running_cost,
    residual,
)
from ocfem.quadrature import compose_rule, gauss_legendre_unit
from ocfem.solver import default_start


def flat_problem(f_eval, c_eval=None, m=0):
    """n_y = 1, n_z = 0, so B = 2."""
    return OcpProblem(
        n_y=1, n_z=0, m=m, p=0, time_points=(0.0, 1.0), f_eval=f_eval, c_eval=c_eval
    )


def zero_cost(dy, y, z, t):
    k = len(t)
    return np.zeros(k), np.zeros((k, 2)), np.zeros((k, 2, 2))


def two_points():
    return np.zeros((2, 2)), np.array([0.25, 0.75])


class TestBatchValidation:
    def test_symmetry_scale_is_per_point(self):
        # point 0: |H| = 1e6, deviation 1e-7, inside 1e-12 * 1e6;
        # point 1: |H| = 1, deviation 1e-9, outside 1e-12 * 1
        hess = np.array([np.diag([1e6, 1e6]), np.eye(2)])
        hess[0, 0, 1] = 1e-7
        hess[1, 0, 1] = 1e-9

        def f_eval(dy, y, z, t):
            k = len(t)
            return np.zeros(k), np.zeros((k, 2)), hess[:k]

        problem = flat_problem(f_eval)
        values, t = two_points()
        eval_running_cost(problem, values[:1], t[:1])  # point 0 alone passes
        with pytest.raises(ValueError, match="asymmetric at batch point 1"):
            eval_running_cost(problem, values, t)

    def test_asymmetric_path_constraint_row_reported(self):
        # m = 2: point 1's row 0 is symmetric with larger entries, its row 1 is not
        hess = np.zeros((2, 2, 2, 2))
        hess[1, 0] = [[3.0, 7.0], [7.0, 4.0]]
        hess[1, 1] = [[1.0, 0.125], [0.5, 2.0]]

        def c_eval(dy, y, z, t):
            k = len(t)
            return np.zeros((k, 2)), np.zeros((k, 2, 2)), hess[:k]

        problem = flat_problem(zero_cost, c_eval, m=2)
        values, t = two_points()
        message = r"path-constraint Hessian is asymmetric at batch point 1 \(max deviation 0.375\)"
        with pytest.raises(ValueError, match=message):
            eval_path_constraints(problem, values, t)

    def test_asymmetric_point_constraint_rejected(self):
        hess = np.array([[[1.0, 0.25], [0.0, 1.0]]])
        problem = OcpProblem(
            n_y=1, n_z=0, m=0, p=1, time_points=(0.0, 1.0), f_eval=zero_cost,
            b_eval=lambda y: (np.zeros(1), np.zeros((1, 2)), hess),
        )
        message = r"point-constraint Hessian is asymmetric \(max deviation 0.25\)"
        with pytest.raises(ValueError, match=message):
            eval_point_constraints(problem, np.zeros(2))

    def test_width_one_hessians_pass(self):
        pull = get_benchmark("barrier-pull").problem
        t = np.linspace(0.1, 0.9, 5)
        hess = eval_running_cost(pull, np.full((5, 1), 0.5), t)[2]
        assert hess.shape == (5, 1, 1) and not hess.any()

    def test_nan_hessian_passes_through(self):
        # a NaN anywhere in a point's Hessian makes its scale NaN, so the point is
        # never flagged, not even for an asymmetry beside a NaN on the diagonal
        hess = np.array([[[np.nan, 1.0], [0.0, 1.0]], [[1.0, 2.0], [2.0, np.nan]]])

        def f_eval(dy, y, z, t):
            return np.zeros(len(t)), np.zeros((len(t), 2)), hess

        values, t = two_points()
        assert np.isnan(eval_running_cost(flat_problem(f_eval), values, t)[2]).sum() == 2

    def test_broadcast_hessian_tested_once(self):
        # a stack with leading stride 0 is one square for all points: point 0 is named
        square = np.array([[1.0, 0.25], [0.0, 1.0]])

        def f_eval(dy, y, z, t):
            k = len(t)
            return np.zeros(k), np.zeros((k, 2)), np.broadcast_to(square, (k, 2, 2))

        values, t = np.zeros((3, 2)), np.array([0.25, 0.5, 0.75])
        message = r"objective Hessian is asymmetric at batch point 0 \(max deviation 0.25\)"
        with pytest.raises(ValueError, match=message):
            eval_running_cost(flat_problem(f_eval), values, t)

    def test_nan_point_does_not_hide_an_asymmetric_one(self):
        hess = np.array([[[1.0, np.nan], [0.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]]])

        def f_eval(dy, y, z, t):
            return np.zeros(len(t)), np.zeros((len(t), 2)), hess

        values, t = two_points()
        message = r"objective Hessian is asymmetric at batch point 1 \(max deviation 0.5\)"
        with pytest.raises(ValueError, match=message):
            eval_running_cost(flat_problem(f_eval), values, t)

    def test_per_point_gradient_rejected(self):
        def f_eval(dy, y, z, t):
            k = len(t)
            return np.zeros(k), np.zeros(2), np.zeros((k, 2, 2))

        values, t = two_points()
        with pytest.raises(ValueError, match="expected"):
            eval_running_cost(flat_problem(f_eval), values, t)

    def test_raising_constraint_reports_batch(self):
        def f_eval(dy, y, z, t):
            k = len(t)
            return np.zeros(k), np.zeros((k, 2)), np.zeros((k, 2, 2))

        def c_eval(dy, y, z, t):
            raise ZeroDivisionError("boom")

        problem = flat_problem(f_eval, c_eval, m=1)
        meshes = [uniform_mesh(problem.domain, 2)]
        space = build_space(meshes, 2, 1, 0)
        rule = compose_rule(merge_meshes(meshes), gauss_legendre_unit(3))
        x = space.interpolate(stacked(lambda t: t))
        message = "path-constraint callback failed on a batch of 6 points"
        with pytest.raises(RuntimeError, match=message) as err:
            residual(problem, x, space, rule)
        assert isinstance(err.value.__cause__, ZeroDivisionError)

    def test_read_only_outputs_left_untouched(self):
        lq = get_benchmark("lq").problem
        space, params = build_setup(get_benchmark("lq"), 0.25, 3)

        def frozen(fn):
            # every output a read-only broadcast view
            def wrapped(dy, y, z, t):
                return tuple(np.broadcast_to(a, np.shape(a)) for a in fn(dy, y, z, t))

            return wrapped

        def writable(fn):
            def wrapped(dy, y, z, t):
                return tuple(np.array(a) for a in fn(dy, y, z, t))

            return wrapped

        results = []
        for wrap in (frozen, writable):
            problem = replace(lq, f_eval=wrap(lq.f_eval), c_eval=wrap(lq.c_eval))
            nlp = AssembledNlp(problem, space, params)
            x = default_start(nlp)
            results.append(
                (nlp.objective_terms(x).total, nlp.gradient(x), nlp.full_hessian(x).toarray())
            )
        frozen_result, writable_result = results
        assert frozen_result[0] == writable_result[0]
        assert np.array_equal(frozen_result[1], writable_result[1])
        assert np.array_equal(frozen_result[2], writable_result[2])


def test_callback_inputs_are_read_only():
    # a callback writing into its stacks would change the cached point values
    bench = get_benchmark("lq")
    space, params = build_setup(bench, 0.25, 2)

    def doubling(dy, y, z, t):
        y *= 2.0
        return bench.problem.f_eval(dy, y, z, t)

    nlp = AssembledNlp(replace(bench.problem, f_eval=doubling), space, params)
    x = space.interpolate(stacked(lambda t: 1.0 + t, lambda t: 1.0, lambda t: 1.0))
    message = "objective callback failed on a batch of 12 points"
    with pytest.raises(RuntimeError, match=message) as err:
        nlp.objective_terms(x)
    assert isinstance(err.value.__cause__, ValueError)
    assert "read-only" in str(err.value.__cause__)


def per_point_constant(dy, y, z, t):
    return 0.0, np.zeros(2), np.eye(2)


def per_point_square(dy, y, z, t):
    return 0.5 * float(y[0] ** 2), np.array([0.0, y[0]]), np.diag([0.0, 1.0])


@pytest.mark.parametrize("f_eval", [per_point_constant, per_point_square])
def test_per_point_callback_rejected(f_eval):
    # outputs of shapes (), (B,), (B, B) or a raise: never a number
    problem = flat_problem(f_eval)
    space = build_space([uniform_mesh(problem.domain, 2)], 2, 1, 0)
    nlp = AssembledNlp(problem, space, default_params(0.5, space))
    x = space.interpolate(stacked(lambda t: t))
    with pytest.raises((ValueError, RuntimeError), match="objective"):
        nlp.objective_terms(x)
    with pytest.raises((ValueError, RuntimeError), match="objective"):
        check_derivatives(problem, n_samples=1)
