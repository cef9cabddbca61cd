import gc
import hashlib
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import stacked
import ocfem.assembly
import ocfem.solver
from ocfem.assembly import AssembledNlp
from ocfem.errors import BarrierDomainError
from ocfem.fespace import build_space
from ocfem.harness import _json_text, _report_summary, build_setup, get_benchmark
from ocfem.mesh import Mesh, uniform_mesh
from ocfem.ocp_model import (
    MethodParams,
    OcpProblem,
    check_derivatives,
    default_params,
    residual,
)
from ocfem.polybasis import gauss_lobatto_nodes
from ocfem.solver import (
    _FLOOR_REL_CHANGE,
    _FLOOR_STEPS,
    _PBTRF,
    _PBTRS,
    STATUS_BARRIER,
    STATUS_CONVERGED,
    STATUS_LINE_SEARCH,
    STATUS_MAX_ITERS,
    STATUS_ROUNDING_FLOOR,
    SolverOptions,
    _boundary_cap,
    _newton_direction,
    _newton_stage,
    _newton_step,
    _schedule,
    _stage_status,
    default_start,
    ensure_interior,
    lifted_objective,
    lifted_patterns,
    solve,
)


def lq_nlp(h=0.125, d=4):
    bench = get_benchmark("lq")
    space, params = build_setup(bench, h, d)
    return AssembledNlp(bench.problem, space, params)


def barrier_pull_nlp(tau, omega=1e-2, degree=2):
    bench = get_benchmark("barrier-pull")
    space = build_space([uniform_mesh((0.0, 1.0), 2)], degree, 0, 1)
    params = MethodParams(h=0.5, sigma=1.0, d=degree, omega=omega, tau=tau)
    return AssembledNlp(bench.problem, space, params)


class TestNewtonOnQuadratic:
    @staticmethod
    def solve_quadratic(rng):
        """min of the integral of y^2 / 2, with no auxiliary component (n_z = 0)."""

        def f_eval(dy, y, z, t):
            grad = np.stack([np.zeros(len(t)), y[:, 0]], axis=1)
            return 0.5 * y[:, 0] ** 2, grad, np.broadcast_to(np.diag([0.0, 1.0]), (len(t), 2, 2))

        problem = OcpProblem(
            n_y=1, n_z=0, m=0, p=0, time_points=(0.0, 1.0), f_eval=f_eval
        )
        space = build_space([uniform_mesh((0.0, 1.0), 4)], 3, 1, 0)
        params = default_params(0.25, 1.0, 3)
        nlp = AssembledNlp(problem, space, params)
        x0 = space.coefficient_vector(rng.uniform(-1.0, 1.0, space.N))
        return nlp, x0, solve(nlp, x0, SolverOptions(grad_tol=1e-10))

    def test_converges_in_few_iterations(self, rng):
        _, _, report = self.solve_quadratic(rng)
        assert report.status == STATUS_CONVERGED
        assert report.total_iterations <= 3
        assert report.grad_norm <= 1e-10

    def test_no_auxiliaries_take_the_common_path(self, rng):
        # an (M, 0) z array: no barrier, no interior shift, no step cap, min z = inf
        nlp, x0, report = self.solve_quadratic(rng)
        assert nlp.z_values(x0).shape == (nlp.M, 0)
        assert report.terms.barrier == 0.0
        assert report.min_z == math.inf
        assert ensure_interior(nlp, x0) is x0
        assert _boundary_cap(nlp, x0, -nlp.gradient(x0)) == 1.0
        # the final coefficients of the code that special-cased n_z = 0, byte for byte
        digest = hashlib.sha256(report.x_final.values.tobytes()).hexdigest()
        assert digest == "8b7e358e973959062a6a6afebe70864109336b6e67d2dec8032254cb69bc850e"


class TestSolveLq:
    def test_converges_with_default_schedule(self):
        report = solve(lq_nlp())
        assert report.status == STATUS_CONVERGED
        assert report.min_z > 0.0

    @pytest.mark.parametrize("name", ["lq", "lq-multimesh", "trivial", "barrier-pull"])
    def test_residual_decreases_over_continuation(self, name):
        bench = get_benchmark(name)
        space, params = build_setup(bench, 0.125, 4)
        report = solve(AssembledNlp(bench.problem, space, params))
        assert report.status == STATUS_CONVERGED
        residuals = [stage.residual for stage in report.stages]
        for earlier, later in zip(residuals, residuals[1:]):
            assert later <= earlier + 1e-12

    def test_objective_strictly_decreases_within_stage(self):
        report = solve(lq_nlp())
        for stage in report.stages:
            history = stage.objective_history
            for a, b in zip(history, history[1:]):
                assert b < a

    def test_stationarity_reproducible(self):
        nlp = lq_nlp()
        report = solve(nlp)
        assert report.grad_norm <= SolverOptions().resolved_grad_tol(nlp.N)
        again = float(np.linalg.norm(nlp.gradient(report.x_final)))
        assert abs(again - report.grad_norm) <= 1e-13 * max(1.0, report.grad_norm)

    def test_iterates_stay_interior(self):
        nlp = lq_nlp()
        report = solve(nlp)
        assert nlp.z_values(report.x_final).min() > 0.0

    def test_max_iters_status(self):
        report = solve(lq_nlp(), opts=SolverOptions(max_iters=1, grad_tol=1e-14))
        assert report.status == STATUS_MAX_ITERS


def curved_lq():
    """lq with c = s (1 + s^2), s = y' - z1 + z2, and b = y(0)^3 - 1.

    The same solution as lq, but the penalty has curvature: c_hess and b_hess
    are nonzero.
    """
    v = np.array([1.0, 0.0, -1.0, 1.0])

    def c_eval(dy, y, z, t):
        s = dy[:, 0] - z[:, 0] + z[:, 1]
        jac = (1.0 + 3.0 * s**2)[:, None, None] * v
        return (s * (1.0 + s**2))[:, None], jac, (6.0 * s)[:, None, None, None] * np.outer(v, v)

    def b_eval(stacked_y):
        n = len(stacked_y)
        jac, hess = np.zeros((1, n)), np.zeros((1, n, n))
        jac[0, 0], hess[0, 0, 0] = 3.0 * stacked_y[0] ** 2, 6.0 * stacked_y[0]
        return np.array([stacked_y[0] ** 3 - 1.0]), jac, hess

    bench = get_benchmark("lq")
    return bench, replace(bench.problem, c_eval=c_eval, b_eval=b_eval)


class TestCurvedPenalty:
    def test_derivatives_match_finite_differences(self):
        _, problem = curved_lq()
        entries = check_derivatives(problem).errors
        assert len(entries) == 6 and max(entries.values()) <= 1e-8

    def test_converges_at_lq_orders(self):
        # every built-in has c_hess = b_hess = 0; here the solve's Hessian uses both
        bench, problem = curved_lq()
        d, widths, gaps, residuals = 4, [1 / 8, 1 / 16, 1 / 32], [], []
        for h in widths:
            nlp = AssembledNlp(problem, *build_setup(bench, h, d))
            report = solve(nlp)
            assert report.status == STATUS_CONVERGED
            gaps.append(report.terms.f - bench.cost)
            residuals.append(report.residual)
            if h == widths[0]:
                data = nlp._point_data(report.x_final)
                assert abs(data.b @ data.b_hess[:, 0, 0]) > 1e-2
                assert np.abs(data.c[:, 0] * data.c_hess[:, 0, 0, 0]).max() > 1e-4
        log_h = np.log(widths)
        assert abs(np.polyfit(log_h, np.log(np.abs(gaps)), 1)[0] - d / 2) <= 0.3
        assert abs(np.polyfit(log_h, np.log(residuals), 1)[0] - d) <= 0.3


class TestStageExits:
    def test_zero_iterations_from_stationary_start(self):
        nlp = lq_nlp(h=0.25)
        done = solve(nlp)
        opts = SolverOptions(max_iters=0)
        x, stage = _newton_stage(nlp, done.x_final, opts, opts.resolved_grad_tol(nlp.N))
        assert stage.status == STATUS_CONVERGED and stage.iterations == 0
        assert x.values.tobytes() == done.x_final.values.tobytes()

    def test_zero_iterations_from_non_stationary_start(self):
        nlp = lq_nlp(h=0.25)
        opts = SolverOptions(max_iters=0)
        tol = opts.resolved_grad_tol(nlp.N)
        _, stage = _newton_stage(nlp, default_start(nlp), opts, tol)
        assert stage.status == STATUS_MAX_ITERS and stage.iterations == 0
        grad = nlp.gradient(default_start(nlp))
        assert stage.grad_norm == math.sqrt(grad @ grad)
        assert math.isfinite(stage.grad_norm)
        assert stage.grad_norm > tol

    def test_line_search_failure_reports_failing_iterate(self, monkeypatch):
        # every trial after the second gradient leaves the barrier domain
        nlp = lq_nlp(h=0.25).with_params(0.5, 0.5)
        grads = []
        gradient, objective_terms = nlp.gradient, nlp.objective_terms

        def recorded_gradient(x):
            grads.append(gradient(x))
            return grads[-1]

        def failing_objective(x):
            if len(grads) >= 2:
                raise BarrierDomainError(0, 0, 0.0)
            return objective_terms(x)

        monkeypatch.setattr(nlp, "gradient", recorded_gradient)
        monkeypatch.setattr(nlp, "objective_terms", failing_objective)
        x, stage = _newton_stage(nlp, default_start(nlp), SolverOptions(), 1e-14)
        assert stage.status == STATUS_LINE_SEARCH
        assert stage.iterations == 1 and len(grads) == 2
        norms = [math.sqrt(g @ g) for g in grads]
        assert stage.grad_norm == norms[1] != norms[0]

    def test_start_on_the_barrier_boundary_ends_the_solve(self, monkeypatch):
        # with the start taken as given, z1 = -1 leaves the barrier domain at once
        monkeypatch.setattr(ocfem.solver, "ensure_interior", lambda nlp, x: x)
        nlp = lq_nlp(h=0.5, d=3)
        x0 = nlp.space.interpolate(stacked(lambda t: 1.0, lambda t: -1.0, lambda t: 1.0))
        report = solve(nlp, x0)
        assert report.status == STATUS_BARRIER
        assert report.iterations == [0]
        assert report.terms is None
        text = _json_text(_report_summary(report))
        assert '"terms": null' in text

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        summary = json.loads(text, parse_constant=reject)
        assert summary["grad_norm"] is None
        assert [(s["grad_norm"], s["objective"], s["residual"]) for s in summary["stages"]] == [
            (None, None, None)
        ]


class TestStageStatus:
    K, TOL = _FLOOR_STEPS, 1e-8

    def test_converged_beats_floor_and_max_iters(self):
        flat = [1.0] * (self.K + 1)
        assert _stage_status(flat, [1e-9] * (self.K + 1), self.TOL, self.K) == STATUS_CONVERGED

    def test_floor_beats_max_iters(self):
        flat, norms = [1.0] * (self.K + 1), [1e-6] * (self.K + 1)
        assert _stage_status(flat, norms, self.TOL, self.K) == STATUS_ROUNDING_FLOOR
        assert _stage_status(flat, norms, self.TOL, 200) == STATUS_ROUNDING_FLOOR
        assert _stage_status(flat[:-1], norms[:-1], self.TOL, 200) is None  # K - 1 steps
        assert _stage_status(flat[:-1], norms[:-1], self.TOL, self.K - 1) == STATUS_MAX_ITERS

    def test_new_least_gradient_is_progress(self):
        flat = [1.0] * (self.K + 1)
        norms = [1e-6] * self.K + [0.9e-6]
        assert _stage_status(flat, norms, self.TOL, 200) is None
        norms = [1e-6] + [0.9e-6] + [1e-6] * (self.K - 1)
        assert _stage_status(flat, norms, self.TOL, 200) is None
        norms = [0.9e-6] + [1e-6] * self.K  # none of the last K below the earlier least
        assert _stage_status(flat, norms, self.TOL, 200) == STATUS_ROUNDING_FLOOR

    def test_change_of_f_is_progress(self):
        norms = [1e-6] * (self.K + 1)
        cases = ((_FLOOR_REL_CHANGE / 2, STATUS_ROUNDING_FLOOR), (2 * _FLOOR_REL_CHANGE, None))
        for step, expected in cases:
            history = [1.0] * self.K + [1.0 - step]
            assert _stage_status(history, norms, self.TOL, 200) == expected
            history = [-1.0 + step] + [-1.0] * self.K
            assert _stage_status(history, norms, self.TOL, 200) == expected


def stiff_nlp(n=64, d=4, lam=1000.0):
    """min 1/2 int y^2 + u^2 with y' = -lam y + u, y(0) = 1, u = z1 - z2, on a graded mesh.

    Half of the n intervals are graded quadratically on [0, 10 / lam], where
    the boundary layer lies, the rest are uniform; omega and tau follow h = 1/n.
    """
    f_hess = np.zeros((4, 4))
    f_hess[1, 1] = f_hess[2, 2] = f_hess[3, 3] = 1.0
    f_hess[2, 3] = f_hess[3, 2] = -1.0

    def f_eval(dy, y, z, t):
        u = z[:, 0] - z[:, 1]
        grad = np.stack([np.zeros_like(u), y[:, 0], u, -u], axis=1)
        return 0.5 * (y[:, 0] ** 2 + u**2), grad, np.broadcast_to(f_hess, (len(t), 4, 4))

    def c_eval(dy, y, z, t):
        values = (dy[:, 0] + lam * y[:, 0] - z[:, 0] + z[:, 1])[:, None]
        jac = np.broadcast_to([[1.0, lam, -1.0, 1.0]], (len(t), 1, 4))
        return values, jac, np.broadcast_to(0.0, (len(t), 1, 4, 4))

    def b_eval(stacked_y):
        jac = np.zeros((1, len(stacked_y)))
        jac[0, 0] = 1.0
        return np.array([stacked_y[0] - 1.0]), jac, np.zeros((1, len(stacked_y), len(stacked_y)))

    problem = OcpProblem(
        n_y=1, n_z=2, m=1, p=1, time_points=(0.0, 1.0), f_eval=f_eval, c_eval=c_eval,
        b_eval=b_eval, initial_guess=lambda t: np.ones((t.size, 1)),
    )
    layer = 10.0 / lam
    graded = layer * (np.arange(n // 2 + 1) / (n // 2)) ** 2
    mesh = Mesh(np.concatenate([graded, np.linspace(layer, 1.0, n - n // 2 + 1)[1:]]))
    space = build_space([mesh] * 3, d, 1, 2)
    h = 1.0 / n
    params = MethodParams(h=h, sigma=mesh.width_ratio, d=d, omega=h ** (d / 2), tau=h**d)
    return AssembledNlp(problem, space, params)


FLOOR_CASES = [
    ("lq", 8, 32), ("lq", 10, 16), ("lq-multimesh", 4, 512), ("lq", 4, 512), ("lq", 4, 1024)
]


class TestRoundingFloor:
    @pytest.mark.parametrize(
        "name, d, n", FLOOR_CASES + [("stiff", 4, 64)], ids=lambda v: str(v)
    )
    def test_stalled_stage_ends_at_floor(self, name, d, n):
        # without the floor test each would spend all 200 steps of its last stage
        if name == "stiff":
            nlp = stiff_nlp(n, d)
        else:
            bench = get_benchmark(name)
            nlp = AssembledNlp(bench.problem, *build_setup(bench, 1.0 / n, d))
        report = solve(nlp)
        last = report.stages[-1]
        assert report.status == last.status == STATUS_ROUNDING_FLOOR
        assert all(stage.status == STATUS_CONVERGED for stage in report.stages[:-1])
        assert SolverOptions().resolved_grad_tol(nlp.N) < last.grad_norm < math.inf
        history = last.objective_history
        stalled = next(
            i for i in range(1, len(history))
            if abs(history[i] - history[i - 1]) <= _FLOOR_REL_CHANGE * abs(history[i])
        )
        assert len(history) - stalled <= _FLOOR_STEPS + 10


def per_node_start(nlp):
    """The default start written as a loop over every basis node, left to right, that
    calls the hint one time at a time; a shared endpoint keeps the right interval's value."""
    space, hint = nlp.space, nlp.problem.initial_guess
    values = np.zeros(space.N)
    nodes = gauss_lobatto_nodes(space.degree)
    for comp, mesh in enumerate(space.component_meshes):
        for k in range(mesh.n_intervals):
            for a, t in enumerate(mesh.breakpoints[k] + mesh.lengths[k] * nodes):
                if comp >= space.n_y:
                    value = max(1.0, nlp.params.tau)
                else:
                    value = 0.0 if hint is None else hint(np.array([t]))[0, comp]
                values[space.index_map[comp][k, a]] = value
    return ensure_interior(nlp, space.coefficient_vector(values))


START_CASES = [
    (name, h, d, None)
    for name in ("lq", "lq-multimesh", "trivial", "barrier-pull")
    for h, d in ((0.5, 1), (0.25, 4), (0.125, 3))
] + [("lq", None, 3, [[0.0, 0.05, 0.2, 0.45, 1.0], [0.0, 0.1, 0.3, 1.0], [0.0, 0.5, 0.7, 0.9, 1.0]])]


class TestStartingPoint:
    @pytest.mark.parametrize(
        "name, h, d, breakpoints",
        START_CASES,
        ids=[f"{c[0]}-h{c[1]}-d{c[2]}" if c[3] is None else f"{c[0]}-stretched" for c in START_CASES],
    )
    def test_default_start_equals_interpolation(self, name, h, d, breakpoints):
        # ``ocfem sparsity`` writes the Hessian at this point, so its .coo files depend on it
        bench = get_benchmark(name)
        space, params = build_setup(bench, h, d, breakpoints)
        nlp = AssembledNlp(bench.problem, space, params)
        assert default_start(nlp).values.tobytes() == per_node_start(nlp).values.tobytes()

    def test_varying_hint_per_component_mesh_and_large_tau(self):
        bench = get_benchmark("lq-multimesh")
        space, params = build_setup(bench, 0.25, 3)
        problem = replace(bench.problem, initial_guess=lambda t: np.cos(3.0 * t)[:, None])
        nlp = AssembledNlp(problem, space, replace(params, tau=2.5))
        x0 = default_start(nlp)
        assert x0.values.tobytes() == per_node_start(nlp).values.tobytes()
        assert (nlp.z_values(x0) == pytest.approx(2.5)) and x0.values.min() < 0.0

    def test_default_start_is_interior(self):
        nlp = lq_nlp(h=0.25)
        x0 = default_start(nlp)
        assert nlp.z_values(x0).min() > 0.0
        # hinted differential component starts at 1
        assert nlp.point_op @ x0.values == pytest.approx([1.0, 1.0])

    def test_start_from_another_space_rejected(self):
        # same N, other breakpoints: the coefficients would be read on the wrong mesh
        bench = get_benchmark("lq")
        nlps = [
            AssembledNlp(bench.problem, *build_setup(bench, None, 2, [inner] * 3))
            for inner in ([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.1, 0.5, 0.75, 1.0])
        ]
        x0 = solve(nlps[0]).x_final
        assert nlps[1].N == x0.space.N
        with pytest.raises(ValueError, match="another space"):
            solve(nlps[1], x0)

    @pytest.mark.parametrize(
        "hint, shape",
        [
            (lambda t: np.array([1.0, 2.0, 3.0]), (3,)),
            (lambda t: 1.0, ()),
            (lambda t: [[1.0]], (1, 1)),
            (lambda t: np.ones((t.size, 3)), (6, 3)),
        ],
        ids=["length-3", "float", "column", "width-3"],
    )
    def test_hint_of_another_shape_rejected(self, hint, shape):
        # h = 0.5, d = 2: the one mesh has 2 intervals of 3 nodes
        bench = get_benchmark("lq")
        nlp = AssembledNlp(replace(bench.problem, initial_guess=hint), *build_setup(bench, 0.5, 2))
        message = f"initial_guess returns shape {shape}, need (6, 1)"
        with pytest.raises(ValueError, match=re.escape(message)):
            solve(nlp)

    @pytest.mark.parametrize("point", [1, 2, 4, 5, 6])
    def test_shift_lost_to_rounding_is_doubled(self, point):
        # z1 = 1e17 (t - rho)^2 vanishes at the Gauss point rho; against coefficients
        # near 1e17 a first shift of 1e-2 less min z1 leaves min z1 at 0.0 for these
        # five of the eight points (the other three start with min z1 > 0)
        nlp = lq_nlp(h=0.5, d=3)
        rho = float(nlp.rule.points[point])
        x0 = nlp.space.interpolate(
            stacked(lambda t: 1.0, lambda t: 1e17 * (t - rho) ** 2, lambda t: 1.0)
        )
        shifted = ensure_interior(nlp, x0)
        assert nlp.z_values(shifted).min() > 0.0
        z2 = nlp.space.index_map[nlp.space.n_y + 1].ravel()
        assert shifted.values[z2].tobytes() == x0.values[z2].tobytes()  # already positive
        assert solve(nlp, x0).status != STATUS_BARRIER

    def test_negative_start_shifted_then_solves(self):
        nlp = barrier_pull_nlp(tau=1e-2)
        bad = nlp.space.interpolate(stacked(lambda t: -1.0))
        shifted = ensure_interior(nlp, bad)
        assert nlp.z_values(shifted).min() > 0.0
        # one shift of the margin less the minimum, not doubled
        low = nlp.z_values(bad).min()
        assert shifted.values.tobytes() == (bad.values + (1e-2 - low)).tobytes()
        report = solve(nlp, bad)
        assert report.status == STATUS_CONVERGED


class TestBarrierPull:
    @pytest.mark.parametrize("tau", [1e-2, 1e-3])
    def test_floor_tracks_tau(self, tau):
        nlp = barrier_pull_nlp(tau)
        report = solve(nlp)
        assert report.status == STATUS_CONVERGED
        z = nlp.z_values(report.x_final)
        assert np.abs(z / tau - 1.0).max() <= 0.1

    @pytest.mark.parametrize("tau", [1e-1, 1e-2])
    def test_floor_at_closed_form_minimizer(self, tau):
        # d = 2, two intervals, omega = 1e-2: z* is the positive root of
        # 1 + omega z - tau / z = 0, in the form that does not cancel
        omega = 1e-2
        nlp = barrier_pull_nlp(tau, omega)
        report = solve(nlp)
        assert report.status == STATUS_CONVERGED
        z_star = 2.0 * tau / (1.0 + math.sqrt(1.0 + 4.0 * omega * tau))
        assert np.abs(nlp.z_values(report.x_final) / z_star - 1.0).max() <= 1e-6
        assert abs(report.min_z / z_star - 1.0) <= 1e-6

    def test_halving_tau_halves_floor(self):
        first = solve(barrier_pull_nlp(1e-2))
        second = solve(barrier_pull_nlp(5e-3))
        ratio = second.min_z / first.min_z
        assert abs(ratio - 0.5) <= 0.05

    def test_positivity_report(self):
        nlp = barrier_pull_nlp(1e-2)
        report = solve(nlp)
        # the floor tau / L of the pull problem, whose slope bound L is 1
        assert report.min_z > 0.0
        assert report.min_z >= 0.9 * nlp.params.tau


class TestLiftedExport:
    def test_dimensions(self):
        nlp = lq_nlp(h=0.25)
        patterns = lifted_patterns(nlp)
        eq_rows = nlp.problem.m * nlp.M + nlp.problem.p
        slacks = nlp.space.n_z * nlp.M
        assert {name: shape[:2] for name, shape in patterns.items()} == {
            "JH_x": (eq_rows, nlp.N),
            "JH_lambda_nu": (eq_rows, eq_rows),
            "JG_x": (slacks, nlp.N),
            "JG_s": (slacks, slacks),
        }
        for name in ("JH_lambda_nu", "JG_s"):
            n_rows, _, rows, cols = patterns[name]
            assert np.array_equal(rows, np.arange(n_rows))
            assert np.array_equal(cols, np.arange(n_rows))

    def test_empty_point_block(self):
        nlp = barrier_pull_nlp(1e-2)
        patterns = lifted_patterns(nlp)
        for name in ("JH_x", "JH_lambda_nu"):
            n_rows, _, rows, cols = patterns[name]
            assert n_rows == 0 and len(rows) == 0 and len(cols) == 0
        assert patterns["JG_s"][0] == nlp.M

    def test_slack_pattern_matches_auxiliary_rows(self):
        # at even d the middle Gauss point is a Lobatto node, where all but
        # one basis function vanish: the pattern must still hold all d + 1
        for name in ("lq", "lq-multimesh"):
            bench = get_benchmark(name)
            space, params = build_setup(bench, 0.5, 4)
            nlp = AssembledNlp(bench.problem, space, params)
            n_rows, n_cols, coord_rows, coord_cols = lifted_patterns(nlp)["JG_x"]
            assert n_rows == space.n_z * nlp.M
            assert n_cols == nlp.N
            rows = {}
            for r, c in zip(coord_rows.tolist(), coord_cols.tolist()):
                rows.setdefault(r, set()).add(c)
            expected = {}
            for j, t in enumerate(nlp.rule.points):
                for k in range(space.n_z):
                    comp = space.n_y + k
                    mesh = space.component_meshes[comp]
                    block = space.index_map[comp][mesh.interval_index(float(t))]
                    expected[j * space.n_z + k] = set(block.tolist())
            assert rows == expected
            assert nlp.eval_op.nnz == nlp.M * (space.n_y + space.n_x) * (space.degree + 1)

    def test_constraint_pattern_matches_support(self):
        # path rows: every basis function whose interval holds the point;
        # point rows: the basis functions nonzero at the fixed times, which
        # at a Lobatto node is that node's function alone
        for name in ("lq", "lq-multimesh"):
            bench = get_benchmark(name)
            space, params = build_setup(bench, 0.5, 4)
            nlp = AssembledNlp(bench.problem, space, params)
            problem = nlp.problem
            n_rows, n_cols, coord_rows, coord_cols = lifted_patterns(nlp)["JH_x"]
            assert (n_rows, n_cols) == (problem.m * nlp.M + problem.p, nlp.N)
            rows = {}
            for r, c in zip(coord_rows.tolist(), coord_cols.tolist()):
                rows.setdefault(r, set()).add(c)
            expected = {}
            for j, t in enumerate(nlp.rule.points):
                cols = set()
                for comp, mesh in enumerate(space.component_meshes):
                    cols |= set(space.index_map[comp][mesh.interval_index(float(t))].tolist())
                for i in range(problem.m):
                    expected[j * problem.m + i] = cols
            point_cols = set()
            for comp in range(space.n_y):
                mesh = space.component_meshes[comp]
                for t in problem.time_points:
                    k = mesh.interval_index(t)
                    local = (t - mesh.breakpoints[k]) / mesh.lengths[k]
                    at_node = np.abs(local - gauss_lobatto_nodes(space.degree)) < 1e-14
                    block = space.index_map[comp][k]
                    point_cols |= set((block[at_node] if at_node.any() else block).tolist())
            for i in range(problem.p):
                expected[problem.m * nlp.M + i] = point_cols
            assert rows == expected

    @pytest.mark.parametrize("name", ["lq", "lq-multimesh", "trivial", "barrier-pull"])
    def test_lifting_reproduces_penalty_objective(self, name):
        bench = get_benchmark(name)
        if name == "barrier-pull":
            nlp = barrier_pull_nlp(1e-2)
        else:
            space, params = build_setup(bench, 0.25, 4)
            nlp = AssembledNlp(bench.problem, space, params)
        report = solve(nlp)
        assert report.status == STATUS_CONVERGED
        h_c, h_b = nlp.penalty_blocks(report.x_final)
        omega = nlp.params.omega
        lam, nu = report.multipliers
        assert np.array_equal(lam, -h_c / omega) and np.array_equal(nu, -h_b / omega)
        value = lifted_objective(nlp, report.x_final, -lam, -nu)
        assert abs(value - report.terms.barrier_free) <= 1e-9


def direction(band, grad):
    """``_newton_direction`` on a Fortran-ordered copy of ``band``, which it may
    overwrite, re-assembled as another such copy."""
    return _newton_direction(band.copy(order="F"), grad, lambda: band.copy(order="F"))


def copy_per_try_direction(band, grad):
    """The inertia correction as a loop that factors a fresh copy of ``band`` on
    every try, delta 0 first, then doubling from the floor up to the cap."""
    delta = 0.0
    while delta <= ocfem.solver._MAX_SHIFT_FACTOR * ocfem.solver._REGULARIZATION_FLOOR:
        shifted = band.copy(order="F")
        shifted[0] += delta
        factor, info = _PBTRF(shifted, lower=1, overwrite_ab=1)
        if info == 0:
            return _PBTRS(factor, -grad, lower=1, overwrite_b=1)[0]
        delta = ocfem.solver._REGULARIZATION_FLOOR if delta == 0.0 else 2.0 * delta
    return None


def concave_nlp(omega=1e-6):
    """f = -10 y^2 on two intervals at d = 2: the Hessian is concave in y."""

    def f_eval(dy, y, z, t):
        grad = np.stack([np.zeros(len(t)), -20.0 * y[:, 0]], axis=1)
        hess = np.broadcast_to(np.diag([0.0, -20.0]), (len(t), 2, 2))
        return -10.0 * y[:, 0] ** 2, grad, hess

    problem = OcpProblem(n_y=1, n_z=0, m=0, p=0, time_points=(0.0, 1.0), f_eval=f_eval)
    space = build_space([uniform_mesh((0.0, 1.0), 2)], 2, 1, 0)
    return AssembledNlp(problem, space, MethodParams(h=0.5, sigma=1.0, d=2, omega=omega, tau=1e-6))


class TestInertiaCorrection:
    # matrices in lower band form: row 0 is the diagonal
    def test_identity_needs_no_shift(self):
        step = direction(np.ones((1, 3)), np.ones(3))
        assert step == pytest.approx(-np.ones(3))

    def test_singular_matrix_shifted(self):
        step = direction(np.zeros((1, 2)), np.array([1.0, 0.0]))
        assert step is not None and np.isfinite(step).all()

    def test_shift_lands_on_diagonal(self):
        # [[1, 1], [1, 1]] is singular; only a diagonal shift makes it PD
        band = np.array([[1.0, 1.0], [1.0, 0.0]])
        step = direction(band, np.ones(2))
        assert step == pytest.approx(-0.5 * np.ones(2))

    def test_shifted_retry_reassembles_the_band(self, monkeypatch, rng):
        # omega's share omega (K + M) of y's stiffness and mass matrices meets the
        # curvature -20 M: H = omega K - (20 - omega) M, just indefinite (-2e-5) at
        # this omega.  The delta-0 try fails past the first column, so it has
        # overwritten the band, and a shift within the cap succeeds.
        nlp = concave_nlp(omega=19.9999)
        x = nlp.coefficients(rng.uniform(-0.1, 0.1, nlp.N))
        grad, layout = nlp.gradient(x), nlp.hessian_layout
        fresh = nlp.hessian_band(x)
        assert fresh.flags.f_contiguous and _PBTRF(fresh.copy(order="F"), lower=1)[1] > 1
        expected = copy_per_try_direction(fresh, grad[layout.band_order])
        assert expected is not None
        pd = nlp.with_params(100.0, 1e-6)  # H = 100 K + 80 M: PD, no retry
        calls = []
        for program in (nlp, pd):
            band_of = program.hessian_band
            monkeypatch.setattr(program, "hessian_band", lambda x, f=band_of: calls.append(x) or f(x))
        step = _newton_step(nlp, x, grad)
        assert step.tobytes() == expected[layout.band_position].tobytes()
        assert len(calls) == 2  # the failed try's band, then one to copy for the retries
        _newton_step(pd, x, pd.gradient(x))
        assert len(calls) == 3

    def test_non_finite_band_rejected(self, monkeypatch):
        def no_factorization(*args, **kwargs):
            raise AssertionError("pbtrf called")

        monkeypatch.setattr(ocfem.solver, "_PBTRF", no_factorization)
        for bad in (np.nan, np.inf, -np.inf):
            band = np.array([[1.0, 1.0], [bad, 0.0]])
            with pytest.raises(ValueError, match="infs or NaNs"):
                direction(band, np.ones(2))

    def test_strongly_indefinite_gives_up(self):
        # a negative eigenvalue far beyond the shift cap -> gradient fallback
        assert direction(np.array([[1.0, -1.0]]), np.ones(2)) is None

    def test_concave_problem_fails_gracefully(self, rng):
        nlp = concave_nlp()
        x0 = nlp.coefficients(rng.uniform(-0.1, 0.1, nlp.N))
        report = solve(nlp, x0, SolverOptions(max_iters=20))
        assert report.status in (STATUS_MAX_ITERS, STATUS_LINE_SEARCH)


def _wrap_around(stacked_y):
    """Point constraint y(0) - y(1) = 0: couples the first and last coefficients."""
    return np.array([stacked_y[0] - stacked_y[1]]), np.array([[1.0, -1.0]]), np.zeros((1, 2, 2))


def _bandwidth(nlp):
    """Half-bandwidth kd of the interleaved Hessian at the default start."""
    return nlp.hessian_band(default_start(nlp)).shape[0] - 1


class TestBandedStep:
    @pytest.mark.parametrize("name", ["lq", "lq-multimesh", "wrap-around"])
    def test_matches_dense_solve(self, name):
        bench = get_benchmark("lq" if name == "wrap-around" else name)
        problem = bench.problem
        if name == "wrap-around":
            problem = replace(problem, b_eval=_wrap_around)
        space, params = build_setup(bench, 1 / 16, 4)
        nlp = AssembledNlp(problem, space, params).with_params(1e-1, 1e-1)
        x = default_start(nlp)
        grad = nlp.gradient(x)
        kd = _bandwidth(nlp)
        if name == "wrap-around":
            assert kd > nlp.N // 2
        else:
            assert kd < nlp.N // 4
        dense = np.linalg.solve(nlp.full_hessian(x).toarray(), -grad)
        step = _newton_step(nlp, x, grad)
        assert np.linalg.norm(step - dense) <= 1e-10 * np.linalg.norm(dense)

    @pytest.mark.parametrize("name", ["lq", "lq-multimesh", "breakpoints"])
    def test_bandwidth_independent_of_mesh_size(self, name):
        bench = get_benchmark("lq" if name == "breakpoints" else name)
        widths = []
        for n in (16, 64):
            breakpoints = None
            if name == "breakpoints":
                # stretched mesh for y, uniform meshes for z1 and z2
                t = np.linspace(0.0, 1.0, n + 1)
                breakpoints = [(t + 0.3 * t * (1 - t)).tolist(), t.tolist(), t.tolist()]
            space, params = build_setup(bench, 1 / n, 4, breakpoints)
            widths.append(_bandwidth(AssembledNlp(bench.problem, space, params)))
        assert widths[0] == widths[1]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("name", ["lq", "trivial", "barrier-pull"])
    def test_bandwidth_is_clique_bound(self, name, d):
        # on a shared mesh every coefficient of one interval couples with every other
        bench = get_benchmark(name)
        for h in (1 / 8, 1 / 32):
            space, params = build_setup(bench, h, d)
            assert _bandwidth(AssembledNlp(bench.problem, space, params)) == space.n_x * (d + 1) - 1

    def test_multimesh_bandwidth(self):
        # y on a 2x coarser mesh: its shared endpoint has 48 neighbours
        bench = get_benchmark("lq-multimesh")
        space, params = build_setup(bench, 1 / 16, 4)
        assert _bandwidth(AssembledNlp(bench.problem, space, params)) == 24

    @pytest.mark.parametrize(
        "name, d, h",
        [("lq", 4, 1 / 64), ("lq-multimesh", 4, 1 / 64), ("lq", 8, 1 / 16), ("barrier-pull", 4, 1 / 256)],
    )
    def test_step_peak_within_band_multiple(self, name, d, h):
        # the flat squares beside one slice of weighted rows (and the blocks, unless
        # it is the only slice), then beside the band, which pbtrf factors in place; a
        # second band, all weighted rows at once or a second sum buffer would pass it
        bench = get_benchmark(name)
        nlp = AssembledNlp(bench.problem, *build_setup(bench, h, d))
        x = default_start(nlp)
        grad = nlp.gradient(x)
        _newton_step(nlp, x, grad)  # builds the layout; the point data is cached
        band_bytes = nlp.hessian_band(x).nbytes
        gc.collect()
        tracemalloc.start()
        try:
            _newton_step(nlp, x, grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * band_bytes


def loop_default_schedule(omega, tau, stages=4):
    """The default continuation as a loop: geometric stages, deduplicated, then the target."""
    start_omega = max(omega, 1e-1)
    start_tau = max(tau, 1e-1)
    schedule = []
    for i in range(stages):
        frac = i / (stages - 1)
        schedule.append(
            (
                start_omega ** (1 - frac) * omega**frac,
                start_tau ** (1 - frac) * tau**frac,
            )
        )
    deduped = [schedule[0]]
    for pair in schedule[1:]:
        if pair != deduped[-1]:
            deduped.append(pair)
    if deduped[-1] != (omega, tau):
        deduped.append((omega, tau))
    return deduped


def _hex(schedule):
    return [(w.hex(), t.hex()) for w, t in schedule]


class TestSchedules:
    def test_default_matches_loop_oracle(self):
        grid = [10.0**e for e in range(-16, 3)] + [0.1, 0.3, 1.0 / 3.0, 1.0, 2.5]
        # the oracle appends the target when its last stage differs: it never does
        widths = [2.0**-k for k in range(13)]
        coupled = [(h ** (d / 2), h**d) for h in widths for d in range(31)]
        for omega, tau in [(w, t) for w in grid for t in grid] + coupled:
            assert _hex(_schedule(omega, tau)) == _hex(loop_default_schedule(omega, tau))

    def test_repeated_stage_changes_only_stage_count(self):
        # omega, tau >= 0.1 collapse the schedule to one stage; the dropped
        # repeats would have started at a converged point and taken no step
        nlp = lq_nlp(h=0.25).with_params(0.5, 0.5)
        tol = SolverOptions().resolved_grad_tol(nlp.N)
        first = solve(nlp)
        _, again = _newton_stage(nlp, first.x_final, SolverOptions(), tol)
        assert first.status == again.status == STATUS_CONVERGED and len(first.stages) == 1
        assert again.iterations == 0

    def test_default_schedule_ends_at_params(self):
        nlp = lq_nlp(h=0.25)
        report = solve(nlp)
        assert report.stages[-1].omega == nlp.params.omega
        assert report.stages[-1].tau == nlp.params.tau

    def test_options_validation(self):
        for grad_tol in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="grad_tol"):
                SolverOptions(grad_tol=grad_tol)
        with pytest.raises(ValueError, match="max_iters must be nonnegative"):
            SolverOptions(max_iters=-1)

    def test_stages_and_report_reuse_point_data(self, monkeypatch):
        calls, first, ends = [], [], []
        evaluate, newton_stage = ocfem.assembly.eval_running_cost, ocfem.solver._newton_stage
        monkeypatch.setattr(
            ocfem.assembly, "eval_running_cost", lambda *args: calls.append(1) or evaluate(*args)
        )

        def counted_stage(nlp, x, opts, tol):
            before = len(calls)
            nlp.objective_terms(x)  # the stage's first objective
            first.append(len(calls) - before)
            result = newton_stage(nlp, x, opts, tol)
            ends.append(len(calls))
            return result

        monkeypatch.setattr(ocfem.solver, "_newton_stage", counted_stage)
        report = solve(lq_nlp(h=0.25))
        assert report.status == STATUS_CONVERGED and len(report.stages) > 2
        assert first[1:] == [0] * (len(first) - 1)
        assert len(calls) == ends[-1]  # the report evaluates nothing new
