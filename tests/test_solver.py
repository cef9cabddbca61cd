from dataclasses import replace

import numpy as np
import pytest

import ocfem.assembly
import ocfem.solver
from ocfem.assembly import AssembledNlp
from ocfem.fespace import build_space
from ocfem.harness import build_setup, get_benchmark
from ocfem.mesh import uniform_mesh
from ocfem.ocp_model import MethodParams, OcpProblem, default_params, residual
from ocfem.solver import (
    STATUS_CONVERGED,
    STATUS_LINE_SEARCH,
    STATUS_MAX_ITERS,
    SolverOptions,
    _newton_direction,
    _newton_step,
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
    def test_converges_in_few_iterations(self, rng):
        def f_eval(dy, y, z, t):
            return 0.5 * float(y[0] ** 2), np.array([0.0, y[0]]), np.diag([0.0, 1.0])

        problem = OcpProblem(
            n_y=1, n_z=0, m=0, p=0, time_points=(0.0, 1.0), f_eval=f_eval
        )
        space = build_space([uniform_mesh((0.0, 1.0), 4)], 3, 1, 0)
        params = default_params(0.25, 1.0, 3)
        nlp = AssembledNlp(problem, space, params)
        x0 = space.coefficient_vector(rng.uniform(-1.0, 1.0, space.N))
        opts = SolverOptions(
            grad_tol=1e-10, continuation=[(params.omega, params.tau)]
        )
        report = solve(nlp, x0, opts)
        assert report.status == STATUS_CONVERGED
        assert report.total_iterations <= 3
        assert report.grad_norm <= 1e-10


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


def interpolated_start(nlp):
    """The default start written as an interpolation of one function per component."""
    space, hint = nlp.space, nlp.problem.initial_guess
    z_level = max(1.0, nlp.params.tau)
    functions = [
        (lambda t, c=comp: float(hint(t)[c])) if hint is not None else (lambda t: 0.0)
        for comp in range(space.n_y)
    ] + [lambda t: z_level] * space.n_z
    return ensure_interior(nlp, space.interpolate(functions))


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
        assert default_start(nlp).values.tobytes() == interpolated_start(nlp).values.tobytes()

    def test_varying_hint_per_component_mesh_and_large_tau(self):
        bench = get_benchmark("lq-multimesh")
        space, params = build_setup(bench, 0.25, 3)
        problem = replace(bench.problem, initial_guess=lambda t: np.array([np.cos(3.0 * t)]))
        nlp = AssembledNlp(problem, space, replace(params, tau=2.5))
        x0 = default_start(nlp)
        assert x0.values.tobytes() == interpolated_start(nlp).values.tobytes()
        assert (nlp.z_values(x0) == pytest.approx(2.5)) and x0.values.min() < 0.0

    def test_default_start_is_interior(self):
        nlp = lq_nlp(h=0.25)
        x0 = default_start(nlp)
        assert nlp.z_values(x0).min() > 0.0
        # hinted differential component starts at 1
        assert nlp.point_op @ x0.values == pytest.approx([1.0, 1.0])

    def test_negative_start_shifted_then_solves(self):
        nlp = barrier_pull_nlp(tau=1e-2)
        bad = nlp.space.interpolate([lambda t: -1.0])
        shifted = ensure_interior(nlp, bad)
        assert nlp.z_values(shifted).min() > 0.0
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
                    at_node = np.abs(local - space.basis.nodes) < 1e-14
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
        lam, nu = report.multipliers.lam, report.multipliers.nu
        assert np.array_equal(lam, -h_c / omega) and np.array_equal(nu, -h_b / omega)
        value = lifted_objective(nlp, report.x_final, -lam, -nu)
        assert abs(value - report.terms.barrier_free) <= 1e-9


class TestInertiaCorrection:
    # matrices in lower band form: row 0 is the diagonal
    def test_identity_needs_no_shift(self):
        step = _newton_direction(np.ones((1, 3)), np.ones(3), 1e-12)
        assert step == pytest.approx(-np.ones(3))

    def test_singular_matrix_shifted(self):
        step = _newton_direction(np.zeros((1, 2)), np.array([1.0, 0.0]), 1e-12)
        assert step is not None and np.isfinite(step).all()

    def test_shift_lands_on_diagonal(self):
        # [[1, 1], [1, 1]] is singular; only a diagonal shift makes it PD
        band = np.array([[1.0, 1.0], [1.0, 0.0]])
        step = _newton_direction(band, np.ones(2), 1e-12)
        assert step == pytest.approx(-0.5 * np.ones(2))

    def test_shifted_retry_leaves_band_unchanged(self):
        # both need a shift; a one-row band is also Fortran-contiguous
        for band in (np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([[4.0, 0.0]])):
            kept = band.copy()
            step = _newton_direction(band, np.ones(2), 1e-12)
            assert step is not None and np.isfinite(step).all()
            assert np.array_equal(band, kept)

    def test_non_finite_band_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            band = np.array([[1.0, 1.0], [bad, 0.0]])
            with pytest.raises(ValueError, match="infs or NaNs"):
                _newton_direction(band, np.ones(2), 1e-12)

    def test_strongly_indefinite_gives_up(self):
        # a negative eigenvalue far beyond the shift cap -> gradient fallback
        assert _newton_direction(np.array([[1.0, -1.0]]), np.ones(2), 1e-12) is None

    def test_concave_problem_fails_gracefully(self, rng):
        def f_eval(dy, y, z, t):
            return -10.0 * float(y[0] ** 2), np.array([0.0, -20.0 * y[0]]), np.diag(
                [0.0, -20.0]
            )

        problem = OcpProblem(
            n_y=1, n_z=0, m=0, p=0, time_points=(0.0, 1.0), f_eval=f_eval
        )
        space = build_space([uniform_mesh((0.0, 1.0), 2)], 2, 1, 0)
        params = MethodParams(h=0.5, sigma=1.0, d=2, omega=1e-6, tau=1e-6)
        nlp = AssembledNlp(problem, space, params)
        x0 = space.coefficient_vector(rng.uniform(-0.1, 0.1, space.N))
        report = solve(
            nlp, x0, SolverOptions(max_iters=20, continuation=[(1e-6, 1e-6)])
        )
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


class TestSchedules:
    def test_explicit_schedule_gets_target_appended(self):
        nlp = lq_nlp(h=0.25)
        report = solve(nlp, opts=SolverOptions(continuation=[(0.5, 0.5)]))
        assert report.stages[-1].omega == nlp.params.omega
        assert report.stages[-1].tau == nlp.params.tau

    def test_default_schedule_ends_at_params(self):
        nlp = lq_nlp(h=0.25)
        report = solve(nlp)
        assert report.stages[-1].omega == nlp.params.omega
        assert report.stages[-1].tau == nlp.params.tau

    def test_options_validation(self):
        for grad_tol in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="grad_tol"):
                SolverOptions(grad_tol=grad_tol)

    def test_non_finite_continuation_rejected(self):
        nlp = lq_nlp(h=0.25)
        with pytest.raises(ValueError, match="omega"):
            solve(nlp, None, SolverOptions(continuation=[(float("nan"), 0.1)]))

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
