from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sparse

import ocfem.assembly
import ocfem.mesh
from ocfem.assembly import AssembledNlp
from ocfem.errors import BarrierDomainError
from ocfem.fespace import build_regularizer, build_space
from ocfem.harness import build_setup, get_benchmark
from ocfem.mesh import uniform_mesh
from ocfem.ocp_model import MethodParams, OcpProblem, default_params, residual
from ocfem.solver import solve


def make_nlp(problem, n_intervals=3, degree=3, h=None, omega=None, tau=None):
    h = h if h is not None else 1.0 / n_intervals
    meshes = [uniform_mesh(problem.domain, n_intervals) for _ in range(problem.n_x)]
    space = build_space(meshes, degree, problem.n_y, problem.n_z)
    params = default_params(h, 1.0, degree)
    if omega is not None or tau is not None:
        params = MethodParams(
            h=h, sigma=1.0, d=degree,
            omega=omega if omega is not None else params.omega,
            tau=tau if tau is not None else params.tau,
        )
    return AssembledNlp(problem, space, params)


def constant_cost_problem(value=1.0, n_z=1):
    width = n_z  # no differential components

    def f_eval(dy, y, z, t):
        return value, np.zeros(width), np.zeros((width, width))

    return OcpProblem(
        n_y=0, n_z=n_z, m=0, p=0, time_points=(0.0, 1.0), f_eval=f_eval
    )


def dy_equals_z_problem():
    """c = dy - z with zero cost; used for hand-computed penalty values."""

    def f_eval(dy, y, z, t):
        return 0.0, np.zeros(3), np.zeros((3, 3))

    def c_eval(dy, y, z, t):
        return np.array([dy[0] - z[0]]), np.array([[1.0, 0.0, -1.0]]), np.zeros((1, 3, 3))

    return OcpProblem(
        n_y=1, n_z=1, m=1, p=0, time_points=(0.0, 1.0),
        f_eval=f_eval, c_eval=c_eval,
    )


def random_interior_point(nlp, rng):
    """Coefficients with the auxiliary blocks kept safely positive."""
    space = nlp.space
    values = rng.uniform(-1.0, 1.0, space.N)
    for comp in range(space.n_y, space.n_x):
        idx = np.unique(space.index_map[comp])
        values[idx] = rng.uniform(0.5, 1.5, idx.size)
    return space.coefficient_vector(values)


class TestConstruction:
    def test_degree_must_match_space(self):
        # the program uses only the space's degree, so another params.d would
        # be reported without having had any effect
        bench = get_benchmark("lq")
        space, params = build_setup(bench, 0.25, 4)
        with pytest.raises(ValueError, match="params.d = 2 differs from space degree 4"):
            AssembledNlp(bench.problem, space, replace(params, d=2))

    def test_mesh_ratio_checked_against_sigma(self):
        bench = get_benchmark("lq")
        graded = [0.0, 0.1, 0.5, 1.0]  # widths 0.1, 0.4, 0.5: ratio 0.2
        space, params = build_setup(bench, None, 2, [graded, [0.0, 1.0], [0.0, 0.5, 1.0]])
        assert params.sigma == 0.1 / 0.5
        AssembledNlp(bench.problem, space, params)
        message = "component 0 mesh has width ratio 0.2, below sigma = 0.25"
        with pytest.raises(ValueError, match=message):
            AssembledNlp(bench.problem, space, replace(params, sigma=0.25))

    def test_uniform_widths_pass_sigma_one(self):
        # ten uniform widths differ in their last bits; the check allows for it
        space = build_space([uniform_mesh((0.0, 1.0), 10)], 2, 0, 1)
        lengths = space.component_meshes[0].lengths
        assert lengths.min() < lengths.max()
        AssembledNlp(constant_cost_problem(), space, default_params(0.1, 1.0, 2))


class TestObjectiveTerms:
    def test_flat_problem_all_zero(self):
        nlp = make_nlp(constant_cost_problem(0.0), degree=2)
        x = nlp.space.interpolate([lambda t: 1.0])
        terms = nlp.objective_terms(x)
        assert terms.f == 0.0
        assert terms.penalty == 0.0
        assert abs(terms.barrier) < 1e-15  # log 1 up to interpolation rounding

    def test_unit_cost_integrates_to_one(self):
        nlp = make_nlp(constant_cost_problem(1.0), n_intervals=4, degree=2)
        x = nlp.space.interpolate([lambda t: 1.0])
        assert nlp.objective_terms(x).f == pytest.approx(1.0, rel=1e-14)

    def test_penalty_hand_value(self):
        # c = dy - z with y = t, z = 1/2: |H_c|^2 = 1/4, omega = 1/2 -> 1/4
        nlp = make_nlp(dy_equals_z_problem(), n_intervals=2, degree=2, omega=0.5)
        x = nlp.space.interpolate([lambda t: t, lambda t: 0.5])
        terms = nlp.objective_terms(x)
        assert terms.penalty == pytest.approx(0.25, rel=1e-13)

    def test_total_combines_terms(self):
        nlp = make_nlp(dy_equals_z_problem(), n_intervals=2, degree=2)
        x = nlp.space.interpolate([lambda t: t, lambda t: 0.5])
        terms = nlp.objective_terms(x)
        omega = nlp.params.omega
        assert terms.total == pytest.approx(
            terms.f + 0.5 * omega * terms.quad_norm + terms.penalty - terms.barrier
        )
        assert terms.barrier_free == pytest.approx(terms.total + terms.barrier)

    def test_barrier_domain_error_identifies_point(self):
        nlp = make_nlp(constant_cost_problem(0.0), n_intervals=2, degree=1)
        x = nlp.space.interpolate([lambda t: 1.0 if t < 0.5 else -1.0])
        with pytest.raises(BarrierDomainError) as err:
            nlp.objective_terms(x)
        assert err.value.component == 0
        assert err.value.point_index >= nlp.M // 2  # the negative half


class TestPenaltyBlocks:
    def test_feasible_constraint_vanishes(self):
        nlp = make_nlp(dy_equals_z_problem(), n_intervals=3, degree=2)
        x = nlp.space.interpolate([lambda t: t, lambda t: 1.0])
        h_c, h_b = nlp.penalty_blocks(x)
        assert np.abs(h_c).max() < 1e-13
        assert h_b.size == 0

    def test_unit_constraint_weight_sum(self):
        # c = dy - z = 1 with y = t, z = 0: |H_c|^2 = domain width
        nlp = make_nlp(dy_equals_z_problem(), n_intervals=3, degree=2)
        x = nlp.space.interpolate([lambda t: t, lambda t: 0.0])
        h_c, _ = nlp.penalty_blocks(x)
        assert h_c @ h_c == pytest.approx(1.0, rel=1e-13)

    def test_boundary_block(self):
        bench = get_benchmark("lq")
        nlp = make_nlp(bench.problem, n_intervals=2, degree=2)
        x = nlp.space.interpolate([lambda t: 1.0, lambda t: 1.0, lambda t: 1.0])
        _, h_b = nlp.penalty_blocks(x)
        assert h_b == pytest.approx([0.0], abs=1e-14)

    def test_weight_identity_against_independent_residual(self, rng):
        bench = get_benchmark("lq")
        nlp = make_nlp(bench.problem, n_intervals=3, degree=3)
        for _ in range(5):
            x = random_interior_point(nlp, rng)
            h_c, h_b = nlp.penalty_blocks(x)
            via_blocks = float(h_c @ h_c) + float(h_b @ h_b)
            direct = residual(bench.problem, x, nlp.space, nlp.rule)
            assert abs(via_blocks - direct) <= 1e-13 * max(1.0, direct)


class TestBarrierForms:
    def test_one_norm_equals_weighted_sum_for_z_above_one(self, rng):
        nlp = make_nlp(constant_cost_problem(0.0), n_intervals=3, degree=2)
        space = nlp.space
        values = rng.uniform(1.0, 3.0, space.N)
        x = space.coefficient_vector(values)
        z = nlp.z_values(x)
        assert z.min() >= 1.0
        scaled = nlp.rule.weights[:, None] * np.log(z)
        assert float(np.abs(scaled).sum()) == float(scaled.sum())  # |.| drops for z >= 1


class TestGradient:
    def test_regularized_quadrature_norm_pattern(self, rng):
        # f reproducing the norm integrand makes the gradient (1 + omega) S x
        def f_eval(dy, y, z, t):
            v = np.concatenate([dy, y])
            return 0.5 * float(v @ v), v, np.eye(2)

        problem = OcpProblem(
            n_y=1, n_z=0, m=0, p=0, time_points=(0.0, 1.0), f_eval=f_eval
        )
        nlp = make_nlp(problem, n_intervals=3, degree=2)
        x = nlp.space.coefficient_vector(rng.uniform(-1.0, 1.0, nlp.N))
        grad = nlp.gradient(x)
        expected = (1 + nlp.params.omega) * (nlp.regularizer @ x.values)
        assert grad == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("name", ["lq", "trivial", "barrier-pull"])
    def test_matches_finite_differences(self, name, rng):
        bench = get_benchmark(name)
        nlp = make_nlp(bench.problem, n_intervals=2, degree=2)
        step = 1e-6
        for _ in range(3):
            x = random_interior_point(nlp, rng)
            grad = nlp.gradient(x)
            fd = np.empty_like(grad)
            for i in range(nlp.N):
                s = step * max(1.0, abs(x.values[i]))
                plus = x.values.copy()
                minus = x.values.copy()
                plus[i] += s
                minus[i] -= s
                fd[i] = (
                    nlp.objective_terms(nlp.coefficients(plus)).total
                    - nlp.objective_terms(nlp.coefficients(minus)).total
                ) / (2 * s)
            scale = max(1.0, np.abs(grad).max())
            assert np.abs(fd - grad).max() / scale <= 1e-6

    def test_barrier_domain_error(self):
        nlp = make_nlp(constant_cost_problem(0.0), n_intervals=2, degree=1)
        x = nlp.space.interpolate([lambda t: -1.0])
        with pytest.raises(BarrierDomainError):
            nlp.gradient(x)


class TestHessians:
    @pytest.mark.parametrize("name", ["lq", "trivial", "barrier-pull"])
    def test_full_hessian_matches_gradient_differences(self, name, rng):
        bench = get_benchmark(name)
        nlp = make_nlp(bench.problem, n_intervals=2, degree=2)
        step = 1e-6
        for _ in range(2):
            x = random_interior_point(nlp, rng)
            hess = nlp.full_hessian(x).toarray()
            fd = np.empty_like(hess)
            for i in range(nlp.N):
                s = step * max(1.0, abs(x.values[i]))
                plus = x.values.copy()
                minus = x.values.copy()
                plus[i] += s
                minus[i] -= s
                fd[:, i] = (
                    nlp.gradient(nlp.coefficients(plus))
                    - nlp.gradient(nlp.coefficients(minus))
                ) / (2 * s)
            scale = max(1.0, np.abs(hess).max())
            assert np.abs(fd - hess).max() / scale <= 1e-5

    def test_constant_for_quadratic_objective_linear_constraints(self, rng):
        bench = get_benchmark("trivial")
        nlp = make_nlp(bench.problem, n_intervals=2, degree=2)
        a = nlp.full_hessian(random_interior_point(nlp, rng))
        b = nlp.full_hessian(random_interior_point(nlp, rng))
        # only the barrier diagonal moves between the two points
        z_cols = np.unique(nlp.space.index_map[1])
        mask = np.ones(nlp.N, dtype=bool)
        mask[z_cols] = False
        diff = (a - b).toarray()[np.ix_(mask, mask)]
        assert np.abs(diff).max() < 1e-12

    def test_barrier_diagonal_construction(self, rng):
        nlp = make_nlp(constant_cost_problem(0.0), n_intervals=2, degree=0, tau=1e-4)
        x = nlp.space.coefficient_vector(rng.uniform(0.2, 0.6, nlp.N))
        hess = nlp.full_hessian(x).toarray()
        z = nlp.z_values(x)
        tau, omega = nlp.params.tau, nlp.params.omega
        # piecewise constants: each coefficient collects its own interval's points
        for comp_block, col in enumerate(np.unique(nlp.space.index_map[0])):
            pts = [j for j in range(nlp.M) if nlp.rule.interval_of[j] == comp_block]
            expected = sum(
                tau * nlp.rule.weights[j] / z[j, 0] ** 2 for j in pts
            ) + omega * nlp.regularizer[col, col]
            assert hess[col, col] == pytest.approx(expected, rel=1e-12)

    def test_bandwidth_after_interleaving(self, rng):
        bench = get_benchmark("lq")
        nlp = make_nlp(bench.problem, n_intervals=4, degree=3)
        x = random_interior_point(nlp, rng)
        order = nlp.hessian_layout.band_order
        hess = nlp.full_hessian(x).toarray()[np.ix_(order, order)]
        rows, cols = np.nonzero(hess)
        bound = (nlp.space.degree + 1) * nlp.space.n_x - 1
        assert np.abs(rows - cols).max() <= bound


def curved_problem():
    """Nonlinear f, c and b, so c_hess and b_hess are nonzero; B = (dy, y, z)."""

    def f_eval(dy, y, z, t):
        grad = np.array([dy[0], 2 * y[0] * z[0], y[0] ** 2])
        hess = np.array([[1.0, 0, 0], [0, 2 * z[0], 2 * y[0]], [0, 2 * y[0], 0]])
        return 0.5 * dy[0] ** 2 + y[0] ** 2 * z[0], grad, hess

    def c_eval(dy, y, z, t):
        value = dy[0] - np.sin(y[0]) + 0.1 * z[0] ** 2
        jac = np.array([[1.0, -np.cos(y[0]), 0.2 * z[0]]])
        return np.array([value]), jac, np.diag([0.0, np.sin(y[0]), 0.2])[None]

    def b_eval(stacked_y):
        y0, y1 = stacked_y
        jac = np.array([[2 * y0 + y1, y0]])
        return np.array([y0**2 + y0 * y1 - 1]), jac, np.array([[[2.0, 1.0], [1.0, 0.0]]])

    return OcpProblem(
        n_y=1, n_z=1, m=1, p=1, time_points=(0.0, 1.0),
        f_eval=f_eval, c_eval=c_eval, b_eval=b_eval,
    )


def reference_hessian(nlp, x):
    """P' blockdiag(blocks) P + omega S + point_op' B point_op, symmetrized.

    The Hessian as sparse products, the reference for the fixed layout.
    """
    data = nlp._point_data(x)
    omega, tau, alpha = nlp.params.omega, nlp.params.tau, nlp.rule.weights
    B, n_y = nlp.space.block_width, nlp.space.n_y
    blocks = alpha[:, None, None] * data.f_hess
    if nlp.problem.m > 0:
        blocks = blocks + (alpha / omega)[:, None, None] * (
            np.einsum("jia,jib->jab", data.c_jac, data.c_jac)
            + np.einsum("ji,jiab->jab", data.c, data.c_hess)
        )
    idx = np.arange(2 * n_y, B)
    blocks[:, idx, idx] += tau * alpha[:, None] / data.values[:, idx] ** 2
    hess = nlp.eval_op.T @ sparse.block_diag(list(blocks)) @ nlp.eval_op
    hess = hess + omega * nlp.regularizer
    if nlp.problem.p > 0:
        point_block = (
            data.b_jac.T @ data.b_jac + np.einsum("i,iab->ab", data.b, data.b_hess)
        ) / omega
        hess = hess + nlp.point_op.T @ sparse.csr_matrix(point_block) @ nlp.point_op
    return ((hess + hess.T) * 0.5).toarray()


def oracle_case(name):
    """An AssembledNlp at h = 1/8, d = 3 for each assembly corner."""
    if name == "curved":
        return make_nlp(curved_problem(), n_intervals=8, degree=3)
    bench = get_benchmark("lq" if name in ("breakpoints", "wrap-around") else name)
    problem, breakpoints = bench.problem, None
    if name == "breakpoints":
        # a stretched y mesh splits every interval of the uniform z meshes
        t = np.linspace(0.0, 1.0, 9)
        breakpoints = [(t + 0.3 * t * (1 - t)).tolist(), t.tolist(), t.tolist()]
    if name == "wrap-around":
        # y(0) - y(1) = 0 couples the first and last coefficients
        problem = replace(problem, b_eval=lambda y: (
            np.array([y[0] - y[1]]), np.array([[1.0, -1.0]]), np.zeros((1, 2, 2))
        ))
    space, params = build_setup(bench, 1 / 8, 3, breakpoints)
    return AssembledNlp(problem, space, params).with_params(1e-2, 1e-2)


ORACLE_CASES = [
    "lq", "lq-multimesh", "breakpoints", "barrier-pull", "trivial", "wrap-around", "curved"
]


def bincount_lower_sums(nlp, x):
    """The lower entries as element and point squares gathered pair by pair and
    summed with np.bincount, in input order: the reference summation order."""
    data, layout, space = nlp._point_data(x), nlp.hessian_layout, nlp.space
    omega, tau, alpha = nlp.params.omega, nlp.params.tau, nlp.rule.weights
    B, n_y, N = space.block_width, space.n_y, nlp.N
    blocks = alpha[:, None, None] * data.f_hess
    if nlp.problem.m > 0:
        path = np.einsum("jia,jib->jab", data.c_jac, data.c_jac)
        path += np.einsum("ji,jiab->jab", data.c, data.c_hess)
        path *= (alpha / omega)[:, None, None]
        blocks += path
    diagonal = np.einsum("jbb->jb", blocks)
    diagonal += omega * alpha[:, None]
    diagonal[:, 2 * n_y :] += tau * alpha[:, None] / data.z**2
    local = layout.local_eval
    E, rows, L = local.shape
    weighted = blocks.reshape(E, -1, B, B) @ local.reshape(E, -1, B, L)
    element = local.transpose(0, 2, 1) @ weighted.reshape(E, rows, L)
    dofs = nlp.eval_op.indices.reshape(E, space.degree + 1, B, -1)[:, 0, n_y:].reshape(E, -1)
    squares = [(element, dofs)]
    if nlp.problem.p > 0:
        point_block = data.b_jac.T @ data.b_jac + np.einsum("i,iab->ab", data.b, data.b_hess)
        point = layout.point_eval.T @ point_block @ layout.point_eval / omega
        squares.append((point, np.unique(nlp.point_op.indices)))
    sums, slots, pos = [], [], layout.band_position
    for square, local_dofs in squares:
        i, j = np.broadcast_arrays(local_dofs[..., :, None], local_dofs[..., None, :])
        pairs = np.flatnonzero(i >= j)
        i, j = pos[i.ravel()[pairs]], pos[j.ravel()[pairs]]
        sums.append(square.ravel()[pairs])
        slots.append(np.abs(i - j) * N + np.minimum(i, j))
    _, target = np.unique(np.concatenate(slots), return_inverse=True)
    return np.bincount(target, np.concatenate(sums))


class TestHessianLayout:
    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_matches_sparse_product_reference(self, name, rng):
        nlp = oracle_case(name)
        for _ in range(3):
            x = random_interior_point(nlp, rng)
            hess = nlp.full_hessian(x)
            expected = reference_hessian(nlp, x)
            assert np.abs(hess.toarray() - expected).max() <= 1e-13 * np.abs(expected).max()
            assert np.array_equal(hess.toarray(), hess.toarray().T)

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_sums_bitwise_equal_bincount_reference(self, name, rng):
        # lq-multimesh's shared y endpoints take four element contributions each
        nlp = oracle_case(name)
        for _ in range(3):
            x = random_interior_point(nlp, rng)
            assert nlp._lower_sums(x).tobytes() == bincount_lower_sums(nlp, x).tobytes()

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_band_is_lower_band_of_full_hessian(self, name, rng):
        nlp = oracle_case(name)
        order, N = nlp.hessian_layout.band_order, nlp.N
        for _ in range(3):
            x = random_interior_point(nlp, rng)
            band = nlp.hessian_band(x)
            kd = band.shape[0] - 1
            dense = nlp.full_hessian(x).toarray()[np.ix_(order, order)]
            expected = np.zeros((kd + 1, N))
            for k in range(kd + 1):
                expected[k, : N - k] = np.diagonal(dense, -k)
            assert band.tobytes() == expected.tobytes()
            # kd is the widest offset holding a nonzero; nothing lies past it
            assert np.diagonal(dense, -kd).any() and not np.tril(dense, -kd - 1).any()
        if name == "wrap-around":
            assert kd > N // 2
        elif name == "lq":
            # the stored y(t0)-y(tE) pair is zero and stays out of the band
            assert kd == nlp.space.n_x * 4 - 1 < nlp.hessian_layout.offset[-1]

    def test_curvature_reaches_the_hessian(self, rng):
        nlp = oracle_case("curved")
        data = nlp._point_data(random_interior_point(nlp, rng))
        assert np.abs(data.c * data.c_hess[:, :, 1, 1]).max() > 0
        assert np.abs(data.b @ data.b_hess[:, 0, 1]) > 0

    def test_built_once_and_shared(self, monkeypatch):
        built = []
        build = ocfem.assembly.HessianLayout
        monkeypatch.setattr(
            ocfem.assembly, "HessianLayout", lambda nlp: built.append(nlp) or build(nlp)
        )
        nlp = make_nlp(get_benchmark("lq").problem, n_intervals=4, degree=2)
        assert built == [] and nlp._shared == {}
        clone = nlp.with_params(0.5, 0.5)
        assert clone.hessian_layout is nlp.hessian_layout
        assert len(built) == 1

        fresh = make_nlp(get_benchmark("lq").problem, n_intervals=4, degree=2)
        report = solve(fresh)
        assert len(report.stages) > 1 and report.total_iterations > 1
        assert len(built) == 2
        assert fresh._shared["layout"] is built[1].hessian_layout

    def test_set_up_merges_the_meshes_once(self, monkeypatch, rng):
        # to compose the rule; its check reads the merged mesh's sources and
        # the band order reads eval_op
        calls = []
        for name in ("merged_breakpoints", "source_intervals"):
            step = getattr(ocfem.mesh, name)
            counting = lambda *args, name=name, step=step: calls.append(name) or step(*args)
            monkeypatch.setattr(ocfem.mesh, name, counting)
        nlp = oracle_case("lq-multimesh")
        nlp.hessian_band(random_interior_point(nlp, rng))
        assert calls == ["merged_breakpoints", "source_intervals"]

    def test_solve_builds_no_csr_hessian(self, monkeypatch):
        built = []
        full_hessian = AssembledNlp.full_hessian
        monkeypatch.setattr(
            AssembledNlp, "full_hessian", lambda *args: built.append(args) or full_hessian(*args)
        )
        report = solve(make_nlp(get_benchmark("lq").problem, n_intervals=4, degree=2))
        assert report.status == "converged" and report.total_iterations > 1
        assert built == []


class TestSolutionNorm:
    @pytest.mark.parametrize("name", ["lq", "lq-multimesh", "breakpoints", "barrier-pull"])
    def test_quad_norm_equals_gram_form(self, name, rng):
        nlp = oracle_case(name)
        gram = build_regularizer(nlp.space, nlp.rule, nlp.eval_op)
        for _ in range(3):
            x = random_interior_point(nlp, rng)
            expected = x.values @ (gram @ x.values)
            assert nlp.objective_terms(x).quad_norm == pytest.approx(expected, rel=1e-13, abs=0)

    def test_solve_builds_no_gram_matrix(self, monkeypatch):
        built = []
        build = ocfem.assembly.build_regularizer
        monkeypatch.setattr(
            ocfem.assembly, "build_regularizer", lambda *args: built.append(args) or build(*args)
        )
        nlp = make_nlp(get_benchmark("lq").problem, n_intervals=4, degree=2)
        report = solve(nlp)
        assert report.status == "converged" and report.total_iterations > 1
        assert built == []


class TestWithParams:
    def test_shares_operators(self):
        bench = get_benchmark("lq")
        nlp = make_nlp(bench.problem, n_intervals=2, degree=2)
        other = nlp.with_params(0.7, 0.3)
        assert other.eval_op is nlp.eval_op
        assert other.point_op is nlp.point_op
        assert other.params.omega == 0.7 and other.params.tau == 0.3
        assert nlp.params.omega != 0.7

    def test_changes_objective(self, rng):
        bench = get_benchmark("lq")
        nlp = make_nlp(bench.problem, n_intervals=2, degree=2)
        x = random_interior_point(nlp, rng)
        a = nlp.objective_terms(x).total
        b = nlp.with_params(nlp.params.omega * 2, nlp.params.tau).objective_terms(x).total
        assert a != b
