"""Benchmarks, mesh-refinement studies and the command-line interface."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .assembly import AssembledNlp, export_lifted_nlp
from .fespace import FESpace, build_space
from .mesh import Mesh, uniform_mesh
from .ocp_model import (
    MethodParams,
    OcpProblem,
    check_derivatives,
    check_positive,
    default_params,
)
from .polybasis import MAX_DEGREE, verify_norm_constants
from .solver import (
    STATUS_CONVERGED,
    SolveReport,
    SolverOptions,
    default_start,
    solve,
)

#: Metric values at or below this are treated as "at floor": they carry no
#: order information, only rounding noise.
ORDER_FIT_FLOOR = 1e-10

#: Largest max relative error of a coded derivative that check-derivatives passes.
_DERIVATIVE_TOL = 1e-6


@dataclass(frozen=True)
class Benchmark:
    """A built-in problem with its reference solution and mesh plan, each optional.

    ``y(t)`` maps a (K,) array of times to the (K, n_y) differential components
    of the reference, ``z(t)`` to the (K, n_z) auxiliary ones, and ``cost`` is
    the optimal cost.  When ``z`` is unknown (for example because it depends on
    the penalty parameters), the solution-space error is measured over the
    differential block only.  ``mesh_plan(n)`` returns one mesh per component on
    the problem's domain for a width of n intervals; without it the components
    share one uniform mesh of n intervals.
    """

    name: str
    problem: OcpProblem
    y: Optional[Callable[[np.ndarray], np.ndarray]] = None
    z: Optional[Callable[[np.ndarray], np.ndarray]] = None
    cost: Optional[float] = None
    mesh_plan: Optional[Callable[[int], Sequence[Mesh]]] = None


def _constant_stack(base, shape: tuple[int, ...]) -> Callable[[int], np.ndarray]:
    """Read-only stacks of M copies of ``base`` in ``shape``; ``base`` is converted
    once and one ``np.broadcast_to`` view is kept per point count M."""
    base = np.array(base, dtype=float)
    base.flags.writeable = False
    return lru_cache(maxsize=None)(lambda M: np.broadcast_to(base, (M, *shape)))


def _initial_value(y0: float):
    """Point-constraint callback of y(0) = y0, with y(0) first in the stacked values."""

    def b_eval(stacked_y):
        n = len(stacked_y)
        jac = np.zeros((1, n))
        jac[0, 0] = 1.0
        return np.array([stacked_y[0] - y0]), jac, np.zeros((1, n, n))

    return b_eval


def _lq_benchmark() -> Benchmark:
    """Linear-quadratic tracking with the control split into two positives.

    Minimize (1/2) the integral of y^2 + u^2 with dy = u and y(0) = 1, where
    u = z1 - z2 and z1, z2 >= 0.  The two-point boundary-value problem
    y'' = y, y(0) = 1, dy(1) = 0 gives y*(t) = cosh(1 - t) / cosh(1),
    u*(t) = -sinh(1 - t) / cosh(1) and the optimal cost tanh(1) / 2.
    """

    hess = np.zeros((4, 4))
    hess[1, 1] = hess[2, 2] = hess[3, 3] = 1.0
    hess[2, 3] = hess[3, 2] = -1.0
    f_hess = _constant_stack(hess, (4, 4))
    c_jac = _constant_stack([[1.0, 0.0, -1.0, 1.0]], (1, 4))
    c_hess = _constant_stack(0.0, (1, 4, 4))

    def f_eval(dy, y, z, t):
        u = z[:, 0] - z[:, 1]
        value = 0.5 * (y[:, 0] ** 2 + u**2)
        grad = np.stack([np.zeros_like(u), y[:, 0], u, -u], axis=1)
        return value, grad, f_hess(len(t))

    def c_eval(dy, y, z, t):
        values = (dy[:, 0] - z[:, 0] + z[:, 1])[:, None]
        return values, c_jac(len(t)), c_hess(len(t))

    cosh1 = math.cosh(1.0)

    def y_star(t: np.ndarray) -> np.ndarray:
        return (np.cosh(1.0 - t) / cosh1)[:, None]

    def z_star(t: np.ndarray) -> np.ndarray:
        u = -np.sinh(1.0 - t) / cosh1
        return np.stack([np.maximum(u, 0.0), np.maximum(-u, 0.0)], axis=1)

    problem = OcpProblem(
        n_y=1,
        n_z=2,
        m=1,
        p=1,
        time_points=(0.0, 1.0),
        f_eval=f_eval,
        c_eval=c_eval,
        b_eval=_initial_value(1.0),
        initial_guess=lambda t: np.ones((t.size, 1)),
    )
    return Benchmark("lq", problem, y=y_star, z=z_star, cost=0.5 * math.tanh(1.0))


def _trivial_benchmark() -> Benchmark:
    """Zero cost with dy = 0 and y(0) = 0; y vanishes identically.

    The auxiliary component appears only in the regularizer and barrier, so
    any strictly interior constant is optimal in the limit; the converged
    value depends on (omega, tau) and no z reference is recorded.
    """
    f_value, f_grad, f_hess = (_constant_stack(0.0, shape) for shape in ((), (3,), (3, 3)))
    c_jac = _constant_stack([[1.0, 0.0, 0.0]], (1, 3))
    c_hess = _constant_stack(0.0, (1, 3, 3))

    def f_eval(dy, y, z, t):
        M = len(t)
        return f_value(M), f_grad(M), f_hess(M)

    def c_eval(dy, y, z, t):
        return dy[:, :1], c_jac(len(t)), c_hess(len(t))

    problem = OcpProblem(
        n_y=1,
        n_z=1,
        m=1,
        p=1,
        time_points=(0.0, 1.0),
        f_eval=f_eval,
        c_eval=c_eval,
        b_eval=_initial_value(0.0),
    )
    return Benchmark("trivial", problem, y=lambda t: np.zeros((t.size, 1)), cost=0.0)


def _barrier_pull_benchmark() -> Benchmark:
    """Linear pull toward zero balanced only by the barrier.

    With cost z and slope 1, the pointwise optimality condition
    1 + omega z - tau / z = 0 puts the minimizer at roughly tau, which makes
    this the quantitative test of the barrier's strict-positivity floor.
    """
    f_grad, f_hess = _constant_stack(1.0, (1,)), _constant_stack(0.0, (1, 1))

    def f_eval(dy, y, z, t):
        M = len(t)
        return z[:, 0], f_grad(M), f_hess(M)

    problem = OcpProblem(
        n_y=0,
        n_z=1,
        m=0,
        p=0,
        time_points=(0.0, 1.0),
        f_eval=f_eval,
    )
    return Benchmark("barrier-pull", problem)


_LQ = _lq_benchmark()


def _lq_multimesh_plan(n: int) -> list[Mesh]:
    """y on half the intervals of z1 and z2, which share one mesh."""
    fine = uniform_mesh(_LQ.problem.domain, n)
    return [uniform_mesh(_LQ.problem.domain, max(1, n // 2)), fine, fine]


#: The built-in problems by name.
_BENCHMARKS = {
    b.name: b
    for b in (
        _LQ,
        replace(_LQ, name="lq-multimesh", mesh_plan=_lq_multimesh_plan),
        _trivial_benchmark(),
        _barrier_pull_benchmark(),
    )
}


def benchmark_names() -> list[str]:
    return sorted(_BENCHMARKS)


def get_benchmark(name: str) -> Benchmark:
    try:
        return _BENCHMARKS[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; available: {', '.join(benchmark_names())}"
        ) from None


def build_setup(
    benchmark: Benchmark,
    h: Optional[float],
    d: int,
    breakpoints: Optional[Sequence[Sequence[float]]] = None,
) -> tuple[FESpace, MethodParams]:
    """Meshes, space and method parameters for one benchmark run.

    The benchmark's ``mesh_plan`` for width h, else one uniform mesh of width
    h shared by every component, is the default; explicit per-component
    breakpoint lists (from the config file) take precedence.  Without them,
    h must split the domain into n >= 1 intervals, (tE - t0) / h below the largest
    index and within 1e-9 relative of the whole n; another h is rejected, not rounded.
    The method parameters are ``default_params`` at the requested h, so a
    mixed-mesh plan coarsens the approximation space without touching the
    penalty strength.
    """
    problem = benchmark.problem
    t0, t_end = problem.domain
    if breakpoints is not None:
        if len(breakpoints) != problem.n_x:
            raise ValueError(
                f"need {problem.n_x} breakpoint lists, got {len(breakpoints)}"
            )
        meshes: list[Mesh] = [Mesh(b) for b in breakpoints]
        params_h = h if h is not None else max(m.mesh_size for m in meshes)
    else:
        if h is None:
            raise ValueError("mesh size h is required when no breakpoints are given")
        check_positive("mesh size", h)
        count = (t_end - t0) / h
        if not count < np.iinfo(np.intp).max:  # the mesh's n + 1 breakpoints need an index
            most = "a float can count" if math.isinf(count) else "an index array can hold"
            raise ValueError(
                f"mesh size h = {h!r} splits the domain {problem.domain} into more "
                f"intervals than {most}"
            )
        n = max(1, round(count))
        if not math.isclose(count, n, rel_tol=1e-9):
            raise ValueError(
                f"mesh size h = {h!r} does not split the domain {problem.domain} into whole "
                f"intervals; the nearest is n = {n}, h = {(t_end - t0) / n!r}"
            )
        if benchmark.mesh_plan is None:
            meshes = [uniform_mesh((t0, t_end), n)] * problem.n_x
        else:
            meshes = benchmark.mesh_plan(n)
        params_h = h
    space = build_space(meshes, d, problem.n_y, problem.n_z)
    return space, default_params(params_h, space)


@dataclass
class ConvergenceRow:
    h: float
    d: int
    omega: float
    tau: float
    N: int
    M: int
    iterations: int
    objective_gap: Optional[float]
    residual: float
    x_error: Optional[float]
    status: str
    wall_time: float  # the one field left out of study.csv


@dataclass
class StudyResult:
    rows: list[ConvergenceRow]
    orders: dict[str, Optional[float]]
    notes: list[str]
    failed: bool
    reports: list[SolveReport] = field(default_factory=list)


def _x_error(benchmark: Benchmark, nlp: AssembledNlp, report: SolveReport) -> Optional[float]:
    if benchmark.y is None:
        return None
    z = benchmark.z or (lambda t: np.zeros((t.size, nlp.space.n_z)))
    reference = nlp.space.interpolate(lambda t: np.hstack([benchmark.y(t), z(t)]))
    diff = report.x_final.values - reference.values
    squares = (nlp.y_step(diff) ** 2).sum(axis=1)
    if benchmark.z is not None:
        squares += (nlp.z_step(diff) ** 2).sum(axis=1)
    return float(math.sqrt(nlp.rule.weights @ squares))


def _fit_order(h_values: list[float], metric: list[Optional[float]]) -> tuple[Optional[float], Optional[str]]:
    if all(v is None for v in metric):
        return None, "no reference value; order fit skipped"
    pairs = [
        (h, v)
        for h, v in zip(h_values, metric)
        if v is not None and math.isfinite(v) and abs(v) > ORDER_FIT_FLOOR
    ]
    if len(pairs) < 2:
        return None, "metric at floor; order fit skipped"
    log_h = np.log([h for h, _ in pairs])
    log_v = np.log([abs(v) for _, v in pairs])
    slope = float(np.polyfit(log_h, log_v, 1)[0])
    return slope, None


def run_study(
    problem: str,
    d: int,
    h_list: Sequence[float],
    solver_options: Optional[SolverOptions] = None,
) -> StudyResult:
    """Solve one benchmark over a list of mesh widths and fit observed orders.

    Rows are produced in the given h order; a solver failure marks its row
    and the study continues.  Every row is set up before the first solve, and
    fewer than three distinct meshes are rejected.
    """
    benchmark = get_benchmark(problem)
    nlps = [AssembledNlp(benchmark.problem, *build_setup(benchmark, h, d)) for h in h_list]
    if len({nlp.N for nlp in nlps}) < 3:
        raise ValueError("insufficient points for order fit: need at least 3 distinct meshes")
    rows: list[ConvergenceRow] = []
    reports: list[SolveReport] = []
    for h, nlp in zip(h_list, nlps):
        started = time.perf_counter()
        report = solve(nlp, None, solver_options)
        wall = time.perf_counter() - started
        gap = None if benchmark.cost is None else report.terms.f - benchmark.cost
        rows.append(
            ConvergenceRow(
                h=float(h),
                d=d,
                omega=nlp.params.omega,
                tau=nlp.params.tau,
                N=nlp.N,
                M=nlp.M,
                iterations=report.total_iterations,
                objective_gap=gap,
                residual=report.residual,
                x_error=_x_error(benchmark, nlp, report),
                status=report.status,
                wall_time=wall,
            )
        )
        reports.append(report)

    h_values = [r.h for r in rows]
    orders: dict[str, Optional[float]] = {}
    notes: list[str] = []
    for name, metric in (
        ("objective_gap", [r.objective_gap for r in rows]),
        ("residual", [r.residual for r in rows]),
    ):
        order, note = _fit_order(h_values, metric)
        orders[name] = order
        if note:
            notes.append(f"{name}: {note}")
    return StudyResult(
        rows=rows,
        orders=orders,
        notes=notes,
        failed=any(r.status != STATUS_CONVERGED for r in rows),
        reports=reports,
    )


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    """The header line and one line per row, LF-ended; the writer of every CLI CSV."""
    return "".join(",".join(map(_csv_cell, line)) + "\n" for line in (columns, *rows))


def study_csv(rows: Sequence[ConvergenceRow]) -> str:
    """CSV of the study rows, one column per ``ConvergenceRow`` field.

    Wall time is deliberately left to the JSON report so that repeated runs
    with identical inputs produce bitwise-identical CSV.
    """
    columns = [f.name for f in fields(ConvergenceRow) if f.name != "wall_time"]
    return _csv_text(columns, [[getattr(r, column) for column in columns] for r in rows])


def _report_summary(report: SolveReport) -> dict:
    """The report without the coefficients."""
    return {
        "status": report.status,
        "grad_norm": report.grad_norm,
        "iterations": report.iterations,
        "residual": report.residual,
        "min_z": report.min_z,
        "stages": [asdict(stage) for stage in report.stages],
        "terms": report.terms._asdict(),
    }


def _json_text(payload: dict) -> str:
    """The writer of every CLI JSON file.  A non-finite float, such as the inf ``min_z``
    of a program without auxiliaries, is written as null: strict parsers reject
    ``Infinity`` and ``NaN``.  Finite floats keep their repr, so they round-trip exactly."""
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(strict, indent=2, sort_keys=True, allow_nan=False) + "\n"


def study_json(result: StudyResult) -> str:
    return _json_text({
        "rows": [asdict(r) for r in result.rows],
        "orders": result.orders,
        "notes": result.notes,
        "failed": result.failed,
        "reports": [_report_summary(rep) for rep in result.reports],
    })


# -- command-line interface ---------------------------------------------------


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _directory(text: str) -> Path:
    if not text:
        raise ValueError("empty path")
    return Path(text)


#: Every flag by destination: the parser of its text, whether that comes
#: from the command line or a config file; its default when neither sets it;
#: and its help.
_FLAGS: dict[str, tuple[Callable[[str], object], object, Optional[str]]] = {
    "config": (str, None, "JSON config file supplying defaults for flags"),
    "out": (_directory, None, "output directory"),
    "problem": (str, None, None),
    "h": (float, None, None),
    "d": (int, None, None),
    "max_iters": (int, None, None),
    "grad_tol": (float, None, None),
    "h_list": (_float_list, None, None),
    "d_max": (int, MAX_DEGREE, None),
    "samples": (int, 5, None),
    "seed": (int, 0, None),
}


def _flag_name(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocfem",
        description=(
            "Finite-element transcription of constrained optimal control "
            "problems with a penalty-barrier solver"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags, _) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        for key in ("config", *flags):
            command_parser.add_argument(_flag_name(key), dest=key, help=_FLAGS[key][2])
    return parser


def _parse(where: str, parse: Callable[[str], object], value) -> object:
    try:
        return parse(str(value))
    except ValueError:
        raise ValueError(f"{where}: invalid value {value!r}") from None


def _config_value(key: str, value):
    """A config value parsed as its flag's text would be.

    ``h_list`` may also be a list of numbers and ``breakpoints`` is one list
    of numbers per component; every other value is a JSON scalar.
    """
    where = f"config key {key}"
    if value is None:
        return None
    if key == "breakpoints":
        if not isinstance(value, list) or not all(isinstance(b, list) for b in value):
            raise ValueError(f"{where} must hold one list per component")
        return [[_parse(where, float, p) for p in b] for b in value]
    if key == "h_list" and isinstance(value, list):
        value = ",".join(str(v) for v in value)
    if isinstance(value, (list, dict)):
        raise ValueError(f"{where} must be a single value, got {value!r}")
    return _parse(where, _FLAGS[key][0], value)


def _config_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object by flag destination; a key set twice, in either spelling, is an error."""
    config: dict = {}
    for key, value in pairs:
        key = key.replace("-", "_")
        if key in config:
            raise ValueError(f"config key {key} is set twice")
        config[key] = value
    return config


def _read_config(path: str) -> dict:
    """Every value of the config file, parsed, by flag destination."""
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_config_object)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = sorted(set(config) - (set(_FLAGS) - {"config"} | {"breakpoints"}))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    return {key: _config_value(key, value) for key, value in config.items()}


def _options(args: argparse.Namespace) -> dict:
    """Each flag of the subcommand: as given, else from the config file, else its default."""
    _, _, flags, required = _COMMANDS[args.command]
    config = _read_config(args.config) if args.config else {}
    if config.get("breakpoints") is not None and "h" not in flags:  # would go unused
        raise ValueError(f"config key breakpoints: {args.command} takes no breakpoints")
    merged = {"breakpoints": config.get("breakpoints")}
    for key in flags:
        parse, default, _ = _FLAGS[key]
        text = getattr(args, key)
        value = config.get(key) if text is None else _parse(_flag_name(key), parse, text)
        merged[key] = default if value is None else value
    missing = [_flag_name(key) for key in required if merged[key] is None]
    if missing:
        raise ValueError("missing required option(s): " + ", ".join(missing))
    return merged


def _solver_options(merged: dict) -> SolverOptions:
    kwargs = {k: merged[k] for k in ("max_iters", "grad_tol") if merged[k] is not None}
    return SolverOptions(**kwargs)


def _nlp_from(merged: dict) -> tuple[Benchmark, AssembledNlp]:
    """The benchmark and assembled program named by --problem, --d and --h or breakpoints."""
    benchmark = get_benchmark(merged["problem"])
    setup = build_setup(benchmark, merged["h"], merged["d"], merged["breakpoints"])
    return benchmark, AssembledNlp(benchmark.problem, *setup)


def _write(out: Path, name: str, text: str) -> Path:
    """Write ``text`` to ``out / name`` as UTF-8 and return the path."""
    path = out / name
    path.write_bytes(text.encode("utf-8"))
    return path


def _cmd_solve(merged: dict) -> int:
    benchmark, nlp = _nlp_from(merged)
    params = nlp.params
    report = solve(nlp, None, _solver_options(merged))
    print(f"problem: {benchmark.name}")
    print(f"h: {params.h!r}  d: {params.d}")
    print(f"omega: {params.omega!r}  tau: {params.tau!r}")
    print(f"N: {nlp.N}  M: {nlp.M}")
    print(f"status: {report.status}")
    print(f"iterations: {report.iterations}")
    print(f"stage statuses: {', '.join(stage.status for stage in report.stages)}")
    print(f"grad_norm: {report.grad_norm!r}")
    print(f"objective: {report.terms.total!r}")
    print(f"cost_term: {report.terms.f!r}")
    print(f"residual: {report.residual!r}")
    if not math.isinf(report.min_z):
        print(f"min_z: {report.min_z!r}")
    if merged["out"]:
        payload = _report_summary(report) | {
            "problem": benchmark.name,
            "h": params.h,
            "d": params.d,
            "omega": params.omega,
            "tau": params.tau,
            "N": nlp.N,
            "M": nlp.M,
            "coefficients": report.x_final.values.tolist(),
        }
        _write(merged["out"], "report.json", _json_text(payload))
    return 0 if report.status == STATUS_CONVERGED else 1


def _cmd_study(merged: dict) -> int:
    result = run_study(
        merged["problem"],
        merged["d"],
        merged["h_list"],
        solver_options=_solver_options(merged),
    )
    if merged["out"]:
        _write(merged["out"], "study.csv", study_csv(result.rows))
        _write(merged["out"], "study.json", study_json(result))
    print(study_csv(result.rows), end="")
    for name, order in sorted(result.orders.items()):
        if order is None:
            print(f"order {name}: skipped")
        else:
            print(f"order {name}: {order!r}")
    for note in result.notes:
        print(f"note: {note}")
    return 1 if result.failed else 0


def _cmd_norm_check(merged: dict) -> int:
    text = _csv_text(("d", "computed", "expected", "error"), verify_norm_constants(merged["d_max"]))
    print(text, end="")
    if merged["out"]:
        _write(merged["out"], "norm_check.csv", text)
    return 0


def _cmd_export_nlp(merged: dict) -> int:
    _, nlp = _nlp_from(merged)
    text = export_lifted_nlp(nlp)
    if merged["out"]:
        print(f"wrote {_write(merged['out'], 'lifted_nlp.txt', text)}")
    else:
        print(text, end="")
    return 0


def _coo_text(name: str, matrix) -> str:
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [f"# {name} {matrix.shape[0]} {matrix.shape[1]} {coo.nnz}"]
    for i in order:
        lines.append(f"{coo.row[i]} {coo.col[i]} {float(coo.data[i])!r}")
    return "\n".join(lines) + "\n"


def _cmd_sparsity(merged: dict) -> int:
    _, nlp = _nlp_from(merged)
    x0 = default_start(nlp)
    matrices = {
        "eval_operator": nlp.eval_op,
        "point_operator": nlp.point_op,
        "regularizer": nlp.regularizer,
        "full_hessian": nlp.full_hessian(x0),
    }
    if merged["out"]:
        for name, matrix in matrices.items():
            _write(merged["out"], f"{name}.coo", _coo_text(name, matrix))
        print(f"wrote {len(matrices)} pattern files to {merged['out']}")
    else:
        for name, matrix in matrices.items():
            print(_coo_text(name, matrix), end="")
    return 0


def _cmd_check_derivatives(merged: dict) -> int:
    benchmark = get_benchmark(merged["problem"])
    report = check_derivatives(benchmark.problem, n_samples=merged["samples"], seed=merged["seed"])
    print(report)
    return 0 if all(err <= _DERIVATIVE_TOL for err in report.errors.values()) else 1  # NaN fails


_SETUP = ("out", "problem", "h", "d")
_NEWTON = ("max_iters", "grad_tol")

#: Every subcommand: its handler, its help, its flags after --config in --help
#: order, and the flags it cannot run without.  Only a subcommand that writes
#: files takes --out.
_COMMANDS = {
    "solve": (
        _cmd_solve, "solve one benchmark at fixed h and d", _SETUP + _NEWTON, ("problem", "d")
    ),
    "study": (
        _cmd_study,
        "mesh-refinement study with order fits",
        ("out",) + _NEWTON + ("problem", "d", "h_list"),
        ("problem", "d", "h_list"),
    ),
    "norm-check": (_cmd_norm_check, "minimum-norm constants per degree", ("out", "d_max"), ()),
    "export-nlp": (
        _cmd_export_nlp, "write the lifted constrained program", _SETUP, ("problem", "d")
    ),
    "sparsity": (_cmd_sparsity, "write operator sparsity patterns", _SETUP, ("problem", "d")),
    "check-derivatives": (
        _cmd_check_derivatives,
        "finite-difference derivative report",
        ("problem", "samples", "seed"),
        ("problem",),
    ),
}


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns 0 on success, 1 on solver failure, a failed derivative check
    or a closed stdout, 2 on usage errors."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_:  # argparse signals usage errors via SystemExit
        code = exit_.code
        return int(code) if code is not None else 0
    try:
        merged = _options(args)
        if merged.get("out") is not None:  # an unusable --out fails before any set-up or solve
            merged["out"].mkdir(parents=True, exist_ok=True)
        code = _COMMANDS[args.command][0](merged)
        sys.stdout.flush()  # a closed stdout raises here, not in the interpreter's last flush
        return code
    except BrokenPipeError:  # the reader left: what is still buffered goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OSError, MemoryError) as exc:  # bad input or path, or a set-up too large
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
