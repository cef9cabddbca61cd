#!/usr/bin/env python3
"""Remake the reference tables of bench/README.md from fresh runs.

    python3 bench/table.py            # print the tables
    python3 bench/table.py --write    # also replace them in bench/README.md

Each workload gets one untraced run (end-to-end metrics) and one traced run
(per-layer metrics), both of a single round with seed 0.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import bootstrap

README = Path(__file__).resolve().parent / "README.md"
BEGIN, END = "<!-- reference-table:begin -->", "<!-- reference-table:end -->"


def _row(cells) -> str:
    return "| " + " | ".join(str(c) for c in cells) + " |"


def _table(header, rows) -> list[str]:
    return [_row(header), _row(["---"] * len(header)), *(_row(r) for r in rows), ""]


def tables() -> str:
    import measure
    from workloads import WORKLOADS, check_ladder, ladder_orders

    cases, orders, e2e, layers = [], [], [], []
    for name, workload in WORKLOADS.items():
        plain, _ = measure.run(name, 0, 0.0, trace=False)
        traced, rounds = measure.run(name, 0, 0.0, trace=True)
        first = rounds[0]
        for outcome, seconds in zip(first.outcomes, first.seconds):
            report = outcome.report
            cases.append([
                name, outcome.case.label, outcome.nlp.N, outcome.nlp.M,
                ", ".join(map(str, report.iterations)), report.status, f"{seconds:.3f}",
            ])
        if workload.check is check_ladder:
            for problem, (gap, residual, errors) in ladder_orders(first.outcomes).items():
                orders.append([
                    name, problem, f"{gap:.2f}", f"{residual:.2f}",
                    ", ".join(f"{e:.1e}" for e in errors),
                ])
        m = {k: v["value"] for k, v in {**plain["metrics"], **traced["metrics"]}.items()}
        e2e.append([
            name, f"{m['setup_s']:.4f}", f"{m['solve_s']:.3f}", m["newton_iterations"],
            f"{m['peak_alloc_mb']:.1f}", f"{plain['failed']}/{plain['attempted']}",
        ])
        layers.append([
            name, f"{m['fespace.build_s']:.4f}",
            f"{m['ocp_model.callback_calls']} / {m['ocp_model.callback_s']:.3f}",
            f"{m['assembly.objective_calls']} / {m['assembly.objective_s']:.3f}",
            f"{m['assembly.gradient_s']:.3f}",
            f"{m['assembly.hessian_calls']} / {m['assembly.hessian_s']:.3f}",
            m["assembly.hessian_nnz"], f"{m['assembly.self_s']:.3f}", f"{m['solver.self_s']:.3f}",
            f"{m['solver.ls_trials']} / {m['solver.ls_accept_ratio']:.2f}",
            f"{m['trace.overhead_s']:.3f}",
        ])

    lines = _table(
        ["workload", "case", "N", "M", "Newton steps per stage", "status", "solve s"], cases
    )
    lines += _table(
        ["workload", "problem", "gap order", "residual order", "max abs(y_h - y*) by h"], orders
    )
    lines += _table(
        ["workload", "setup_s", "solve_s", "newton_iterations", "peak_alloc_mb", "failed"], e2e
    )
    lines += _table(
        [
            "workload", "fespace build s", "callbacks (n / s)", "objective (n / s)",
            "gradient s", "hessian (n / s)", "hessian nnz", "assembly self s",
            "solver self s", "ls trials / accept", "trace overhead s",
        ],
        layers,
    )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="replace the tables in README.md")
    args = parser.parse_args()
    bootstrap.prepare()
    text = tables()
    print(text)
    if args.write:
        readme = README.read_text(encoding="utf-8")
        head, rest = readme.split(BEGIN, 1)
        _, tail = rest.split(END, 1)
        README.write_text(f"{head}{BEGIN}\n{text}{END}{tail}", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
