#!/usr/bin/env python3
"""Sweep the barrier weight on the linear-pull problem and track min z.

The minimizer of the pull problem sits near tau / L with L = 1, so the
reported floor should shrink proportionally to tau.
"""

import argparse

from ocfem.assembly import AssembledNlp
from ocfem.fespace import build_space
from ocfem.harness import get_benchmark
from ocfem.mesh import uniform_mesh
from ocfem.ocp_model import MethodParams
from ocfem.solver import solve


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--omega", type=float, default=1e-2)
    parser.add_argument("--degree", type=int, default=2)
    parser.add_argument(
        "--taus", default="1e-1,1e-2,1e-3,1e-4", help="comma-separated barrier weights"
    )
    args = parser.parse_args()

    bench = get_benchmark("barrier-pull")
    print("tau,min_z,min_z/tau,status")
    for part in args.taus.split(","):
        tau = float(part)
        space = build_space([uniform_mesh((0.0, 1.0), 2)], args.degree, 0, 1)
        params = MethodParams(h=0.5, sigma=1.0, d=args.degree, omega=args.omega, tau=tau)
        nlp = AssembledNlp(bench.problem, space, params)
        report = solve(nlp)
        print(f"{tau!r},{report.min_z!r},{report.min_z / tau:.6f},{report.status}")


if __name__ == "__main__":
    main()
