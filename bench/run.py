#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 bench/run.py --workload refine-d4 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones (solve_s, setup_s,
newton_iterations, peak_alloc_mb); with ``--trace 1`` they are the per-layer
ones, from traced rounds that alternate with untraced ones, and the spans are
written to ``bench/out/spans-<workload>-<seed>.npz``.  Workloads and metrics are
described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json

import bootstrap


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bootstrap.prepare()
    import measure

    if args.workload not in measure.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(measure.WORKLOADS)}")
    span_path = bootstrap.OUT_DIR / f"spans-{args.workload}-{args.seed}.npz"
    result, _ = measure.run(args.workload, args.seed, args.seconds, bool(args.trace), span_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
