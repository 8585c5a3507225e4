#!/usr/bin/env python3
"""Grid-convergence study of the state integral on the built-in census.

Prints Z on a ladder of grid sizes for the two- and three-tetrahedron
figure-eight triangulations, the successive differences, and the Pachner
comparison of |Z| at the finest grid.

Usage: python scripts/convergence_study.py [--N 1] [--theta-arg 1/3] [--ladder 16,32,64,128]
"""

import argparse
import time

from qdlab.lca import QuadratureSpec
from qdlab.partition import convergence_report
from qdlab.triangulation import builtin_census


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--N", type=int, default=1)
    ap.add_argument("--theta-arg", default="1/3")
    ap.add_argument("--ladder", default="16,32,64,128")
    args = ap.parse_args()

    ladder = [int(v) for v in args.ladder.split(",")]
    spec = QuadratureSpec()
    finest = {}
    for name in ("fig8_2tet", "fig8_3tet"):
        X = builtin_census(name, N=args.N, theta_arg_over_pi=args.theta_arg)
        t0 = time.time()
        rows = convergence_report(X, ladder, spec)
        dt = time.time() - t0
        print(f"\n{name}  (N={args.N}, theta = e^(i pi {args.theta_arg}), {dt:.1f}s)")
        print(f"  {'M':>5}  {'Re Z':>18}  {'Im Z':>18}  {'delta':>10}")
        for r in rows:
            d = f"{r['delta']:.3e}" if r["delta"] is not None else "-"
            print(f"  {r['M']:>5}  {r['Z'][0]:>18.12f}  {r['Z'][1]:>18.12f}  {d:>10}")
        finest[name] = complex(*rows[-1]["Z"])
    z2, z3 = abs(finest["fig8_2tet"]), abs(finest["fig8_3tet"])
    print(f"\nPachner check at M={ladder[-1]}: |Z2|={z2:.12f} |Z3|={z3:.12f}"
          f"  rel diff={abs(z2 - z3) / z2:.2e}")


if __name__ == "__main__":
    main()
