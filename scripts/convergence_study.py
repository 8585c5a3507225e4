#!/usr/bin/env python3
"""Grid-convergence study of the state integral on the built-in census.

Prints Z on a ladder of grid sizes for the two- and three-tetrahedron
figure-eight triangulations and for the four-tetrahedron complex
pachner_23(fig8_3tet, (0, 2)), the successive differences, and the Pachner
comparison of |Z| against fig8_2tet at the finest grid.

Usage: python scripts/convergence_study.py [--N 1] [--theta-arg 1/3] [--ladder 16,32,64,128]
"""

import argparse
import time

from qdlab.partition import convergence_report
from qdlab.triangulation import builtin_census, pachner_23


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--N", type=int, default=1)
    ap.add_argument("--theta-arg", default="1/3")
    ap.add_argument("--ladder", default="16,32,64,128")
    args = ap.parse_args()

    ladder = [int(v) for v in args.ladder.split(",")]
    fig8_3tet = builtin_census("fig8_3tet", N=args.N, theta_arg_over_pi=args.theta_arg)
    complexes = {
        "fig8_2tet": builtin_census("fig8_2tet", N=args.N, theta_arg_over_pi=args.theta_arg),
        "fig8_3tet": fig8_3tet,
        "pachner_23(fig8_3tet, (0, 2))": pachner_23(fig8_3tet, (0, 2)),
    }
    finest = {}
    for name, X in complexes.items():
        t0 = time.time()
        rows = convergence_report(X, ladder)
        dt = time.time() - t0
        print(f"\n{name}  (N={args.N}, theta = e^(i pi {args.theta_arg}), {dt:.1f}s)")
        print(f"  {'M':>5}  {'Re Z':>18}  {'Im Z':>18}  {'delta':>10}")
        for r in rows:
            d = f"{r['delta']:.3e}" if r["delta"] is not None else "-"
            print(f"  {r['M']:>5}  {r['Z'][0]:>18.12f}  {r['Z'][1]:>18.12f}  {d:>10}")
        finest[name] = abs(complex(*rows[-1]["Z"]))
    z2 = finest.pop("fig8_2tet")
    for name, z in finest.items():
        print(f"\nPachner check at M={ladder[-1]}, {name} against fig8_2tet:"
              f" |Z2|={z2:.12f} |Z|={z:.12f}  rel diff={abs(z2 - z) / z2:.2e}")


if __name__ == "__main__":
    main()
