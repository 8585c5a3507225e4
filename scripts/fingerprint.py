#!/usr/bin/env python3
"""Print a fingerprint of what this checkout computes, for a bit-for-bit diff.

Two kinds of lines:
- every seed-1 value of the benchmark's three workloads (perfbench/workloads.py,
  imported read-only, at full size), as float.hex of its real and imaginary part;
- for each command of a fixed list (the CLI commands whose output a refactor
  must not move, and scripts/gauge_scan.py), its exit code and the sha1 of its
  stdout and of its stderr.

Run it in two checkouts and diff the outputs; equal files mean the same bits.

Usage: python scripts/fingerprint.py > fingerprint.txt
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1

COMMANDS = [
    # the criterion-12 commands
    ["-m", "qdlab.cli", "check", "inversion", "--N", "2", "--samples", "20", "--seed", "9"],
    ["-m", "qdlab.cli", "check", "groupoid", "--samples", "15", "--seed", "2"],
    ["-m", "qdlab.cli", "partition", "--name", "fig8_2tet", "--grid", "64", "--target", "1.0"],
    # a three-tet Z, the gauge and pentagon checks, the 2-3 move, a census document
    ["-m", "qdlab.cli", "partition", "--name", "fig8_3tet", "--N", "3", "--grid", "128",
     "--target", "1.0"],
    ["-m", "qdlab.cli", "check", "gauge", "--grid", "32"],
    ["-m", "qdlab.cli", "check", "pentagon", "--N", "2", "--samples", "2"],
    ["-m", "qdlab.cli", "pachner"],
    ["-m", "qdlab.cli", "census", "--name", "fig8_2tet"],
    ["scripts/gauge_scan.py", "--grid", "16", "--steps", "3"],
]


def _hex(v) -> str:
    z = complex(v)
    return f"{z.real.hex()} {z.imag.hex()}"


def workload_lines() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    lines = []
    for name in workloads.WORKLOADS:
        w = workloads.build(name, SEED)
        for op in sorted(w.ops, key=lambda op: op.name):
            lines.append(f"{name} | {op.name} | {_hex(op.call())}")
    return lines


def command_lines() -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    lines = []
    for cmd in COMMANDS:
        proc = subprocess.run([sys.executable, *cmd], cwd=ROOT, env=env, capture_output=True)
        out, err = (hashlib.sha1(s).hexdigest() for s in (proc.stdout, proc.stderr))
        lines.append(f"{' '.join(cmd)} | exit {proc.returncode} | out {out} | err {err}")
    return lines


def main():
    print("\n".join(workload_lines() + command_lines()))


if __name__ == "__main__":
    main()
