#!/usr/bin/env python3
"""Print a fingerprint of what this checkout computes, for a bit-for-bit diff.

Three kinds of lines:
- every seed-1 value of the benchmark's three workloads (perfbench/workloads.py,
  imported read-only, at full size), as float.hex of its real and imaginary part;
- for each command of a fixed list (every CLI subcommand, each exit path: 0, 1
  for the refusals, 3 for a failed check, and scripts/gauge_scan.py), its exit
  code and the sha1 of its stdout and of its stderr, and for the --out run the
  sha1 of the file it wrote;
- last, Z of the five-tet complex (two 2-3 moves from fig8_3tet) at N=1 on the
  M=64 grid, whose contraction runs its leading free edge one index at a time.

Run it in two checkouts and diff the outputs; equal files mean the same bits.  With
--against OLD, a fingerprint saved from another checkout, it prints only the lines that
differ from OLD, matched by command or by value name: a value line gets its relative
move |z - z_old|/|z_old|, a line that OLD lacks gets "new", and one of OLD's that this
checkout lacks gets "gone".

Usage: python scripts/fingerprint.py [--against OLD] > fingerprint.txt
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]  # this checkout's qdlab

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
    # refusals: an open triangulation (exit 1), and fig8_2tet relabelled by RELABEL,
    # whose weight does not descend at N=1 (exit 1) and does at N=2 (exit 0)
    ["-m", "qdlab.cli", "partition", "--name", "single_tet", "--grid", "16"],
    ["-m", "qdlab.cli", "partition", "--in", "{relabelled N=1}", "--grid", "128", "--target", "1"],
    ["-m", "qdlab.cli", "partition", "--in", "{relabelled N=2}", "--grid", "128", "--target", "1"],
    # the other subcommands, and the failed-check exit 3 of wgz and check
    ["-m", "qdlab.cli", "phi", "--z", "-0.3,0.2"],
    ["-m", "qdlab.cli", "dtheta", "--N", "3", "--z", "0.4", "--n", "1"],
    ["-m", "qdlab.cli", "gamma", "--N", "2"],
    ["-m", "qdlab.cli", "psi", "--N", "2", "--charges", "0.4,0.35,0.25", "--z", "0.3", "--n", "1"],
    ["-m", "qdlab.cli", "kernel", "--N", "1", "--charges", "0.4,0.35,0.25", "--x", "0.1,0",
     "--y", "0.2,0"],
    ["-m", "qdlab.cli", "wgz", "--k", "3", "--grid", "240"],
    ["-m", "qdlab.cli", "wgz", "--k", "2", "--grid", "3"],
    ["-m", "qdlab.cli", "check", "charged", "--N", "2", "--samples", "5"],
    ["-m", "qdlab.cli", "check", "fourier", "--N", "2", "--samples", "3"],
    ["-m", "qdlab.cli", "check", "pentagon", "--N", "1", "--grid", "8", "--samples", "2"],
    ["-m", "qdlab.cli", "check", "descent", "--in", "{relabelled N=1}"],
    # a report written with --out (its file's sha1 follows), the gauge check of an open
    # triangulation (exit 1), and --N beside --in, which the document fixes (exit 1)
    ["-m", "qdlab.cli", "partition", "--name", "fig8_2tet", "--grid", "64", "--target", "1.0",
     "--out", "{out}"],
    ["-m", "qdlab.cli", "check", "gauge", "--name", "single_tet", "--grid", "16"],
    ["-m", "qdlab.cli", "partition", "--in", "{relabelled N=2}", "--N", "2", "--grid", "128",
     "--target", "1"],
    # a kernel whose B-sum tails decay slowly (charge 0.05 on C), --name beside --in
    # (exit 1), and a check kind that reads no triangulation given --name (exit 1)
    ["-m", "qdlab.cli", "kernel", "--N", "5", "--charges", "0.05,0.9,0.05", "--x", "0.1,0",
     "--y", "0.2,0"],
    ["-m", "qdlab.cli", "partition", "--in", "{relabelled N=2}", "--name", "single_tet",
     "--grid", "16"],
    ["-m", "qdlab.cli", "check", "inversion", "--name", "nonexistent", "--samples", "2"],
    # an N too large for D_theta's tiles, refused by name (exit 1), and gamma, whose
    # closed form takes any N (exit 0)
    ["-m", "qdlab.cli", "dtheta", "--N", "1000000000000", "--z", "0.4", "--n", "1"],
    ["-m", "qdlab.cli", "psi", "--N", "1000000000000", "--charges", "0.4,0.35,0.25",
     "--z", "0.3"],
    ["-m", "qdlab.cli", "gamma", "--N", "1000000000000"],
    # flags a check kind does not read, usage errors of `qdlab check <kind>` (exit 1)
    ["-m", "qdlab.cli", "check", "groupoid", "--N", "5000", "--samples", "2"],
    ["-m", "qdlab.cli", "check", "inversion", "--charges", "0.9,0.05,0.05", "--samples", "2"],
]

# vertex v of tet 1 renamed RELABEL[v]: a 3-cycle, an even permutation outside V4
RELABEL = (0, 3, 1, 2)


def _hex(v) -> str:
    z = complex(v)
    return f"{z.real.hex()} {z.imag.hex()}"


def workload_lines() -> list[str]:
    import workloads

    lines = []
    for name in workloads.WORKLOADS:
        w = workloads.build(name, SEED)
        for op in sorted(w.ops, key=lambda op: op.name):
            lines.append(f"{name} | {op.name} | {_hex(op.call())}")
    return lines


def relabelled_document(N: int) -> dict:
    """fig8_2tet at level N with tet 1's vertices renamed by RELABEL.  Every gluing
    goes from tet 0 to tet 1, so each to-face and each vertex_map entry is renamed."""
    from qdlab.triangulation import builtin_census

    doc = builtin_census("fig8_2tet", N=N).to_document()
    for g in doc["gluings"]:
        g["to"][1] = RELABEL[g["to"][1]]
        g["vertex_map"] = [RELABEL[v] for v in g["vertex_map"]]
    return doc


def command_lines() -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"{out}": Path(tmp, "out.json")}  # placeholder -> file
        for N in (1, 2):
            paths[f"{{relabelled N={N}}}"] = path = Path(tmp, f"relabelled_N{N}.json")
            path.write_text(json.dumps(relabelled_document(N)))
        for cmd in COMMANDS:
            argv = [str(paths.get(a, a)) for a in cmd]
            proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True)
            out, err = (hashlib.sha1(s).hexdigest() for s in (proc.stdout, proc.stderr))
            line = f"{' '.join(cmd)} | exit {proc.returncode} | out {out} | err {err}"
            if "{out}" in cmd:
                line += f" | file {hashlib.sha1(paths['{out}'].read_bytes()).hexdigest()}"
            lines.append(line)
    return lines


def five_tet_line() -> str:
    from qdlab.lca import QuadratureSpec
    from qdlab.partition import partition_function
    from qdlab.triangulation import builtin_census, pachner_23

    X = pachner_23(pachner_23(builtin_census("fig8_3tet", N=1), (0, 2)), (2, 2))
    return f"five-tet N=1 M=64 | Z | {_hex(partition_function(X, QuadratureSpec(M=64), math.inf).Z)}"


def _parse(line: str) -> tuple:
    """(key, z) of a fingerprint line: a value line's name and complex value, or a
    command line's command and None."""
    head, _, last = line.rpartition(" | ")
    try:
        real, imag = map(float.fromhex, last.split())
        return head, complex(real, imag)
    except ValueError:
        return line.partition(" | ")[0], None


def moved(lines: list[str], old_lines: list[str]) -> list[str]:
    """The lines that differ from old_lines, each value line with its relative move."""
    old = {_parse(line)[0]: line for line in old_lines}
    out = []
    for line in lines:
        key, z = _parse(line)
        was = old.pop(key, None)
        if was is None:
            out.append(f"{line} | new")
        elif was != line:
            z_old = _parse(was)[1]
            out.append(line if z is None or z_old is None
                       else f"{line} | moved {abs(z - z_old) / abs(z_old):.1e}")
    return out + [f"{line} | gone" for line in old.values()]


def main():
    parser = argparse.ArgumentParser(description="Print a fingerprint of this checkout.")
    parser.add_argument("--against", metavar="OLD",
                        help="a saved fingerprint; print only the lines that differ from it")
    args = parser.parse_args()
    lines = workload_lines() + command_lines() + [five_tet_line()]
    if args.against:
        lines = moved(lines, Path(args.against).read_text().splitlines())
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
