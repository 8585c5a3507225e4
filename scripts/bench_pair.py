#!/usr/bin/env python3
"""Measure a change against its parent with perfbench, as the README's "Benchmark record".

The parent commit is exported with `git archive` into a temporary directory, and the
change, this checkout's working tree as `git add -A` would commit it, is copied beside
it; the two paths have the same length, as a process's heap layout, and so its peak
RSS, moves with the length of the path that it imports qdlab from.  `perfbench/run.py --trace 0` runs
alternately in the two trees, the parent first in even pairs and the change first in
odd ones.  Then `--trace 1` runs once in each tree.  Prints, as JSON, the list of the
two records in the schema of BENCH_trajectory.json (the parent's under its commit, the
change's under a null commit); the README says which of them to append.  Each pair's
wall_s and the number of pairs that the change wins go to stderr.

Usage: python scripts/bench_pair.py --workload W --pr P [--parent REV] [--pairs 10] [--seed 1]
  --pr is the number of the change; the parent's record gets P - 1.  Each run lasts
  BENCHMARK.json's run_seconds.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from count_lines import count

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "peak_rss_mb", "setup_s")
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def _export(rev: str, into: Path) -> str:
    """Write the tree of rev into `into`; return its full commit hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def _snapshot(into: Path) -> None:
    """Copy into `into` every file of the working tree that `git add -A` would commit."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"],
                           cwd=ROOT, check=True, capture_output=True, text=True).stdout
    for name in filter(None, names.split("\0")):
        if (ROOT / name).is_file():  # a tracked file deleted in the working tree is skipped
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)


def _run(tree: Path, args, trace: int) -> dict:
    """One perfbench run in tree: {metric: value} from its last stdout line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"bench_pair: run in {tree} is not correct or has failed operations: {result}")
    return result["metrics"]


def _summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6),
            "q3": round(q3, 6)}


def _record(pr: int, commit, tree: Path, args, runs: list, traced: dict) -> dict:
    lines = count(tree / "src" / "qdlab")
    return {"kind": "perfbench", "pr": pr, "commit": commit, "workload": args.workload,
            "seeds": [args.seed], "runs": len(runs), "seconds": SECONDS,
            **{m: _summary([r[m]["value"] for r in runs]) for m in METRICS},
            "trace": {k: v["value"] for k, v in traced.items() if v["unit"] == "count"},
            "src_lines": {"total": lines["total"], "code": lines["code"]}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pr", type=int, required=True, help="number of the change")
    ap.add_argument("--parent", default="HEAD", help="commit to compare the checkout against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for the quartiles")

    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        parent, change = Path(tmp, "parent"), Path(tmp, "change")
        parent.mkdir()
        commit = _export(args.parent, parent)
        _snapshot(change)
        runs = {parent: [], change: []}
        for i in range(args.pairs):
            for tree in (parent, change) if i % 2 == 0 else (change, parent):
                runs[tree].append(_run(tree, args, 0))
            old, new = (runs[t][-1]["wall_s"]["value"] for t in (parent, change))
            print(f"pair {i + 1}: wall_s parent {old:.6f} change {new:.6f}", file=sys.stderr)
        wins = sum(n["wall_s"]["value"] < o["wall_s"]["value"]
                   for o, n in zip(runs[parent], runs[change]))
        print(f"change lower in {wins} of {args.pairs} pairs", file=sys.stderr)
        records = [_record(args.pr - 1, commit, parent, args, runs[parent],
                           _run(parent, args, 1)),
                   _record(args.pr, None, change, args, runs[change], _run(change, args, 1))]
    print(json.dumps(records, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
