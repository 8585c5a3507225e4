"""Fast self-test of the benchmark at tiny grid sizes.

    python3 perfbench/selftest.py

Runs every workload with `--size tiny` in both modes and checks that the
report carries `correct`, `attempted`, `failed` and exactly the metrics that
BENCHMARK.json names for that mode; that every positive check passes and
every negative control fails; that the checks reject doctored values; and
that the benchmark refuses to run without qdlab's sources.  Exits 0 when all
hold.  Takes about half a minute on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
REPORT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run(workload: str, trace: int, cwd: Path = ROOT, script: Path = RUN):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_report(workload: str, trace: int, bench: dict) -> None:
    proc = run(workload, trace)
    tag = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{tag}: exit code 0" + (f" (got {proc.returncode}) {proc.stderr[-400:]}"
                                                           if proc.returncode else ""))
    if proc.returncode != 0:
        return
    lines = proc.stdout.strip().splitlines()
    report, detail = json.loads(lines[-1]), json.loads(lines[-2])
    expect(set(report) == REPORT_KEYS, f"{tag}: report keys {sorted(report)}")
    expect(isinstance(report["attempted"], int) and report["attempted"] >= 1, f"{tag}: attempted >= 1")
    expect(report["failed"] == 0, f"{tag}: no failed operation")
    expect(report["correct"] is True, f"{tag}: correct")
    wanted = bench["per_layer" if trace else "end_to_end"]
    expect(set(report["metrics"]) == {m["name"] for m in wanted}, f"{tag}: metric names")
    units_ok = all(report["metrics"].get(m["name"], {}).get("unit") == m["unit"] for m in wanted)
    values_ok = all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                    for v in report["metrics"].values())
    expect(units_ok and values_ok, f"{tag}: units and finite values")
    controls = [c for c in detail["checks"] if c["control"]]
    expect(bool(controls) and not any(c["passed"] for c in controls),
           f"{tag}: {len(controls)} negative controls all fail")
    expect(all(c["passed"] for c in detail["checks"] if not c["control"]), f"{tag}: positive checks pass")


def check_doctored_values() -> None:
    """The checks must reject values that break the method's properties."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    si = workloads.build("state-integral", 7, "tiny")
    good = {"Z fig8_2tet N=1": 0.6 + 0.4j, "Z fig8_3tet N=1": 0.6 + 0.4j,
            "Z fig8_2tet N=1 theta=1/4": 0.5 + 0.4j, "log_phi at pole": complex("inf")}
    expect(all(c.as_expected for c in si.checks(good)), "state-integral: consistent values accepted")
    broken = dict(good, **{"Z fig8_3tet N=1": 1.2 + 0.8j})
    expect(not all(c.as_expected for c in si.checks(broken)), "state-integral: Pachner break detected")
    nan = dict(good, **{"Z fig8_2tet N=1": complex("nan")})
    expect(not all(c.as_expected for c in si.checks(nan)), "state-integral: NaN Z detected")
    same = dict(good, **{"Z fig8_2tet N=1 theta=1/4": 0.6 + 0.4j})
    expect(not all(c.as_expected for c in si.checks(same)), "state-integral: control that passes is flagged")

    ic = workloads.build("identity-checks", 7, "tiny")
    values = {op.name: 0.0 for op in ic.ops}
    values.update({n: 1.0 for n in values if n.startswith("control")})
    expect(all(c.as_expected for c in ic.checks(values)), "identity-checks: small residuals accepted")
    for name in (n for n in values if not n.startswith("control")):
        bad = dict(values, **{name: 1e-3})
        expect(not all(c.as_expected for c in ic.checks(bad)), f"identity-checks: large '{name}' detected")


def check_refuses_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run("state-integral", 0, cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"no qdlab sources: exit code {proc.returncode}, nothing on stdout")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_doctored_values()
    check_refuses_without_sources()
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_report(w["name"], trace, bench)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
