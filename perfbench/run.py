"""State-integral benchmark of qdlab.

    python3 perfbench/run.py --workload state-integral --seed 1 --seconds 20 --trace 0

Run from the root of a qdlab checkout; the package is imported from its
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the metrics
are the end-to-end ones (`setup_s`, `wall_s`, `peak_rss_mb`); with
`--trace 1` they are the per-layer ones, and the spans of the last traced
pass are written to `perfbench/out/`.  Times are in reference seconds, wall
time rescaled to the machine's speed (perfbench/speed.py).  See
perfbench/README.md.
"""

import time

_T0 = time.perf_counter()  # a set-up probe times itself from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the box has two cores, and a fixed thread count keeps
# every Z bit-identical between runs.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import speed  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5  # fresh processes timed per run; setup_s is their median
PROBE_TIMEOUT_S = 120


def _use_checkout() -> None:
    """Import qdlab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "qdlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qdlab sources under {src}")
    sys.path.insert(0, str(src))
    import qdlab

    if Path(qdlab.__file__).resolve().parent != (src / "qdlab").resolve():
        sys.exit(f"perfbench: imported qdlab from {qdlab.__file__}, not from {src}")


def _fingerprint(value) -> str:
    """Exact bits of an operation's value, for the determinism checks."""
    c = complex(value)
    return f"{c.real.hex()},{c.imag.hex()}"


def _fingerprints(one_pass) -> dict:
    return {name: _fingerprint(v) for name, v in one_pass.values.items()}


@dataclass
class Pass:
    """One run of every operation of a workload."""

    values: dict  # op name -> value
    failed: list  # names of the ops that raised
    checks: list
    seconds: dict  # op name -> wall seconds
    scaled: dict  # op name -> the same in reference seconds (see speed.py)


def _run_pass(workload, clock) -> Pass:
    """Run every operation once; time each in wall and in reference seconds."""
    values, failed, seconds, scaled = {}, [], {}, {}
    for op in workload.ops:
        wall, ref = clock.wall(), clock.now()
        try:
            values[op.name] = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            failed.append(op.name)
            print(f"perfbench: {op.name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        seconds[op.name] = clock.wall() - wall
        scaled[op.name] = clock.now() - ref
    return Pass(values, failed, workload.checks(values), seconds, scaled)


def _repeat(run_pass, seconds: float) -> list:
    """Whole passes for `seconds`; another pass starts only if it should still fit."""
    passes, begin = [], time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(run_pass())
        now = time.perf_counter()
        if now - begin + (now - start) > seconds:
            return passes


def _pass_s(passes: list, field: str) -> float:
    """Time of one pass: each operation's median over the passes, summed."""
    return sum(statistics.median(getattr(p, field)[name] for p in passes)
               for name in passes[0].seconds)


def _setup_s(args, clock) -> tuple:
    """Median set-up time of SETUP_PROBES fresh processes: (reference s, wall s)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--setup-probe"]
    scaled, seconds = [], []
    clock.pause()  # each probe keeps its own reference clock
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=PROBE_TIMEOUT_S, check=True)
        ref, wall = map(float, out.stdout.strip().splitlines()[-1].split())
        scaled.append(ref)
        seconds.append(wall)
    clock.run()
    return statistics.median(scaled), statistics.median(seconds)


def _layer_metrics(per_pass: list, build_stats: dict) -> dict:
    """Per-layer metrics of one pass (median over traced passes)."""

    def one_pass(layer, key):
        if key != "self_s":  # counts repeat exactly from pass to pass (checked)
            return getattr(per_pass[0][layer], key)
        return statistics.median(p[layer].self_s for p in per_pass)

    def rate(points, seconds):
        return points / seconds if seconds > 0 else 0.0

    fad_points, fad_self = one_pass("faddeev", "points"), one_pass("faddeev", "self_s")
    grid, part_self = one_pass("partition", "points"), one_pass("partition", "self_s")
    return {
        "faddeev.calls": (one_pass("faddeev", "calls"), "count"),
        "faddeev.points": (fad_points, "count"),
        "faddeev.self_s": (fad_self, "s"),
        "faddeev.points_per_s": (rate(fad_points, fad_self), "1/s"),
        "qdilog.calls": (one_pass("qdilog", "calls"), "count"),
        "qdilog.self_s": (one_pass("qdilog", "self_s"), "s"),
        "charged.transform_calls": (one_pass("charged.transform", "calls"), "count"),
        "charged.transform_points": (one_pass("charged.transform", "points"), "count"),
        "charged.transform_self_s": (one_pass("charged.transform", "self_s"), "s"),
        "charged.kernel_calls": (one_pass("charged.kernel", "calls"), "count"),
        "charged.kernel_points": (one_pass("charged.kernel", "points"), "count"),
        "charged.kernel_self_s": (one_pass("charged.kernel", "self_s"), "s"),
        "pentagon.self_s": (one_pass("pentagon", "self_s"), "s"),
        "partition.calls": (one_pass("partition", "calls"), "count"),
        "partition.self_s": (part_self, "s"),
        "partition.grid_points": (grid, "count"),
        "partition.grid_points_per_s": (rate(grid, part_self), "1/s"),
        "triangulation.self_s": (build_stats["triangulation"].self_s, "s"),
    }


def _counts(stats: dict) -> dict:
    return {layer: (s.calls, s.points) for layer, s in stats.items()}


def _write_spans(args, tracer, summary: dict) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {"workload": args.workload, "seed": args.seed, "summary": summary,
           "absent_layers": tracer.absent,
           "span_fields": ["layer", "start_s", "end_s", "parent"], "spans": tracer.spans}
    path.write_text(json.dumps(doc))


def _measure(args, workload, clock) -> dict:
    """Untraced passes for --seconds; the end-to-end metrics."""
    passes = _repeat(lambda: _run_pass(workload, clock), args.seconds)
    setup_s, setup_wall_s = _setup_s(args, clock)
    return {
        "passes": passes,
        "metrics": {
            "setup_s": (setup_s, "s"),
            "wall_s": (_pass_s(passes, "scaled"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "unscaled": {"setup_s": setup_wall_s, "wall_s": _pass_s(passes, "seconds")},
        "ok": True,
    }


def _measure_traced(args, workloads, qdlab_tracer, clock) -> dict:
    """Traced passes for --seconds, then one untraced pass; the per-layer metrics.

    The traced passes come first, as the untraced passes do in a --trace 0
    run, so that trace.wall_s minus wall_s is the tracing overhead.  The
    untraced pass at the end is the reference every traced value must equal
    bit for bit (checked in main with the other passes).
    """
    workloads.import_qdlab()
    tracer = qdlab_tracer.Tracer(clock=clock.now)
    tracer.install()  # builtin_census and pachner_23 run during the build
    workload = workloads.build(args.workload, args.seed, args.size)
    tracer.uninstall()
    build_stats = tracer.stats

    per_pass = []

    def traced_pass():
        tracer.reset()
        tracer.install()
        try:
            return _run_pass(workload, clock)
        finally:
            tracer.uninstall()
            per_pass.append(tracer.stats)

    passes = _repeat(traced_pass, args.seconds)
    reference = _run_pass(workload, clock)

    steady_counts = all(_counts(s) == _counts(per_pass[0]) for s in per_pass)
    if not steady_counts:
        print("perfbench: per-layer counts differ between traced passes", file=sys.stderr)
    if tracer.absent:
        print(f"perfbench: absent layers {tracer.absent}", file=sys.stderr)

    metrics = _layer_metrics(per_pass, build_stats)
    metrics["trace.wall_s"] = (_pass_s(passes, "scaled"), "s")
    _write_spans(args, tracer, {k: v for k, (v, _) in metrics.items()})
    return {"passes": passes + [reference], "metrics": metrics,
            "unscaled": {"trace.wall_s": _pass_s(passes, "seconds")}, "ok": steady_counts}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every grid, for perfbench/selftest.py")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _use_checkout()
    import tracer as qdlab_tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    clock = speed.ReferenceClock(_T0)
    clock.run()
    try:
        if args.setup_probe:
            workloads.build(args.workload, args.seed, args.size)
            print(clock.now(), clock.wall() - _T0)
            return 0
        if args.trace:
            result = _measure_traced(args, workloads, qdlab_tracer, clock)
        else:
            result = _measure(args, workloads.build(args.workload, args.seed, args.size), clock)
    finally:
        clock.pause()

    passes = result["passes"]
    attempted = sum(len(p.values) + len(p.failed) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    checks = passes[-1].checks
    repeatable = all(_fingerprints(p) == _fingerprints(passes[0]) for p in passes)
    if not repeatable:
        print("perfbench: values differ between passes (traced or untraced)", file=sys.stderr)
    correct = result["ok"] and repeatable and all(c.as_expected for p in passes for c in p.checks)
    for c in checks:
        if not c.as_expected:
            print(f"perfbench: check {c.name} = {c.value:.3e} (limit {c.limit:g}) "
                  f"{'passed but is a negative control' if c.control else 'failed'}",
                  file=sys.stderr)
    print(json.dumps({"checks": [c.to_document() for c in checks],
                      "values": _fingerprints(passes[-1]),
                      "passes": len(passes),
                      "unscaled": result["unscaled"],
                      "reference_loop_s": speed.REFERENCE_LOOP_S}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
