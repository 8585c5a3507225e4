"""Command-line surface: evaluation and verification subcommands with JSON I/O.

Each subcommand takes only the flags its command reads; `qdlab <command> --help` lists them.
Each check kind is a subcommand of its own, `qdlab check <kind>`, whose flags are the ones
its checks.Check.reads names, with --samples, --seed and --out.  Any other flag is a usage
error of the (sub)command it was given to.  A command returns its report and `run` writes
it.  Exit codes: 0 success, 1 usage or validation error, 2 numerical non-convergence, 3
failed check, exactly when the printed report has "pass": false.  partition's --target
bounds the estimated error of Z relative to |Z| (partition.partition_function) and must
be finite.  A document read with --in fixes the triangulation, N and theta, so --name,
--N and --theta-arg are refused beside it.  Complex numbers serialize as [re, im]; angles
are accepted as rational multiples of pi ("1/3").  Identical command lines produce
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import charged, checks, partition, qdilog, wgz
from .errors import NonConvergent, QdlabError
from .faddeev import ThetaParam, phi_theta, phi_zero
from .lca import LcaPoint, Modulus, QuadratureSpec, gauss_gamma
from .qdilog import QdParams
from .triangulation import (
    FIG8_CANONICAL_FACE,
    ShapedTriangulation,
    builtin_census,
    pachner_23,
    parse_triangulation,
)


def _c(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)  # NaN is not JSON
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _theta(args) -> ThetaParam:
    return ThetaParam.from_pi_fraction(Fraction(args.theta_arg))


def _params(args) -> QdParams:
    return QdParams(_theta(args), Modulus(args.N))


def _spec(grid: int | None) -> QuadratureSpec:
    """The default QuadratureSpec, with M replaced where --grid gave it."""
    return QuadratureSpec() if grid is None else QuadratureSpec(M=grid)


# the flags common() adds, under the names a command or Check.reads gives them, in --help
# order; --charges is here with the default of `check charged`
_SHARED_FLAGS = {
    "theta-arg": {"help": "theta = e^{i pi p/q}, default 1/3"},
    "N": {"type": int, "help": "level N, default 1"},
    "grid": {"type": int, "help": "grid points M"},
    "seed": {"type": int, "default": 0},
    "out": {"help": "write JSON here instead of stdout"},
    "in": {"dest": "inp", "help": "triangulation document"},
    "name": {"help": "built-in triangulation, default fig8_2tet"},
    "charges": {"default": "0.5,0.2,0.3", "help": "a,b,c summing to 1, default %(default)s"},
}


def _finite(text: str) -> float:
    """A finite float, for --target and for each number of --z, --b, --x, --y and --mu.
    An inf target would let an inf error estimate into the report, which JSON cannot
    hold, and a NaN or inf point would reach numpy and end in a warning or an error that
    does not name it.  argparse reports the refusal as a usage error, run as one line."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _parse_complex(text: str) -> complex:
    parts = [_finite(v) for v in text.split(",")]
    if len(parts) > 2:
        raise ValueError(f"a complex number is re or re,im, got {text!r}")
    return complex(*parts)


def _parse_point(text: str) -> LcaPoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"a point of A_N is xr,n, got {text!r}")
    return LcaPoint(_finite(parts[0]), int(parts[1]))


def _parse_charges(text: str) -> charged.ChargeTriple:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"charges are a,b,c, got {text!r}")
    return charged.ChargeTriple(*parts)


def _load_triangulation(args) -> ShapedTriangulation:
    if args.inp:
        with open(args.inp) as fh:
            return parse_triangulation(fh.read())
    return builtin_census(args.name or "fig8_2tet", N=args.N, theta_arg_over_pi=args.theta_arg)


def cmd_phi(args):
    th = _theta(args)
    z = _parse_complex(args.z)
    return {"value": _c(phi_theta(z, th)), "phi_zero": _c(phi_zero(th))}


def cmd_dtheta(args):
    p = _params(args)
    v = qdilog.dtheta(_parse_complex(args.z), args.n, p)
    return {"value": _c(v)}


def cmd_gamma(args):
    return {"value": _c(gauss_gamma(Modulus(args.N)))}


def cmd_psi(args):
    p = _params(args)
    ch = _parse_charges(args.charges)
    v = charged.psi_charged(ch, _parse_complex(args.z), args.n, p)
    return {"value": _c(v)}


def cmd_kernel(args):
    p = _params(args)
    ch = _parse_charges(args.charges)
    mu = _parse_point(args.mu) if args.mu else LcaPoint(0.0, 0)
    wkp = charged.WeightKernelParams(ch, p, mu)
    v = charged.weight_kernel(wkp, _parse_point(args.x), _parse_point(args.y))
    return {"value": _c(v)}


def cmd_partition(args):
    X = _load_triangulation(args)
    spec = _spec(args.grid)
    res = partition.partition_function(X, spec, target=args.target)
    doc = res.to_document()
    doc["params"] = {"N": X.N.N, "grid": spec.M, "tets": len(X.tets)}
    return doc


def cmd_pachner(args):
    X = _load_triangulation(args)
    face = tuple(int(v) for v in args.face.split(","))
    Y = pachner_23(X, face)
    return Y.to_document()


def cmd_census(args):
    return builtin_census(args.name, N=args.N, theta_arg_over_pi=args.theta_arg).to_document()


def cmd_wgz(args):
    k = args.k
    if k < 1:
        raise ValueError(f"--k must be at least 1, got {k}")
    b = _parse_complex(args.b) if args.b else complex(np.sqrt((k + 1j) / 2))
    rng = np.random.default_rng(args.seed)
    rows = [list(rng.uniform(-1, 1, j + 1)) for j in range(k)]
    f = wgz.gauss_poly_vector(rows)
    M = 240 if args.grid is None else args.grid
    M -= M % k  # inverse needs k | M
    if M < k:
        raise ValueError(f"--grid must be at least --k = {k}, got {args.grid}")
    s = wgz.wgz_forward(f, k, M)
    us = np.arange(-M // 4, M // 4) / M
    rec = wgz.wgz_inverse(s, k, us)
    orig = np.array([f(j, us) for j in range(k)])
    round_trip = float(np.max(np.abs(rec - orig)))
    qp = wgz.quasi_periodicity_residual(f, k, 32, args.seed)
    comm = {"*".join(pair): _c(wgz.commutation_phase(*pair, b, k))
            for pair in (("U", "V"), ("U", "Vt"), ("V", "Ut"), ("V", "Vt"))}
    report = {"k": k, "round_trip_sup_error": round_trip, "quasi_periodicity_residual": qp,
              "commutation_phases": comm}
    ok = checks.passes(report, checks.WGZ_LIMITS)
    return {**report, "pass": ok}


def cmd_check(args):
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    chk = checks.CHECKS[args.kind]
    X = _load_triangulation(args) if "in" in chk.reads else None  # X holds its N and theta
    ctx = checks.Context(_params(args) if X is None and "N" in chk.reads else None,
                         _parse_charges(args.charges) if "charges" in chk.reads else None, X)
    samples = chk.sample(np.random.default_rng(args.seed), ctx, args.samples)
    report = chk.evaluate(ctx, samples, _spec(args.grid) if "grid" in chk.reads else None)
    ok = checks.passes(report, chk.limits)
    return {**report, "pass": ok}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qdlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *reads):
        """Add to p the shared flags its command reads, named without their dashes, and
        --out.  A flag that p does not take is reported in p's usage (run)."""
        for flag, kwargs in _SHARED_FLAGS.items():
            if flag in (*reads, "out"):
                p.add_argument(f"--{flag}", **kwargs)
        p.set_defaults(parser=p)

    p = sub.add_parser("phi", help="evaluate Faddeev's quantum dilogarithm")
    common(p, "theta-arg")
    p.add_argument("--z", required=True, help="complex as re,im")
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("dtheta", help="evaluate D_theta(x, n) over R x Z/N")
    common(p, "theta-arg", "N")
    p.add_argument("--z", required=True)
    p.add_argument("--n", type=int, default=0)
    p.set_defaults(func=cmd_dtheta)

    p = sub.add_parser("gamma", help="the Gaussian-integral constant of A_N")
    common(p, "N")
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("psi", help="evaluate the charged function psi_{A,C}")
    common(p, "theta-arg", "N")
    p.add_argument("--charges", required=True, help="a,b,c summing to 1")
    p.add_argument("--z", required=True)
    p.add_argument("--n", type=int, default=0)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("kernel", help="evaluate the two-variable weight kernel")
    common(p, "theta-arg", "N")
    p.add_argument("--charges", required=True)
    p.add_argument("--x", required=True, help="point of A_N as xr,n")
    p.add_argument("--y", required=True)
    p.add_argument("--mu", default=None)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("partition", help="state-integral partition function")
    common(p, "theta-arg", "N", "grid", "in", "name")
    p.add_argument("--target", type=_finite, default=partition.TARGET,
                   help="bound on the estimated error of Z relative to |Z|, default %(default)g")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("pachner", help="apply the 2-3 move and print the new document")
    common(p, "theta-arg", "N", "in", "name")
    p.add_argument("--face", default=f"{FIG8_CANONICAL_FACE[0]},{FIG8_CANONICAL_FACE[1]}")
    p.set_defaults(func=cmd_pachner)

    p = sub.add_parser("census", help="emit a built-in triangulation document")
    common(p, "theta-arg", "N")
    p.add_argument("--name", required=True)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("wgz", help="Weil-Gel'fand-Zak round-trip and commutation report")
    common(p, "grid", "seed")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--b", default=None, help="level parameter b as re,im (2 Re b^2 = k)")
    p.set_defaults(func=cmd_wgz)

    kinds = sub.add_parser("check", help="run a verification and report pass/fail JSON"
                           ).add_subparsers(dest="kind", required=True)
    for kind, chk in checks.CHECKS.items():
        p = kinds.add_parser(kind)
        common(p, "seed", *chk.reads)
        p.add_argument("--samples", type=int, default=20)
        p.set_defaults(func=cmd_check)
    return ap


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):  # argparse reads a value like -0.3,0.2 as a flag
        if re.fullmatch(r"--(?!help$)\w[\w-]*", argv[i - 1]) and re.match(r"-\.?\d", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args, unread = build_parser().parse_known_args(argv)
        if unread:  # the command's own parser refuses them, so its usage names the command
            args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    except SystemExit as e:  # argparse exits 0 after --help and 2 on a usage error
        return 1 if e.code else 0
    try:
        if getattr(args, "inp", None) and (args.N, args.theta_arg, args.name) != (None, None, None):
            raise ValueError("--in fixes the triangulation, N and theta; "
                             "drop --name, --N and --theta-arg")
        for flag, default in (("N", 1), ("theta_arg", "1/3")):
            if getattr(args, flag, default) is None:
                setattr(args, flag, default)
        payload = args.func(args)
        _emit(payload, args)
        return 3 if payload.get("pass") is False else 0
    except NonConvergent as e:
        print(f"non-convergent: {e}", file=sys.stderr)
        return 2
    except (QdlabError, ValueError, argparse.ArgumentTypeError, OSError, ZeroDivisionError,
            OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
