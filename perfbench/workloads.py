"""The benchmark's workloads: seeded inputs, the operations of one pass, and
the checks on their outputs.

Every check rests on a property of the method, not on stored output:
Pachner 2-3 invariance of |Z|, sqrt(N)-shift descent of the total Boltzmann
weight, and the weight-kernel five-term identity.  Each kind of check has a
negative control, an input on which the same check must fail.

`build(name, seed, size)` imports qdlab and returns a `Workload`; its cost
is the benchmark's set-up time.  `size="tiny"` shrinks every grid for the
self-test; `"full"` is the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACHNER_TOL = 1e-3  # criterion 08
DESCENT_TOL = 1e-8  # criterion 07
FIVE_TERM_TOL = 1e-4  # criterion 06
# Guard of partition_function's own M-versus-M/2 estimate.  At N=3 the M/2=64
# grid of fig8_3tet is off by 6 % while the M=128 value agrees with fig8_2tet
# to 2e-6; the Pachner check, not this guard, judges accuracy.
GRID_TARGET = 0.1
THETA = "1/3"  # the census default
CONTROL_THETA = "1/4"  # changes |Z(fig8_2tet)| by 11 %
FOUR_TET_FACE = (0, 2)

WORKLOADS = ("state-integral", "four-tet", "identity-checks")

SIZES = {
    "state-integral": {
        "full": {"Ns": (1, 2, 3), "M": 128},
        "tiny": {"Ns": (1,), "M": 32},
    },
    "four-tet": {
        "full": {"M": 96, "M_ref": 128},
        "tiny": {"M": 48, "M_ref": 48},
    },
    "identity-checks": {
        "full": {"descent": ("fig8_2tet", "fig8_3tet"), "Ns": (1, 2), "M": 256, "samples": 2},
        "tiny": {"descent": ("fig8_2tet",), "Ns": (1,), "M": 64, "samples": 1},
    },
}
DESCENT_N = 2
CONTROL_M = 8  # a five-term grid too coarse to meet FIVE_TERM_TOL


@dataclass(frozen=True)
class Op:
    """One call into qdlab; its value is what the checks read."""

    name: str
    call: Callable[[], object]


@dataclass(frozen=True)
class Check:
    """value < limit must hold; for a negative control it must not."""

    name: str
    value: float
    limit: float
    control: bool = False

    @property
    def passed(self) -> bool:
        return bool(self.value < self.limit)  # NaN fails

    @property
    def as_expected(self) -> bool:
        return self.passed != self.control

    def to_document(self) -> dict:
        return {"name": self.name, "value": float(self.value), "limit": self.limit,
                "control": self.control, "passed": self.passed}


@dataclass
class Workload:
    ops: list
    checks: Callable[[dict], list]  # op values by name -> [Check]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(a)


def _finite_checks(values: dict, names) -> list:
    return [Check(f"finite {n}", abs(values[n]), math.inf) for n in names if n in values]


def _pole_op(qd) -> Op:
    """log Phi_theta at its first pole c_theta: a value the finiteness check must reject."""
    theta = qd.faddeev.ThetaParam.from_pi_fraction(THETA)

    def call():
        with np.errstate(divide="ignore", invalid="ignore"):
            return complex(qd.faddeev.log_phi_theta(np.array([theta.c]), theta)[0])

    return Op("log_phi at pole", call)


def _partition_op(qd, name: str, X, M: int) -> Op:
    spec = qd.lca.QuadratureSpec(M=M)
    return Op(name, lambda: qd.partition.partition_function(X, spec, target=GRID_TARGET).Z)


def import_qdlab():
    import qdlab.charged
    import qdlab.faddeev
    import qdlab.lca
    import qdlab.partition
    import qdlab.pentagon
    import qdlab.qdilog
    import qdlab.triangulation

    return qdlab


def _state_integral(qd, rng, Ns, M) -> Workload:
    census = qd.triangulation.builtin_census
    ops = []
    for N in Ns:
        for tri in ("fig8_2tet", "fig8_3tet"):
            ops.append(_partition_op(qd, f"Z {tri} N={N}", census(tri, N=N, theta_arg_over_pi=THETA), M))
    control = census("fig8_2tet", N=1, theta_arg_over_pi=CONTROL_THETA)
    ops.append(_partition_op(qd, f"Z fig8_2tet N=1 theta={CONTROL_THETA}", control, M))
    ops.append(_pole_op(qd))

    def checks(v):
        out = _finite_checks(v, [op.name for op in ops if op.name.startswith("Z ")])
        for N in Ns:
            a, b = f"Z fig8_2tet N={N}", f"Z fig8_3tet N={N}"
            if a in v and b in v:
                out.append(Check(f"pachner |{a}| vs |{b}|", _rel(abs(v[a]), abs(v[b])), PACHNER_TOL))
        for N0, N1 in zip(Ns, Ns[1:]):
            a, b = f"Z fig8_2tet N={N0}", f"Z fig8_2tet N={N1}"
            if a in v and b in v:
                out.append(Check(f"control |{a}| vs |{b}|", _rel(abs(v[a]), abs(v[b])),
                                 PACHNER_TOL, control=True))
        out += _theta_and_pole_controls(v)
        return out

    return Workload(_shuffled(ops, rng), checks)


def _theta_and_pole_controls(v) -> list:
    out = []
    a, b = "Z fig8_2tet N=1", f"Z fig8_2tet N=1 theta={CONTROL_THETA}"
    if a in v and b in v:
        out.append(Check(f"control |{a}| vs |{b}|", _rel(abs(v[a]), abs(v[b])), PACHNER_TOL, control=True))
    if "log_phi at pole" in v:
        out.append(Check("control finite log_phi at pole", abs(v["log_phi at pole"]), math.inf, control=True))
    return out


def _four_tet(qd, rng, M, M_ref) -> Workload:
    tri = qd.triangulation
    X4 = tri.pachner_23(tri.builtin_census("fig8_3tet", N=1, theta_arg_over_pi=THETA), FOUR_TET_FACE)
    X2 = tri.builtin_census("fig8_2tet", N=1, theta_arg_over_pi=THETA)
    control = tri.builtin_census("fig8_2tet", N=1, theta_arg_over_pi=CONTROL_THETA)
    z4, z2 = "Z fig8_4tet N=1", "Z fig8_2tet N=1"
    ops = [
        _partition_op(qd, z4, X4, M),
        _partition_op(qd, z2, X2, M_ref),
        _partition_op(qd, f"Z fig8_2tet N=1 theta={CONTROL_THETA}", control, M_ref),
        _pole_op(qd),
    ]

    def checks(v):
        out = _finite_checks(v, [op.name for op in ops if op.name.startswith("Z ")])
        if z4 in v and z2 in v:
            out.append(Check(f"pachner |{z4}| vs |{z2}|", _rel(abs(v[z2]), abs(v[z4])), PACHNER_TOL))
        return out + _theta_and_pole_controls(v)

    return Workload(_shuffled(ops, rng), checks)


def _identity_checks(qd, rng, descent, Ns, M, samples) -> Workload:
    lca, part, pent = qd.lca, qd.partition, qd.pentagon
    ops = []
    descent_names = []
    first_state = None
    for tri in descent:
        X = qd.triangulation.builtin_census(tri, N=DESCENT_N, theta_arg_over_pi=THETA)
        state = tuple(lca.CircleVar(rng.uniform(0, X.N.sqrt)) for _ in X.edge_classes)
        if first_state is None:
            first_state = (X, state)
        for e in range(len(X.edge_classes)):
            name = f"descent {tri} N={DESCENT_N} edge {e}"
            descent_names.append(name)
            ops.append(Op(name, lambda X=X, s=state, e=e: part.descent_residual(X, s, e, k=X.N.N)))

    def off_b_residual(X=first_state[0], state=first_state[1]):
        # the same residual for a shift by half a B-generator, which is not in B
        lifts = [lca.lift(s, X.N) for s in state]
        w0 = part.total_weight(X, lifts)
        lifts[0] = lifts[0] + lca.LcaPoint(0.5 / X.N.sqrt, 0)
        return abs(part.total_weight(X, lifts) - w0) / abs(w0)

    ops.append(Op("control descent off-B shift", off_b_residual))

    charges = qd.charged.ChargeTriple
    pc = pent.PentagonCharges.solve(charges.equal(), charges(0.4, 0.25, 0.35))
    theta = qd.faddeev.ThetaParam.from_pi_fraction(THETA)
    five_names = []
    first_sample = None
    for N in Ns:
        p = qd.qdilog.QdParams(theta, lca.Modulus(N))
        parity = 2 if N % 2 == 0 else 1  # criterion 06: even n for even N
        sams = [
            tuple(lca.LcaPoint(rng.uniform(-0.8, 0.8), parity * int(rng.integers(0, N)) % N)
                  for _ in range(4))
            for _ in range(samples)
        ]
        if first_sample is None:
            first_sample = (p, sams[:1])
        name = f"five-term N={N} M={M}"
        five_names.append(name)
        spec = lca.QuadratureSpec(M=M)
        ops.append(Op(name, lambda p=p, s=sams, spec=spec:
                      pent.check_charged_beta_pentagon(pc, s, p, spec)["max_residual"]))
    coarse = lca.QuadratureSpec(M=CONTROL_M)
    control_five = f"control five-term N={first_sample[0].N.N} M={CONTROL_M}"
    ops.append(Op(control_five, lambda: pent.check_charged_beta_pentagon(
        pc, first_sample[1], first_sample[0], coarse)["max_residual"]))

    def checks(v):
        out = [Check(n, v[n], DESCENT_TOL) for n in descent_names if n in v]
        out += [Check(n, v[n], FIVE_TERM_TOL) for n in five_names if n in v]
        if "control descent off-B shift" in v:
            out.append(Check("control descent off-B shift", v["control descent off-B shift"],
                             DESCENT_TOL, control=True))
        if control_five in v:
            out.append(Check(control_five, v[control_five], FIVE_TERM_TOL, control=True))
        return out

    return Workload(_shuffled(ops, rng), checks)


def _shuffled(ops: list, rng) -> list:
    return [ops[i] for i in rng.permutation(len(ops))]


def build(name: str, seed: int, size: str = "full") -> Workload:
    """Import qdlab and make the workload's inputs from the seed."""
    qd = import_qdlab()
    rng = np.random.default_rng(seed)
    cfg = SIZES[name][size]
    if name == "state-integral":
        return _state_integral(qd, rng, **cfg)
    if name == "four-tet":
        return _four_tet(qd, rng, **cfg)
    return _identity_checks(qd, rng, **cfg)
