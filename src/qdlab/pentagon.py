"""Five-term identities at the integral level.

check_faddeev_type verifies the Fourier-side identity for the pentagon family
H_j = conj(kappa_j F^{-1} psi_j) with charges solving the transfer equations:

    H_1(x) H_3(y) = <x;-y> integral_A H_4(y-z) H_2(z) H_0(x-z) <z> dz.

check_charged_beta_pentagon verifies its automorphic descent, the five-term
identity of the weight kernels over A/B:

    W_1(x,y) W_3(u,v) = integral_{A/B} W_4(u+y, v-z) W_2(x+y+u+v-z, z)
                                        W_0(x+v, y-z) dz,

with the kernel offsets mu_0 = mu_1 = alpha, mu_2 = alpha + beta,
mu_3 = mu_4 = beta.  Both hold with constant exactly 1 in this normalization.
The integrand's kernels are read off rows of F psi (charged.weight_kernel_rows),
built once per y-set: W_2's once per check, W_4's and W_0's once per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from .charged import (
    ChargeTriple,
    WeightKernelParams,
    pentagon_family,
    weight_kernel,
    weight_kernel_rows,
)
from .errors import Infeasible
from .lca import (STEP, WINDOW, LcaPoint, QuadratureSpec, b_generator, fourier_kernel,
                  gaussian_exp, haar_simpson)
from .qdilog import QdParams

__all__ = [
    "PentagonCharges",
    "solve_pentagon_charges",
    "pentagon_residuals",
    "check_charged_beta_pentagon",
    "check_faddeev_type",
]

# the narrowest feasibility interval for a0 taken as nonempty: each charge carries an
# absolute rounding of order eps (b = 1 - a - c), so a narrower float interval can be
# empty in exact arithmetic, and its midpoint leaves a charge of order eps
_INTERVAL_FLOOR = 4 * np.finfo(float).eps


def solve_pentagon_charges(
    t1: ChargeTriple, t3: ChargeTriple, free: float | None = None
) -> list[ChargeTriple]:
    """Invert the charge-transfer equations of the five-term identity.

    Returns [q0, q1, q2, q3, q4] with q1 = t1, q3 = t3 and

        a1 = a0 + a2,  a3 = a2 + a4,  c1 = c0 + a4,  c3 = a0 + c4,  c2 = c1 + c3,

    all components positive.  The free parameter is a0 (feasibility-interval
    midpoint by default); raises Infeasible when the interval is no wider than
    _INTERVAL_FLOOR.
    """
    lo = max(0.0, t1.a - t3.a, t3.c - t1.b)
    hi = min(t1.a, t3.c, t1.c + t1.a - t3.a)
    if not hi - lo > _INTERVAL_FLOOR:
        raise Infeasible(f"feasibility interval [{lo}, {hi}] for a0 is empty up to rounding")
    a0 = 0.5 * (lo + hi) if free is None else float(free)
    if not lo < a0 < hi:
        raise Infeasible(f"free parameter {a0} outside ({lo}, {hi})")
    a2 = t1.a - a0
    a4 = t3.a - a2
    c0 = t1.c - a4
    c4 = t3.c - a0
    c2 = t1.c + t3.c
    mk = lambda a, c: ChargeTriple(a, 1.0 - a - c, c)
    try:
        return [mk(a0, c0), t1, mk(a2, c2), t3, mk(a4, c4)]
    except ValueError as e:
        raise Infeasible(str(e)) from e


def pentagon_residuals(charges5) -> float:
    """Max absolute defect of the five transfer equations."""
    q = charges5
    return max(
        abs(q[1].a - q[0].a - q[2].a),
        abs(q[3].a - q[2].a - q[4].a),
        abs(q[1].c - q[0].c - q[4].a),
        abs(q[3].c - q[0].a - q[4].c),
        abs(q[2].c - q[1].c - q[3].c),
    )


@dataclass(frozen=True)
class PentagonCharges:
    """Five charge triples satisfying the transfer equations, plus offsets."""

    charges: tuple
    alpha: LcaPoint = LcaPoint(0.0, 0)
    beta: LcaPoint = LcaPoint(0.0, 0)

    def __post_init__(self):
        if len(self.charges) != 5:
            raise ValueError("need five charge triples")
        defect = pentagon_residuals(self.charges)
        if defect > 1e-12:
            raise Infeasible(f"charge transfer equations violated by {defect:.2e}")

    @classmethod
    def solve(cls, t1, t3, free=None, alpha=LcaPoint(0.0, 0), beta=LcaPoint(0.0, 0)):
        return cls(tuple(solve_pentagon_charges(t1, t3, free)), alpha, beta)

    def mus(self) -> list[LcaPoint]:
        a, b = self.alpha, self.beta
        return [a, a, a + b, b, b]


def check_charged_beta_pentagon(
    pc: PentagonCharges,
    samples,
    params: QdParams,
    spec: QuadratureSpec | None = None,
) -> dict:
    """Relative residual of the weight-kernel five-term identity over samples.

    samples: iterable of 4-tuples (x, y, u, v) of LcaPoint.  The A/B integral
    is the periodic trapezoid on spec.M points of the canonical section
    z = (t, 0).  Also reports the pointwise B-shift invariance defect of the
    integrand at the first sample (exact for odd N; genuinely nonzero for
    even N, where not every element is divisible by 2).

    Each kernel's y-set has its F psi evaluated once: W_2's y is z itself, the
    same at every sample, and W_4's and W_0's are fixed within a sample.  The
    shifted integrand at z + b0 moves those y by -b0, +b0 and -b0, a section
    offset on the same rows, so S samples at M points cost (2S + 1) M rows of
    F psi, against (3S + 3) M when each kernel was evaluated afresh.
    """
    spec = spec or QuadratureSpec()
    N = params.N
    rN = N.sqrt
    M = spec.M
    wks = [
        WeightKernelParams(ch, params, mu) for ch, mu in zip(pc.charges, pc.mus())
    ]
    ts = np.arange(M) * rN / M
    b0 = b_generator(N)
    w2 = weight_kernel_rows(wks[2], ts, 0)  # W_2's y is z itself, the same at every sample

    def integrand(x, y, u, v, shifts) -> list:
        """The integrand at z = (t, 0) + s b0 of the grid for each s of shifts: y -/+ s b0
        on the rows of W_2 and of this sample's W_4 and W_0, which die with the call."""
        w4 = weight_kernel_rows(wks[4], v.x - ts, v.n)
        w0 = weight_kernel_rows(wks[0], y.x - ts, y.n)
        return [w4(u.x + y.x, u.n + y.n, -s)
                * w2(x.x + y.x + u.x + v.x - (ts + s * b0.x), x.n + y.n + u.n + v.n - s * b0.n, s)
                * w0(x.x + v.x, x.n + v.n, -s) for s in shifts]

    residuals = []
    shift_defect = None
    for (x, y, u, v) in samples:
        lhs = weight_kernel(wks[1], x, y) * weight_kernel(wks[3], u, v)
        vals, *shifted = integrand(x, y, u, v, (0, 1) if shift_defect is None else (0,))
        rhs = complex(np.sum(vals) / M)
        residuals.append(abs(lhs - rhs) / (abs(lhs) + abs(rhs)))
        if shifted:
            shift_defect = float(
                np.max(np.abs(shifted[0] - vals)) / max(np.max(np.abs(vals)), 1e-300)
            )
    # np.max keeps a NaN residual, which Python's max can drop
    return {"max_residual": float(np.max(residuals)), "integrand_b_shift_defect": shift_defect}


def check_faddeev_type(pc: PentagonCharges, samples, params: QdParams, family=None) -> dict:
    """Residual of the Fourier-side five-term identity over samples of A^2.

    samples: iterable of pairs (p, q) of LcaPoint.  family optionally replaces
    the pentagon family with an arbitrary 5-tuple of callables (xr, n) ->
    values, for negative controls.
    """
    zs = np.arange(-WINDOW, WINDOW + STEP / 2, STEP)

    if family is None:
        family = [
            (lambda ch: (lambda xr, n: pentagon_family(ch, xr, n, params)))(ch)
            for ch in pc.charges
        ]
    residuals = []
    for (p, q) in samples:
        lhs = complex(family[1](np.array([p.x]), p.n)[0]) * complex(
            family[3](np.array([q.x]), q.n)[0]
        )
        integral = haar_simpson(
            lambda z, m: family[4](q.x - z, q.n - m) * family[2](z, m)
            * family[0](p.x - z, p.n - m) * gaussian_exp(LcaPoint(z, m), params.N),
            zs, STEP, params.N)
        rhs = fourier_kernel(-p, q, params.N) * integral
        residuals.append(abs(lhs - rhs) / (abs(lhs) + abs(rhs)))
    return {"max_residual": float(np.max(residuals))}
