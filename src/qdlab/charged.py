"""Charged quantum dilogarithms, their Fourier transforms, and weight kernels.

With normalized charges A + B + C = 1 (the paper-scale charges a = A/sqrt(N)
etc. satisfy a + b + c = N^{-1/2}):

    psi_{A,C}(x, n) = e^{-2 pi i c_th (A/sqrt N) x} / D_theta(x - c_th (A+C)/sqrt(N), n)

decays exponentially in both directions along R.  Its forward Fourier
transform has the closed form (derived from the transformation formula of the
quantum dilogarithm, and pinned against direct quadrature by the tests):

    (F psi_{A,C})(x, n) = <x,n> psi_{C,B}(-x, -n)
                          * e^{-pi i c_th^2 a(a+2c)} * e^{-pi i (N - 4 c_th^2/N)/12}

The five-term (pentagon) family is the conjugated, normalized transform

    H_{A,C} = conj( kappa_{A,C} * F^{-1} psi_{A,C} ),
    kappa_{A,C} = e^{i pi c_th^2 (A^2 + A C)/N},

which satisfies the Fourier-side five-term identity with constant exactly 1
(pinned numerically by the pentagon tests).  The two-variable weight kernel
is its automorphic descent

    W_{A,C;mu}(x, y) = <x; -y/2> sum_{b in B} H_{A,C}(-y-b) conj<b> <b; mu - x>,

quasi-periodic in both arguments under B-shifts.  Every kernel value, paired
(`weight_kernel_many`) or on a grid (`weight_kernel_grid`, for the per-tet
tables of the partition function), comes from one B-sum engine, `_b_sum`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent
from .lca import (LcaPoint, QuadratureSpec, fourier_kernel, gaussian_exp, haar_simpson,
                  halve_residue, scalar_out)
from .qdilog import QdParams, log_dtheta

__all__ = [
    "ChargeTriple",
    "WeightKernelParams",
    "psi_charged",
    "log_psi",
    "forward_transform_closed",
    "forward_transform_quadrature",
    "f1_bridge_residual",
    "charged_identity_residuals",
    "pentagon_normalization",
    "pentagon_family",
    "weight_kernel",
    "weight_kernel_many",
    "weight_kernel_grid",
]


@dataclass(frozen=True)
class ChargeTriple:
    """Positive shape charges (a, b, c) with a + b + c = 1 (units of pi)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        # written so that NaN and inf fail: every comparison with NaN is False
        if not (self.a > 0 and self.b > 0 and self.c > 0):
            raise ValueError(f"charges must be strictly positive: {self}")
        if not abs(self.a + self.b + self.c - 1.0) <= 1e-12:
            raise ValueError(f"charges must sum to 1: {self}")

    @classmethod
    def equal(cls) -> "ChargeTriple":
        return cls(1 / 3, 1 / 3, 1 / 3)


def log_psi(charges: ChargeTriple, z, n: int, params: QdParams,
            spec: QuadratureSpec | None = None) -> np.ndarray:
    """log psi_{A,C}(z, n) modulo 2 pi i, vectorized over z."""
    cth = params.theta.c
    rN = params.N.sqrt
    z = np.asarray(z, dtype=complex)
    shift = cth * (charges.a + charges.c) / rN
    return -2j * np.pi * cth * (charges.a / rN) * z - log_dtheta(z - shift, n, params, spec)


def psi_charged(charges: ChargeTriple, z, n: int, params: QdParams,
                spec: QuadratureSpec | None = None):
    """psi_{A,C}(z, n); scalar in, scalar out."""
    zarr = np.asarray(z, dtype=complex)
    return scalar_out(zarr, np.exp(log_psi(charges, zarr, n % params.N.N, params, spec)))


def _transform_prefactor(charges: ChargeTriple, params: QdParams) -> complex:
    cth = params.theta.c
    N = params.N.N
    a = charges.a / params.N.sqrt
    c = charges.c / params.N.sqrt
    return complex(
        np.exp(-1j * np.pi * cth**2 * a * (a + 2 * c))
        * np.exp(-1j * np.pi * (N - 4 * cth**2 / N) / 12)
    )


def log_forward_transform(charges: ChargeTriple, z, n: int, params: QdParams,
                          spec: QuadratureSpec | None = None) -> np.ndarray:
    """log (F psi_{A,C})(z, n) modulo 2 pi i, vectorized over z (closed form)."""
    N = params.N.N
    z = np.asarray(z, dtype=complex)
    swapped = ChargeTriple(charges.c, charges.a, charges.b)  # psi_{C,B}
    lg = 1j * np.pi * z**2 + np.log(
        gaussian_exp(LcaPoint(0.0, n), params.N)
    )  # log <z, n> with the n-part separated
    return (
        lg
        + log_psi(swapped, -z, (-n) % N, params, spec)
        + np.log(_transform_prefactor(charges, params))
    )


def forward_transform_closed(charges: ChargeTriple, z, n: int, params: QdParams,
                             spec: QuadratureSpec | None = None):
    """(F psi_{A,C})(z, n) = <z,n> psi_{C,B}(-z, -n) * prefactor."""
    zarr = np.asarray(z, dtype=complex)
    vals = np.exp(log_forward_transform(charges, zarr, n % params.N.N, params, spec))
    return scalar_out(zarr, vals)


def forward_transform_quadrature(charges: ChargeTriple, x: float, n: int, params: QdParams,
                                 spec: QuadratureSpec | None = None) -> complex:
    """integral_A psi(y, m) <y,m; x,n> d(y,m) by Simpson on a truncated window."""
    spec = spec or QuadratureSpec()
    h = spec.step / 4  # psi oscillates with quadratic phase in the tails
    # window set by the slower of the two exponential decay rates of psi
    rate = 2 * np.pi * params.theta.c.imag * min(charges.a, charges.c) / params.N.sqrt
    W = max(2 * spec.window, 23.0 / rate)
    ys = np.arange(-W, W + h / 2, h)
    return haar_simpson(lambda y, m: psi_charged(charges, y, m, params, spec)
                        * fourier_kernel(LcaPoint(x, n), LcaPoint(y, m), params.N),
                        ys, h, params.N)


def pentagon_normalization(charges: ChargeTriple, params: QdParams) -> complex:
    """kappa_{A,C} = e^{i pi c_th^2 (A^2 + A C)/N}, unit modulus.

    With this normalization the five-term identity of the pentagon family
    holds with constant exactly 1.
    """
    cth = params.theta.c
    return complex(
        np.exp(1j * np.pi * cth**2 * (charges.a**2 + charges.a * charges.c) / params.N.N)
    )


def pentagon_family(charges: ChargeTriple, x, n: int, params: QdParams,
                    spec: QuadratureSpec | None = None):
    """H_{A,C}(x, n) = conj(kappa (F^{-1} psi_{A,C})(x, n)), the five-term family.

    F^{-1} psi(x, n) = (F psi)(-x, -n) by evenness of the kernel.
    """
    N = params.N.N
    val = forward_transform_closed(charges, -np.asarray(x, dtype=float), (-n) % N, params, spec)
    return scalar_out(x, np.conj(pentagon_normalization(charges, params) * val))


def f1_bridge_residual(charges: ChargeTriple, x: float, n: int, params: QdParams,
                       spec: QuadratureSpec | None = None) -> float:
    """Consistency of the two closed-form readings of the transformed function.

    The transform table lists psi-tilde'(x,n) = psi_{C,B}(x, n) * prefactor;
    with psi-tilde' = <x,n>^{-1} (F^{-1} psi)(x,n) both readings coincide:
    <x,n>^{-1} (F psi)(-x,-n) == psi_{C,B}(x, n) * prefactor.
    """
    N = params.N.N
    lhs = forward_transform_closed(charges, -x, (-n) % N, params, spec) / gaussian_exp(
        LcaPoint(x, n), params.N
    )
    swapped = ChargeTriple(charges.c, charges.a, charges.b)
    rhs = psi_charged(swapped, x, n % N, params, spec) * _transform_prefactor(
        charges, params
    )
    return abs(lhs - rhs)


def charged_identity_residuals(charges: ChargeTriple, samples, params: QdParams,
                               spec: QuadratureSpec | None = None) -> dict:
    """Max residuals of the conjugation identities f2 and f3 over samples.

    f2: conj psi_{A,C}(x,n) = psi_{C,A}(-x,-n) <x,n> e^{pi i c^2 (a+c)^2}
                              e^{-pi i (N + 2 c^2/N)/6}
    f3: conj (F^{-1}psi_{A,C} <.,.>^{-1})(x,n)
        = psi_{B,C}(-x, -n) <x, n> e^{-2 pi i c^2 a b} e^{-pi i (N - 4c^2/N)/12}

    samples: iterable of (x, n).  Also reports the f3-from-f1-and-f2
    composition discrepancy, which vanishes identically.
    """
    cth = params.theta.c
    N = params.N.N
    rN = params.N.sqrt
    a, b, c = charges.a / rN, charges.b / rN, charges.c / rN
    f2, f3, comp = [], [], []
    for (x, n) in samples:
        n = n % N
        lhs2 = np.conj(psi_charged(charges, x, n, params, spec))
        rhs2 = (
            psi_charged(ChargeTriple(charges.c, charges.b, charges.a), -x, (-n) % N, params, spec)
            * gaussian_exp(LcaPoint(x, n), params.N)
            * np.exp(1j * np.pi * cth**2 * (a + c) ** 2)
            * np.exp(-1j * np.pi * (N + 2 * cth**2 / N) / 6)
        )
        f2.append(abs(lhs2 - rhs2))

        tilde = forward_transform_closed(charges, -x, (-n) % N, params, spec) / gaussian_exp(
            LcaPoint(x, n), params.N
        )
        lhs3 = np.conj(tilde)
        rhs3 = (
            psi_charged(ChargeTriple(charges.b, charges.a, charges.c), -x, (-n) % N, params, spec)
            * gaussian_exp(LcaPoint(x, n), params.N)
            * np.exp(-2j * np.pi * cth**2 * a * b)
            * np.exp(-1j * np.pi * (N - 4 * cth**2 / N) / 12)
        )
        f3.append(abs(lhs3 - rhs3))
        # f3 composed from f1 and f2 is the f1 bridge, which vanishes identically
        comp.append(f1_bridge_residual(charges, x, n, params, spec))
    # np.max keeps a NaN residual, which Python's max can drop
    return {key: float(np.max(vals, initial=0.0))
            for key, vals in (("f2_max", f2), ("f3_max", f3), ("f3_composition_max", comp))}


@dataclass(frozen=True)
class WeightKernelParams:
    """Charges, automorphy offset mu, and the ambient QdParams of one kernel."""

    charges: ChargeTriple
    params: QdParams
    mu: LcaPoint = LcaPoint(0.0, 0)


# Transform points per block of the B-sum: bounds the memory of one block
# whatever the number of kernel points or of B-terms.
_BLOCK_POINTS = 4096
# Hard cap on the one-sided B-sum length K; a sum that reaches it with a tail
# above tolerance raises NonConvergent.
_B_TERMS = 400


def _b_sum(wkp: WeightKernelParams, xr, xn, yr, yn, spec: QuadratureSpec | None,
           M: int | None = None) -> np.ndarray:
    """W(x, y) = <x; -y/2> sum_{|k| <= K} conj(kappa F psi)(y + k b0) conj<k b0> <k b0; mu - x>.

    K follows the decay rate of F psi, capped at _B_TERMS.  NonConvergent
    is raised when a term with |k| >= K - N exceeds 1e3 * spec.tol times the
    largest |W|, and when a term or a sum is not finite.  Each block of rows
    of y times the k of one residue r mod N holds about _BLOCK_POINTS terms.

    Paired (M None): 1-D x and y give W(x_i, y_i); each block takes one
    log_forward_transform call.  Grid (M given): xr and yr are integer
    indices u, w of the grid of step h = sqrt(N)/M, xn = yn = 0, and
    [j, i] -> W(u_i h, w_j h).  With k = r + N m the shifted points are
    w h + k/sqrt(N) = (w + m M) h + r/sqrt(N), so F psi is evaluated once per
    distinct lattice index J = w + m M, in chunks of _BLOCK_POINTS, and each
    block of terms is gathered from those values.
    """
    spec = spec or QuadratureSpec()
    p = wkp.params
    N = p.N.N
    rN = p.N.sqrt
    ch = wkp.charges
    grid = M is not None
    if grid:
        h = rN / M
        ws = np.asarray(yr, dtype=int)
        xr, yr = np.asarray(xr, dtype=int) * h, ws * h
    xr = np.asarray(xr, dtype=float)
    xn = np.asarray(xn, dtype=int) % N
    yr = np.asarray(yr, dtype=float)
    yn = np.asarray(yn, dtype=int) % N
    rate = 2 * np.pi * p.theta.c.imag * min(ch.a, ch.b, ch.c) / N
    K = min(int(np.ceil(-np.log(spec.tol * 1e-3) / rate)) + 4 * N, _B_TERMS)
    ks = np.arange(-K, K + 1)
    kap = pentagon_normalization(ch, p)

    def phase(k, x, n):
        # conj<k b0> = (-1)^k;  <k b0; mu - (x, n)>, one fused exp rather than
        # lca.fourier_kernel, which would move Z in its last bits
        return (-1.0) ** k * np.exp(
            2j * np.pi * (k / rN) * (wkp.mu.x - x) - 2j * np.pi * k * ((wkp.mu.n - n) / N)
        )

    def terms_at(z, n):
        terms = np.conj(kap * np.exp(log_forward_transform(ch, z, n, p, spec)))
        if not np.all(np.isfinite(terms)):
            raise NonConvergent(f"weight-kernel B-sum term not finite (n={n})")
        return terms

    total = np.zeros((len(yr), len(xr)) if grid else len(yr), dtype=complex)
    tail = 0.0
    for v in np.unique(yn):
        rows = np.flatnonzero(yn == v)
        for r in np.unique(ks % N):
            k = ks[ks % N == r]
            step = max(1, _BLOCK_POINTS // len(k))
            if grid:
                P = phase(k[:, None], xr, xn)
                # lattice index J = w + m M of the term (w, k = r + N m), offset by lo
                mM = (k - r) // N * M
                lo = ws.min() + mM[0]
                hit = np.zeros(ws.max() + mM[-1] - lo + 1, dtype=bool)
                for start in range(0, len(ws), step):
                    hit[ws[start:start + step, None] + mM - lo] = True
                J = lo + np.flatnonzero(hit)
                slot = np.cumsum(hit) - 1  # position of each hit J in the lattice values
                lattice = np.concatenate([
                    terms_at(J[s:s + _BLOCK_POINTS] * h + r / rN, r)
                    for s in range(0, len(J), _BLOCK_POINTS)
                ])
            for start in range(0, len(rows), step):
                i = rows[start:start + step]
                if grid:
                    terms = lattice[slot[ws[i, None] + mM - lo]]
                else:
                    z = yr[i, None] + k / rN
                    terms = terms_at(z.ravel(), (v + r) % N).reshape(z.shape)
                # the phases are unimodular, so |terms| is the size of each summand
                tail = max(tail, float(np.max(np.abs(terms[:, np.abs(k) >= K - N]), initial=0.0)))
                if grid:
                    total[i] += terms @ P
                else:
                    total[i] += np.einsum("ik,ik->i", terms, phase(k, xr[i, None], xn[i, None]))
    if not np.all(np.isfinite(total)):
        raise NonConvergent(f"weight-kernel B-sum not finite at K={K}")
    if tail > 1e3 * spec.tol * max(float(np.max(np.abs(total), initial=0.0)), 1e-300):
        raise NonConvergent(f"weight-kernel B-sum tail {tail:.2e} too large at K={K}")
    if grid:
        yr, yn = yr[:, None], yn[:, None]
    # <x; -y/2> with the halving convention of lca.halve, inline for the same reason
    hyn = halve_residue(yn, N)
    return np.exp(-2j * np.pi * xr * (yr / 2)) * np.exp(2j * np.pi * (xn * hyn) / N) * total


def weight_kernel_many(wkp: WeightKernelParams, xr, xn, yr, yn,
                       spec: QuadratureSpec | None = None) -> np.ndarray:
    """W_{A,C;mu} at parallel (broadcast) arrays of points x = (xr, xn), y = (yr, yn)."""
    xr, xn, yr, yn = np.broadcast_arrays(xr, xn, yr, yn)
    out = _b_sum(wkp, xr.ravel(), xn.ravel(), yr.ravel(), yn.ravel(), spec)
    return out.reshape(xr.shape)


def weight_kernel_grid(wkp: WeightKernelParams, us, ws, M: int,
                       spec: QuadratureSpec | None = None) -> np.ndarray:
    """W_{A,C;mu}((u_i h, 0), (w_j h, 0)) at every pair, as an array indexed [j, i].

    us and ws are integer indices of the grid of step h = sqrt(N)/M.  Every
    shift w h + k/sqrt(N) of the B-sum lies on the lattice J h + r/sqrt(N),
    J = w + m M, k = r + N m, so F psi is evaluated once per lattice point
    and residue r, not once per (w, k).
    """
    return _b_sum(wkp, us, np.zeros(len(us), int), ws, np.zeros(len(ws), int), spec, M)


def weight_kernel(wkp: WeightKernelParams, x: LcaPoint, y: LcaPoint,
                  spec: QuadratureSpec | None = None) -> complex:
    """W_{A,C;mu}(x, y) at a single pair of points of A_N."""
    return complex(weight_kernel_many(wkp, x.x, x.n, y.x, y.n, spec))
