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
(pinned numerically by the pentagon tests).  A different, also unimodular, linear
phase kappa_{A,C} e^{-i pi c_th^2 (A - C)/(3N)} would make the transform a clean
cocycle with constant gamma^{-1/3} = e^{-i pi N/12}; nothing uses it, so it is not
defined here.  The two-variable weight kernel is its automorphic descent

    W_{A,C;mu}(x, y) = <x; -y/2> sum_{b in B} H_{A,C}(-y-b) conj<b> <b; mu - x>,

quasi-periodic in both arguments under B-shifts.  Every kernel value, paired
(`weight_kernel_rows`, `weight_kernel_pairs`, its one-pair case `weight_kernel`, and
the lines of `weight_kernel_cores`) or on a grid
(`weight_kernel_grid`; the lines and grids serve the per-tet views of the partition
function), comes from one B-sum engine in three stages, at the section points
y0 = yr - yn/sqrt(N) of a set of points y.
- `_dtheta_rows` evaluates D_theta(-z - c_th (B + C)/sqrt(N), -n), the one factor
  of F psi_{A,C}(z, n) that runs q-products, on the band of shifts the sum reads,
  in one qdilog.log_dtheta call, whose memory that function bounds.  It reads the
  charges through the float B + C alone, so `weight_kernel_cores` and
  `weight_kernel_pairs` evaluate it once per value of B + C (`_by_band`), and every
  kernel with that value reads the same rows.  A batch of pairs (the tet weights of
  a descent residual, the left sides of a five-term check) keeps one row per pair at
  its own y0, never one row read at two B-offsets: a descent residual compares a
  weight with its B-shift, and a shared row would make it an identity of the code.
- `_rows` adds the rest of log F psi (log_forward_transform, given those rows),
  applies kappa, conj and exp, and reads the tail ratios.
- `_b_sum` contracts the rows with the phases of x, which enters nowhere else.
The paired and the grid values run the same float operations in the same order,
so sharing the rows keeps every bit.  A B-shift y + s b0 has the same y0 and section
offset yn + s, so it reads the same rows: `weight_kernel_rows` returns
W(x, y + s b0) for every x and integer s from one evaluation of F psi.

The B-sum's tails are geometric with period 2N.  F psi_{A,C}(z, n) is
e^{pi i z^2} e^{2 pi i c_th C z/sqrt(N)} / D_theta(-z - s, -n) times factors of
period N in n, with s = c_th (B + C)/sqrt(N).  Term k of the sum sits at
z = y0 + k/sqrt(N), n = k mod N, so k -> k + 2N moves z by 2 sqrt(N) and keeps n.
- Right (k -> +inf): D's point is unreflected and both its q-products are dead
  (_band), so D = 1 exactly.  log F psi moves by 4 pi i sqrt(N) z + 4 pi i N
  + 4 pi i c_th C, which is 4 pi i sqrt(N) y0 + 4 pi i c_th C modulo 2 pi i.
- Left (k -> -inf): D's point is reflected and both products are dead, so D is the
  inversion relation's right side alone, D(w, m) = <w, m> e^{-pi i (N + 2 c_th^2/N)/6}
  (qdilog.inversion_constant): log D(w, m) = pi i w^2 + (period N in m), and log F psi
  is -2 pi i c_th B z/sqrt(N) plus terms of period N.  It moves by 4 pi i c_th B under
  k -> k - 2N.
- The phases conj<k b0> <k b0; mu - x> move by e^{+-4 pi i sqrt(N) (mu_x - x)}.
With c_th = i cos(arg theta), each summand of conj(kappa F psi) times its phase is
multiplied over one period by

    R+ = e^{-4 pi cos(arg theta) C} e^{4 pi i sqrt(N) (mu_x - x - y0)}   (k -> k + 2N),
    R- = e^{-4 pi cos(arg theta) B} e^{-4 pi i sqrt(N) (mu_x - x)}        (k -> k - 2N),

both inside the unit circle.  `_rows` reads R off F psi itself, not off this
formula, and `_b_sum` sums each tail as its 2N seed terms over 1 - R.  So the sum is
exact up to the q-products' own tolerance whatever the charges: a charge of 0.05 slows
a tail's decay but adds no terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent
from .faddeev import _PRODUCT_TOL, _dead_bound, level_products
from .lca import (STEP, WINDOW, LcaPoint, fourier_kernel, gaussian_exp, haar_simpson,
                  halve_residue, refuse_large, refuse_large_gaussian, scalar_out)
from .qdilog import QdParams, inversion_constant, log_dtheta

__all__ = [
    "ChargeTriple",
    "WeightKernelParams",
    "psi_charged",
    "log_psi",
    "forward_transform_closed",
    "forward_transform_quadrature",
    "charged_identity_residuals",
    "pentagon_normalization",
    "pentagon_family",
    "weight_kernel",
    "weight_kernel_pairs",
    "weight_kernel_rows",
    "weight_kernel_cores",
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


def _log_d(s: float, z, n: int | np.ndarray, params: QdParams) -> np.ndarray:
    """log D_theta(z - c_th s/sqrt(N), n), the one factor of psi_{A,C} that runs q-products;
    it reads the charges through s = A + C alone."""
    return log_dtheta(z - params.theta.c * s / params.N.sqrt, n, params)


def log_psi(charges: ChargeTriple, z, n: int | np.ndarray | None, params: QdParams,
            log_d=None) -> np.ndarray:
    """log psi_{A,C}(z, n) modulo 2 pi i; n is an integer or an integer array along the last
    axis of z (qdilog.log_dtheta).  log_d, if given, is _log_d(A + C, z, n) already
    evaluated, and n is not read."""
    cth = params.theta.c
    rN = params.N.sqrt
    z = np.asarray(z, dtype=complex)
    # log D first, so that fewer whole-array temporaries live at once
    if log_d is None:
        log_d = _log_d(charges.a + charges.c, z, n, params)
    return -2j * np.pi * cth * (charges.a / rN) * z - log_d


def psi_charged(charges: ChargeTriple, z, n: int, params: QdParams):
    """psi_{A,C}(z, n); scalar in, scalar out.  A z whose phase pi z^2 reaches 2^52 turns
    is refused (lca.refuse_large)."""
    zarr = np.asarray(z, dtype=complex)
    refuse_large_gaussian(zarr)
    return scalar_out(zarr, np.exp(log_psi(charges, zarr, n % params.N.N, params)))


def _transform_prefactor(charges: ChargeTriple, params: QdParams) -> complex:
    cth = params.theta.c
    N = params.N.N
    a = charges.a / params.N.sqrt
    c = charges.c / params.N.sqrt
    return complex(
        np.exp(-1j * np.pi * cth**2 * a * (a + 2 * c))
        * np.exp(-1j * np.pi * (N - 4 * cth**2 / N) / 12)
    )


def log_forward_transform(charges: ChargeTriple, z, n: int | np.ndarray,
                          params: QdParams, log_d=None) -> np.ndarray:
    """log (F psi_{A,C})(z, n) mod 2 pi i (closed form); n is an integer or an integer array
    along the last axis of z.  log_d, if given, is log D_theta(-z - c_th (B + C)/sqrt(N), -n)
    = _log_d(B + C, -z, -n), the factor of psi_{C,B}(-z, -n) that runs q-products, already
    evaluated: every charge triple with the same float B + C shares it."""
    z = np.asarray(z, dtype=complex)
    # psi_{C,B} before the Gaussian, so that fewer whole-array temporaries live at once
    lp = log_psi(ChargeTriple(charges.c, charges.a, charges.b), -z,
                 None if log_d is not None else (-n) % params.N.N, params, log_d)
    lg = 1j * np.pi * z**2 + np.log(gaussian_exp(LcaPoint(0.0, n), params.N))  # log <z, n>
    return lg + lp + np.log(_transform_prefactor(charges, params))


def forward_transform_closed(charges: ChargeTriple, z, n: int, params: QdParams):
    """(F psi_{A,C})(z, n) = <z,n> psi_{C,B}(-z, -n) * prefactor."""
    zarr = np.asarray(z, dtype=complex)
    vals = np.exp(log_forward_transform(charges, zarr, n % params.N.N, params))
    return scalar_out(zarr, vals)


def forward_transform_quadrature(charges: ChargeTriple, x: float, n: int,
                                 params: QdParams) -> complex:
    """integral_A psi(y, m) <y,m; x,n> d(y,m) by Simpson on a truncated window."""
    h = STEP / 4  # psi oscillates with quadratic phase in the tails
    # window set by the slower of the two exponential decay rates of psi
    rate = 2 * np.pi * params.theta.c.imag * min(charges.a, charges.c) / params.N.sqrt
    W = max(2 * WINDOW, 23.0 / rate)
    ys = np.arange(-W, W + h / 2, h)
    return haar_simpson(lambda y, m: psi_charged(charges, y, m, params)
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


def pentagon_family(charges: ChargeTriple, x, n: int, params: QdParams):
    """H_{A,C}(x, n) = conj(kappa (F^{-1} psi_{A,C})(x, n)), the five-term family.

    F^{-1} psi(x, n) = (F psi)(-x, -n) by evenness of the kernel.
    """
    N = params.N.N
    val = forward_transform_closed(charges, -np.asarray(x, dtype=float), (-n) % N, params)
    return scalar_out(x, np.conj(pentagon_normalization(charges, params) * val))


def charged_identity_residuals(charges: ChargeTriple, samples, params: QdParams) -> dict:
    """Max residuals of the conjugation identities f2 and f3 over samples.

    f2: conj psi_{A,C}(x,n) = psi_{C,A}(-x,-n) <x,n> e^{pi i c^2 (a+c)^2}
                              e^{-pi i (N + 2 c^2/N)/6}   (inversion_constant)
    f3: conj (F^{-1}psi_{A,C} <.,.>^{-1})(x,n)
        = psi_{B,C}(-x, -n) <x, n> e^{-2 pi i c^2 a b} e^{-pi i (N - 4c^2/N)/12}

    samples: iterable of (x, n), evaluated as one array each of x and n.  Also
    reports f3_composition_max, the f1 bridge: the transform table reads the same
    tilde as psi_{C,B}(x, n) * prefactor.  It is an identity of the code
    (forward_transform_closed is that closed form), so it vanishes to rounding and
    tests no q-product.
    """
    cth = params.theta.c
    N = params.N.N
    rN = params.N.sqrt
    a, b, c = charges.a / rN, charges.b / rN, charges.c / rN
    x, n = np.array(list(samples), dtype=float).reshape(-1, 2).T
    n = n.astype(int) % N
    g = gaussian_exp(LcaPoint(x, n), params.N)
    rhs2 = (psi_charged(ChargeTriple(charges.c, charges.b, charges.a), -x, -n, params) * g
            * np.exp(1j * np.pi * cth**2 * (a + c) ** 2) * inversion_constant(params))
    f2 = np.abs(np.conj(psi_charged(charges, x, n, params)) - rhs2)
    tilde = forward_transform_closed(charges, -x, -n, params) / g
    rhs3 = (psi_charged(ChargeTriple(charges.b, charges.a, charges.c), -x, -n, params) * g
            * np.exp(-2j * np.pi * cth**2 * a * b)
            * np.exp(-1j * np.pi * (N - 4 * cth**2 / N) / 12))
    f3 = np.abs(np.conj(tilde) - rhs3)
    swapped = ChargeTriple(charges.c, charges.a, charges.b)  # psi_{C,B}
    prefactor = _transform_prefactor(charges, params)
    comp = np.abs(tilde - psi_charged(swapped, x, n, params) * prefactor)
    # np.max keeps a NaN residual, which Python's max can drop
    return {key: float(np.max(vals, initial=0.0))
            for key, vals in (("f2_max", f2), ("f3_max", f3), ("f3_composition_max", comp))}


@dataclass(frozen=True)
class WeightKernelParams:
    """Charges, automorphy offset mu, and the ambient QdParams of one kernel."""

    charges: ChargeTriple
    params: QdParams
    mu: LcaPoint = LcaPoint(0.0, 0)


def _band(p: QdParams, bc: float, y0: np.ndarray) -> tuple[int, int]:
    """(k0, k1) such that F psi_{A,C}(y0 + k b0) runs no live q-product for k < k0 or
    k > k1, at every y0 given, for every charge triple with B + C = bc.

    F psi_{A,C}(z, n) holds 1/D_theta(-z - s, -n), s = c_th (B + C)/sqrt(N) (log_psi of
    psi_{C,B}).  At z = t = y0 + k/sqrt(N) that D runs its two q-products
    (faddeev.level_products) at w = -t - s on the right (large k), and at the reflected
    w = t + s on the left.  Each product's Re log x is affine in Re w, with slope
    2 pi cos(arg theta)/sqrt(N), and no residue moves it.  So a product is live exactly
    for -left <= t <= right, where its Re log x at w = s (left) or w = -s (right) falls by
    slope * left (right) to its dead bound.  One more k on each side keeps the rounding of
    the edge out.
    """
    rN, s = p.N.sqrt, p.theta.c * bc / p.N.sqrt
    left, right = (max((lx.real - _dead_bound(lq.real, _PRODUCT_TOL)) * rN
                       / (2 * np.pi * p.theta.theta.real)
                       for lx, lq in level_products(w, 0, p.theta, p.N.N)) for w in (s, -s))
    return (math.floor(rN * (-left - np.max(y0))) - 1, math.ceil(rN * (right - np.min(y0))) + 1)


def _dtheta_rows(p: QdParams, bc: float, y0: np.ndarray) -> tuple:
    """Stage one of the B-sum: (ks, L) with L[i, k] = log D_theta(-z - c_th bc/sqrt(N), -k)
    at z = y0_i + k b0, every shift k the sum reads, for every charge triple with B + C = bc.

    That D is the one factor of F psi_{A,C}(z, k) that runs q-products, and it reads the
    charges through B + C alone (log_forward_transform), so kernels whose charges share
    the float B + C share these rows.  The shifts are the band k0..k1 of _band, where a
    q-product is live, 2N seed shifts on each side and one ratio shift per side (see the
    module notes); L is one log_dtheta call, with the residues -k mod N along the last axis.
    A y0 at which a shift index, about sqrt(N) y0, reaches 2^52 is refused first
    (lca.refuse_large), before any band is sized by it; the message names it y.
    """
    N, rN = p.N.N, p.N.sqrt
    refuse_large("the B-sum's shift index, about sqrt(N) |y|,", lambda m: (m + rN) * rN, "y", y0)
    k0, k1 = _band(p, bc, y0)
    ks = np.arange(k0 - 2 * N - 1, k1 + 2 * N + 2)  # ratio, 2N seeds, band, 2N seeds, ratio
    z = np.asarray(y0[:, None] + ks / rN, dtype=complex)
    return ks, _log_d(bc, -z, (-ks) % N, p)


def _rows(wkp: WeightKernelParams, y0: np.ndarray, d_rows: tuple | None = None) -> tuple:
    """Stage two of the B-sum: (ks, T, up, down) with T[i, k] = conj(kappa F psi)(y0_i + k b0)
    at every shift k of the D_theta rows (ks, L) of _dtheta_rows, and up, down the ratios of
    F psi one period apart past the band on each side.

    d_rows are the rows of this kernel's B + C at these y0, evaluated here when not given.
    F psi is one log_forward_transform call that reads L, with the residues k mod N along
    the last axis.  NonConvergent is raised when a term is not finite or |up| or
    |down| >= 1; numpy's warnings on a NaN or an overflow in exp are silenced, as these
    checks refuse the value.
    """
    p, ch = wkp.params, wkp.charges
    N, rN = p.N.N, p.N.sqrt
    ks, log_d = _dtheta_rows(p, ch.b + ch.c, y0) if d_rows is None else d_rows
    logs = log_forward_transform(ch, y0[:, None] + ks / rN, ks % N, p, log_d)
    k0, k1 = ks[2 * N + 1], ks[-2 * N - 2]
    with np.errstate(invalid="ignore", over="ignore"):
        terms = np.conj(pentagon_normalization(ch, p) * np.exp(logs))
        # the ratio of F psi one period apart, past the band on each side
        up = np.conj(np.exp(logs[:, -1] - logs[:, -2 * N - 1]))
        down = np.conj(np.exp(logs[:, 0] - logs[:, 2 * N]))
    if not np.all(np.isfinite(terms)):
        raise NonConvergent(f"weight-kernel B-sum term not finite at k={k0}..{k1}")
    if not np.all(np.maximum(np.abs(up), np.abs(down)) < 1):
        raise NonConvergent(f"weight-kernel B-sum tail not geometric at k={k0}..{k1}")
    return ks, terms, up, down


def _b_sum(wkp: WeightKernelParams, rows: tuple, xr, xn, off=None) -> np.ndarray:
    """Stage three of the B-sum: S(x, y) = sum_k T[i, k] conj<j b0> <j b0; mu - x>, j = k - off_i,
    the sum at y = (y0_i, 0) + off_i b0 from the rows (ks, T, up, down) of _rows.

    W(x, y) = <x; -y/2> S(x, y); the prefactor is left to the callers.  Past the band the
    summand is geometric with period 2N, so each tail is sum_seeds X_k / (1 - R), with
    R = up or down times the phase ratio e^{+-4 pi i sqrt(N) (mu_x - x)}, which no offset
    changes.  The sum is exact up to the q-products' own tolerance; NonConvergent is
    raised when it is not finite, and before any arithmetic when an x is not, which
    would make numpy warn on the way.  All rows are contracted in one statement per branch;
    its temporaries are the size of T, or of the result on a grid.

    xr is a 1-D float array and xn a 1-D integer array reduced mod N.  Paired (off a 1-D
    integer array): S(x_i, y_i), each row contracted with its own phases.  xr, xn and off
    each hold one value or one per row, and the phases and the ratio turn are built on
    their broadcast shape, so a scalar x and offset give one row of phases, which numpy
    broadcasts over T.  Grid (off None, every offset 0): [j, i] -> S(x_i, y_j), the rows
    contracted with the phases of every x by matmuls.
    """
    ks, terms, up, down = rows
    p = wkp.params
    N, rN = p.N.N, p.N.sqrt
    band, left, right = slice(2 * N + 1, -2 * N - 1), slice(1, 2 * N + 1), slice(-2 * N - 1, -1)

    def phase(k, x, n):
        # conj<k b0> = (-1)^k;  <k b0; mu - (x, n)>, one fused exp rather than
        # lca.fourier_kernel, which would move Z in its last bits
        return (1 - 2 * (k & 1)) * np.exp(
            2j * np.pi * (k / rN) * (wkp.mu.x - x) - 2j * np.pi * k * ((wkp.mu.n - n) / N)
        )

    if not np.all(np.isfinite(xr)):
        raise NonConvergent(f"weight-kernel B-sum not finite at x = {xr[~np.isfinite(xr)][0]}")
    turn = np.exp(4j * np.pi * rN * (wkp.mu.x - xr))  # phase ratio of k -> k + 2N
    if off is None:
        P = phase(ks[:, None], xr, xn)
        total = (terms[:, band] @ P[band]
                 + terms[:, right] @ P[right] / (1 - up[:, None] * turn)
                 + terms[:, left] @ P[left] / (1 - down[:, None] / turn))
    else:
        X = terms * phase(ks - off[:, None], xr[:, None], xn[:, None])
        total = (X[:, band].sum(axis=1) + X[:, right].sum(axis=1) / (1 - up * turn)
                 + X[:, left].sum(axis=1) / (1 - down / turn))
    if not np.all(np.isfinite(total)):
        raise NonConvergent(f"weight-kernel B-sum not finite at k={ks[band][0]}..{ks[band][-1]}")
    return total


def weight_kernel_rows(wkp: WeightKernelParams, yr, yn, rows: tuple | None = None):
    """W_{A,C;mu}(., y) at the points y = (yr, yn) (broadcast), from one evaluation of F psi.

    Returns W(xr, xn, shift=0), the kernel at x = (xr, xn), broadcast to the shape of y,
    and y + shift b0, for an integer shift or one per point of y.  F psi is evaluated
    once, by _rows at the section points y0 = yr - yn/sqrt(N) of y.  A B-shift y + s b0
    has the same y0 and section offset yn + s, so every shift reads the same rows; only
    the phases and the prefactor <x; -(y + s b0)/2> move.  They are built on the
    broadcast shape of x, yn and the shift, not of y: a scalar x and residue yn give one
    row of phases (_b_sum).  Nothing is kept past the returned function.  rows, if
    given, are the rows (ks, T, up, down) of _rows at those section points, one per
    point, already evaluated: weight_kernel_cores reads its lines off a core's rows.

    A y whose B-sum shift indices, about sqrt(N) y, reach 2^52 is refused (_dtheta_rows),
    and so is an x at which a phase of W reaches 2^52 turns (lca.refuse_large).  Each
    phase is at most |k - yn - shift| (|x| + |mu_x|)/sqrt(N) turns over the shifts k: the
    B-sum's (k - yn - shift)(mu_x - x)/sqrt(N), its tail ratio's 2 sqrt(N)(mu_x - x) and,
    as the shifts k run past -sqrt(N) y0 on both sides, the prefactor's x (y + shift/sqrt(N))/2.
    """
    N, rN = wkp.params.N.N, wkp.params.N.sqrt
    yr, yn = np.asarray(yr, dtype=float), np.asarray(yn, dtype=int) % N
    shape = np.broadcast_shapes(yr.shape, yn.shape)
    if rows is None:
        rows = _rows(wkp, np.broadcast_to(yr - yn / rN, shape).ravel())
    kmax = max(-int(rows[0][0]), int(rows[0][-1])) + int(np.max(yn, initial=0))  # >= |k - yn|

    def per_row(a):  # one value, or one per row of F psi
        return a.reshape(1) if a.size == 1 else np.broadcast_to(a, shape).ravel()

    def W(xr, xn, shift=0) -> np.ndarray:
        xr, xn, off = np.asarray(xr, dtype=float), np.asarray(xn, dtype=int) % N, yn + shift
        smax = int(np.max(np.abs(shift)))
        refuse_large("a phase of W, at most |k - yn - shift| (|x| + |mu_x|)/sqrt(N) turns,",
                     lambda m: (kmax + smax) / rN * (m + abs(wkp.mu.x)), "x", xr)
        total = _b_sum(wkp, rows, per_row(xr), per_row(xn), per_row(off)).reshape(shape)
        # <x; -y/2> with the halving convention of lca.halve, fused like the phases of _b_sum
        hyn = halve_residue(off % N, N)
        return (np.exp(-2j * np.pi * xr * ((yr + shift / rN) / 2))
                * np.exp(2j * np.pi * (xn * hyn) / N) * total)

    return W


def _by_band(wkps) -> dict:
    """The indices of wkps by the key of their D_theta rows and by kernel:
    {(QdParams, float B + C): {kernel: [i, ...]}}, in order of first appearance.
    _dtheta_rows reads the charges through B + C alone, so the kernels of one key can
    read one call's rows, and equal kernels one _rows call."""
    groups = {}
    for i, w in enumerate(wkps):
        groups.setdefault((w.params, w.charges.b + w.charges.c), {}).setdefault(w, []).append(i)
    return groups


def weight_kernel_cores(wkps, M: int, lines=None) -> list[np.ndarray]:
    """The B-sum on the index grid of step h = sqrt(N)/M for each kernel of wkps: the
    M x M core S[w, u] = S((u h, 0), (w h, 0)), 0 <= u, w < M, of weight_kernel_grid, or,
    where lines[i] is a pair (u, w) of integer arrays, W((u h, 0), (w h, 0)) along them.

    Both read the rows of F psi at y0 = (0..M-1) h, once per kernel: W at w = qM + w0
    is weight_kernel_rows(wkp, w0 h, 0)(u h, 0, qN) read off row w0, by the paired
    branch of the B-sum, in len(u) row contractions rather than the M of a core.
    D_theta is evaluated once per QdParams and float B + C (_by_band): the kernels that
    share them read the same rows of _dtheta_rows, which live only within this call.
    Every value has the bits of the kernel's own, as its rows are the same floats: a
    line's are those of weight_kernel_rows at its w0 h wherever its w0 reach both 0 and
    M - 1, where the band, and so every row, is the same.
    """
    lines = lines or [None] * len(wkps)
    out = [None] * len(wkps)
    for (p, bc), kernels in _by_band(wkps).items():
        h = p.N.sqrt / M
        y0 = np.arange(M) * h
        d_rows = _dtheta_rows(p, bc, y0)
        for wkp, idx in kernels.items():
            ks, T, up, down = rows = _rows(wkp, y0, d_rows)
            for i in idx:
                if lines[i] is None:
                    out[i] = _b_sum(wkp, rows, y0, np.zeros(M, dtype=int))
                else:
                    u, w = lines[i]
                    w0 = w % M
                    W = weight_kernel_rows(wkp, y0[w0], 0, (ks, T[w0], up[w0], down[w0]))
                    out[i] = W(u * h, 0, w // M * p.N.N)
    return out


def weight_kernel_pairs(wkps, xs, ys) -> np.ndarray:
    """W_i(x_i, y_i) for parallel sequences of kernels wkps and points xs, ys of A_N.

    One _dtheta_rows call per QdParams and float B + C (_by_band) covers the section
    points y0 of all the pairs that share them, so each row spans the union of their
    bands, about sqrt(N) times the spread of their y0 more shifts than its own; past its
    own band a row's terms are geometric, so the sum moves only by rounding.  Each kernel
    makes one _rows call over its own rows, and weight_kernel_rows reads each pair off its
    own row, with its refusals.  The module notes say why no row serves two pairs.
    """
    y0 = np.array([y.x - y.n % w.params.N.N / w.params.N.sqrt for w, y in zip(wkps, ys)])
    out = np.empty(len(wkps), dtype=complex)
    for (p, bc), kernels in _by_band(wkps).items():
        group = np.concatenate(list(kernels.values()))  # each kernel's pairs together
        ks, log_d = _dtheta_rows(p, bc, y0[group])
        for wkp, idx in kernels.items():
            rows = _rows(wkp, y0[idx], (ks, log_d[np.isin(group, idx)]))
            W = weight_kernel_rows(wkp, [ys[i].x for i in idx], [ys[i].n for i in idx], rows)
            out[idx] = W([xs[i].x for i in idx], [xs[i].n for i in idx])
    return out


def weight_kernel_grid(wkp: WeightKernelParams, core: np.ndarray, a_blocks,
                       q_blocks) -> np.ndarray:
    """W_{A,C;mu}((u h, 0), (w h, 0)) on whole M x M blocks of the index grid of step
    h = sqrt(N)/M, from the kernel's B-sum core S[w0, u0] (weight_kernel_cores), M = len(core).

    a_blocks and q_blocks are ranges of consecutive block indices, first a0 and q0.  The
    block (q, a) holds u = aM + u0, w = qM + w0, 0 <= u0, w0 < M, and the array returned
    is indexed [(q - q0) M + w0, (a - a0) M + u0].  Only the core is summed; the blocks
    come from two automorphy relations, identities of the infinite sum: u -> u + M
    leaves every phase e^{-2 pi i k u/M} unchanged, and w -> w + M maps term k
    to term k + N, so S(u, w + qM) = lambda(u)^q S(u, w) with
    lambda(u) = (-1)^N e^{2 pi i sqrt(N) (u h - mu_x)}.  Every entry carries the
    rounding of its core entry.  The block (q, a) of entries <u h; -w h/2> lambda(u)^q
    S(u0, w0) is the phased core T0 = S e^{-pi i N u0 w0/M^2} times e^{-pi i N a w0/M}
    e^{pi i N q u0/M} (-1)^(N q (1 - a)) e^{-2 pi i q sqrt(N) mu_x}, each phase one
    exp of an exact integer numerator.  One broadcast product writes every block.
    """
    p = wkp.params
    N, M = p.N.N, len(core)
    u0 = np.arange(M)
    a, q = (np.asarray(v)[:, None] for v in (a_blocks, q_blocks))

    def root(k, d):  # e^{pi i k/d} for integer k
        return np.exp(1j * np.pi * (k % (2 * d)) / d)

    qa = (root(N * q[..., None] * u0, M) * (1 - 2 * (N * q * (1 - a.T) % 2))[..., None]
          * np.exp(-2j * np.pi * q[..., None] * p.N.sqrt * wkp.mu.x)).reshape(len(q), -1)
    # T0, then its columns a of phases, then the blocks: each step frees the last
    T = core * root(-N * u0[:, None] * u0, M * M)
    # in C order, so that the reshape is a view, not a copy
    T = np.multiply(T[:, None, :], root(-N * a * u0, M).T[:, :, None], order="C").reshape(M, -1)
    out = np.empty((len(q) * M, len(a) * M), dtype=complex)
    np.multiply(T, qa[:, None, :], out=out.reshape(len(q), M, -1))
    return out


def weight_kernel(wkp: WeightKernelParams, x: LcaPoint, y: LcaPoint) -> complex:
    """W_{A,C;mu}(x, y) at a single pair of points of A_N: weight_kernel_pairs of one pair."""
    return complex(weight_kernel_pairs([wkp], [x], [y])[0])
