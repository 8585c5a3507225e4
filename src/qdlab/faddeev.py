"""Faddeev's quantum dilogarithm Phi_theta for unit-modulus theta.

Phi_theta(z) = (e^{2 pi theta (z + c)}; q)_inf / (e^{2 pi theta^{-1} (z - c)}; qt)_inf

with q = e^{2 pi i theta^2}, qt = e^{-2 pi i theta^{-2}} and c = i(theta + 1/theta)/2.
Both q-products converge geometrically at rate |q| = e^{-2 pi Im(theta^2)}.

A product (x; q)_inf = prod_j (1 - x q^j) is evaluated as follows.
- Dead: if Re log x < log(tol (1 - |q|)), then |log (x; q)_inf| <= |x|/(1 - |q|)
  < tol (to first order in |x|), and its log is taken as exactly 0.
- Live: a term with Re log(x q^j) > 0 is added as a log, since a product of
  such terms could overflow.  This head is taken only over the elements with
  Re log x > 0.  After the reflection below, log_level_dilog passes such an element
  only for |Im z| > cos(arg theta)/sqrt(N), so elsewhere the head costs one comparison
  (`qdlab phi` at such a z has a head; no point of the benchmark's workloads does).
  Then, at |x q^j| <= 1, every element runs the same D = ceil(log tol / log|q|) + 1
  terms (the last below tol; D = 8 at theta = e^{i pi/3}, 95 at e^{i pi/100}) in one
  loop for the batch, x q^j updated by one multiplication per term, and the product p
  is logged as log|p| + i arg p: near 1, several times faster than complex log.  p is
  logged once, or, past 128 terms, every 128 terms and restarted, so that it stays a
  finite double: the products of log_level_dilog run about N D terms, and unrestarted they
  leave the range of a double near N = 4000 at theta = e^{i pi/3} and near N = 300 at
  arg theta = 0.49 pi.  D is at most 119 above the floor of Im theta^2, so a product
  of Phi_theta is logged once.
So every log is defined only modulo 2 pi i; every caller exponentiates.

log_phi_theta is the N = 1 case of log_level_dilog, which evaluates D_theta(z, n) of
qdilog at level N as two q-products (their derivation is in the qdilog module notes).
For Re z > 0 it runs both products at (-z, -n), where they are short, by the inversion
relation D(z, n) D(-z, -n) = <z, n> e^{-pi i (N + 2 c^2/N)/6}; at N = 1 that is
log Phi(z) = pi i z^2 + 2 log Phi(0) - log Phi(-z).

A value does not depend on its batch only while the batch is short.  From 16,384
complex elements (256 KiB) numpy reuses a temporary operand of a complex multiply
as its output, and the in-place product rounds differently: `prod * (1 - e)` in
_log_pochhammer and `2 pi t (w/sqrt(N) + ...)` in level_products are two such products.
qdilog.log_dtheta evaluates every D_theta in tiles below that size; a direct
log_phi_theta or log_level_dilog call on a longer array may move values in their last
bits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PoleProximity, SlowConvergence
from .lca import refuse_large_gaussian, scalar_out

_IM_THETA_SQ_FLOOR = 0.05  # thetas with Im(theta^2) below this converge too slowly
_PRODUCT_TOL = 1e-16  # tail tolerance of the infinite q-products
_POLE_EPS = 1e-7  # distance to the pole lattice below which a scalar z is refused


@dataclass(frozen=True)
class ThetaParam:
    """Unit-modulus deformation parameter theta in the open first quadrant."""

    theta: complex

    def __post_init__(self):
        t = complex(self.theta)
        # written so that NaN and inf fail: every comparison with NaN is False
        if not abs(abs(t) - 1.0) <= 1e-12:
            raise ValueError(f"|theta| must be 1, got {abs(t)}")
        if not (t.real > 0 and t.imag > 0):
            raise ValueError("theta must lie strictly inside the first quadrant")

    @classmethod
    def from_pi_fraction(cls, frac: Fraction | float | str) -> "ThetaParam":
        """theta = e^{i pi p/q} from a rational p/q in (0, 1/2); a float is read exactly."""
        frac = Fraction(frac)
        if not (0 < frac < Fraction(1, 2)):
            raise ValueError("theta argument must be in (0, 1/2) as a fraction of pi")
        return cls(cmath.exp(1j * math.pi * float(frac)))

    @property
    def c(self) -> complex:
        """c_theta = i (theta + 1/theta)/2 = i cos(arg theta), purely imaginary."""
        return 1j * (self.theta + 1 / self.theta) / 2

    @property
    def im_theta_sq(self) -> float:
        return (self.theta**2).imag


def _dead_bound(decay: float, tol: float) -> float:
    """log(tol (1 - |q|)) for |q| = e^decay: a q-product with Re log x below it is dead."""
    return math.log(tol * -math.expm1(decay))


def _log_pochhammer(lx: np.ndarray, lq: complex, tol: float, stride: int = 1) -> np.ndarray:
    """log prod_j (1 - e^{lx + j lq}) modulo 2 pi i, to within tol (see the module notes).

    The log-form head is taken only over the elements with Re lx > 0, the only ones
    that have a head term.  After it every live element runs the same D terms, D from q
    and tol alone.  Term j = k stride + r takes e^{j lq} as (e^{stride lq})^k e^{r lq}, so
    the rounding of the nome compounds over the D/stride rounds, not over all D terms
    (log_level_dilog's products run N D terms; stride N keeps them as accurate as N
    products of D terms each).  Every product is taken out of place (numpy's in-place
    complex multiply rounds a lone element unlike a longer run).  So a value does
    not depend on the other points of a batch of fewer than 16,384 live elements;
    from that size numpy reuses the temporary 1 - e as the output of
    prod * (1 - e), in place, which rounds differently (see the module notes).
    """
    lx = np.asarray(lx, dtype=complex)
    if not np.all(np.isfinite(lx)):
        raise ValueError("q-product argument is not finite")
    decay = lq.real  # = -2 pi Im theta^2 < 0, over N in the products of log_level_dilog
    flat = lx.ravel()
    out = np.zeros_like(flat)  # dead elements stay exactly 0
    live = np.flatnonzero(flat.real >= _dead_bound(decay, tol))
    x = flat[live]
    pos = np.flatnonzero(x.real > 0)  # only these have a head
    head = np.ceil(x.real[pos] / -decay).astype(int)  # terms with Re > 0
    for j in range(head.max(initial=0)):
        w = x[pos[head > j]] + j * lq
        out[live[pos[head > j]]] += w + np.log(np.expm1(-w))  # log(1 - e^w) mod 2 pi i
    x[pos] += head * lq
    e = base = np.exp(x)  # |e| <= 1 after the head
    prod, q, powers = 1 - e, cmath.exp(lq * stride), [cmath.exp(r * lq) for r in range(stride)]
    for j in range(1, math.ceil(math.log(tol) / decay) + 1):
        e = base * powers[j % stride] if j % stride else (base := base * q)
        prod = prod * (1 - e)
        if j % 128 == 0:  # logged and restarted, so that it stays a finite double (see above)
            out[live], prod = out[live] + np.log(np.abs(prod)) + 1j * np.angle(prod), 1
    out[live] += np.log(np.abs(prod)) + 1j * np.angle(prod)  # = np.log(prod) to rounding, faster
    return out.reshape(lx.shape)


def _check_rate(theta: ThetaParam) -> None:
    if theta.im_theta_sq < _IM_THETA_SQ_FLOOR:
        raise SlowConvergence(
            f"Im(theta^2) = {theta.im_theta_sq:.4f} below floor "
            f"{_IM_THETA_SQ_FLOOR}; products converge too slowly"
        )


def level_products(w, m, theta: ThetaParam, N: int) -> tuple:
    """((lx, lq), (ly, lqt)): log D_theta(w, m) at level N is
    log (e^lx; e^lq)_inf - log (e^ly; e^lqt)_inf, the nomes zeta p and p~/zeta of the
    qdilog module notes, both of modulus |q|^{1/N}.  m is an integer (array) in 0..N-1.

    lx and ly are affine in w with the same slope 2 pi cos(arg theta)/sqrt(N) in Re w
    (charged._band reads that).  At N = 1 and m = 0 they are Phi_theta's own two products,
    as the same floats: 1/sqrt(N) and log zeta = 2 pi i (1 mod N)/N are 1 and 0, and the
    residue terms add exact zeros.
    """
    # lz = log zeta, zeta = e^{2 pi i/N}, reduced mod 2 pi i
    t, c, s, lz = theta.theta, theta.c, 1 / math.sqrt(N), 2j * np.pi * (1 % N) / N
    lq = 2j * np.pi * t**2 / N + lz
    phase = m * lz
    lx = 2 * np.pi * t * (w * s + (2 - 1 / N) * c) + (phase - (N - 1) * lq)
    return (lx, lq), (2 * np.pi / t * (w * s - c / N) - phase, -2j * np.pi / t**2 / N - lz)


def log_level_dilog(z, n, theta: ThetaParam, N: int) -> np.ndarray:
    """log D_theta(z, n) modulo 2 pi i at level N (qdilog), n an integer in 0..N-1 or an
    array of them that broadcasts to the shape of z: two q-products, with Re z > 0 reflected
    per point (see above).  Neither tiled (qdilog.log_dtheta) nor checked for poles (may
    return +/-inf).  Batching changes no value below 16,384 points (see above).
    """
    _check_rate(theta)
    shape = np.shape(z)
    z = np.asarray(z, dtype=complex).ravel()  # numpy scalar math rounds unlike its array loops
    flip = z.real > 0
    # a point reads row n + N flip of tables over the 2N residues and sides: the residue
    # its products run at, and the inversion constant times <0, n>
    row, r = np.ravel(n + N * flip.reshape(shape)), np.arange(2 * N) % N
    m = np.where(np.arange(2 * N) < N, r, -r % N)
    inv = -1j * np.pi * (N % 12 + 2 * theta.c**2 / N) / 6 - 1j * np.pi * (r * (r + N) % (2 * N) / N)
    (lx, lq), (ly, lqt) = level_products(np.where(flip, -z, z), m[row], theta, N)
    log_d = _log_pochhammer(lx, lq, _PRODUCT_TOL, N) - _log_pochhammer(ly, lqt, _PRODUCT_TOL, N)
    return np.where(flip, 1j * np.pi * z**2 + inv[row] - log_d, log_d).reshape(shape)


def log_phi_theta(z, theta: ThetaParam) -> np.ndarray:
    """log Phi_theta(z) modulo 2 pi i, vectorized over z: log_level_dilog at N = 1.  No pole
    check (may return +/-inf)."""
    return log_level_dilog(z, 0, theta, 1)


def nearest_pole(z: complex, theta: ThetaParam) -> tuple[complex, float]:
    """Nearest point of the pole lattice c + i(theta m + theta^{-1} k), m,k >= 0.

    Returns (pole, distance).  The lattice is the zero set of the denominator
    product that survives in the ratio.
    """
    t = theta.theta
    phi = cmath.phase(t)
    w = -1j * (complex(z) - theta.c)  # w = alpha t + beta conj(t) with real alpha, beta
    alpha = (w.real / math.cos(phi) + w.imag / math.sin(phi)) / 2
    beta = (w.real / math.cos(phi) - w.imag / math.sin(phi)) / 2
    m = max(0, round(alpha))
    k = max(0, round(beta))
    best = None
    for dm in (0, 1, -1):
        for dk in (0, 1, -1):
            mm, kk = m + dm, k + dk
            if mm < 0 or kk < 0:
                continue
            pole = theta.c + 1j * (t * mm + kk / t)
            d = abs(complex(z) - pole)
            if best is None or d < best[1]:
                best = (pole, d)
    return best


def is_near_pole(z: complex, theta: ThetaParam) -> bool:
    return nearest_pole(z, theta)[1] < _POLE_EPS


def phi_theta(z, theta: ThetaParam):
    """Phi_theta(z); scalar in, scalar out; arrays pass through vectorized.

    Raises PoleProximity when a scalar z is within _POLE_EPS of the pole
    lattice (array inputs skip the check for speed), and ValueError where the
    phase pi z^2 of the inversion relation reaches 2^52 turns (lca.refuse_large).
    """
    zarr = np.asarray(z, dtype=complex)
    refuse_large_gaussian(zarr)
    if zarr.ndim == 0:
        pole, dist = nearest_pole(complex(zarr), theta)
        if dist < _POLE_EPS:
            raise PoleProximity(f"z={complex(zarr)} within {dist:.2e} of pole {pole}")
    return scalar_out(zarr, np.exp(log_phi_theta(zarr, theta)))


def phi_zero(theta: ThetaParam) -> complex:
    """Closed form Phi_theta(0) = e^{-pi i (1 + 2 c^2)/12}."""
    return cmath.exp(-1j * cmath.pi * (1 + 2 * theta.c**2) / 12)


def shift_defects(z, theta: ThetaParam):
    """Residuals of the two functional equations

    Phi(z - i theta/2)/Phi(z + i theta/2)       = 1 + e^{2 pi theta z}
    Phi(z - i theta^{-1}/2)/Phi(z + i theta^{-1}/2) = 1 + e^{2 pi theta^{-1} z}
    """
    t = theta.theta
    z = np.asarray(z, dtype=complex)
    r1 = (phi_theta(z - 1j * t / 2, theta) / phi_theta(z + 1j * t / 2, theta)
          - (1 + np.exp(2 * np.pi * t * z)))
    r2 = (phi_theta(z - 1j / t / 2, theta) / phi_theta(z + 1j / t / 2, theta)
          - (1 + np.exp(2 * np.pi * z / t)))
    return r1, r2
