"""Faddeev's quantum dilogarithm Phi_theta for unit-modulus theta.

Phi_theta(z) = (e^{2 pi theta (z + c)}; q)_inf / (e^{2 pi theta^{-1} (z - c)}; qt)_inf

with q = e^{2 pi i theta^2}, qt = e^{-2 pi i theta^{-2}} and c = i(theta + 1/theta)/2.
Both q-products converge geometrically at rate |q| = e^{-2 pi Im(theta^2)}.

A product (x; q)_inf = prod_j (1 - x q^j) is evaluated as follows.
- Dead: if Re log x < log(tol (1 - |q|)), then |log (x; q)_inf| <= |x|/(1 - |q|)
  < tol (to first order in |x|), and its log is taken as exactly 0.
- Live: a term with Re log(x q^j) > 0 is added as a log, since a product of
  such terms could overflow.  This head is taken only over the elements with
  Re log x > 0.  After the reflection below, log_phi_theta passes such an element
  only for |Im z| > cos(arg theta), so elsewhere the head costs one comparison.
  Then, at |x q^j| <= 1, every element runs the same
  D = ceil(log tol / log|q|) + 1 terms (the last below tol) in one loop for the
  batch, x q^j updated by one multiplication by q per term, and the product p is
  logged once as log|p| + i arg p: near 1, several times faster than complex log.
So every log is defined only modulo 2 pi i; every caller exponentiates.

For Re z > 0, log_phi_theta runs both products at -z, where they are short, by
the inversion relation of Phi: log Phi(z) = pi i z^2 + 2 log Phi(0) - log Phi(-z).

A value does not depend on its batch only while the batch is short.  From 16,384
complex elements (256 KiB) numpy reuses a temporary operand of a complex multiply
as its output, and the in-place product rounds differently: `prod * (1 - e)` in
_log_pochhammer and `2 pi t (w + c)` in log_phi_theta are two such products.
qdilog.log_dtheta evaluates every D_theta in tiles below that size; a direct
log_phi_theta call on a longer array may move values in their last bits.
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


def _log_pochhammer(lx: np.ndarray, lq: complex, tol: float) -> np.ndarray:
    """log prod_j (1 - e^{lx + j lq}) modulo 2 pi i, to within tol (see the module notes).

    The log-form head is taken only over the elements with Re lx > 0, the only ones
    that have a head term.  After it every live element runs the same D terms, D from q
    and tol alone, and every product is taken out of place (numpy's in-place
    complex multiply rounds a lone element unlike a longer run).  So a value does
    not depend on the other points of a batch of fewer than 16,384 live elements;
    from that size numpy reuses the temporary 1 - e as the output of
    prod * (1 - e), in place, which rounds differently (see the module notes).
    """
    lx = np.asarray(lx, dtype=complex)
    if not np.all(np.isfinite(lx)):
        raise ValueError("q-product argument is not finite")
    decay = lq.real  # = -2 pi Im theta^2 < 0
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
    e = np.exp(x)  # |e| <= 1 after the head
    prod, q = 1 - e, cmath.exp(lq)
    for _ in range(math.ceil(math.log(tol) / decay)):
        e = e * q
        prod = prod * (1 - e)
    out[live] += np.log(np.abs(prod)) + 1j * np.angle(prod)  # = np.log(prod) to rounding, faster
    return out.reshape(lx.shape)


def live_radius(im, theta: ThetaParam) -> np.ndarray:
    """r(v) such that both q-products of log_phi_theta at s + i v are dead when |s| > r(v).

    With arg theta = phi, after the reflection the products run at w = u + i v' with
    u = -|s| and |v'| = |v|, and Re log x is 2 pi (u cos phi - v' sin phi - sin phi cos phi)
    for the numerator and 2 pi (u cos phi + v' sin phi - sin phi cos phi) for the
    denominator; both have decay -2 pi Im theta^2.  Both lie below the dead bound b when
    2 pi (cos phi u + sin phi |v| - sin phi cos phi) < b.  So log Phi is exactly 0 for
    s < -r(v) and exactly pi i z^2 + 2 log Phi(0) for s > r(v).
    """
    cos, sin = theta.theta.real, theta.theta.imag
    bound = _dead_bound(-2 * np.pi * theta.im_theta_sq, _PRODUCT_TOL) / (2 * np.pi)
    return (sin * np.abs(im) - sin * cos - bound) / cos


def _check_rate(theta: ThetaParam) -> None:
    if theta.im_theta_sq < _IM_THETA_SQ_FLOOR:
        raise SlowConvergence(
            f"Im(theta^2) = {theta.im_theta_sq:.4f} below floor "
            f"{_IM_THETA_SQ_FLOOR}; products converge too slowly"
        )


def log_phi_theta(z, theta: ThetaParam) -> np.ndarray:
    """log Phi_theta(z) modulo 2 pi i, vectorized over z.  No pole check (may return +/-inf).

    A product's log-form head grows with 2 pi Re(theta z), so Re z > 0 is reflected
    (see above), per element; c_theta stays put.  Batching changes no value below
    16,384 points (see above).
    """
    _check_rate(theta)
    shape = np.shape(z)
    z = np.asarray(z, dtype=complex).ravel()  # numpy scalar math rounds unlike its array loops
    t, c = theta.theta, theta.c
    flip = z.real > 0
    w = np.where(flip, -z, z)
    num = _log_pochhammer(2 * np.pi * t * (w + c), 2j * np.pi * t**2, _PRODUCT_TOL)
    den = _log_pochhammer(2 * np.pi / t * (w - c), -2j * np.pi / t**2, _PRODUCT_TOL)
    two_log_phi0 = -1j * np.pi * (1 + 2 * c**2) / 6  # phi_zero's exponent, doubled
    log_phi = num - den
    return np.where(flip, 1j * np.pi * z**2 + two_log_phi0 - log_phi, log_phi).reshape(shape)


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
