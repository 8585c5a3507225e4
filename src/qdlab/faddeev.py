"""Faddeev's quantum dilogarithm Phi_theta for unit-modulus theta.

Phi_theta(z) = (e^{2 pi theta (z + c)}; q)_inf / (e^{2 pi theta^{-1} (z - c)}; qt)_inf

with q = e^{2 pi i theta^2}, qt = e^{-2 pi i theta^{-2}} and c = i(theta + 1/theta)/2.
Both q-products converge geometrically at rate e^{-2 pi Im(theta^2)}.  All
evaluation goes through logarithms so that arguments of any size are safe.

For Re z > 0, log_phi_theta runs both products at -z, where they are short, by
the inversion relation of Phi: log Phi(z) = pi i z^2 + 2 log Phi(0) - log Phi(-z).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PoleProximity, SlowConvergence
from .lca import QuadratureSpec, scalar_out

_LOG_SWITCH = 36.0  # |Re w| beyond which log(1 - e^w) uses an asymptotic branch
_IM_THETA_SQ_FLOOR = 0.05  # thetas with Im(theta^2) below this converge too slowly
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


def _log1m_exp(w: np.ndarray) -> np.ndarray:
    """log(1 - e^w) for complex w, stable for any Re(w)."""
    w = np.asarray(w, dtype=complex)
    out = np.empty_like(w)
    re = w.real
    lo = re < -_LOG_SWITCH
    hi = re > _LOG_SWITCH
    mid = ~(lo | hi)
    out[lo] = -np.exp(w[lo])
    out[hi] = w[hi] + 1j * np.pi - np.exp(-w[hi])
    out[mid] = np.log(1.0 - np.exp(w[mid]))
    return out


def _log_pochhammer(lx: np.ndarray, lq: complex, tol: float) -> np.ndarray:
    """sum_j log(1 - e^{lx + j lq}) until the tail term drops below tol.

    The depth is set per element from that element's own Re(lx), so a value
    does not depend on the other points of the batch: evaluating points
    together or apart gives bit-identical results.
    """
    lx = np.asarray(lx, dtype=complex)
    decay = lq.real  # = -2 pi Im theta^2 < 0
    depth = np.ceil((math.log(tol) - lx.real) / decay)
    if not np.all(depth < np.inf):
        raise ValueError("q-product argument is not finite")
    depth = np.maximum(depth, 1).astype(int).ravel() + 1
    order = np.argsort(-depth)  # deepest first: the elements summing at step j are a prefix
    flat = lx.ravel()[order]
    live = np.searchsorted(-depth[order], -np.arange(depth.max(initial=0)))  # count of depth > j
    acc = np.zeros_like(flat)
    for j, n in enumerate(live):
        acc[:n] += _log1m_exp(flat[:n] + j * lq)
    out = np.empty_like(acc)
    out[order] = acc
    return out.reshape(lx.shape)


def _check_rate(theta: ThetaParam) -> None:
    if theta.im_theta_sq < _IM_THETA_SQ_FLOOR:
        raise SlowConvergence(
            f"Im(theta^2) = {theta.im_theta_sq:.4f} below floor "
            f"{_IM_THETA_SQ_FLOOR}; products converge too slowly"
        )


def log_phi_theta(z, theta: ThetaParam, spec: QuadratureSpec | None = None) -> np.ndarray:
    """log Phi_theta(z), vectorized over z.  No pole check (may return +/-inf).

    A product's depth grows with 2 pi Re(theta z), so Re z > 0 is reflected
    (see above), per element: batching changes no value; c_theta stays put.
    """
    spec = spec or QuadratureSpec()
    _check_rate(theta)
    shape = np.shape(z)
    z = np.asarray(z, dtype=complex).ravel()  # numpy scalar math rounds unlike its array loops
    t, c = theta.theta, theta.c
    flip = z.real > 0
    w = np.where(flip, -z, z)
    num = _log_pochhammer(2 * np.pi * t * (w + c), 2j * np.pi * t**2, spec.product_tol)
    den = _log_pochhammer(2 * np.pi / t * (w - c), -2j * np.pi / t**2, spec.product_tol)
    two_log_phi0 = -1j * np.pi * (1 + 2 * c**2) / 6  # phi_zero's exponent, doubled
    return np.where(flip, 1j * np.pi * z**2 + two_log_phi0 - (num - den), num - den).reshape(shape)


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


def phi_theta(
    z,
    theta: ThetaParam,
    spec: QuadratureSpec | None = None,
    check_poles: bool = True,
):
    """Phi_theta(z); scalar in, scalar out; arrays pass through vectorized.

    Raises PoleProximity when a scalar z is within _POLE_EPS of the pole
    lattice (array inputs skip the check for speed).
    """
    zarr = np.asarray(z, dtype=complex)
    if check_poles and zarr.ndim == 0:
        pole, dist = nearest_pole(complex(zarr), theta)
        if dist < _POLE_EPS:
            raise PoleProximity(f"z={complex(zarr)} within {dist:.2e} of pole {pole}")
    return scalar_out(zarr, np.exp(log_phi_theta(zarr, theta, spec)))


def phi_zero(theta: ThetaParam) -> complex:
    """Closed form Phi_theta(0) = e^{-pi i (1 + 2 c^2)/12}."""
    return cmath.exp(-1j * cmath.pi * (1 + 2 * theta.c**2) / 12)


def shift_defects(z, theta: ThetaParam, spec: QuadratureSpec | None = None):
    """Residuals of the two functional equations

    Phi(z - i theta/2)/Phi(z + i theta/2)       = 1 + e^{2 pi theta z}
    Phi(z - i theta^{-1}/2)/Phi(z + i theta^{-1}/2) = 1 + e^{2 pi theta^{-1} z}
    """
    t = theta.theta
    z = np.asarray(z, dtype=complex)
    r1 = phi_theta(z - 1j * t / 2, theta, spec, check_poles=False) / phi_theta(
        z + 1j * t / 2, theta, spec, check_poles=False
    ) - (1 + np.exp(2 * np.pi * t * z))
    r2 = phi_theta(z - 1j / t / 2, theta, spec, check_poles=False) / phi_theta(
        z + 1j / t / 2, theta, spec, check_poles=False
    ) - (1 + np.exp(2 * np.pi * z / t))
    return r1, r2
