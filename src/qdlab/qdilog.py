"""The quantum dilogarithm D_theta(x, n) over A_N and its verified identities.

D_theta(x,n) = prod_{j=0}^{N-1} Phi_theta( x/sqrt(N) + (1 - 1/N) c
                                           - i theta^{-1} j/N - i theta {(j+n)/N} )

together with the inversion relation and the Fourier transformation formula.

D_theta runs as two q-products, not N Faddeev factors of two each.  Take
zeta = e^{2 pi i/N}, p = e^{2 pi i theta^2/N} (so q = p^N), p~ = e^{-2 pi i theta^{-2}/N}
(so q~ = p~^N) and m_j = (j + n) mod N.
- The numerator of factor j has argument x_j = X zeta^{-j} p^{-m_j}, with
  X = e^{2 pi theta (z/sqrt(N) + (2 - 1/N) c)}.  As j and k >= 0 run, l = N k - m_j
  takes every integer >= -(N - 1) once, and zeta^{-j} = zeta^{n + l}, so

      prod_j (x_j; q)_inf = (X zeta^n (zeta p)^{1 - N}; zeta p)_inf.

- The denominator arguments are Y zeta^{-n} (p~/zeta)^j, with Y = e^{2 pi theta^{-1}
  (z/sqrt(N) - c/N)}; as j + N k runs over every integer >= 0 once, their product is
  (Y zeta^{-n}; p~/zeta)_inf.
So log D_theta is two q-products, of nomes e^{2 pi i (theta^2 + 1)/N} and
e^{-2 pi i (theta^{-2} + 1)/N}, both of modulus |q|^{1/N}: a point costs about N D terms
(faddeev's D) of each, one product apiece (faddeev.level_products).  A point with
Re z > 0 is mapped back from (-z, -n) by the inversion relation (inversion_constant), so
the products run where they are short (faddeev.log_level_dilog); at N = 1 this is
log_phi_theta's own arithmetic.  Read with k = N and b = theta, this is the two-product
level-k quantum dilogarithm of Dimofte (arXiv:1409.0857); the derivation above does not
rest on that reading.

log_dtheta evaluates every D_theta in tiles of at most _TILE_POINTS points, each one
log_level_dilog call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from .errors import PoleProximity
from .faddeev import ThetaParam, is_near_pole, log_level_dilog
from .lca import (STEP, WINDOW, LcaPoint, Modulus, fourier_kernel, gaussian_exp, haar_simpson,
                  refuse_large_gaussian, scalar_out)

__all__ = [
    "QdParams",
    "dtheta",
    "log_dtheta",
    "inversion_residual",
    "inversion_constant",
    "fourier_transform_dtheta",
    "fourier_formula_residual",
]


# Points of D_theta per tile of log_dtheta.  A point is one element of each of its two
# q-products whatever N is, so a tile bounds the memory of one log_level_dilog call
# whatever the size of z or N, and keeps every q-product batch below the 16,384 complex
# values (256 KiB) from which numpy multiplies in place (faddeev._log_pochhammer), so a
# value does not depend on its tile.
_TILE_POINTS = 4096
# The largest N that QdParams takes, a bound on time, not on memory.  A point runs about
# N D terms of each q-product (D = 8 at theta = e^{i pi/3}), a few numpy operations a term,
# and the weight kernel's B-sum reads about 27.5 N shifts per row (charged._band), so a
# kernel value costs about N^2 work.  On a 2-core box one D_theta value at N = 4096 takes
# 0.24 s, and `qdlab kernel --N 4096` 19 s at a peak RSS of 47 MB (--N 300: 0.3 s, 33 MB).
_MAX_N = 4096


@dataclass(frozen=True)
class QdParams:
    """theta and the modulus N <= _MAX_N.  The residue epsilon = (0, M) of order two
    is 0 for every N: the paper determines M = 0 unless 8 | N and leaves the 8 | N case open."""

    theta: ThetaParam
    N: Modulus

    def __post_init__(self):
        if self.N.N > _MAX_N:
            raise ValueError(f"N = {self.N.N} is too large: D_theta's q-products run about "
                             f"7 N terms a point, a weight-kernel value N^2, so N <= {_MAX_N}")


def factor_args(z, n: int | np.ndarray, params: QdParams) -> np.ndarray:
    """Arguments of the N Faddeev factors of D_theta at (z, n), factor j on row j of the
    first axis; integer (array) n broadcasts with z.  They locate D_theta's poles (dtheta)."""
    t, c, N = params.theta.theta, params.theta.c, params.N.N
    z = np.asarray(z, dtype=complex)
    j = np.arange(N).reshape((N,) + (1,) * max(z.ndim, np.ndim(n)))
    return z / params.N.sqrt + (1 - 1 / N) * c - 1j / t * (j / N) - 1j * t * (((j + n) % N) / N)


def log_dtheta(z, n: int | np.ndarray, params: QdParams) -> np.ndarray:
    """log D_theta(z, n) modulo 2 pi i; n is an integer or an integer array along the last
    axis of z.  The points of z, in C order, are evaluated in tiles of _TILE_POINTS, each one
    log_level_dilog call (see the module notes)."""
    z = np.asarray(z, dtype=complex)
    flat, n = z.ravel(), np.broadcast_to(np.asarray(n) % params.N.N, z.shape).ravel()
    out = np.empty_like(flat)
    for i in range(0, flat.size, _TILE_POINTS):
        tile = slice(i, i + _TILE_POINTS)
        out[tile] = log_level_dilog(flat[tile], n[tile], params.theta, params.N.N)
    return out.reshape(z.shape)


def dtheta(z, n: int, params: QdParams):
    """D_theta(z, n).  Scalar z gets a pole-proximity check on every factor; a z whose
    phase pi z^2 reaches 2^52 turns is refused (lca.refuse_large)."""
    zarr = np.asarray(z, dtype=complex)
    refuse_large_gaussian(zarr)
    if zarr.ndim == 0:
        for arg in factor_args(complex(zarr), n, params):
            if is_near_pole(complex(arg), params.theta):
                raise PoleProximity(f"factor argument {complex(arg)} near a pole")
    return scalar_out(zarr, np.exp(log_dtheta(zarr, n, params)))


def inversion_constant(params: QdParams) -> complex:
    """e^{-pi i (N + 2 c^2 / N)/6}, the constant of the inversion relation."""
    c = params.theta.c
    N = params.N.N
    return complex(np.exp(-1j * np.pi * (N + 2 * c**2 / N) / 6))


def inversion_residual(x: float, n: int, params: QdParams) -> float:
    """| D(x,n) D(-x,-n) - <x,n> e^{-pi i (N + 2 c^2/N)/6} |.  log_dtheta reflects a point
    with Re x > 0 by this very relation (faddeev.log_level_dilog), so it holds by
    construction for D_theta as a whole and tests no q-product;
    tests/test_qdilog.py::test_two_products_match_the_n_factor_product_and_mpmath does."""
    N = params.N
    lhs = dtheta(x, n % N.N, params) * dtheta(-x, (-n) % N.N, params)
    rhs = gaussian_exp(LcaPoint(x, n), N) * inversion_constant(params)
    return abs(lhs - rhs)


def _contour_delta(params: QdParams) -> float:
    """Imaginary shift of the integration contour, inside the pole-free strip."""
    return params.theta.c.imag / (2 * params.N.sqrt)


def fourier_transform_dtheta(
    y: float, n: int, params: QdParams, window: tuple[float, float] | None = None
) -> complex:
    """integral_A D(x, m) <y,n; x,m>^{-1} d(x,m), conditionally convergent.

    Evaluated on the shifted contour x + i delta with delta inside the
    pole-free strip.  On the right the integrand decays like e^{-2 pi delta x};
    on the left D -> 1 exponentially fast, so for n = 0 mod N the residual
    constant tail is summed in closed (Abel) form, which requires y != 0.
    """
    N = params.N.N
    delta = _contour_delta(params)
    n = n % N
    left_const = np.sqrt(N) if n == 0 else 0.0
    if left_const and y == 0.0:
        raise ZeroDivisionError("transform diverges at (y, n) = (0, 0)")
    if window is None:
        x0 = -WINDOW
        x1 = max(26.0 / (2 * np.pi * delta), WINDOW)
    else:
        x0, x1 = window
    h = STEP / 4  # quadratic phase of D needs a finer grid than psi does
    xs = np.arange(x0, x1 + h / 2, h)
    total = haar_simpson(lambda z, m: dtheta(z, m, params)
                         * fourier_kernel(-LcaPoint(y, n), LcaPoint(z, m), params.N),
                         xs + 1j * delta, h, params.N)
    if left_const:
        tail = fourier_kernel(-LcaPoint(y, 0), LcaPoint(x0 + 1j * delta, 0), params.N)
        total += left_const * tail / (-2j * np.pi * y)
    return total


def fourier_formula_rhs(y: float, n: int, params: QdParams) -> complex:
    """D(-y + c/sqrt(N), -n) <y,n>^{-1} e^{pi i (N - 4 c^2/N)/12}."""
    c = params.theta.c
    N = params.N
    val = complex(np.exp(log_dtheta(-y + c / N.sqrt, (-n) % N.N, params)))
    return (
        val
        / gaussian_exp(LcaPoint(y, n), N)
        * np.exp(1j * np.pi * (N.N - 4 * c**2 / N.N) / 12)
    )


def fourier_formula_residual(y: float, n: int, params: QdParams) -> float:
    """|LHS(quadrature) - RHS(closed form)| of the Fourier transformation formula."""
    lhs = fourier_transform_dtheta(y, n, params)
    rhs = fourier_formula_rhs(y, n, params)
    return abs(lhs - rhs)
