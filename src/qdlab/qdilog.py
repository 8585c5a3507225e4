"""The quantum dilogarithm D_theta(x, n) over A_N and its verified identities.

D_theta(x,n) = prod_{j=0}^{N-1} Phi_theta( x/sqrt(N) + (1 - 1/N) c
                                           - i theta^{-1} j/N - i theta {(j+n)/N} )

together with the inversion relation and the Fourier transformation formula.

D_theta is where the Faddeev work and memory are made: a point of A_N holds N
Faddeev factors, so log_dtheta evaluates every D_theta in tiles of at most
_TILE_POINTS Faddeev points.  It views z as rows times its last axis, along which
n, an integer or an integer array, runs; a tile is some rows times a slice of that
axis, and one log_phi_theta call.  The residues stay a vector along the last axis,
so factor_args computes them per column, not per point.  A tile cannot split the N
factors of one point, so QdParams refuses an N above _TILE_POINTS, by name.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from .errors import PoleProximity
from .faddeev import ThetaParam, is_near_pole, log_phi_theta
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


# Faddeev points per tile of log_dtheta.  A point of A_N holds N Faddeev factors, so a
# tile of rows x columns of z is N * rows * columns points; this bounds the memory of one
# log_phi_theta call whatever the size of z or N.  It also keeps every q-product batch
# below the 16,384 complex values (256 KiB) from which numpy multiplies in place
# (faddeev._log_pochhammer), so a value does not depend on its tile.
#
# It is also the largest N that QdParams takes.  A tile can split the points of z but not
# the N factors of one point, so it holds at most _TILE_POINTS Faddeev points only while
# N <= _TILE_POINTS.  The work of the weight kernel's B-sum grows faster: its band reads
# 829, 8,242 and 27,462 shifts at N = 30, 300 and 1000 (charged._band), the same for
# every charge triple, about 27.5 N shifts and so 27.5 N^2 Faddeev points per row.  At the
# limit one row is 27.5 * 4096^2 = 4.6e8 points, about 190 times the row of an N = 300
# kernel value (about 1 s on a 2-core box).
_TILE_POINTS = 4096


@dataclass(frozen=True)
class QdParams:
    """theta and the modulus N <= _TILE_POINTS.  The residue epsilon = (0, M) of order two
    is 0 for every N: the paper determines M = 0 unless 8 | N and leaves the 8 | N case open."""

    theta: ThetaParam
    N: Modulus

    def __post_init__(self):
        if self.N.N > _TILE_POINTS:
            raise ValueError(f"N = {self.N.N} is too large: D_theta evaluates its N Faddeev "
                             f"factors in tiles of at most {_TILE_POINTS}, so N <= {_TILE_POINTS}")


def factor_args(z, n: int | np.ndarray, params: QdParams) -> np.ndarray:
    """Arguments of the N Faddeev factors of D_theta at (z, n), factor j on row j of the
    first axis; integer (array) n broadcasts with z."""
    t, c, N = params.theta.theta, params.theta.c, params.N.N
    z = np.asarray(z, dtype=complex)
    j = np.arange(N).reshape((N,) + (1,) * max(z.ndim, np.ndim(n)))
    return z / params.N.sqrt + (1 - 1 / N) * c - 1j / t * (j / N) - 1j * t * (((j + n) % N) / N)


def log_dtheta(z, n: int | np.ndarray, params: QdParams) -> np.ndarray:
    """log D_theta(z, n) modulo 2 pi i; n is an integer or an integer array along the last
    axis of z.

    z is viewed as rows x its last axis, of length L, and evaluated in tiles of
    max(1, min(_TILE_POINTS // N, L)) columns x max(1, _TILE_POINTS // (N columns)) rows,
    at most _TILE_POINTS Faddeev points each (see the module notes).  Each tile is one
    log_phi_theta call, its N factors added in order, j = 0..N-1.
    """
    N = params.N.N
    z = np.asarray(z, dtype=complex)
    grid = z.reshape(math.prod(z.shape[:-1]), z.shape[-1] if z.ndim else 1)
    n = np.broadcast_to(n, grid.shape[1:])
    cols = max(1, min(_TILE_POINTS // N, grid.shape[1]))
    rows = max(1, _TILE_POINTS // (N * cols))
    out = np.empty_like(grid)
    for r, c in itertools.product(range(0, grid.shape[0], rows), range(0, grid.shape[1], cols)):
        i, k = slice(r, r + rows), slice(c, c + cols)
        factors = log_phi_theta(factor_args(grid[i, k], n[k], params), params.theta)
        out[i, k] = sum(factors, np.zeros_like(grid[i, k]))
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
    """| D(x,n) D(-x,-n) - <x,n> e^{-pi i (N + 2 c^2/N)/6} |.  The factor arguments pair
    as z, -z, so under log_phi_theta's reflection this tests no q-product."""
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
