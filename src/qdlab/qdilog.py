"""The quantum dilogarithm D_theta(x, n) over A_N and its verified identities.

D_theta(x,n) = prod_{j=0}^{N-1} Phi_theta( x/sqrt(N) + (1 - 1/N) c
                                           - i theta^{-1} j/N - i theta {(j+n)/N} )

together with the inversion relation and the Fourier transformation formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from .errors import PoleProximity
from .faddeev import ThetaParam, is_near_pole, log_phi_theta
from .lca import (LcaPoint, Modulus, QuadratureSpec, fourier_kernel, gaussian_exp, haar_simpson,
                  scalar_out)

__all__ = [
    "QdParams",
    "dtheta",
    "log_dtheta",
    "inversion_residual",
    "inversion_constant",
    "fourier_transform_dtheta",
    "fourier_formula_residual",
]


@dataclass(frozen=True)
class QdParams:
    """theta and the modulus N.  The residue epsilon = (0, M) of order two is 0 for every N:
    the paper determines M = 0 unless 8 | N and leaves the 8 | N case open."""

    theta: ThetaParam
    N: Modulus


def factor_args(z, n: int, params: QdParams) -> list[np.ndarray]:
    """Arguments of the N Faddeev factors of D_theta at (z, n)."""
    t = params.theta.theta
    c = params.theta.c
    N = params.N.N
    z = np.asarray(z, dtype=complex)
    out = []
    for j in range(N):
        frac = ((j + n) % N) / N
        out.append(z / params.N.sqrt + (1 - 1 / N) * c - 1j / t * (j / N) - 1j * t * frac)
    return out


def log_dtheta(z, n: int, params: QdParams, spec: QuadratureSpec | None = None) -> np.ndarray:
    """log D_theta(z, n) modulo 2 pi i, vectorized over z."""
    spec = spec or QuadratureSpec()
    z = np.asarray(z, dtype=complex)
    rows = log_phi_theta(np.stack(factor_args(z, n, params)), params.theta, spec)
    return sum(rows, np.zeros_like(z))  # rows added in factor order, j = 0..N-1


def dtheta(
    z,
    n: int,
    params: QdParams,
    spec: QuadratureSpec | None = None,
    check_poles: bool = True,
):
    """D_theta(z, n).  Scalar z gets a pole-proximity check on every factor."""
    zarr = np.asarray(z, dtype=complex)
    if check_poles and zarr.ndim == 0:
        for arg in factor_args(complex(zarr), n, params):
            if is_near_pole(complex(arg), params.theta):
                raise PoleProximity(f"factor argument {complex(arg)} near a pole")
    return scalar_out(zarr, np.exp(log_dtheta(zarr, n, params, spec)))


def inversion_constant(params: QdParams) -> complex:
    """e^{-pi i (N + 2 c^2 / N)/6}, the constant of the inversion relation."""
    c = params.theta.c
    N = params.N.N
    return complex(np.exp(-1j * np.pi * (N + 2 * c**2 / N) / 6))


def inversion_residual(x: float, n: int, params: QdParams, spec: QuadratureSpec | None = None) -> float:
    """| D(x,n) D(-x,-n) - <x,n> e^{-pi i (N + 2 c^2/N)/6} |.  The factor arguments pair
    as z, -z, so under log_phi_theta's reflection this tests no q-product."""
    N = params.N
    lhs = dtheta(x, n % N.N, params, spec) * dtheta(-x, (-n) % N.N, params, spec)
    rhs = gaussian_exp(LcaPoint(x, n), N) * inversion_constant(params)
    return abs(lhs - rhs)


def _contour_delta(params: QdParams) -> float:
    """Imaginary shift of the integration contour, inside the pole-free strip."""
    return params.theta.c.imag / (2 * params.N.sqrt)


def fourier_transform_dtheta(
    y: float,
    n: int,
    params: QdParams,
    spec: QuadratureSpec | None = None,
    window: tuple[float, float] | None = None,
) -> complex:
    """integral_A D(x, m) <y,n; x,m>^{-1} d(x,m), conditionally convergent.

    Evaluated on the shifted contour x + i delta with delta inside the
    pole-free strip.  On the right the integrand decays like e^{-2 pi delta x};
    on the left D -> 1 exponentially fast, so for n = 0 mod N the residual
    constant tail is summed in closed (Abel) form, which requires y != 0.
    """
    spec = spec or QuadratureSpec()
    N = params.N.N
    delta = _contour_delta(params)
    n = n % N
    left_const = np.sqrt(N) if n == 0 else 0.0
    if left_const and y == 0.0:
        raise ZeroDivisionError("transform diverges at (y, n) = (0, 0)")
    if window is None:
        x0 = -spec.window
        x1 = max(26.0 / (2 * np.pi * delta), spec.window)
    else:
        x0, x1 = window
    h = spec.step / 4  # quadratic phase of D needs a finer grid than psi does
    xs = np.arange(x0, x1 + h / 2, h)
    total = haar_simpson(lambda z, m: dtheta(z, m, params, spec, check_poles=False)
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
    val = dtheta(-y + c / N.sqrt, (-n) % N.N, params, check_poles=False)
    return (
        val
        / gaussian_exp(LcaPoint(y, n), N)
        * np.exp(1j * np.pi * (N.N - 4 * c**2 / N.N) / 12)
    )


def fourier_formula_residual(
    y: float, n: int, params: QdParams, spec: QuadratureSpec | None = None
) -> float:
    """|LHS(quadrature) - RHS(closed form)| of the Fourier transformation formula."""
    lhs = fourier_transform_dtheta(y, n, params, spec)
    rhs = fourier_formula_rhs(y, n, params)
    return abs(lhs - rhs)
