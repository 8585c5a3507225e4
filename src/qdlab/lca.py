"""The self-dual LCA group A_N = R (+) Z/NZ: characters, Haar measure, B-structure.

Conventions, fixed once here and used by every other module:

* Haar measure on A_N:  integral f d(x,n) = N^{-1/2} * sum_n integral_R f(x,n) dx.
* Gaussian exponential: <x,n> = exp(pi i x^2) * exp(-pi i n(n+N)/N).
* Fourier kernel:       <x,m ; y,n> = exp(2 pi i x y) * exp(-2 pi i m n / N),
  the unique symmetric bicharacter with <p;q> = <p+q>/(<p><q>).
* B = (N^{-1/2}, 1) Z carries counting measure; the quotient A/B, a circle of
  circumference sqrt(N), carries dt/sqrt(N) on [0, sqrt(N)) (total mass 1).
  This is the unique pair satisfying the Weil decomposition of the Haar
  measure above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent


@dataclass(frozen=True)
class Modulus:
    """The positive integer N of A_N = R (+) Z/NZ."""

    N: int

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"modulus must be a positive integer, got {self.N!r}")

    @property
    def sqrt(self) -> float:
        return math.sqrt(self.N)


@dataclass(frozen=True)
class LcaPoint:
    """An element (x, n) of A_N; n is stored canonically in [0, N)."""

    x: float
    n: int

    def reduce(self, N: Modulus) -> "LcaPoint":
        return LcaPoint(self.x, self.n % N.N)

    def __add__(self, other: "LcaPoint") -> "LcaPoint":
        return LcaPoint(self.x + other.x, self.n + other.n)

    def __sub__(self, other: "LcaPoint") -> "LcaPoint":
        return LcaPoint(self.x - other.x, self.n - other.n)

    def __neg__(self) -> "LcaPoint":
        return LcaPoint(-self.x, -self.n)

    def scale(self, k: int) -> "LcaPoint":
        return LcaPoint(k * self.x, k * self.n)


@dataclass(frozen=True)
class CircleVar:
    """A point t in [0, sqrt(N)) representing the class of (t, 0) in A/B."""

    t: float

    def reduce(self, N: Modulus) -> "CircleVar":
        return CircleVar(self.t % N.sqrt)


@dataclass
class QuadratureSpec:
    """Grid sizes, truncation depths and tolerances for every integral and sum.

    M:          grid points per circle direction (periodic trapezoid).
    window:     half-width of real-line truncation windows.
    step:       step of real-line quadratures.
    b_terms:    hard cap on one-sided B-sum length; a B-sum that reaches it
                with a tail above tolerance raises NonConvergent, on the
                pointwise kernel and the per-tet table paths alike.
    tol:        target relative tolerance for adaptive truncations.
    product_tol: tail tolerance of the infinite q-products.
    im_theta_sq_floor: reject thetas with Im(theta^2) below this.
    """

    M: int = 128
    window: float = 14.0
    step: float = 1 / 64
    b_terms: int = 400
    tol: float = 1e-11
    product_tol: float = 1e-16
    im_theta_sq_floor: float = 0.05

    def __post_init__(self):
        if self.M < 8:
            raise ValueError("M must be at least 8")
        if min(self.tol, self.product_tol, self.step, self.window) <= 0:
            raise ValueError("tolerances, step and window must be positive")


def b_generator(N: Modulus) -> LcaPoint:
    """The generator (N^{-1/2}, 1) of the subgroup B."""
    return LcaPoint(1.0 / N.sqrt, 1)


def gaussian_exp(p: LcaPoint, N: Modulus) -> complex:
    """<x,n> = e^{pi i x^2} e^{-pi i n(n+N)/N}; unit modulus, even, mod-N exact."""
    n = p.n % N.N
    return np.exp(1j * np.pi * p.x**2) * np.exp(-1j * np.pi * n * (n + N.N) / N.N)


def fourier_kernel(p: LcaPoint, q: LcaPoint, N: Modulus) -> complex:
    """<p;q> = e^{2 pi i x y} e^{-2 pi i m n / N}, the self-duality bicharacter."""
    return np.exp(2j * np.pi * p.x * q.x) * np.exp(-2j * np.pi * (p.n * q.n) / N.N)


def halve_residue(n, N: int):
    """h(n) = ((N+1)//2 * n) mod N on integers or integer arrays: the residue part of halve."""
    return ((N + 1) // 2 * n) % N


def halve(p: LcaPoint, N: Modulus) -> LcaPoint:
    """A fixed halving convention h with h(p)+h(q) = h(p+q) on matching parities.

    On R ordinary division; on Z/N the inverse of 2 when N is odd (then
    2*h(p) = p exactly).  For even N odd residues are not divisible by 2; we
    take the additive convention h(n) = ((N+1)//2 * n) mod N (halve_residue)
    and the even-N automorphy defects are probed numerically by the tests.
    """
    return LcaPoint(p.x / 2, halve_residue(p.n % N.N, N.N))


def scalar_out(z, vals):
    """Scalar in, scalar out: vals as a Python complex when z is 0-d, else vals itself."""
    return complex(vals) if np.ndim(z) == 0 else vals


def gauss_gamma(N: Modulus) -> complex:
    """gamma = integral_A <x> dx, regularized: Fresnel factor times a Gauss sum."""
    n = np.arange(N.N)
    s = np.sum(np.exp(-1j * np.pi * n * (n + N.N) / N.N))
    return np.exp(1j * np.pi / 4) * s / N.sqrt


def project_to_quotient(p: LcaPoint, N: Modulus) -> CircleVar:
    """Canonical projection A -> A/B: (x, n) -> (x - n N^{-1/2}) mod sqrt(N)."""
    return CircleVar((p.x - p.n / N.sqrt) % N.sqrt)


def lift(c: CircleVar, N: Modulus) -> LcaPoint:
    """Section of the projection: t -> (t, 0).  project(lift(t)) == t."""
    return LcaPoint(c.t, 0)


def haar_integrate(f, N: Modulus, spec: QuadratureSpec | None = None):
    """Truncated-trapezoid Haar integral of f(x, n) over A_N.

    f must accept (xs: ndarray, n: int) and return a complex ndarray.  Returns
    (value, error_estimate).  The error estimate is the change under window
    doubling; raises NonConvergent when it exceeds spec.tol relative to the
    value.
    """
    spec = spec or QuadratureSpec()

    def at_window(w):
        xs = np.arange(-w, w + spec.step / 2, spec.step)
        tot = 0j
        for n in range(N.N):
            ys = np.asarray(f(xs, n), dtype=complex)
            tot += np.trapezoid(ys, dx=spec.step)
        return tot / N.sqrt

    v1 = at_window(spec.window)
    v2 = at_window(2 * spec.window)
    err = abs(v2 - v1)
    scale = max(abs(v2), 1.0)
    if err > spec.tol * scale * 1e3:
        raise NonConvergent(
            f"Haar integral changed by {err:.3e} on window doubling (tol {spec.tol:.1e})"
        )
    return v2, err


def b_sum(f, base: LcaPoint, N: Modulus, spec: QuadratureSpec | None = None) -> complex:
    """sum_k f(base + k (N^{-1/2}, 1)) with adaptive symmetric truncation.

    f takes an LcaPoint.  Truncates once the last N consecutive terms on both
    sides fall below spec.tol relative to the running sum; raises NonConvergent
    if the term magnitude fails to decrease over a full period of N before the
    hard cap.
    """
    spec = spec or QuadratureSpec()
    b0 = b_generator(N)
    total = complex(f(base))
    kmax = 0
    tail = []
    for k in range(1, spec.b_terms + 1):
        tp = complex(f(base + b0.scale(k)))
        tm = complex(f(base - b0.scale(k)))
        total += tp + tm
        kmax = k
        tail.append(max(abs(tp), abs(tm)))
        if len(tail) >= N.N and all(
            t <= spec.tol * max(abs(total), 1e-300) for t in tail[-N.N :]
        ):
            return total
    window = tail[-N.N :]
    if min(window) > 0 and max(window) >= max(tail[: N.N]):
        raise NonConvergent(
            f"B-sum terms not decreasing after {kmax} periods (last {max(window):.3e})"
        )
    raise NonConvergent(f"B-sum did not reach tolerance {spec.tol:.1e} in {kmax} terms")
