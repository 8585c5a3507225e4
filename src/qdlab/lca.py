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

The one exception is the weight kernel's phases: charged._b_sum and the W of
charged.weight_kernel_rows fuse theirs into one exp each, as routing them through
this module would move the kernel in its last bits, as a change of the B-sum's order
or band does; charged.weight_kernel_grid takes its phases from exact integer numerators.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


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
    """An element (x, n) of A_N.  n is any integer representative of its residue:
    consumers reduce it mod N (gaussian_exp does, and fourier_kernel is N-periodic in n)."""

    x: float
    n: int

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


# Half-width and step of the real-line Simpson quadratures (the Fourier transforms
# of D_theta and psi, the Faddeev-type integral); a slower decay widens the window.
WINDOW = 14.0
STEP = 1 / 64


@dataclass
class QuadratureSpec:
    """The numerical choice of the A/B integrals: M grid points per circle direction
    (periodic trapezoid).  The accuracy asked of Z is partition_function's target."""

    M: int = 128

    def __post_init__(self):
        if not isinstance(self.M, numbers.Integral):
            raise ValueError(f"M must be an integer, got {self.M!r}")
        if self.M < 8:
            raise ValueError("M must be at least 8")


def b_generator(N: Modulus) -> LcaPoint:
    """The generator (N^{-1/2}, 1) of the subgroup B."""
    return LcaPoint(1.0 / N.sqrt, 1)


def gaussian_exp(p: LcaPoint, N: Modulus) -> complex:
    """<x,n> = e^{pi i x^2} e^{-pi i n(n+N)/N}; unit modulus, even, mod-N exact."""
    n = p.n % N.N
    return np.exp(1j * np.pi * p.x**2) * np.exp(-1j * np.pi * n * (n + N.N) / N.N)


def refuse_large(what: str, size, name: str, values) -> None:
    """Raise ValueError when size(m) reaches 2^52, m the largest modulus in values (NaN read
    as 0): from 2^52 a float keeps no fractional bit, so a phase of that many turns, or a
    shift index that large, leaves no digit of the value.  The message names the element
    of values at m.  size maps a Python float to one, so an overflow is inf, not a warning.
    """
    flat = np.ravel(values)
    mag = np.fmax(np.abs(flat), 0.0)  # fmax drops a NaN
    if flat.size and size(float(mag.max())) >= 2.0**52:
        raise ValueError(f"{what} reaches 2^52 at {name} = {flat[np.argmax(mag)]}, "
                         "where a float keeps no fractional bit")


def refuse_large_gaussian(z) -> None:
    """refuse_large for the phase of <z> = e^{pi i z^2}, |z|^2/2 turns: the phase that
    Phi_theta, D_theta and psi take on at large |z|."""
    refuse_large("the phase pi z^2, |z|^2/2 turns,", lambda m: m * m / 2, "z", z)


def fourier_kernel(p: LcaPoint, q: LcaPoint, N: Modulus) -> complex:
    """<p;q> = e^{2 pi i x y} e^{-2 pi i m n / N}, the self-duality bicharacter."""
    return np.exp(2j * np.pi * p.x * q.x) * np.exp(-2j * np.pi * (p.n * q.n) / N.N)


def simpson(y, dx: float):
    """Composite Simpson's rule on >= 3 uniform samples y of step dx, bit for bit SciPy's
    simpson (>= 1.11): an even count takes Cartwright's correction on the last interval.
    It is lca's own, so importing qdlab loads no SciPy."""
    y = np.asarray(y)
    n = len(y)
    if n % 2:
        return np.sum(y[0:n - 2:2] + 4.0 * y[1:n - 1:2] + y[2:n:2]) * (dx / 3.0)
    head = np.sum(y[0:n - 3:2] + 4.0 * y[1:n - 2:2] + y[2:n - 1:2]) * (dx / 3.0)
    alpha = (2 * dx**2 + 3 * dx * dx) / (6 * (dx + dx))
    beta = (dx**2 + 3.0 * dx * dx) / (6 * dx)
    eta = dx**3 / (6 * dx * (dx + dx))
    return head + (alpha * y[-1] + beta * y[-2] - eta * y[-3])


def haar_simpson(f, xs, h: float, N: Modulus) -> complex:
    """integral_A f d(x,n) = N^{-1/2} sum_n integral_R f(x,n) dx, by Simpson on xs of step h.

    f(xs, n) gives the values on the grid xs (real, or a shifted contour) at residue n.
    """
    return complex(sum(simpson(f(xs, n), dx=h) for n in range(N.N)) / N.sqrt)


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
    """gamma = integral_A <x> dx, regularized: the Fresnel factor e^{i pi/4} times the
    Gauss sum N^{-1/2} S, S = sum_{n=0}^{N-1} e^{-pi i n(n + N)/N}, in closed form
    gamma = e^{i pi N/4}.

    S is a quadratic Gauss sum sum_{n mod c} e^{pi i (a n^2 + b n)/c} with a = -1, b = -N,
    c = N, and ac + b = -2N is even.  Landsberg-Schaar reciprocity (in its form with a
    linear term, Berndt-Evans-Williams, Gauss and Jacobi Sums, Thm 1.2.2) gives
    S = |c/a|^{1/2} e^{pi i (|ac| - b^2)/(4ac)} sum_{n mod |a|} e^{-pi i (c n^2 + b n)/a}
      = sqrt(N) e^{pi i (N^2 - N)/(4N)} = sqrt(N) e^{pi i (N - 1)/4},
    the last sum having the one term n = 0.  So gamma = e^{pi i/4} e^{pi i (N - 1)/4},
    which depends on N mod 8 only: reducing N first keeps the phase exact for any N.
    The direct sum matches it to rounding (test_lca).
    """
    return np.exp(1j * np.pi * (N.N % 8) / 4)


def lift(c: CircleVar, N: Modulus) -> LcaPoint:
    """Section of the projection A -> A/B, (x, n) -> (x - n N^{-1/2}) mod sqrt(N): t -> (t, 0)."""
    return LcaPoint(c.t, 0)
