"""Group structure of A_N: characters, Haar measure, the quotient by B."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdlab.lca import (
    LcaPoint,
    Modulus,
    QuadratureSpec,
    b_generator,
    fourier_kernel,
    gauss_gamma,
    gaussian_exp,
    haar_simpson,
    halve,
    simpson,
)

moduli = st.integers(min_value=1, max_value=7).map(Modulus)
reals = st.floats(min_value=-8, max_value=8, allow_nan=False)
residues = st.integers(min_value=-15, max_value=15)
points = st.builds(LcaPoint, reals, residues)


@pytest.mark.parametrize("kw, error", [
    # M is an integer of at least 8: a float or an unparsed flag value is refused by name
    ({"M": 7}, ValueError), ({"M": 0}, ValueError), ({"M": -128}, ValueError),
    ({"M": 16.0}, ValueError), ({"M": "16"}, ValueError),
    # M is the only field: the q-product tolerance and the real-line window and step
    # are module constants, and the accuracy asked of Z is partition_function's target
    ({"product_tol": 1e-3}, TypeError), ({"window": 1e-3}, TypeError), ({"step": 1e-3}, TypeError),
    ({"tol": 1e-11}, TypeError),
])
def test_quadrature_spec_rejects(kw, error):
    with pytest.raises(error):
        QuadratureSpec(**kw)


def test_gaussian_exp_examples():
    assert gaussian_exp(LcaPoint(0, 0), Modulus(5)) == 1
    assert abs(gaussian_exp(LcaPoint(1, 0), Modulus(1)) - (-1)) < 1e-15
    # (0,1), N=2: e^{-pi i 1*3/2} = i
    assert abs(gaussian_exp(LcaPoint(0, 1), Modulus(2)) - 1j) < 1e-15


@pytest.mark.parametrize("N", [1, 2, 3])
def test_haar_simpson_transforms_the_gaussian(N):
    # integral_A e^{-pi x^2} <x,m; y,n> d(x,m) = sqrt(N) e^{-pi y^2} if n = 0 mod N, else 0
    Nm = Modulus(N)
    h = 1 / 64
    xs = np.arange(-8, 8 + h / 2, h)
    for y in (0.0, 0.3, -0.71):
        for n in range(-1, N + 1):
            got = haar_simpson(lambda x, m: np.exp(-np.pi * x**2)
                               * fourier_kernel(LcaPoint(x, m), LcaPoint(y, n), Nm), xs, h, Nm)
            want = np.sqrt(N) * np.exp(-np.pi * y**2) if n % N == 0 else 0.0
            assert abs(got - want) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 1793, 1794])
def test_simpson_matches_scipy_bit_for_bit(n):
    # odd n: plain composite rule; even n: Cartwright's last-interval correction
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(n)
    y = rng.normal(size=n) + 1j * rng.normal(size=n)
    for dx in (1 / 256, 0.37):
        assert simpson(y, dx) == integrate.simpson(y, dx=dx)


def test_fourier_kernel_examples():
    p = LcaPoint(0.7, 2)
    assert fourier_kernel(p, LcaPoint(0, 0), Modulus(3)) == 1
    assert abs(fourier_kernel(LcaPoint(0, 1), LcaPoint(0, 1), Modulus(2)) - (-1)) < 1e-15
    assert abs(fourier_kernel(LcaPoint(1, 0), LcaPoint(1, 0), Modulus(4)) - 1) < 1e-12


@settings(max_examples=200, deadline=None)
@given(points, points, moduli)
def test_gaussian_compatibility(p, q, N):
    lhs = gaussian_exp(p + q, N)
    rhs = gaussian_exp(p, N) * gaussian_exp(q, N) * fourier_kernel(p, q, N)
    assert abs(lhs - rhs) < 1e-12


@settings(max_examples=150, deadline=None)
@given(points, points, points, moduli)
def test_bicharacter_additivity_and_symmetry(p, q, r, N):
    assert (
        abs(
            fourier_kernel(p + q, r, N)
            - fourier_kernel(p, r, N) * fourier_kernel(q, r, N)
        )
        < 1e-11
    )
    assert abs(fourier_kernel(p, q, N) - fourier_kernel(q, p, N)) < 1e-13


@settings(max_examples=100, deadline=None)
@given(points, moduli)
def test_gaussian_even_and_mod_N(p, N):
    assert abs(gaussian_exp(-p, N) - gaussian_exp(p, N)) < 1e-13
    shifted = LcaPoint(p.x, p.n + N.N)
    assert gaussian_exp(shifted, N) == gaussian_exp(p, N)


def test_unit_modulus():
    N = Modulus(3)
    p = LcaPoint(0.37, 2)
    assert abs(abs(gaussian_exp(p, N)) - 1) < 1e-15
    assert abs(abs(fourier_kernel(p, LcaPoint(1.2, 1), N)) - 1) < 1e-15


def test_gauss_gamma():
    assert abs(gauss_gamma(Modulus(1)) - np.exp(1j * np.pi / 4)) < 1e-15
    # N=2 by hand: e^{i pi/4} (1 + i)/sqrt 2 = i
    assert abs(gauss_gamma(Modulus(2)) - 1j) < 1e-14
    for N in range(1, 17):  # the closed form against the direct Gauss sum
        n = np.arange(N)
        gauss_sum = np.sum(np.exp(-1j * np.pi * n * (n + N) / N))
        direct = np.exp(1j * np.pi / 4) * gauss_sum / np.sqrt(N)
        assert abs(gauss_gamma(Modulus(N)) - direct) < 1e-12
    assert gauss_gamma(Modulus(10**12)) == 1  # N = 0 mod 8, with no N-term sum


def test_weil_decomposition():
    # integral_A f = (1/sqrt N) int_0^{sqrt N} (sum_B f(lift(t)+b)) dt, both sides
    # by brute force on fixed windows: |x| <= 14 and |k| <= 30, where the
    # Gaussian is below 1e-200
    N = Modulus(2)

    def f(x, n):
        return np.exp(-np.pi * (x - 0.4) ** 2) * np.exp(2j * np.pi * n / 2) / (1 + n % 2)

    step = 1 / 64
    xs = np.arange(-14, 14 + step / 2, step)
    direct = sum(np.sum(f(xs, n)) * step for n in range(N.N)) / N.sqrt
    Mg = 256
    ts = (np.arange(Mg) + 0.5) * N.sqrt / Mg
    ks = np.arange(-30, 31)
    b0 = b_generator(N)
    fiber = np.sum(f(ts[:, None] + ks * b0.x, ks * b0.n), axis=1)
    weil = np.mean(fiber)  # dt/sqrt(N) over [0, sqrt N): mass-one average
    assert abs(direct - weil) < 1e-9


def test_halve_odd_exact():
    N = Modulus(5)
    for n in range(5):
        p = LcaPoint(0.3, n)
        h = halve(p, N)
        assert (2 * h.n) % 5 == n
        assert h.x == pytest.approx(0.15)
