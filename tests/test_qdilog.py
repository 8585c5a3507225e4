"""D_theta over A_N: reduction, inversion, Fourier transformation formula."""

import numpy as np
import pytest
from conftest import log_dtheta_n_factors, mp_dtheta, params

import qdlab.charged
from qdlab.faddeev import phi_theta
from qdlab.lca import STEP
from qdlab.qdilog import (
    _contour_delta,
    dtheta,
    factor_args,
    fourier_formula_residual,
    fourier_transform_dtheta,
    fourier_formula_rhs,
    inversion_constant,
    inversion_residual,
    log_dtheta,
)


def test_n1_reduces_to_phi(theta3):
    p = params(1)
    for x in (0.0, 0.37, -1.4):
        assert dtheta(x, 0, p) == phi_theta(x, theta3)


def test_inversion_origin():
    assert inversion_residual(0.0, 0, params(1)) < 1e-10


def test_inversion_random_sample():
    assert inversion_residual(1.3, 2, params(5)) < 1e-9


def test_inversion_symmetry(rng):
    p = params(3)
    for _ in range(5):
        x, n = rng.uniform(-2, 2), int(rng.integers(0, 3))
        assert inversion_residual(x, n, p) == pytest.approx(
            inversion_residual(-x, -n, p), abs=1e-12
        )


def test_conjugate_argument_symmetry(rng):
    # replacing every factor argument by its conjugate reproduces D
    for N in (2, 3, 5):
        p = params(N)
        x, n = rng.uniform(-1.5, 1.5), int(rng.integers(0, N))
        direct = dtheta(x, n, p)
        conj_args = np.prod(
            [phi_theta(np.conj(a), p.theta) for a in factor_args(x + 0j, n, p)]
        )
        assert abs(direct - conj_args) < 1e-12


def test_unitarity_real_slice(rng):
    for N in (1, 2, 3):
        p = params(N)
        xs = rng.uniform(-3, 3, 10)
        vals = dtheta(xs, int(rng.integers(0, N)), p)
        assert np.max(np.abs(np.abs(vals) - 1)) < 1e-10


def test_product_structure(theta3):
    # D is a product of exactly N Faddeev factors
    for N in (1, 2, 4):
        p = params(N)
        args = factor_args(0.3, 1, p)
        assert len(args) == N
        assert dtheta(0.3, 1, p) == pytest.approx(
            np.prod([phi_theta(a, theta3) for a in args])
        )


def test_factor_args_rows_match_the_per_factor_formula(rng):
    # factor j sits on row j as the same floats as the module docstring's formula,
    # summed term by term for each j, on a B-sum-sized block and on a scalar
    z = rng.normal(size=(27, 150)) + 1j * rng.normal(size=(27, 150))
    for N in (1, 2, 3):
        p = params(N)
        t, c = p.theta.theta, p.theta.c
        for zz, n in ((z, 1), (z, rng.integers(0, N, size=150)), (np.asarray(0.3 + 0j), 2)):
            rows = [zz / p.N.sqrt + (1 - 1 / N) * c - 1j / t * (j / N)
                    - 1j * t * (((j + n) % N) / N) for j in range(N)]
            np.testing.assert_array_equal(factor_args(zz, n, p), np.stack(rows))


@pytest.mark.parametrize("frac", ["1/8", "1/3", "2/5"])
@pytest.mark.parametrize("N", [2, 3, 5, 8])
def test_two_products_match_the_n_factor_product_and_mpmath(N, frac, mp):
    # log_dtheta's two q-products of nome |q|^{1/N} against the N Faddeev factors of
    # nome q each (conftest.log_dtheta_n_factors), on the rows of the weight kernel's
    # B-sum (charged._dtheta_rows: the band, its seeds and ratio shifts), to 1e-12
    # relative; and both against mpmath at 40 digits at each end of the band.  log D is a
    # float, and at the far ends its imaginary part, about pi |z|^2, is spaced up to 1.8e-12
    # (|z| = 58-64 at N = 8, theta = e^{2 pi i/5}; 20-24 at N = 2, 3, theta = e^{i pi/3}),
    # so each value is held to 1e-12 plus two spacings of its log
    p = params(N, frac)
    rN, bc = p.N.sqrt, 0.6
    y0 = np.arange(16) * rN / 16
    ks, rows = qdlab.charged._dtheta_rows(p, bc, y0)
    z = -(y0[:, None] + ks / rN) - p.theta.c * bc / rN  # the argument of D in each row
    oracle = log_dtheta_n_factors(z, -ks % N, p)
    bound = 1e-12 + 2 * np.spacing(np.abs(rows))
    assert np.all(np.abs(np.expm1(rows - oracle)) <= bound)
    for i in (2 * N + 1, -2 * N - 2):  # the band's first and last shift
        ref = complex(mp_dtheta(mp, z[0, i], int(-ks[i] % N), p))
        for got in (rows[0, i], oracle[0, i]):
            assert abs(np.exp(got) / ref - 1) <= bound[0, i]


def test_long_products_stay_finite_doubles():
    # near theta = i, at N = 300, each q-product of D_theta runs 28,000 terms, and a
    # partial product of them leaves the range of a double (an error of order 1 when
    # the product is logged once); logged every 128 terms, D_theta meets the N-factor
    # product, whose factors run 94 terms each
    p = params(300, "49/100")
    z, n = np.array([-0.4, 0.4, 3.0]), np.array([299, 1, 2])
    got = log_dtheta(z, n, p)
    assert np.max(np.abs(np.expm1(got - log_dtheta_n_factors(z, n, p)))) < 5e-11


def test_fourier_formula_examples():
    assert fourier_formula_residual(0.2, 0, params(1)) < 1e-6
    assert fourier_formula_residual(0.0, 1, params(2)) < 1e-6


def test_fourier_formula_divergent_point():
    with pytest.raises(ZeroDivisionError):
        fourier_transform_dtheta(0.0, 0, params(1))


def test_fourier_formula_window_convergence():
    # residual decreases as the quadrature window grows (convergence witness)
    p = params(1)
    rhs = fourier_formula_rhs(0.35, 0, p)
    res = [
        abs(fourier_transform_dtheta(0.35, 0, p, window=(-6.0, w)) - rhs)
        for w in (8.0, 16.0, 32.0)
    ]
    assert res[2] < res[0]
    assert res[2] < 1e-6


def test_inversion_constant_unimodular():
    for N in (1, 2, 3, 5):
        assert abs(abs(inversion_constant(params(N))) - 1) < 1e-14


def test_long_contour_keeps_the_bits_of_short_chunks():
    # the contour of fourier_transform_dtheta at N=2, at half its step, holds 19,154
    # points.  In one faddeev.log_level_dilog call numpy would multiply in place past
    # 16,384 values and move 3,332 of them in their last bits; log_dtheta's tiles keep
    # every value equal to the same points evaluated 2,048 at a time
    p = params(2)
    delta, h = _contour_delta(p), STEP / 8
    z = np.arange(-14, 26 / (2 * np.pi * delta) + h / 2, h) + 1j * delta
    assert len(z) == 19154
    chunks = [log_dtheta(z[i:i + 2048], 1, p) for i in range(0, len(z), 2048)]
    np.testing.assert_array_equal(log_dtheta(z, 1, p), np.concatenate(chunks))


def test_n_up_to_the_limit_is_taken():
    # N = 4096 is the largest N that QdParams takes: a bound on time, not on a tile, as a
    # point of D_theta runs about 7 N terms of each q-product (qdilog._MAX_N)
    assert np.isfinite(log_dtheta(0.4, 1, params(4096)))
    with pytest.raises(ValueError, match="N = 4097 is too large"):
        params(4097)
