"""D_theta over A_N: reduction, inversion, Fourier transformation formula."""

import numpy as np
import pytest
from conftest import params

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
    # the contour of fourier_transform_dtheta at N=2 holds 9,578 points, 19,156
    # Faddeev factors.  In one log_phi_theta call numpy would multiply in place past
    # 16,384 values and move 2,287 of them in their last bits; log_dtheta's tiles keep
    # every value equal to the same points evaluated 2,048 at a time
    p = params(2)
    delta, h = _contour_delta(p), STEP / 4
    z = np.arange(-14, 26 / (2 * np.pi * delta) + h / 2, h) + 1j * delta
    assert len(z) == 9578
    chunks = [log_dtheta(z[i:i + 2048], 1, p) for i in range(0, len(z), 2048)]
    np.testing.assert_array_equal(log_dtheta(z, 1, p), np.concatenate(chunks))


def test_n_up_to_a_tile_is_taken():
    # at N = 4096 the factors of one point of D_theta fill one tile; N = 4097 would not fit
    assert np.isfinite(log_dtheta(0.4, 1, params(4096)))
    with pytest.raises(ValueError, match="N = 4097 is too large"):
        params(4097)
