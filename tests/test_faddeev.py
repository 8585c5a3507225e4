"""Faddeev's quantum dilogarithm: closed forms, inversion, shift equations."""

import cmath

import numpy as np
import pytest

from qdlab.errors import PoleProximity, SlowConvergence
from qdlab.faddeev import (
    ThetaParam,
    inversion_defect,
    is_near_pole,
    log_phi_theta,
    nearest_pole,
    phi_theta,
    phi_truncation_bound,
    phi_zero,
    shift_defects,
)
from qdlab.lca import QuadratureSpec


def test_theta_param_validation():
    with pytest.raises(ValueError):
        ThetaParam(1.0)  # on the real axis
    with pytest.raises(ValueError):
        ThetaParam(0.5 + 0.5j)  # not unit modulus
    th = ThetaParam.from_pi_fraction("1/3")
    assert th.c == pytest.approx(0.5j)
    assert abs(th.q) < 1 and abs(th.q_tilde) < 1


def test_c_theta_examples(thetas):
    th3, th4, _ = thetas
    assert th3.c == pytest.approx(0.5j)
    assert th4.c == pytest.approx(1j * np.sqrt(2) / 2)
    for th in thetas:
        assert th.c.real == pytest.approx(0.0)
        assert th.c.imag > 0


def test_phi_zero_closed_forms(thetas):
    th3, th4, _ = thetas
    assert phi_zero(th3) == pytest.approx(cmath.exp(-1j * cmath.pi / 24))
    assert phi_zero(th4) == pytest.approx(1.0)
    for th in thetas:
        assert abs(abs(phi_zero(th)) - 1) < 1e-15


def test_product_matches_phi_zero(thetas):
    extra = [ThetaParam.from_pi_fraction(f) for f in ("1/5", "3/8")]
    for th in list(thetas) + extra:
        assert abs(phi_theta(0, th) - phi_zero(th)) < 1e-10


def test_inversion_on_strip(thetas, rng):
    for th in thetas:
        half = th.c.imag / 2
        zs = rng.uniform(-2, 2, 100) + 1j * rng.uniform(-half, half, 100)
        assert np.max(np.abs(inversion_defect(zs, th))) < 1e-9


def test_shift_equations(thetas, rng):
    for th in thetas:
        zs = rng.uniform(-1.5, 1.5, 50) + 1j * rng.uniform(-0.1, 0.1, 50)
        r1, r2 = shift_defects(zs, th)
        assert np.max(np.abs(r1)) < 1e-9
        assert np.max(np.abs(r2)) < 1e-9


def test_unitarity_on_real_line(thetas):
    xs = np.linspace(-4, 4, 41)
    for th in thetas:
        assert np.max(np.abs(np.abs(phi_theta(xs, th)) - 1)) < 1e-10


def test_truncation_consistency(theta3):
    # doubling the product depth changes values by less than the reported bound
    z = 0.5
    spec9 = QuadratureSpec(product_tol=1e-9)
    loose = phi_theta(z, theta3, spec9)
    tight = phi_theta(z, theta3, QuadratureSpec(product_tol=1e-18))
    assert abs(loose - tight) <= phi_truncation_bound(z, theta3, spec9) * abs(tight)
    th4 = ThetaParam.from_pi_fraction("1/4")
    assert abs(
        phi_theta(0.5, th4, QuadratureSpec(product_tol=1e-12))
        - phi_theta(0.5, th4, QuadratureSpec(product_tol=1e-18))
    ) < 1e-12


def test_log_phi_independent_of_batching(theta3):
    # each point's q-product depth follows its own real part, not the batch's
    left = np.linspace(-8, -7, 40) + 0.05j
    right = np.linspace(8, 12, 60) - 0.05j
    together = log_phi_theta(np.concatenate([left, right]), theta3)
    apart = np.concatenate([log_phi_theta(left, theta3), log_phi_theta(right, theta3)])
    assert np.array_equal(together, apart)


def test_pole_lattice(theta3):
    t = theta3.theta
    for m, k in [(0, 0), (1, 0), (0, 2), (2, 3)]:
        pole = theta3.c + 1j * (t * m + k / t)
        assert is_near_pole(pole + 1e-10, theta3)
        assert nearest_pole(pole, theta3)[1] < 1e-12
    # mirror points below the axis are not poles
    assert not is_near_pole(-theta3.c, theta3)
    with pytest.raises(PoleProximity):
        phi_theta(theta3.c, theta3)


def test_slow_convergence_guard():
    th = ThetaParam.from_pi_fraction("1/500")  # Im theta^2 tiny
    with pytest.raises(SlowConvergence):
        phi_theta(0.3, th)
