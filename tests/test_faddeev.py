"""Faddeev's quantum dilogarithm: closed forms, inversion, shift equations."""

import cmath
import math

import numpy as np
import pytest

import qdlab.faddeev
from qdlab.errors import PoleProximity, SlowConvergence
from qdlab.faddeev import (
    ThetaParam,
    _log_pochhammer,
    is_near_pole,
    log_phi_theta,
    nearest_pole,
    phi_theta,
    phi_zero,
    shift_defects,
)
from qdlab.lca import Modulus, QuadratureSpec
from qdlab.qdilog import QdParams, dtheta, factor_args

ORACLE_FRACTIONS = ("1/3", "1/4", "2/5", "1/5")


@pytest.mark.parametrize("theta", [complex(np.nan, 1.0), complex(0.6, np.nan),
                                   complex(np.inf, np.inf)])
def test_theta_param_rejects_non_finite(theta):
    with pytest.raises(ValueError):
        ThetaParam(theta)


def test_theta_param_validation():
    with pytest.raises(ValueError):
        ThetaParam(1.0)  # on the real axis
    with pytest.raises(ValueError):
        ThetaParam(0.5 + 0.5j)  # not unit modulus
    th = ThetaParam.from_pi_fraction("1/3")
    assert th.c == pytest.approx(0.5j)


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


def test_shift_equations(thetas, rng):
    for th in thetas:
        zs = rng.uniform(-1.5, 1.5, 50) + 1j * rng.uniform(-0.1, 0.1, 50)
        r1, r2 = shift_defects(zs, th)
        assert np.max(np.abs(r1)) < 1e-9
        assert np.max(np.abs(r2)) < 1e-9


def test_shift_equations_far_field(thetas, rng):
    # relative defects where the products run reflected (Re z > 0) and directly
    for th in thetas:
        t = th.theta
        re = np.concatenate([rng.uniform(5, 30, 50), rng.uniform(-30, -5, 50)])
        zs = re + 1j * rng.uniform(-0.1, 0.1, 100)
        r1, r2 = shift_defects(zs, th)
        assert np.max(np.abs(r1 / (1 + np.exp(2 * np.pi * t * zs)))) < 1e-11
        assert np.max(np.abs(r2 / (1 + np.exp(2 * np.pi * zs / t)))) < 1e-11


def test_unitarity_on_real_line(thetas):
    xs = np.linspace(-4, 4, 41)
    for th in thetas:
        assert np.max(np.abs(np.abs(phi_theta(xs, th)) - 1)) < 1e-10


def test_truncation_consistency(theta3):
    # each product stops once |x q^j| < product_tol, so the neglected tails move
    # log Phi by at most ~2 tol/(1-|q|) each: doubling the depth stays inside 4 tol/(1-|q|)
    z = 0.5
    loose = phi_theta(z, theta3, QuadratureSpec(product_tol=1e-9))
    tight = phi_theta(z, theta3, QuadratureSpec(product_tol=1e-18))
    bound = 4.0 * 1e-9 / (1.0 - math.exp(-2 * math.pi * theta3.im_theta_sq))
    assert abs(loose - tight) <= bound * abs(tight)
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


def test_log_phi_alone_equals_batched(thetas, rng):
    # a point evaluated alone gives the bits it gets inside a batch, also where
    # some q-product terms take the log form (|Im z| > cos(arg theta))
    for th in thetas:
        zs = rng.uniform(-3, 3, 100) + 1j * rng.uniform(-1.5, 1.5, 100)
        alone = [log_phi_theta(zs[i : i + 1], th)[0] for i in range(zs.size)]
        assert np.array_equal(alone, log_phi_theta(zs, th))


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


@pytest.fixture
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath


def _mp_pochhammer(mp, lx, lq):
    """(e^lx; e^lq)_inf at the working precision, stopped once |x q^j| < 1e-45."""
    x, q, out = mp.exp(lx), mp.exp(lq), mp.mpc(1)
    while abs(x) >= mp.mpf("1e-45"):
        out *= 1 - x
        x *= q
    return out


def _mp_phi(mp, z, th):
    """Phi_theta(z) from its product formula, at the float theta and z given."""
    t, z = mp.mpc(th.theta), mp.mpc(z)
    c = 1j * (t + 1 / t) / 2
    num = _mp_pochhammer(mp, 2 * mp.pi * t * (z + c), 2j * mp.pi * t**2)
    return num / _mp_pochhammer(mp, 2 * mp.pi / t * (z - c), -2j * mp.pi / t**2)


@pytest.mark.parametrize("span, rel", [(30, 1e-12), (90, 1e-11)])
def test_log_phi_matches_mpmath(mp, span, rel):
    for seed, frac in enumerate(ORACLE_FRACTIONS):
        th = ThetaParam.from_pi_fraction(frac)
        rng = np.random.default_rng(seed)
        zs = rng.uniform(-span, span, 40) + 1j * rng.uniform(-0.3, 0.3, 40)
        ref = np.array([complex(_mp_phi(mp, z, th)) for z in zs])
        assert np.max(np.abs(np.exp(log_phi_theta(zs, th)) / ref - 1)) < rel


def test_log_phi_matches_mpmath_off_axis(mp, monkeypatch):
    # |Im z| up to 1.5 > cos(arg theta): some q-product terms have Re > 0 and
    # take the log form, which the near-axis oracle never reaches
    max_re = []

    def recorded(lx, lq, tol):
        max_re.append(np.max(np.real(lx)))
        return _log_pochhammer(lx, lq, tol)

    monkeypatch.setattr(qdlab.faddeev, "_log_pochhammer", recorded)
    for seed, frac in enumerate(ORACLE_FRACTIONS):
        th = ThetaParam.from_pi_fraction(frac)
        rng = np.random.default_rng(seed)
        zs = rng.uniform(-4, 4, 40) + 1j * rng.uniform(-1.5, 1.5, 40)
        max_re.clear()
        got = np.exp(log_phi_theta(zs, th))
        assert max(max_re) > 0
        ref = np.array([complex(_mp_phi(mp, z, th)) for z in zs])
        assert np.max(np.abs(got / ref - 1)) < 1e-12


def test_dead_q_product_points_match_mpmath(mp):
    # below Re lx = log(tol (1 - |q|)) the product is 1 to within tol, and
    # _log_pochhammer returns exactly 0; just above it, the live terms run
    tol = QuadratureSpec().product_tol
    for seed, frac in enumerate(ORACLE_FRACTIONS):
        t = ThetaParam.from_pi_fraction(frac).theta
        rng = np.random.default_rng(seed)
        for lq in (2j * np.pi * t**2, -2j * np.pi / t**2):
            edge = math.log(tol * -math.expm1(lq.real))
            lx = rng.uniform(edge - 2, edge + 2, 60) + 1j * rng.uniform(-np.pi, np.pi, 60)
            dead = lx.real < edge
            assert 0 < dead.sum() < dead.size
            got = _log_pochhammer(lx, lq, tol)
            ref = [_mp_pochhammer(mp, mp.mpc(x), mp.mpc(lq)) for x in lx]
            assert np.all(got[dead] == 0) and np.all(got[~dead] != 0)
            assert max(abs(r - 1) for r, d in zip(ref, dead) if d) < tol
            ref = np.array([complex(r) for r in ref])
            assert np.max(np.abs(np.exp(got[~dead]) / ref[~dead] - 1)) < 1e-12


def test_q_products_match_mpmath(mp):
    # the raw products on Re z <= 0, where log_phi_theta runs them unreflected
    tol = QuadratureSpec().product_tol
    for seed, frac in enumerate(ORACLE_FRACTIONS):
        th = ThetaParam.from_pi_fraction(frac)
        t, c = th.theta, th.c
        rng = np.random.default_rng(seed)
        zs = -rng.uniform(0, 30, 40) + 1j * rng.uniform(-0.3, 0.3, 40)
        for lx, lq in [(2 * np.pi * t * (zs + c), 2j * np.pi * t**2),
                       (2 * np.pi / t * (zs - c), -2j * np.pi / t**2)]:
            got = np.exp(_log_pochhammer(lx, lq, tol))
            ref = np.array([complex(_mp_pochhammer(mp, mp.mpc(x), mp.mpc(lq))) for x in lx])
            assert np.max(np.abs(got / ref - 1)) < 1e-12


def test_reflection_keeps_pole_guards(thetas):
    # poles with Re > 0 are reflected onto zeros of Phi(-z); the scalar guards
    # run before any evaluation and still refuse them
    for th in thetas:
        t = th.theta
        for m, k in [(0, 1), (0, 2), (1, 2)]:
            pole = th.c + 1j * (t * m + k / t)
            assert pole.real > 0
            with pytest.raises(PoleProximity):
                phi_theta(pole, th)
        # factor j = 0 of D(z, 0) at N = 2 has argument z/sqrt(2) + c/2
        params = QdParams(th, Modulus(2))
        z = math.sqrt(2) * (th.c + 1j / t - th.c / 2)
        assert is_near_pole(complex(factor_args(z, 0, params)[0]), th)
        with pytest.raises(PoleProximity):
            dtheta(z, 0, params)
        with np.errstate(divide="ignore"):  # the denominator product is 0 at c
            assert np.real(log_phi_theta(np.array([th.c]), th))[0] == np.inf
