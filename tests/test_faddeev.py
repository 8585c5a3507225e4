"""Faddeev's quantum dilogarithm: closed forms, inversion, shift equations."""

import cmath
import math

import numpy as np
import pytest
from conftest import mp_phi, mp_pochhammer

import qdlab.faddeev
from qdlab.errors import PoleProximity, SlowConvergence
from qdlab.faddeev import (
    ThetaParam,
    _log_pochhammer,
    is_near_pole,
    level_products,
    log_phi_theta,
    nearest_pole,
    phi_theta,
    phi_zero,
    shift_defects,
)
from qdlab.lca import Modulus
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


@pytest.mark.parametrize("frac", ["0", "1/2", "-1/3", 0.75])
def test_pi_fraction_outside_the_first_quadrant_is_refused(frac):
    with pytest.raises(ValueError, match=r"must be in \(0, 1/2\)"):
        ThetaParam.from_pi_fraction(frac)


def test_nan_argument_of_an_array_is_refused(theta3):
    # an array skips the pole check, so a NaN z reaches the q-products, which refuse it
    with pytest.raises(ValueError, match="q-product argument is not finite"):
        phi_theta(np.array([0.3, np.nan]), theta3)


@pytest.mark.parametrize("z", [1e8, -1e8, 1e8j, np.array([0.2, -3e300])])
def test_z_whose_phase_keeps_no_fractional_bit_is_refused(z, theta3):
    # |z|^2/2 turns reaches 2^52 from |z| = 2^26.5 = 9.5e7 on; refused by name, with no
    # overflow warning, by phi_theta and dtheta alike
    p = QdParams(theta3, Modulus(2))
    for f in (lambda: phi_theta(z, theta3), lambda: dtheta(z, 0, p)):
        with pytest.raises(ValueError, match="reaches 2\\^52 at z = "):
            f()
    assert np.isfinite(phi_theta(9e7, theta3))  # just below, z is evaluated


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


def test_truncation_consistency(theta3, monkeypatch):
    # each product stops once |x q^j| < _PRODUCT_TOL, so the neglected tails move
    # log Phi by at most ~2 tol/(1-|q|) each: doubling the depth stays inside 4 tol/(1-|q|)
    def phi_at(z, theta, tol):
        monkeypatch.setattr(qdlab.faddeev, "_PRODUCT_TOL", tol)
        return phi_theta(z, theta)

    z = 0.5
    loose = phi_at(z, theta3, 1e-9)
    tight = phi_at(z, theta3, 1e-18)
    bound = 4.0 * 1e-9 / (1.0 - math.exp(-2 * math.pi * theta3.im_theta_sq))
    assert abs(loose - tight) <= bound * abs(tight)
    th4 = ThetaParam.from_pi_fraction("1/4")
    assert abs(phi_at(0.5, th4, 1e-12) - phi_at(0.5, th4, 1e-18)) < 1e-12


def test_log_phi_independent_of_batching(theta3):
    # each point's q-product head follows its own real part, not the batch's
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


@pytest.mark.parametrize("span, rel", [(30, 1e-12), (90, 1e-11)])
def test_log_phi_matches_mpmath(mp, span, rel):
    for seed, frac in enumerate(ORACLE_FRACTIONS):
        th = ThetaParam.from_pi_fraction(frac)
        rng = np.random.default_rng(seed)
        zs = rng.uniform(-span, span, 40) + 1j * rng.uniform(-0.3, 0.3, 40)
        ref = np.array([complex(mp_phi(mp, z, th)) for z in zs])
        assert np.max(np.abs(np.exp(log_phi_theta(zs, th)) / ref - 1)) < rel


def test_log_phi_matches_mpmath_off_axis(mp, monkeypatch):
    # |Im z| up to 1.5 > cos(arg theta): some q-product terms have Re > 0 and
    # take the log form, which the near-axis oracle never reaches
    max_re = []

    def recorded(lx, lq, tol, stride=1):
        max_re.append(np.max(np.real(lx)))
        return _log_pochhammer(lx, lq, tol, stride)

    monkeypatch.setattr(qdlab.faddeev, "_log_pochhammer", recorded)
    for seed, frac in enumerate(ORACLE_FRACTIONS):
        th = ThetaParam.from_pi_fraction(frac)
        rng = np.random.default_rng(seed)
        zs = rng.uniform(-4, 4, 40) + 1j * rng.uniform(-1.5, 1.5, 40)
        max_re.clear()
        got = np.exp(log_phi_theta(zs, th))
        assert max(max_re) > 0
        ref = np.array([complex(mp_phi(mp, z, th)) for z in zs])
        assert np.max(np.abs(got / ref - 1)) < 1e-12


def test_dead_q_product_points_match_mpmath(mp):
    # below Re lx = log(tol (1 - |q|)) the product is 1 to within tol, and
    # _log_pochhammer returns exactly 0; just above it, the live terms run
    tol = qdlab.faddeev._PRODUCT_TOL
    for seed, frac in enumerate(ORACLE_FRACTIONS):
        t = ThetaParam.from_pi_fraction(frac).theta
        rng = np.random.default_rng(seed)
        for lq in (2j * np.pi * t**2, -2j * np.pi / t**2):
            edge = math.log(tol * -math.expm1(lq.real))
            lx = rng.uniform(edge - 2, edge + 2, 60) + 1j * rng.uniform(-np.pi, np.pi, 60)
            dead = lx.real < edge
            assert 0 < dead.sum() < dead.size
            got = _log_pochhammer(lx, lq, tol)
            ref = [mp_pochhammer(mp, mp.mpc(x), mp.mpc(lq)) for x in lx]
            assert np.all(got[dead] == 0) and np.all(got[~dead] != 0)
            assert max(abs(r - 1) for r, d in zip(ref, dead) if d) < tol
            ref = np.array([complex(r) for r in ref])
            assert np.max(np.abs(np.exp(got[~dead]) / ref[~dead] - 1)) < 1e-12


def test_q_products_match_mpmath(mp):
    # the raw products on Re z <= 0, where log_phi_theta runs them unreflected
    tol = qdlab.faddeev._PRODUCT_TOL
    for seed, frac in enumerate(ORACLE_FRACTIONS):
        th = ThetaParam.from_pi_fraction(frac)
        t, c = th.theta, th.c
        rng = np.random.default_rng(seed)
        zs = -rng.uniform(0, 30, 40) + 1j * rng.uniform(-0.3, 0.3, 40)
        for lx, lq in [(2 * np.pi * t * (zs + c), 2j * np.pi * t**2),
                       (2 * np.pi / t * (zs - c), -2j * np.pi / t**2)]:
            got = np.exp(_log_pochhammer(lx, lq, tol))
            ref = np.array([complex(mp_pochhammer(mp, mp.mpc(x), mp.mpc(lq))) for x in lx])
            assert np.max(np.abs(got / ref - 1)) < 1e-12


@pytest.mark.parametrize("frac", ORACLE_FRACTIONS)
def test_q_product_head_keeps_each_element_alone(frac):
    # a batch that mixes Re lx > 0, where the log-form head runs, with Re lx <= 0,
    # dead and live, gives every element the bits it has alone
    tol = qdlab.faddeev._PRODUCT_TOL
    t = ThetaParam.from_pi_fraction(frac).theta
    rng = np.random.default_rng(7)
    for lq in (2j * np.pi * t**2, -2j * np.pi / t**2):
        edge = math.log(tol * -math.expm1(lq.real))
        lx = rng.uniform(edge - 2, 12, 200) + 1j * rng.uniform(-np.pi, np.pi, 200)
        assert np.any(lx.real > -lq.real) and np.any(lx.real <= 0) and np.any(lx.real < edge)
        got = _log_pochhammer(lx, lq, tol)
        alone = np.array([_log_pochhammer(lx[i:i + 1], lq, tol)[0] for i in range(lx.size)])
        assert np.array_equal(got, alone)


def test_deepest_q_products_match_mpmath(mp):
    # pi/100 (Im theta^2 = 0.063) converges slowly, near the floor: every live
    # product runs ceil(log tol / log|q|) + 1 = 95 terms, 8 at pi/3.
    # Re lx spans the whole live band, where the cut at that depth is felt.
    tol = qdlab.faddeev._PRODUCT_TOL
    t = ThetaParam.from_pi_fraction("1/100").theta
    rng = np.random.default_rng(4)
    for lq in (2j * np.pi * t**2, -2j * np.pi / t**2):
        assert math.ceil(math.log(tol) / lq.real) + 1 == 95
        edge = math.log(tol * -math.expm1(lq.real))
        lx = rng.uniform(edge, 1, 40) + 1j * rng.uniform(-np.pi, np.pi, 40)
        got = np.exp(_log_pochhammer(lx, lq, tol))
        ref = np.array([complex(mp_pochhammer(mp, mp.mpc(x), mp.mpc(lq))) for x in lx])
        assert np.max(np.abs(got / ref - 1)) < 1e-12


def test_long_q_products_match_mpmath(mp):
    # at N = 500 each q-product of D_theta runs 3,386 terms of nome e^{lq} (|q|^{1/N});
    # taken in rounds of N (stride), the rounding of e^{lq} compounds over 7 rounds,
    # not 3,386 terms, which would cost about 3e-13 here.  Logs are compared, as the
    # values are e^{+-100} and more
    tol = qdlab.faddeev._PRODUCT_TOL
    N = 500
    th = ThetaParam.from_pi_fraction("1/3")
    for lx, lq in level_products(np.array([-0.3 + 0.05j, -2.0 - 0.1j]), np.array([1, N - 1]), th, N):
        assert math.ceil(math.log(tol) / lq.real) == 3386
        got = _log_pochhammer(lx, lq, tol, N)
        for g, x in zip(got, lx):
            ref = mp.log(mp_pochhammer(mp, mp.mpc(x), mp.mpc(lq)))
            assert abs(mp.exp(mp.mpc(g) - ref) - 1) < 1e-13


def test_figure_eight_integral_meets_garoufalidis_kashaev():
    # I(theta) = int Phi_theta(x)^2 e^{-pi i x^2} dx on R + 0.25i, by the trapezoid rule
    # (step 1/256, window +-30, where the integrand is below e^{-47}), at 8 theta = e^{i phi},
    # phi in [pi/125, pi/30], extrapolated to theta = 1 by a fit of degree 5 in phi^2.
    # Garoufalidis-Kashaev (arXiv:1411.6062) give at b = 1 |I| = (e^{V/2pi} - e^{-V/2pi})/sqrt(3)
    # = 0.379567579522537, V = 2.029883212819307 the volume of the figure-eight knot
    # complement, and arg I = pi/6, the phase of Phi_1(0)^2, as Phi(x)^2 e^{-pi i x^2} =
    # Phi(0)^2 Phi(x)/Phi(-x) is their integrand.  A value from outside qdlab pins
    # log_phi_theta, the N = 1 arithmetic of log_level_dilog
    x = np.arange(-30 * 256, 30 * 256 + 1) / 256 + 0.25j
    phis = np.linspace(np.pi / 125, np.pi / 30, 8)
    values = [np.sum(np.exp(2 * log_phi_theta(x, ThetaParam(cmath.exp(1j * phi)))
                            - 1j * np.pi * x**2)) / 256 for phi in phis]
    at_one = np.polyval(np.polyfit(phis**2, values, 5), 0)
    V = 2.029883212819307
    closed = (math.exp(V / (2 * math.pi)) - math.exp(-V / (2 * math.pi))) / math.sqrt(3)
    assert closed == pytest.approx(0.379567579522537, abs=1e-15)
    assert abs(abs(at_one) - closed) < 1e-10
    assert abs(cmath.phase(at_one) - math.pi / 6) < 1e-10


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
