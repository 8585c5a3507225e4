"""Charged dilogarithms: transforms, conjugation identities, weight kernels."""

import numpy as np
import pytest
from conftest import params

import qdlab.charged
from qdlab.charged import (
    ChargeTriple,
    WeightKernelParams,
    charged_identity_residuals,
    forward_transform_closed,
    forward_transform_quadrature,
    log_forward_transform,
    log_psi,
    pentagon_family,
    pentagon_normalization,
    psi_charged,
    weight_kernel,
    weight_kernel_grid,
    weight_kernel_many,
)
from qdlab.lca import (
    LcaPoint,
    QuadratureSpec,
    b_generator,
    fourier_kernel,
    gaussian_exp,
    halve,
)
from qdlab.qdilog import dtheta, log_dtheta

TRIPLES = [ChargeTriple.equal(), ChargeTriple(0.5, 0.2, 0.3), ChargeTriple(0.25, 0.45, 0.3)]


def test_charge_triple_validation():
    with pytest.raises(ValueError):
        ChargeTriple(0.5, 0.5, 0.2)
    with pytest.raises(ValueError):
        ChargeTriple(0.5, 0.6, -0.1)


@pytest.mark.parametrize("charges", [(np.nan, 0.5, 0.5), (0.5, np.nan, 0.5),
                                     (0.5, 0.5, np.nan), (np.inf, 0.5, 0.5)])
def test_charge_triple_rejects_non_finite(charges):
    with pytest.raises(ValueError):
        ChargeTriple(*charges)


def test_psi_equal_charges_against_dtheta_oracle():
    # psi at x=0: e^0 / D(-c (A+C)/sqrt N, 0), via the dtheta oracle directly
    p = params(1)
    ch = ChargeTriple.equal()
    oracle = 1.0 / dtheta(-p.theta.c * (2 / 3), 0, p)
    assert psi_charged(ch, 0.0, 0, p) == pytest.approx(oracle, rel=1e-13)


def test_psi_exponential_decay():
    # decay rate along R is 2 pi Im(c_theta) * charge = pi/3 per unit here,
    # so e^{-8 pi/3} = 2.3e-4 at x = 8 and the 1e-4 mark is crossed by x = 10
    p = params(1)
    ch = ChargeTriple.equal()
    mid = abs(psi_charged(ch, 0.0, 0, p))
    rate = 2 * np.pi * p.theta.c.imag / 3
    for x in (8.0, -8.0):
        assert abs(psi_charged(ch, x, 0, p)) < 2 * np.exp(-rate * 8) * mid
    assert abs(psi_charged(ch, 10.5, 0, p)) < 1e-4 * mid
    assert abs(psi_charged(ch, -10.5, 0, p)) < 1e-4 * mid


def test_psi_degenerate_charge_limit():
    # a = c -> 0 limit approaches 1/D pointwise (tested at 1e-6 within 1e-4)
    p = params(1)
    eps = 1e-6
    ch = ChargeTriple(eps, 1 - 2 * eps, eps)
    x = 0.4
    assert abs(psi_charged(ch, x, 0, p) - 1.0 / dtheta(x, 0, p)) < 1e-4


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("triple", range(3))
def test_f1_closed_vs_quadrature(N, triple, rng):
    p = params(N)
    ch = TRIPLES[triple]
    for _ in range(2):
        x, n = rng.uniform(-1.2, 1.2), int(rng.integers(0, N))
        closed = forward_transform_closed(ch, x, n, p)
        quad = forward_transform_quadrature(ch, x, n, p)
        assert abs(closed - quad) < 1e-6


def test_forward_transform_modulus_relation(rng):
    # |F psi_{A,C}(x,n)| equals |psi_{C,B}(-x, M-n)| exactly in closed form
    p = params(3)
    ch = ChargeTriple(0.5, 0.2, 0.3)
    for _ in range(5):
        x, n = rng.uniform(-2, 2), int(rng.integers(0, 3))
        lhs = abs(forward_transform_closed(ch, x, n, p))
        rhs = abs(psi_charged(ChargeTriple(0.3, 0.5, 0.2), -x, (-n) % 3, p))
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_f2_f3_residuals(N, rng):
    p = params(N)
    for ch in TRIPLES[:2]:
        samples = [(rng.uniform(-2, 2), int(rng.integers(0, N))) for _ in range(8)]
        rep = charged_identity_residuals(ch, samples, p)
        assert rep["f2_max"] < 1e-8
        assert rep["f3_max"] < 1e-8
        assert rep["f3_composition_max"] < 1e-10


def test_identity_residuals_keep_nan(monkeypatch):
    # a NaN psi at the second sample must reach f2_max, not be folded away by max
    from qdlab import charged

    real = charged.psi_charged

    def psi(ch, x, n, p):  # the samples arrive as one array x
        return np.where(np.abs(np.abs(x) - 0.7) < 1e-12, complex("nan"), real(ch, x, n, p))

    monkeypatch.setattr(charged, "psi_charged", psi)
    rep = charged_identity_residuals(ChargeTriple(0.5, 0.2, 0.3), [(0.3, 0), (0.7, 0)], params(1))
    assert np.isnan(rep["f2_max"])
    assert np.isnan(rep["f3_max"])


def test_f1_bridge(rng):
    # the two closed-form readings of the transformed function agree exactly
    for N in (1, 2, 3):
        samples = [(rng.uniform(-2, 2), int(rng.integers(0, N))) for _ in range(4)]
        rep = charged_identity_residuals(ChargeTriple(0.4, 0.35, 0.25), samples, params(N))
        assert rep["f3_composition_max"] < 1e-10


def test_pentagon_normalization_unimodular():
    for N in (1, 2, 5):
        p = params(N)
        for ch in TRIPLES:
            assert abs(abs(pentagon_normalization(ch, p)) - 1) < 1e-14


def test_weight_kernel_quasi_periodicity(rng):
    for N in (1, 2, 3):
        p = params(N)
        Nm = p.N
        wkp = WeightKernelParams(ChargeTriple(0.5, 0.2, 0.3), p, LcaPoint(0.15, 0))
        b0 = b_generator(Nm)
        for _ in range(3):
            x = LcaPoint(rng.uniform(-1, 1), (2 * int(rng.integers(0, N))) % N)
            y = LcaPoint(rng.uniform(-1, 1), (2 * int(rng.integers(0, N))) % N)
            w0 = weight_kernel(wkp, x, y)
            # x-shift automorphy: W(x + b, y) = <y/2; -b> W(x, y)
            wx = weight_kernel(wkp, x + b0, y)
            assert abs(wx - fourier_kernel(halve(y, Nm), -b0, Nm) * w0) < 1e-8
            # y-shift automorphy: W(x, y + b) = <x;-b/2> conj<b> <b; x-mu> W(x, y)
            wy = weight_kernel(wkp, x, y + b0)
            phase = (
                fourier_kernel(x, -halve(b0, Nm), Nm)
                / gaussian_exp(b0, Nm)
                * fourier_kernel(b0, LcaPoint(x.x - wkp.mu.x, x.n - wkp.mu.n), Nm)
            )
            assert abs(wy - phase * w0) < 1e-8


def test_weight_kernel_brute_force_bsum():
    # doubled-truncation brute force over the B-orbit reproduces the kernel
    p = params(1)
    wkp = WeightKernelParams(ChargeTriple.equal(), p)
    x, y = LcaPoint(0.1, 0), LcaPoint(0.2, 0)
    val = weight_kernel(wkp, x, y)
    kap = pentagon_normalization(wkp.charges, p)
    brute = 0j
    for k in range(-220, 221):
        term = np.conj(
            kap * np.exp(log_forward_transform(wkp.charges, np.array([y.x + k]), k % 1, p))[0]
        )
        brute += term * (-1) ** k * np.exp(-2j * np.pi * k * x.x)
    brute *= np.exp(-1j * np.pi * x.x * y.x)
    assert abs(val - brute) < 1e-10


@pytest.mark.parametrize("frac", ["1/3", "1/4"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_forward_transform_decay_rates(N, frac):
    # |F psi_{A,C}(x)| decays like e^{-2 pi Im(c_th) C x/sqrt(N)} as x -> +inf and
    # like the same with B as x -> -inf; A sets neither rate.  The B-sum cuts each
    # side at its own rate.  Each of a, b, c in turn is the smallest charge.
    p = params(N, frac)
    unit = 2 * np.pi * p.theta.c.imag / p.N.sqrt
    for ch in (ChargeTriple(0.2, 0.3, 0.5), ChargeTriple(0.5, 0.2, 0.3), ChargeTriple(0.3, 0.5, 0.2)):
        def log_abs(x):
            return np.log(abs(forward_transform_closed(ch, x, 0, p)))

        assert (log_abs(40.0) - log_abs(60.0)) / 20 == pytest.approx(unit * ch.c, rel=1e-3)
        assert (log_abs(-40.0) - log_abs(-60.0)) / 20 == pytest.approx(unit * ch.b, rel=1e-3)


def test_b_sum_length_per_side(monkeypatch):
    # K+ = ceil(-log(1e-3 tol)/r_C) + 4N on the right and K- the same with B on
    # the left, r = 2 pi Im(c_th) charge/N: K+ = 173 and K- = 36 here, both below
    # the cap, so one paired point costs K+ + K- + 1 transform points
    N, spec = 2, QuadratureSpec()
    p = params(N)
    ch = ChargeTriple(0.1417, 0.7333, 0.125)
    Kp, Km = (int(np.ceil(-np.log(1e-3 * spec.tol) / (2 * np.pi * p.theta.c.imag * r / N))) + 4 * N
              for r in (ch.c, ch.b))
    assert (Kp, Km) == (173, 36)
    real = qdlab.charged.log_forward_transform
    points = []

    def counted(charges, z, *args):
        points.append(np.size(z))
        return real(charges, z, *args)

    monkeypatch.setattr(qdlab.charged, "log_forward_transform", counted)
    weight_kernel(WeightKernelParams(ch, p), LcaPoint(0.1, 0), LcaPoint(0.2, 1), spec)
    assert sum(points) == Kp + Km + 1


def test_paired_point_is_one_transform_call(monkeypatch):
    # the terms of a paired point share their residues k mod N with every other
    # row, so all of them, of every residue, go to log_forward_transform at once
    p = params(3)
    real = qdlab.charged.log_forward_transform
    calls = []

    def counted(charges, z, *args):
        calls.append(np.shape(z))
        return real(charges, z, *args)

    monkeypatch.setattr(qdlab.charged, "log_forward_transform", counted)
    wkp = WeightKernelParams(ChargeTriple(0.4, 0.35, 0.25), p, LcaPoint(0.3, 1))
    weight_kernel(wkp, LcaPoint(0.1, 2), LcaPoint(0.2, 1))
    assert len(calls) == 1


@pytest.mark.parametrize("N", [2, 3])
def test_integer_array_residues_match_scalar_calls(N, rng):
    # the B-sum passes its residues as one (K,) array against a (rows, K) block of z;
    # each column equals the scalar-n call.  F psi's Gaussian n-part is exp'd on a
    # numpy scalar there, which can round 1 ulp apart from the array exp.
    p = params(N)
    ch = ChargeTriple(0.4, 0.35, 0.25)
    ks = np.arange(-7, 9)
    z, n = rng.uniform(-2, 2, (3, 1)) + ks / p.N.sqrt, ks % N
    dt, ps = log_dtheta(z, n, p), log_psi(ch, z, n, p)
    ft = np.exp(log_forward_transform(ch, z, n, p))
    for r in range(N):
        cols = n == r
        np.testing.assert_array_equal(dt[:, cols], log_dtheta(z[:, cols], r, p))
        np.testing.assert_array_equal(ps[:, cols], log_psi(ch, z[:, cols], r, p))
        np.testing.assert_allclose(ft[:, cols], np.exp(log_forward_transform(ch, z[:, cols], r, p)),
                                   rtol=1e-14, atol=0)


@pytest.mark.parametrize("N", [2, 3])
def test_weight_kernel_many_mixed_residues(N, rng):
    # one paired call over points of every residue yn equals per-point calls, and
    # a point with yn != 0, summed from its canonical section, equals its B-orbit
    # summed from y itself with lca's phases over a doubled window
    p = params(N)
    wkp = WeightKernelParams(ChargeTriple(0.4, 0.35, 0.25), p, LcaPoint(0.3, 1))
    xr, yr = rng.uniform(-1, 1, (2, 8))
    xn, yn = rng.integers(0, N, (2, 8))
    yn[:N] = np.arange(N)
    many = weight_kernel_many(wkp, xr, xn, yr, yn)
    for i in range(8):
        one = weight_kernel(wkp, LcaPoint(xr[i], int(xn[i])), LcaPoint(yr[i], int(yn[i])))
        assert many[i] == pytest.approx(one, rel=1e-13)
    x, y = LcaPoint(xr[1], int(xn[1])), LcaPoint(yr[1], 1)
    kap, b0 = pentagon_normalization(wkp.charges, p), b_generator(p.N)
    brute = 0j
    for k in range(-300, 301):
        kb = b0.scale(k)
        term = np.conj(kap * forward_transform_closed(wkp.charges, y.x + kb.x, y.n + k, p))
        brute += term * np.conj(gaussian_exp(kb, p.N)) * fourier_kernel(kb, wkp.mu - x, p.N)
    assert many[1] == pytest.approx(fourier_kernel(x, -halve(y, p.N), p.N) * brute, rel=1e-10)


def test_weight_kernel_truncation_stability():
    # doubling the truncation cap leaves the kernel unchanged
    p = params(2)
    wkp = WeightKernelParams(ChargeTriple(0.4, 0.35, 0.25), p)
    x, y = LcaPoint(0.3, 0), LcaPoint(-0.2, 0)
    a = weight_kernel(wkp, x, y, QuadratureSpec(tol=1e-9))
    b = weight_kernel(wkp, x, y, QuadratureSpec(tol=1e-13))
    assert abs(a - b) / abs(b) < 1e-10


@pytest.mark.parametrize("N", [1, 2, 3])
def test_weight_kernel_grid_on_sparse_indices(N):
    # indices outside the core [0, M) come from the automorphy relations; the
    # rows w = -40 and 61 lie an odd number q of periods out, so both the sign
    # (-1)^(N q) (N odd) and the mu_x phase of lambda(u)^q are exercised
    p = params(N)
    M = 16
    h = p.N.sqrt / M
    us, ws = np.array([-7, 0, 3]), np.array([-40, 2, 5, 61])
    for mu in (LcaPoint(0.0, 0), LcaPoint(0.3, 1)):
        wkp = WeightKernelParams(ChargeTriple(0.4, 0.35, 0.25), p, mu)
        grid = weight_kernel_grid(wkp, us, ws, M)
        for j, w in enumerate(ws):
            for i, u in enumerate(us):
                expect = weight_kernel(wkp, LcaPoint(u * h, 0), LcaPoint(w * h, 0))
                assert grid[j, i] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("M", [12, 13])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_weight_kernel_grid_spans_periods(N, M):
    # index ranges two periods and more out on both sides; odd M, and N that
    # does not divide M, included.  The same entries read at a sparse sample of
    # rows, which covers fewer blocks, agree bit for bit.
    p = params(N)
    h = p.N.sqrt / M
    us = ws = np.arange(-2 * M - 3, 2 * M + 4)
    rng = np.random.default_rng(1000 * N + M)
    for mu in (LcaPoint(0.0, 0), LcaPoint(0.3, 1)):
        wkp = WeightKernelParams(ChargeTriple(0.4, 0.35, 0.25), p, mu)
        grid = weight_kernel_grid(wkp, us, ws, M)
        assert grid.shape == (len(ws), len(us))
        rows = np.sort(rng.choice(len(ws), 6, replace=False))
        np.testing.assert_array_equal(weight_kernel_grid(wkp, us, ws[rows], M), grid[rows])
        corners = [(0, 0), (0, -1), (-1, 0), (-1, -1)]
        for j, i in corners + list(zip(rng.integers(0, len(ws), 10), rng.integers(0, len(us), 10))):
            expect = weight_kernel(wkp, LcaPoint(us[i] * h, 0), LcaPoint(ws[j] * h, 0))
            assert grid[j, i] == pytest.approx(expect, rel=1e-12)


def test_pentagon_family_matches_transform():
    p = params(2)
    ch = ChargeTriple(0.5, 0.2, 0.3)
    xs = np.array([0.3, -0.8])
    vals = pentagon_family(ch, xs, 1, p)
    expect = np.conj(
        pentagon_normalization(ch, p) * forward_transform_closed(ch, -xs, (-1) % 2, p)
    )
    assert np.max(np.abs(vals - expect)) < 1e-14
