"""Charged dilogarithms: transforms, conjugation identities, weight kernels."""

import re
import warnings

import numpy as np
import pytest
from conftest import params

import qdlab.charged
import qdlab.faddeev
import qdlab.qdilog
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
    weight_kernel_cores,
    weight_kernel_grid,
    weight_kernel_pairs,
    weight_kernel_rows,
)
from qdlab.errors import NonConvergent
from qdlab.lca import (
    LcaPoint,
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


@pytest.mark.parametrize("A", [0.05, 0.4, 0.9])
@pytest.mark.parametrize("frac", ["1/3", "1/4", "1/5"])
@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_band_matches_the_dead_mask(N, frac, A, monkeypatch):
    # past the band of _band both q-products of the D_theta in F psi are dead by
    # _log_pochhammer's own mask (their logs exactly 0), and every point is on one side:
    # reflected (Re > 0) on the left, not on the right.  Inside, a product is live within
    # two shifts of each end: the band is no wider than the live region, rounded out to
    # whole shifts, plus the one-shift margin on each side.
    p = params(N, frac)
    wkp = WeightKernelParams(ChargeTriple(A, (1 - A) / 3, 2 * (1 - A) / 3), p)
    y0 = np.array([-1.3, 0.0, 0.7])
    k0, k1 = qdlab.charged._band(p, wkp.charges.b + wkp.charges.c, y0)
    real_product, real_d = qdlab.faddeev._log_pochhammer, qdlab.qdilog.log_level_dilog
    live, args = [], []

    def product(*a):
        out = real_product(*a)
        live[-1] |= bool(np.any(out != 0))
        return out

    def dilog(z, *a):
        args.append(np.asarray(z))
        return real_d(z, *a)

    monkeypatch.setattr(qdlab.faddeev, "_log_pochhammer", product)
    monkeypatch.setattr(qdlab.qdilog, "log_level_dilog", dilog)
    ks = np.arange(k0 - 4 * N - 1, k1 + 4 * N + 2)
    for k in ks:
        live.append(False)
        log_forward_transform(wkp.charges, y0 + k / p.N.sqrt, k % N, p)
    live = np.array(live)
    assert len(args) == len(ks)
    assert not np.any(live[(ks < k0) | (ks > k1)])
    assert np.all(np.concatenate([a.real.ravel() for a, k in zip(args, ks) if k < k0]) > 0)
    assert np.all(np.concatenate([a.real.ravel() for a, k in zip(args, ks) if k > k1]) <= 0)
    assert ks[live].min() <= k0 + 2 and ks[live].max() >= k1 - 2


def _record_z(monkeypatch) -> dict:
    """Record the z of every call of the D_theta stage (charged.log_dtheta) and of the
    transform (charged.log_forward_transform), by name."""
    seen = {"log_dtheta": [], "log_forward_transform": []}
    real_d, real_f = qdlab.charged.log_dtheta, qdlab.charged.log_forward_transform

    def log_dtheta(z, *args):
        seen["log_dtheta"].append(np.asarray(z))
        return real_d(z, *args)

    def log_forward_transform(charges, z, *args):
        seen["log_forward_transform"].append(np.asarray(z))
        return real_f(charges, z, *args)

    monkeypatch.setattr(qdlab.charged, "log_dtheta", log_dtheta)
    monkeypatch.setattr(qdlab.charged, "log_forward_transform", log_forward_transform)
    return seen


def test_b_sum_length_per_side(monkeypatch):
    # a paired point costs its band, 2N seed shifts on each side and one ratio
    # shift per side.  The band is where a q-product is live; C and B set only how
    # fast the tails decay, and the tails are summed in closed form, so with A fixed
    # the cost is the same for C = 0.125 and for C = 0.7 (210 points when each side
    # was summed term by term to 1e-14 at C = 0.125).  The D_theta stage and the
    # rest of the transform both see every point once.
    N = 2
    p = params(N)
    seen = _record_z(monkeypatch)
    for C in (0.125, 0.7):
        wkp = WeightKernelParams(ChargeTriple(0.1417, 0.8583 - C, C), p)
        k0, k1 = qdlab.charged._band(p, wkp.charges.b + wkp.charges.c,
                                     np.array([0.2 - 1 / p.N.sqrt]))
        for zs in seen.values():
            zs.clear()
        weight_kernel(wkp, LcaPoint(0.1, 0), LcaPoint(0.2, 1))
        for zs in seen.values():
            assert sum(z.size for z in zs) == (k1 - k0 + 1) + 4 * N + 2 == 61


def test_paired_point_is_one_transform_call(monkeypatch):
    # the terms of a paired point share their residues k mod N with every other
    # row, so all of them, of every residue, go to log_forward_transform at once,
    # and their D_theta factors to log_dtheta at once
    p = params(3)
    seen = _record_z(monkeypatch)
    wkp = WeightKernelParams(ChargeTriple(0.4, 0.35, 0.25), p, LcaPoint(0.3, 1))
    weight_kernel(wkp, LcaPoint(0.1, 2), LcaPoint(0.2, 1))
    assert [len(zs) for zs in seen.values()] == [1, 1]


def test_band_longer_than_a_tile_keeps_its_bits(monkeypatch):
    # the band grows like N; with tiles of 16 Faddeev points log_dtheta cuts a row
    # into slices of 16 // N shifts.  A transform value does not depend on its tile,
    # and _b_sum contracts every row at once whatever the tiles, so the paired
    # and the grid values are the same bits.
    for N in (1, 2, 3, 5):
        p = params(N)
        wkp = WeightKernelParams(ChargeTriple(0.4, 0.35, 0.25), p, LcaPoint(0.3, 1))
        x, y = ([0.1, -0.4], [0, 1]), ([0.2, 0.9], [1, 0])
        blocks = range(-1, 2), range(-1, 1)
        whole = (weight_kernel_rows(wkp, *y)(*x),
                 weight_kernel_grid(wkp, weight_kernel_cores([wkp], 8)[0], *blocks))
        with monkeypatch.context() as m:
            m.setattr(qdlab.qdilog, "_TILE_POINTS", 16)
            np.testing.assert_array_equal(weight_kernel_rows(wkp, *y)(*x), whole[0])
            np.testing.assert_array_equal(
                weight_kernel_grid(wkp, weight_kernel_cores([wkp], 8)[0], *blocks), whole[1])


@pytest.mark.parametrize("N", [4, 7, 12])
def test_band_edges_sit_two_shifts_past_the_live_products(N, rng, monkeypatch):
    # _band reads the live shifts off the two products' Re log x, affine in Re z; the
    # live shifts found by running the products, for every y0 and every shift, end
    # exactly two shifts inside each edge (the rounding of the edge and the margin)
    p = params(N)
    rN = p.N.sqrt
    real, masks = qdlab.faddeev._log_pochhammer, []

    def product(*a):
        out = real(*a)
        masks.append(out != 0)
        return out

    monkeypatch.setattr(qdlab.faddeev, "_log_pochhammer", product)
    for _ in range(5):
        a, b = rng.uniform(0.05, 0.45, 2)
        ch = ChargeTriple(a, b, 1 - a - b)
        bc = ch.b + ch.c
        y0 = rng.uniform(-3, 3, 3)
        k0, k1 = qdlab.charged._band(p, bc, y0)
        ks = np.arange(k0 - 2 * N, k1 + 2 * N + 1)
        masks.clear()
        log_dtheta(-(y0[:, None] + ks / rN) - p.theta.c * bc / rN, -ks % N, p)
        assert len(masks) == 2  # one tile
        live = ks[np.any((masks[0] | masks[1]).reshape(len(y0), -1), axis=0)]
        assert (k0, k1) == (live.min() - 2, live.max() + 2)


def test_every_faddeev_call_of_a_kernel_value_fits_a_tile(monkeypatch):
    # log_dtheta's tile is counted in points of D_theta, each one element of each of its
    # two q-products: at N=50 a B-sum row holds about 1,400 shifts, and the Fourier
    # transform of D_theta at N=2 sends 9,578 contour points.  No _log_pochhammer call
    # takes more than a tile
    real, sizes = qdlab.faddeev._log_pochhammer, []

    def counted(lx, *a):
        sizes.append(np.size(lx))
        return real(lx, *a)

    monkeypatch.setattr(qdlab.faddeev, "_log_pochhammer", counted)
    weight_kernel(WeightKernelParams(ChargeTriple(0.4, 0.35, 0.25), params(50)),
                  LcaPoint(0.1, 0), LcaPoint(0.2, 0))
    qdlab.qdilog.fourier_transform_dtheta(0.35, 1, params(2))
    forward_transform_quadrature(ChargeTriple(0.4, 0.35, 0.25), 0.3, 1, params(3))
    assert sizes and max(sizes) <= qdlab.qdilog._TILE_POINTS
    assert sum(sizes) > 2 * 9578


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
def test_paired_kernel_mixed_residues(N, rng):
    # one paired call over points of every residue yn equals per-point calls, and
    # a point with yn != 0, summed from its canonical section, equals its B-orbit
    # summed from y itself with lca's phases over a doubled window
    p = params(N)
    wkp = WeightKernelParams(ChargeTriple(0.4, 0.35, 0.25), p, LcaPoint(0.3, 1))
    xr, yr = rng.uniform(-1, 1, (2, 8))
    xn, yn = rng.integers(0, N, (2, 8))
    yn[:N] = np.arange(N)
    paired = weight_kernel_rows(wkp, yr, yn)(xr, xn)
    for i in range(8):
        one = weight_kernel(wkp, LcaPoint(xr[i], int(xn[i])), LcaPoint(yr[i], int(yn[i])))
        assert paired[i] == pytest.approx(one, rel=1e-13)
    x, y = LcaPoint(xr[1], int(xn[1])), LcaPoint(yr[1], 1)
    kap, b0 = pentagon_normalization(wkp.charges, p), b_generator(p.N)
    brute = 0j
    for k in range(-300, 301):
        kb = b0.scale(k)
        term = np.conj(kap * forward_transform_closed(wkp.charges, y.x + kb.x, y.n + k, p))
        brute += term * np.conj(gaussian_exp(kb, p.N)) * fourier_kernel(kb, wkp.mu - x, p.N)
    assert paired[1] == pytest.approx(fourier_kernel(x, -halve(y, p.N), p.N) * brute, rel=1e-10)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_kernel_rows_read_b_shifts_as_section_offsets(N, rng):
    # W(x, y + s b0) from the rows of F psi at y equals a fresh kernel at
    # (yr + s/sqrt(N), yn + s).  The fresh kernel reduces yn + s mod N, so where it
    # wraps (every s at N=1, yn=0 with s < 0) its section point sits sqrt(N) away
    # from that of the rows, and the two sums share no evaluation point.  Both round
    # like a sum of terms of order max|W|, so the tolerance is relative to that: at
    # N=2 a point with |W| = 0.018 differs by 1.9e-15, 1.0e-13 of itself
    p = params(N)
    wkp = WeightKernelParams(ChargeTriple(0.4, 0.35, 0.25), p, LcaPoint(0.3, 1))
    xr, yr = rng.uniform(-1, 1, (2, 2 * N + 1))
    xn = rng.integers(0, N, 2 * N + 1)
    yn = np.arange(2 * N + 1) % N  # every residue, 0 among them
    W = weight_kernel_rows(wkp, yr, yn)
    np.testing.assert_array_equal(W(xr, xn), weight_kernel_rows(wkp, yr, yn)(xr, xn))
    for s in (-2, -1, 1, 2):
        expect = weight_kernel_rows(wkp, yr + s / p.N.sqrt, yn + s)(xr, xn)
        np.testing.assert_allclose(W(xr, xn, s), expect, rtol=0,
                                   atol=1e-13 * np.abs(expect).max())


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("s", [-1, 0, 1])
def test_kernel_rows_scalar_x_and_residue_keep_the_bits(N, s, rng):
    # a scalar x and yn give one row of phases, broadcast over the rows of F psi:
    # every value keeps the bits of the same call with full arrays
    p = params(N)
    wkp = WeightKernelParams(ChargeTriple(0.4, 0.35, 0.25), p, LcaPoint(0.3, 1))
    M = 16
    yr = rng.uniform(-1, 1, M)
    xr, xn, yn = rng.uniform(-1, 1), int(rng.integers(0, N)), N - 1
    got = weight_kernel_rows(wkp, yr, yn)(xr, xn, s)
    full = weight_kernel_rows(wkp, yr, np.full(M, yn))(np.full(M, xr), np.full(M, xn), s)
    assert got.shape == full.shape == (M,)
    assert np.array_equal(got, full)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_b_sum_tails_are_geometric(N):
    # ten periods past the band on each side, one period of 2N shifts multiplies
    # the summand X_j = conj(kappa F psi)(y + j b0) conj<j b0> <j b0; mu - x> by
    # R+ = e^{-4 pi cos(arg theta) C} e^{4 pi i sqrt(N) (mu_x - x - y0)} on the right
    # and by R- = e^{-4 pi cos(arg theta) B} e^{-4 pi i sqrt(N) (mu_x - x)} on the
    # left, y0 = yr - yn/sqrt(N): the ratios that _b_sum sums each tail with
    p = params(N)
    ch = ChargeTriple(0.4, 0.35, 0.25)
    wkp = WeightKernelParams(ch, p, LcaPoint(0.3, 1))
    x, y = LcaPoint(0.3, 1 % N), LcaPoint(-0.2, 1 % N)
    rN, cos = p.N.sqrt, p.theta.theta.real
    y0 = y.x - y.n / rN
    k0, k1 = qdlab.charged._band(p, ch.b + ch.c, np.array([y0]))
    kap, b0 = pentagon_normalization(ch, p), b_generator(p.N)

    def summand(k):  # term k of the sum from the canonical section is j = k - yn
        jb = b0.scale(k - y.n)
        return (np.conj(kap * forward_transform_closed(ch, y.x + jb.x, y.n + jb.n, p))
                * np.conj(gaussian_exp(jb, p.N)) * fourier_kernel(jb, wkp.mu - x, p.N))

    right = np.exp(-4 * np.pi * cos * ch.c + 4j * np.pi * rN * (wkp.mu.x - x.x - y0))
    left = np.exp(-4 * np.pi * cos * ch.b - 4j * np.pi * rN * (wkp.mu.x - x.x))
    for k, step, ratio in ((k1 + 1 + 20 * N, 2 * N, right), (k0 - 1 - 20 * N, -2 * N, left)):
        assert summand(k + step) / summand(k) == pytest.approx(ratio, rel=1e-10)


@pytest.mark.parametrize("side", [0, -1], ids=["left", "right"])
def test_b_sum_refuses_a_tail_that_is_not_geometric(side, monkeypatch):
    # the outermost D_theta entry of one side lowered by 50: log F psi there rises by
    # 50, so the ratio read one period in has modulus above 1, and the tail's closed
    # form is refused, not summed, with no numpy warning on the way
    real = qdlab.charged._dtheta_rows

    def grown(*args):
        ks, log_d = real(*args)
        log_d[:, side] -= 50
        return ks, log_d

    monkeypatch.setattr(qdlab.charged, "_dtheta_rows", grown)
    wkp = WeightKernelParams(ChargeTriple(0.4, 0.35, 0.25), params(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonConvergent, match="tail not geometric"):
            weight_kernel(wkp, LcaPoint(0.1, 0), LcaPoint(0.2, 1))


def test_b_sum_refuses_a_nan_x():
    # a NaN x reaches no q-product, only the phases, so the B-sum is the first to see
    # it, and refuses it before any arithmetic on it could make numpy warn
    wkp = WeightKernelParams(ChargeTriple(0.4, 0.35, 0.25), params(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonConvergent, match="B-sum not finite"):
            weight_kernel_rows(wkp, 0.2, 1)(np.nan, 0)


def test_weight_kernel_pairs_match_single_pairs(rng, monkeypatch):
    # one batch over kernels of two values of b + c (two distinct charge triples share
    # 0.6), at N = 2 and 3, with repeated kernels and every residue, equals the kernels
    # one pair at a time.  D_theta is one call per N and b + c; each pair keeps its own
    # row, whose band is the union of its group's, so only rounding differs
    kernels = [WeightKernelParams(ch, params(N), LcaPoint(0.3, 1)) for N in (2, 3)
               for ch in (ChargeTriple(0.4, 0.35, 0.25), ChargeTriple(0.4, 0.25, 0.35),
                          ChargeTriple(0.2, 0.45, 0.35))]
    wkps = [kernels[i] for i in rng.integers(0, len(kernels), 24)]
    xs, ys = ([LcaPoint(float(rng.uniform(-1, 1)), int(rng.integers(0, w.params.N.N)))
               for w in wkps] for _ in range(2))
    seen = _record_z(monkeypatch)
    batch = weight_kernel_pairs(wkps, xs, ys)
    assert len(seen["log_dtheta"]) == 4
    assert sum(len(z) for z in seen["log_dtheta"]) == 24
    for w, x, y, value in zip(wkps, xs, ys, batch):
        assert value == pytest.approx(weight_kernel(w, x, y), rel=1e-13)
    # a non-finite x in one pair is refused for the batch, as for the pair alone
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonConvergent, match="B-sum not finite"):
            weight_kernel_pairs(wkps[:2], [xs[0], LcaPoint(np.nan, 0)], ys[:2])


@pytest.mark.parametrize("x, y, text", [
    (0.1, 4e15, "shift index, about sqrt(N) |y|, reaches 2^52 at y = 4000000000000000.0"),
    (np.array([0.1, -2e15]), 0.2, "reaches 2^52 at x = -2000000000000000.0"),
    (0.1, np.array([0.2, 1e16]), "reaches 2^52 at y = 1e+16"),
], ids=["y", "x-array", "y-array"])
def test_kernel_point_that_keeps_no_fractional_bit_is_refused(x, y, text):
    # the shift indices of the sum sit near -sqrt(N) y, and its phases reach
    # |k - yn| (|x| + |mu_x|)/sqrt(N) turns: from 2^52 a float keeps no fractional bit
    wkp = WeightKernelParams(ChargeTriple(0.4, 0.35, 0.25), params(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=re.escape(text)):
            xr, xn, yr, yn = np.broadcast_arrays(x, 0, y, 0)
            weight_kernel_rows(wkp, yr, yn)(xr, xn)
        # below those sizes the kernel is evaluated
        assert np.isfinite(weight_kernel_rows(wkp, 1e3, 0)(1e3, 0))


def _grid_entries(wkp, grid, a0, q0, M, us, ws):
    """The entries of a whole-block grid from blocks a0 and q0 on at indices (us, ws),
    and the pointwise kernel there, each as an array."""
    h = wkp.params.N.sqrt / M
    us, ws = np.asarray(us), np.asarray(ws)
    xr, xn, yr, yn = np.broadcast_arrays(us * h, 0, ws * h, 0)
    return grid[ws - q0 * M, us - a0 * M], weight_kernel_rows(wkp, yr, yn)(xr, xn)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_weight_kernel_grid_on_sparse_indices(N):
    # blocks outside the core come from the automorphy relations; the rows
    # w = -40 and 61 lie an odd number q of periods out, so both the sign
    # (-1)^(N q) (N odd) and the mu_x phase of lambda(u)^q are exercised
    p = params(N)
    M = 16
    us, ws = np.array([-7, 0, 3]), np.array([-40, 2, 5, 61])
    for mu in (LcaPoint(0.0, 0), LcaPoint(0.3, 1)):
        wkp = WeightKernelParams(ChargeTriple(0.4, 0.35, 0.25), p, mu)
        grid = weight_kernel_grid(wkp, weight_kernel_cores([wkp], M)[0], range(-1, 1),
                                  range(-3, 4))
        assert grid.shape == (7 * M, 2 * M)
        got, expect = _grid_entries(wkp, grid, -1, -3, M, us[None, :], ws[:, None])
        assert got == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("M", [12, 13])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_weight_kernel_grid_spans_periods(N, M):
    # blocks two periods and more out on both sides; odd M, and N that does not
    # divide M, included.  Every block (q, a), negative blocks included, is checked at
    # its corners and at one random entry.  The same blocks read from a smaller
    # range of blocks agree bit for bit.
    p = params(N)
    blocks = range(-3, 3)
    rng = np.random.default_rng(1000 * N + M)
    for mu in (LcaPoint(0.0, 0), LcaPoint(0.3, 1)):
        wkp = WeightKernelParams(ChargeTriple(0.4, 0.35, 0.25), p, mu)
        core = weight_kernel_cores([wkp], M)[0]
        grid = weight_kernel_grid(wkp, core, blocks, blocks)
        assert grid.shape == (6 * M, 6 * M)
        np.testing.assert_array_equal(weight_kernel_grid(wkp, core, range(-1, 1), range(1, 3)),
                                      grid[4 * M:, 2 * M:4 * M])
        # per block: its four corners and one random entry, at u = aM + u0, w = qM + w0
        q, a = (b.ravel() * M for b in np.meshgrid(blocks, blocks, indexing="ij"))
        u0, w0 = (np.hstack([np.tile(c, (len(q), 1)), rng.integers(0, M, (len(q), 1))])
                  for c in ([0, 0, M - 1, M - 1], [0, M - 1, 0, M - 1]))
        got, expect = _grid_entries(wkp, grid, blocks[0], blocks[0], M,
                                    a[:, None] + u0, q[:, None] + w0)
        assert got == pytest.approx(expect, rel=1e-12)


def test_pentagon_family_matches_transform():
    p = params(2)
    ch = ChargeTriple(0.5, 0.2, 0.3)
    xs = np.array([0.3, -0.8])
    vals = pentagon_family(ch, xs, 1, p)
    expect = np.conj(
        pentagon_normalization(ch, p) * forward_transform_closed(ch, -xs, (-1) % 2, p)
    )
    assert np.max(np.abs(vals - expect)) < 1e-14
