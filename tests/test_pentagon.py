"""Five-term identities: charge transfer, beta pentagon over A/B, eq of Faddeev type."""

import numpy as np
import pytest
from conftest import params

from qdlab.charged import ChargeTriple
from qdlab.errors import Infeasible
from qdlab.lca import LcaPoint, QuadratureSpec
from qdlab.pentagon import (
    PentagonCharges,
    check_charged_beta_pentagon,
    check_faddeev_type,
    pentagon_residuals,
    solve_pentagon_charges,
)

EQUAL = ChargeTriple.equal()
T3 = ChargeTriple(0.4, 0.25, 0.35)


def test_solve_equal_charges_exact():
    q = solve_pentagon_charges(EQUAL, EQUAL)
    assert pentagon_residuals(q) < 1e-15
    # midpoint of the feasibility interval (0, 1/3)
    assert q[0].a == pytest.approx(1 / 6)


def test_solve_degenerate_rejected():
    # free = a1 forces a2 = 0, violating positivity
    with pytest.raises(Infeasible):
        solve_pentagon_charges(EQUAL, EQUAL, free=1 / 3)


def test_free_parameter_at_the_rounding_edge_is_refused():
    # a0 = 5e-324 lies inside the interval (0, 0.25), but a4 = t3.a - (t1.a - a0)
    # rounds to 0, so the charge triple q4 is refused as not strictly positive
    t1 = ChargeTriple(0.3, 1 - 0.3 - 0.35, 0.35)
    t3 = ChargeTriple(0.3, 1 - 0.3 - 0.25, 0.25)
    with pytest.raises(Infeasible, match="strictly positive"):
        solve_pentagon_charges(t1, t3, free=5e-324)


def test_pentagon_charges_need_five_triples():
    with pytest.raises(ValueError, match="need five charge triples"):
        PentagonCharges(tuple(solve_pentagon_charges(EQUAL, EQUAL))[:4])


def test_solve_float_round_trip():
    q = solve_pentagon_charges(ChargeTriple(0.41, 0.27, 0.32), T3, free=0.2)
    rebuilt = [ChargeTriple(float(c.a), float(c.b), float(c.c)) for c in q]
    assert pentagon_residuals(rebuilt) < 1e-15


def test_pentagon_charges_validation():
    with pytest.raises(Infeasible):
        PentagonCharges((EQUAL,) * 5)


def _samples(rng, N, count, even=True):
    step = 2 if (even and N % 2 == 0) else 1
    return [
        tuple(
            LcaPoint(rng.uniform(-0.8, 0.8), (step * int(rng.integers(0, N))) % N)
            for _ in range(4)
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize("N", [1, 2])
def test_beta_pentagon(N, rng):
    p = params(N)
    pc = PentagonCharges.solve(EQUAL, T3)
    rep = check_charged_beta_pentagon(pc, _samples(rng, N, 5), p, QuadratureSpec(M=256))
    assert rep["max_residual"] < 1e-4
    if N % 2 == 1:
        assert rep["integrand_b_shift_defect"] < 1e-9


def test_beta_pentagon_odd_N_shift_invariance(rng):
    p = params(3)
    pc = PentagonCharges.solve(EQUAL, T3)
    rep = check_charged_beta_pentagon(pc, _samples(rng, 3, 2), p, QuadratureSpec(M=128))
    assert rep["max_residual"] < 1e-6
    assert rep["integrand_b_shift_defect"] < 1e-9


def test_beta_pentagon_offsets(rng):
    # mu offsets only move automorphy; the identity holds for any alpha, beta
    p = params(1)
    pc = PentagonCharges.solve(
        EQUAL, T3, alpha=LcaPoint(0.31, 0), beta=LcaPoint(-0.17, 0)
    )
    rep = check_charged_beta_pentagon(pc, _samples(rng, 1, 3), p, QuadratureSpec(M=256))
    assert rep["max_residual"] < 1e-4


def test_beta_pentagon_grid_refinement(rng):
    p = params(1)
    pc = PentagonCharges.solve(EQUAL, T3)
    sams = _samples(rng, 1, 2)
    res = [
        check_charged_beta_pentagon(pc, sams, p, QuadratureSpec(M=M))["max_residual"]
        for M in (8, 16, 256)
    ]
    assert res[2] <= res[1] <= res[0]
    assert res[2] < 1e-4


def _pair_samples(rng, N, count):
    return [
        (
            LcaPoint(rng.uniform(-0.6, 0.6), int(rng.integers(0, N))),
            LcaPoint(rng.uniform(-0.6, 0.6), int(rng.integers(0, N))),
        )
        for _ in range(count)
    ]


@pytest.mark.parametrize("N", [1, 2])
def test_faddeev_type(N, rng):
    p = params(N)
    pc = PentagonCharges.solve(EQUAL, T3)
    rep = check_faddeev_type(pc, _pair_samples(rng, N, 3), p)
    assert rep["max_residual"] < 1e-4


def test_faddeev_type_negative_control(rng):
    # plain Gaussians are not of the Faddeev type
    p = params(1)
    pc = PentagonCharges.solve(EQUAL, T3)
    gauss = [lambda xr, n: np.exp(-np.pi * np.asarray(xr) ** 2) + 0j] * 5
    rep = check_faddeev_type(pc, _pair_samples(rng, 1, 2), p, family=gauss)
    assert rep["max_residual"] > 1e-2


def test_faddeev_type_keeps_nan(rng):
    # a NaN left side at the second sample must reach max_residual
    calls = []

    def gauss(xr, n):
        return np.exp(-np.pi * np.asarray(xr) ** 2) + 0j

    def nan_after_first(xr, n):  # family[1] is called once per sample
        calls.append(xr)
        return gauss(xr, n) * (1.0 if len(calls) == 1 else np.nan)

    family = [gauss, nan_after_first, gauss, gauss, gauss]
    rep = check_faddeev_type(PentagonCharges.solve(EQUAL, T3), _pair_samples(rng, 1, 2),
                             params(1), family=family)
    assert np.isnan(rep["max_residual"])


def test_beta_pentagon_keeps_nan(rng, monkeypatch):
    # kernel values turn NaN after the first sample's integrand, whose kernels read the
    # first three sets of rows: W_2's, shared by every sample, then W_4's and W_0's
    from qdlab import pentagon

    real, calls = pentagon.weight_kernel_rows, []

    def rows(*args):
        calls.append(args)
        W = real(*args)
        return W if len(calls) <= 3 else (lambda *a: W(*a) * np.nan)

    monkeypatch.setattr(pentagon, "weight_kernel_rows", rows)
    rep = check_charged_beta_pentagon(PentagonCharges.solve(EQUAL, T3), _samples(rng, 1, 2),
                                      params(1), QuadratureSpec(M=32))
    assert np.isnan(rep["max_residual"])


def test_beta_pentagon_evaluates_f_psi_once_per_kernel_and_y_set(rng, monkeypatch):
    # W_2's rows of F psi serve every sample; W_4's and W_0's serve their sample and,
    # at the first, the B-shifted integrand.  So S samples at M points cost (2S + 1) M
    # rows, plus one row for each of the two left-side kernels of a sample
    from qdlab import charged

    real, rows = charged.log_forward_transform, []

    def counted(charges, z, *args):
        rows.append(np.shape(z)[0])
        return real(charges, z, *args)

    monkeypatch.setattr(charged, "log_forward_transform", counted)
    S, M = 3, 32
    check_charged_beta_pentagon(PentagonCharges.solve(EQUAL, T3), _samples(rng, 2, S),
                                params(2), QuadratureSpec(M=M))
    assert sum(rows) == (2 * S + 1) * M + 2 * S
