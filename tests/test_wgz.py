"""Weil-Gel'fand-Zak transform: round trip, quasi-periodicity, operators."""

import numpy as np
import pytest

from qdlab.errors import DecayViolation, LevelMismatch
from qdlab.wgz import (
    OperatorWord,
    TestVector,
    commutation_phase,
    conjugated_operator,
    gauss_poly_vector,
    operator_closed_form,
    quasi_periodicity_residual,
    wgz_forward,
    wgz_forward_at,
    wgz_inverse,
)


def vec(k: int) -> TestVector:
    rows = [[0.4 * (j + 1), 0.1 * j, 1.0][: j + 2] for j in range(k)]
    return gauss_poly_vector(rows)


def b_of(k: int) -> complex:
    return complex(np.sqrt((k + 0.7j) / 2))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_round_trip(k):
    f = vec(k)
    M = 240
    s = wgz_forward(f, k, M)
    us = np.arange(-M // 3, M // 3) / M
    rec = wgz_inverse(s, k, us)
    orig = np.array([f(j, us) for j in range(k)])
    assert np.max(np.abs(rec - orig)) < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_quasi_periodicity(k):
    assert quasi_periodicity_residual(vec(k), k, 32) < 1e-10


def test_forward_inverse_forward_consistency():
    # forward of the recovered vector reproduces the section grid values
    k, M = 2, 120
    f = vec(k)
    s = wgz_forward(f, k, M)
    us = np.arange(M) / M
    rec = wgz_inverse(s, k, us)
    # compare on the grid itself
    g = np.array([rec[j] for j in range(k)])
    orig = np.array([f(j, us) for j in range(k)])
    assert np.max(np.abs(g - orig)) < 1e-9


def test_zero_vector_maps_to_zero_section():
    k = 2
    f = TestVector((lambda x: 0.0 * np.asarray(x), lambda x: 0.0 * np.asarray(x)))
    s = wgz_forward(f, k, 60)
    assert np.max(np.abs(s)) == 0.0


def test_linearity(rng):
    k, M = 2, 60
    f = vec(k)
    g = gauss_poly_vector([[1.0], [0.3, 0.5]])
    a, b = 1.3 - 0.2j, -0.7 + 0.1j
    combo = TestVector(
        tuple(
            (lambda j: (lambda x: a * f(j, x) + b * g(j, x)))(j) for j in range(k)
        )
    )
    lhs = wgz_forward(combo, k, M)
    rhs = a * wgz_forward(f, k, M) + b * wgz_forward(g, k, M)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_decay_violation():
    with pytest.raises(DecayViolation):
        TestVector((lambda x: np.ones_like(np.asarray(x, dtype=float)),))


def test_level_mismatch():
    with pytest.raises(LevelMismatch):
        conjugated_operator("U", b_of(3), vec(2), 2)
    with pytest.raises(LevelMismatch):
        wgz_forward_at(vec(2), 3, [0.0], [0.0])


def test_inverse_requires_divisible_grid():
    from qdlab.errors import QuasiPeriodicityViolation

    s = wgz_forward(vec(3), 3, 240)
    with pytest.raises(QuasiPeriodicityViolation):
        wgz_inverse(s[:100, :100], 3, [0.0])


def test_vt_power_is_identity_exactly():
    k = 3
    f = vec(k)
    g = f
    for _ in range(k):
        g = conjugated_operator("Vt", b_of(k), g, k)
    us = np.linspace(-1.0, 1.0, 9)
    for j in range(k):
        assert np.array_equal(np.asarray(f(j, us)), np.asarray(g(j, us)))


def test_v_power_shifts_by_one():
    k = 3
    f = vec(k)
    g = f
    for _ in range(k):
        g = conjugated_operator("V", b_of(k), g, k)
    us = np.linspace(-1.0, 1.0, 9)
    for j in range(k):
        assert np.max(np.abs(np.asarray(g(j, us)) - np.asarray(f(j, us + 1)))) < 1e-12


def test_uv_commutation_phase():
    k = 2
    b = b_of(k)
    ph = commutation_phase("U", "V", b, k)
    assert abs(ph - np.exp(-2j * np.pi / (b * b))) < 1e-12
    f = vec(k)
    us = np.linspace(-1.0, 1.0, 9)
    UV = conjugated_operator("U", b, conjugated_operator("V", b, f, k), k)
    VU = conjugated_operator("V", b, conjugated_operator("U", b, f, k), k)
    for j in range(k):
        assert np.max(np.abs(np.asarray(UV(j, us)) - ph * np.asarray(VU(j, us)))) < 1e-12


@pytest.mark.parametrize("pair", [("U", "Vt"), ("V", "Ut"), ("V", "Vt"), ("Ut", "Vt"), ("U", "Ut")])
def test_commutations_match_closed_forms(pair):
    # the word algebra predicts each commutation; numerics must agree with it,
    # including the pairs that fail to commute up to a constant
    k = 3
    b = b_of(k)
    f = vec(k)
    us = np.linspace(-0.8, 0.8, 7)
    A = operator_closed_form(pair[0], b, k)
    B = operator_closed_form(pair[1], b, k)
    word = A.compose(B)
    direct = conjugated_operator(pair[0], b, conjugated_operator(pair[1], b, f, k), k)
    predicted = word.apply(f)
    for j in range(k):
        assert np.max(np.abs(np.asarray(direct(j, us)) - np.asarray(predicted(j, us)))) < 1e-12
    try:
        ph = commutation_phase(*pair, b, k)
    except ValueError:
        # genuinely component-dependent: verify the numerics disagree too
        BA = conjugated_operator(pair[1], b, conjugated_operator(pair[0], b, f, k), k)
        ratios = []
        for j in range(k):
            va, vb = np.asarray(direct(j, us)), np.asarray(BA(j, us))
            ratios.append(va[3] / vb[3])
        assert max(abs(r - ratios[0]) for r in ratios) > 1e-6
    else:
        BA = conjugated_operator(pair[1], b, conjugated_operator(pair[0], b, f, k), k)
        for j in range(k):
            assert np.max(np.abs(np.asarray(direct(j, us)) - ph * np.asarray(BA(j, us)))) < 1e-12


def test_reported_pairs_commute_up_to_a_constant():
    # the four pairs of the wgz report have component-independent commutation
    # constants at every level k = 1..8 and b = sqrt((k + it)/2), t in [-5, 5];
    # (U, Ut) is component-dependent at k = 2 and is refused
    for k in range(1, 9):
        for t in np.linspace(-5, 5, 41):
            b = complex(np.sqrt((k + 1j * t) / 2))
            for pair in (("U", "V"), ("U", "Vt"), ("V", "Ut"), ("V", "Vt")):
                assert np.isfinite(commutation_phase(*pair, b, k))
    with pytest.raises(ValueError, match="component-dependent"):
        commutation_phase("U", "Ut", b_of(2), 2)


def test_operator_refusals():
    with pytest.raises(ValueError, match="unknown operator 'W'"):
        operator_closed_form("W", b_of(2), 2)
    with pytest.raises(LevelMismatch, match="levels differ"):
        OperatorWord(2).compose(OperatorWord(3))


def test_inverse_refuses_points_off_the_grid():
    k, M = 2, 40
    s = wgz_forward(vec(k), k, M)
    with pytest.raises(ValueError, match="section grid"):
        wgz_inverse(s, k, [0.5 / M])


def test_s_twisted_pairing_report():
    # the paper's isometry statement lacks a formula; measure the S-twisted
    # pairing of forward images against the plain component pairing and only
    # report the discrepancy (no assertion on its value)
    k, M = 2, 120
    f, g = vec(k), gauss_poly_vector([[1.0], [0.2, 0.7]])
    sf, sg = wgz_forward(f, k, M), wgz_forward(g, k, M)
    # (s1, s2) = int s1 conj(S s2), S(u, v) = (-v, u) on the grid
    Sg = np.empty_like(sg)
    for i in range(M):
        for j in range(M):
            Sg[i, j] = sg[(-j) % M, i]
    twisted = np.sum(sf * np.conj(Sg)) / M**2
    xs = np.linspace(-8, 8, 4001)
    plain = sum(np.trapezoid(f(j, xs) * np.conj(g(j, xs)), xs) for j in range(k))
    ratio = twisted / plain
    assert np.isfinite(ratio)
