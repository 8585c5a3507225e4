"""Exact Ptolemy-groupoid coordinate algebra over Gaussian rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdlab.errors import DegenerateFlip, DegenerateQuad
from qdlab.groupoid import (
    GaussianRational,
    RatioPoint,
    corner_change,
    corner_form_check,
    flip,
    form_preservation_check,
    lambda_ratio_points,
    ptolemy,
    random_point,
    verify_inversion_exact,
    verify_pentagon_exact,
)

G = GaussianRational.of
ONE = G(1)


def pt(a, b, c=0, d=0):
    return RatioPoint(GaussianRational.of(a, c), GaussianRational.of(b, d))


nonzero_fracs = st.fractions(min_value=-9, max_value=9).filter(lambda f: f != 0)
gaussians = st.builds(
    GaussianRational,
    st.fractions(min_value=-9, max_value=9),
    st.fractions(min_value=-9, max_value=9),
).filter(lambda g: not g.is_zero)
ratio_points = st.builds(RatioPoint, gaussians, gaussians)


def test_flip_hand_example():
    x, y = pt(1, 1), pt(1, 1)
    xd, ys = flip(x, y)
    assert xd == pt(1, 2)
    half = G(Fraction(1, 2))
    assert ys == RatioPoint(half, half)


def test_flip_degenerate():
    with pytest.raises(DegenerateFlip):
        flip(pt(1, -1), pt(1, 1))  # denominator 1*1 + (-1) = 0


def test_ratio_point_invariants():
    with pytest.raises(ValueError):
        RatioPoint(G(0), G(1))


def test_corner_change_examples():
    assert corner_change(pt(1, 1)) == pt(1, 1)
    a = pt(2, 3)
    b = corner_change(a)
    assert b == RatioPoint(G(Fraction(3, 2)), G(Fraction(1, 2)))
    c = corner_change(b)
    assert c == RatioPoint(G(Fraction(1, 3)), G(Fraction(2, 3)))
    assert corner_change(c) == a


@settings(max_examples=80, deadline=None)
@given(ratio_points)
def test_corner_change_cubed(x):
    assert corner_change(corner_change(corner_change(x))) == x


@settings(max_examples=60, deadline=None)
@given(ratio_points)
def test_corner_change_conjugation(x):
    def conj(p):
        return RatioPoint(G(p.x1.re, -p.x1.im), G(p.x2.re, -p.x2.im))

    assert corner_change(conj(x)) == conj(corner_change(x))


def test_ptolemy_examples():
    one = G(1)
    assert ptolemy(one, one, one, one, one) == G(2)
    with pytest.raises(DegenerateQuad):
        ptolemy(one, one, one, G(-1), one)


def test_zero_diagonal_is_a_division_by_zero():
    # a quadrilateral whose pre-flip diagonal lambda is 0 has no ratio points
    with pytest.raises(ZeroDivisionError, match="division by zero Gaussian rational"):
        lambda_ratio_points(G(1), G(2), G(3), G(4), G(0))


def test_lambda_flip_consistency(rng):
    done = 0
    while done < 20:
        vals = []
        while len(vals) < 5:
            g = GaussianRational(
                Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4))),
                Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4))),
            )
            if not g.is_zero:
                vals.append(g)
        try:
            (x, y), (xp, yp) = lambda_ratio_points(*vals)
            fx, fy = flip(x, y)
        except (DegenerateQuad, DegenerateFlip, ValueError, ZeroDivisionError):
            continue
        assert fx == xp and fy == yp
        done += 1


def test_pentagon_exact(rng):
    samples = [tuple(random_point(rng) for _ in range(3)) for _ in range(100)]
    rep = verify_pentagon_exact(samples)
    assert rep["pass"] and rep["checked"] >= 95


def test_inversion_exact(rng):
    samples = [tuple(random_point(rng) for _ in range(2)) for _ in range(100)]
    rep = verify_inversion_exact(samples)
    assert rep["pass"] and rep["checked"] >= 95


@pytest.mark.parametrize("check,size", [(verify_pentagon_exact, 3), (verify_inversion_exact, 2)],
                         ids=["pentagon", "inversion"])
def test_degenerate_sample_is_skipped_and_counted(check, size):
    # x = (1, 1), y = (1, -1): x1 y2 + x2 = 0, so the first flip of the sample has no
    # denominator; it is skipped and counted, and the positive samples around it,
    # whose flips stay positive, are checked
    degenerate = (pt(1, 1), pt(1, -1), pt(2, 3))[:size]
    positive = (pt(1, 2), pt(3, 5), pt(7, 11))[:size]
    assert check([positive, degenerate, positive]) == {"checked": 2, "skipped": 1,
                                                       "pass": True, "witness": None}


@pytest.mark.parametrize("check,size", [(verify_pentagon_exact, 3), (verify_inversion_exact, 2)],
                         ids=["pentagon", "inversion"])
def test_relation_check_runs_the_real_flip(check, size, rng, monkeypatch):
    # a sign error in the flip must fail both relations: the checks apply flip itself
    from qdlab import groupoid

    def bad_flip(x, y):
        den = x.x1 * y.x2 + x.x2
        return RatioPoint(-(x.x1 * y.x1), den), RatioPoint(y.x1 * x.x2 / den, y.x2 / den)

    monkeypatch.setattr(groupoid, "flip", bad_flip)
    samples = [tuple(random_point(rng) for _ in range(size)) for _ in range(10)]
    assert check(samples)["pass"] is False


def test_form_preservation(rng):
    samples = [tuple(random_point(rng) for _ in range(2)) for _ in range(50)]
    rep = form_preservation_check(samples)
    assert rep["pass"] and rep["checked"] >= 45


def test_corner_form_preservation(rng):
    rep = corner_form_check([random_point(rng) for _ in range(30)])
    assert rep["pass"]


def test_form_check_runs_the_real_flip(rng, monkeypatch):
    # a flip with a wrong y-component must fail: the check applies flip itself
    from qdlab import groupoid

    def bad_flip(x, y):
        xd, ys = flip(x, y)
        return xd, RatioPoint(ys.x1, ys.x2 * ys.x2)

    monkeypatch.setattr(groupoid, "flip", bad_flip)
    pairs = [tuple(random_point(rng) for _ in range(2)) for _ in range(10)]
    assert form_preservation_check(pairs)["pass"] is False


def test_corner_form_check_runs_the_real_corner_change(rng, monkeypatch):
    from qdlab import groupoid

    def bad_corner(x):
        return RatioPoint(corner_change(x).x1, ONE / (x.x1 * x.x1))

    monkeypatch.setattr(groupoid, "corner_change", bad_corner)
    assert corner_form_check([random_point(rng) for _ in range(10)])["pass"] is False


def test_identity_map_preserves_form():
    rep = form_preservation_check([])
    assert rep["pass"] and rep["checked"] == 0
