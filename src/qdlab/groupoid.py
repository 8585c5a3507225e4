"""Exact-arithmetic ratio-coordinate calculus on decorated ideal triangulations.

Ratio coordinates assign each decorated triangle a pair of nonzero complex
numbers.  The diagonal flip acts on the two triangles of a quadrilateral by

    x' = x . y = (x1 y1, x1 y2 + x2),
    y' = x * y = (y1 x2 / (x1 y2 + x2), y2 / (x1 y2 + x2)),

and the distinguished-corner change by rho(x) = (x2/x1, 1/x1), with
rho^3 = id.  (The first component multiplies the first coordinates; the
equivalent birational map in operator coordinates reads w1 = u1 u2,
z1 = u1 v2 + v1.  Only this version satisfies the pentagon and inversion
relations and preserves the canonical two-form, all of which are enforced
exactly by the tests.)  Everything here runs over Gaussian rationals (exact complex
numbers with Fraction parts), so the groupoid relations are checked as exact
identities at random sample points; by rationality of the maps, generic
agreement is equivalent to the identity of rational functions.

Decoration conventions match the flip figure: in omega_{ij} the triangle
carrying i sits on the left of the quadrilateral (corner at the left vertex)
and j on the right (corner at the bottom); after the flip i is on top and j
below:

        *\\--------+                +--------+
        | \\   i   |   omega_ij     |   i   /|
        |  \\      |   ------->     |  ..  / |
        |   \\     |                | .   /  |
        |  x \\  y |                | x' / y'|
        |     \\   |                |   /    |
        |      \\  |                |  /     |
        +-------\\*|                |*/------+

The pentagon relation composes flips left to right:
omega_ij then omega_ik then omega_jk equals omega_jk then omega_ij; the
inversion relation composes omega_ij, rho_i, omega_ji against the
transposition (ij) followed by rho_j then rho_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateFlip, DegenerateQuad

__all__ = [
    "GaussianRational",
    "RatioPoint",
    "flip",
    "corner_change",
    "ptolemy",
    "lambda_ratio_points",
    "verify_pentagon_exact",
    "verify_inversion_exact",
    "form_preservation_check",
    "corner_form_check",
    "random_point",
]


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, o):
        return GaussianRational(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, o):
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    def __truediv__(self, o):
        if not isinstance(o, GaussianRational):
            return NotImplemented  # a constant over a _Jet
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


ZERO = GaussianRational.of(0)
ONE = GaussianRational.of(1)


@dataclass(frozen=True)
class RatioPoint:
    """A pair of nonzero Gaussian rationals (x1, x2)."""

    x1: GaussianRational
    x2: GaussianRational

    def __post_init__(self):
        if self.x1.is_zero or self.x2.is_zero:
            raise ValueError("ratio coordinates must be nonzero")


def flip(x: RatioPoint, y: RatioPoint) -> tuple[RatioPoint, RatioPoint]:
    """The diagonal flip (x, y) -> (x.y, x*y).  Exact."""
    den = x.x1 * y.x2 + x.x2
    if den.is_zero:
        raise DegenerateFlip("flip denominator x1 y2 + x2 vanishes")
    xd = RatioPoint(x.x1 * y.x1, den)
    ys = RatioPoint(y.x1 * x.x2 / den, y.x2 / den)
    return xd, ys


def corner_change(x: RatioPoint) -> RatioPoint:
    """rho(x) = (x2/x1, 1/x1); applying three times is the identity."""
    return RatioPoint(x.x2 / x.x1, ONE / x.x1)


def ptolemy(
    a: GaussianRational,
    b: GaussianRational,
    c: GaussianRational,
    d: GaussianRational,
    lam: GaussianRational,
) -> GaussianRational:
    """The flipped diagonal lambda'(d') = (ac + bd)/lambda(d)."""
    num = a * c + b * d
    if num.is_zero:
        raise DegenerateQuad("ac + bd = 0: flipped Ptolemy coordinate vanishes")
    return num / lam


def lambda_ratio_points(p, q, r, s, lam):
    """Ratio points of a flip quadrilateral from its lambda-coordinates.

    The quadrilateral has consecutive sides p, q, r, s (so the diagonals
    satisfy lam * lam' = p r + q s) and pre-flip diagonal lam.  With the
    distinguished corners of the flip figure, the pre-flip triangles carry

        x = (p/lam, s/lam),        y = (lam/q, r/q),

    and the post-flip triangles

        x' = (p/q, lam'/q),        y' = (s/lam', r/lam').

    This is the unique per-triangle assignment under which the ratio-map flip
    reproduces the Ptolemy exchange identically; returns ((x, y), (x', y')).
    """
    lam2 = ptolemy(p, q, r, s, lam)
    x = RatioPoint(p / lam, s / lam)
    y = RatioPoint(lam / q, r / q)
    xp = RatioPoint(p / q, lam2 / q)
    yp = RatioPoint(s / lam2, r / lam2)
    return (x, y), (xp, yp)


def random_point(rng) -> RatioPoint:
    """Random nonzero Gaussian-rational ratio point: numerators in [-8, 8], denominators 1..4."""

    def nz():
        while True:
            re = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 5)))
            im = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 5)))
            g = GaussianRational(re, im)
            if not g.is_zero:
                return g

    return RatioPoint(nz(), nz())


def _exact_report(same, samples) -> dict:
    """Check the exact relation same(sample) on each sample.

    Samples on which same raises DegenerateFlip are skipped and counted; the
    first sample on which it is False is the witness.  Returns
    {"checked", "skipped", "pass", "witness"}.
    """
    checked = skipped = 0
    for sample in samples:
        try:
            ok = same(sample)
        except DegenerateFlip:
            skipped += 1
            continue
        checked += 1
        if not ok:
            return {"checked": checked, "skipped": skipped, "pass": False,
                    "witness": tuple(sample)}
    return {"checked": checked, "skipped": skipped, "pass": True, "witness": None}


def _pentagon(sample) -> bool:
    """omega_ij ; omega_ik ; omega_jk  ==  omega_jk ; omega_ij on (x_i, x_j, x_k)."""
    xi, xj, xk = sample
    li, lj = flip(xi, xj)
    li, lk = flip(li, xk)
    lj, lk = flip(lj, lk)
    rj, rk = flip(xj, xk)
    ri, rj = flip(xi, rj)
    return (li, lj, lk) == (ri, rj, rk)


def _inversion(sample) -> bool:
    """omega_ij ; rho_i ; omega_ji  ==  (ij) ; rho_j ; rho_i on (x_i, x_j)."""
    xi, xj = sample
    li, lj = flip(xi, xj)
    lj, li = flip(lj, corner_change(li))
    return (li, lj) == (corner_change(xj), corner_change(xi))


def verify_pentagon_exact(samples) -> dict:
    """Exact pentagon check on triples: the flip sequences
    omega_ij, omega_ik, omega_jk and omega_jk, omega_ij agree identically.

    samples: iterable of (x_i, x_j, x_k) RatioPoint triples.  Degenerate
    samples (vanishing flip denominators) are skipped and counted.  Returns
    {"checked", "skipped", "pass", "witness"}.
    """
    return _exact_report(_pentagon, samples)


def verify_inversion_exact(samples) -> dict:
    """Exact check of the inversion relation

        omega_ij ; rho_i ; omega_ji  ==  (ij) ; rho_j ; rho_i

    on pairs (x_i, x_j); same reporting convention as the pentagon check."""
    return _exact_report(_inversion, samples)


class _Jet:
    """First-order jet over Gaussian rationals in n directions (exact).

    It has the arithmetic that flip and corner_change use, so the real moves
    run on jets and their derivatives come out exact.
    """

    __slots__ = ("val", "d")

    def __init__(self, val: GaussianRational, d: tuple):
        self.val = val
        self.d = tuple(d)

    @classmethod
    def var(cls, val, n, slot):
        d = [ZERO] * n
        d[slot] = ONE
        return cls(val, d)

    @property
    def is_zero(self) -> bool:
        return self.val.is_zero

    def __add__(self, o):
        return _Jet(self.val + o.val, [a + b for a, b in zip(self.d, o.d)])

    def __mul__(self, o):
        return _Jet(
            self.val * o.val,
            [self.val * db + da * o.val for da, db in zip(self.d, o.d)],
        )

    def __truediv__(self, o):
        val = self.val / o.val
        return _Jet(
            val, [(da - val * db) / o.val for da, db in zip(self.d, o.d)]
        )

    def __rtruediv__(self, c: GaussianRational):
        return _Jet(c, [ZERO] * len(self.d)) / self


def _two_form_coeffs(points) -> dict:
    """Coefficients of dz_a ^ dz_b of sum_t dx1^dx2/(x1 x2) pulled back.

    points: RatioPoints of _Jet over n base directions.  Returns a dict
    {(a, b): coeff} for a < b.
    """
    n = len(points[0].x1.d)
    out = {}
    for p in points:
        inv = ONE / (p.x1.val * p.x2.val)
        for a_ in range(n):
            for b_ in range(a_ + 1, n):
                c = (p.x1.d[a_] * p.x2.d[b_] - p.x1.d[b_] * p.x2.d[a_]) * inv
                key = (a_, b_)
                out[key] = out.get(key, ZERO) + c
    return out


def _preserves_form(move):
    """The exact relation: move preserves sum_t dx1^dx2/(x1 x2) over its triangles.

    The relation takes a tuple of RatioPoints.  move runs on first-order jets
    in their coordinates, and the pulled-back two-form of its image must
    equal the input form coefficient by coefficient.
    """
    def same(sample) -> bool:
        vals = [v for p in sample for v in (p.x1, p.x2)]
        jets = [_Jet.var(v, len(vals), i) for i, v in enumerate(vals)]
        points = [RatioPoint(*jets[i:i + 2]) for i in range(0, len(jets), 2)]
        image = move(*points)
        return _two_form_coeffs(points) == _two_form_coeffs(image)

    return same


def form_preservation_check(samples) -> dict:
    """Exact check that flip preserves dx1^dx2/(x1 x2) + dy1^dy2/(y1 y2) on pairs (x, y)."""
    return _exact_report(_preserves_form(flip), samples)


def corner_form_check(samples) -> dict:
    """Exact check that corner_change preserves dx1^dx2/(x1 x2); samples are RatioPoints."""
    return _exact_report(_preserves_form(lambda x: (corner_change(x),)), [(x,) for x in samples])
