"""The k-th order Weil-Gel'fand-Zak transform and its conjugated operators.

Forward, on C^k-valued Schwartz vectors f = (f_0, ..., f_{k-1}):

    W(f)(u, v) = e^{-k pi i u v} sum_{j<k} sum_{m in Z} f_j(u + m/k)
                 e^{-2 pi i m v} e^{2 pi i j u},

landing in the level-k quasi-periodic space

    s(u+1, v) = e^{pi i k v} s(u, v),      s(u, v+1) = e^{-pi i k u} s(u, v).

Inverse, recovering the components:

    f_j(u) = e^{-2 pi i j u} (1/k) sum_{j'<k} e^{2 pi i j j'/k}
             integral_0^1 s(u - j'/k, v) e^{k pi i (u - j'/k) v} e^{2 pi i j' v} dv.

The conjugated operator actions are implemented verbatim from their
componentwise closed forms; U multiplies by e^{2 pi i k b^{-2} u} and rotates
components up, V shifts u by 1/k, V-tilde is the bare rotation, and U-tilde
shifts by -conj(b)^{-2} - 1/k with the phase ladder e^{2 pi i conj(b)^{-2} j}
on component j (the paper's display stops at component k-2; we complete the
ladder cyclically through j = k-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecayViolation, LevelMismatch, QuasiPeriodicityViolation

__all__ = [
    "TestVector",
    "gauss_poly_vector",
    "wgz_forward",
    "wgz_forward_at",
    "quasi_periodicity_residual",
    "wgz_inverse",
    "conjugated_operator",
    "OperatorWord",
    "operator_closed_form",
    "commutation_phase",
]


@dataclass
class TestVector:
    """k rapidly decaying components, callable on complex arrays."""

    __test__ = False  # keep pytest from collecting this as a test class

    components: tuple
    window: float = 8.0

    def __post_init__(self):
        self.components = tuple(self.components)
        for j, f in enumerate(self.components):
            edge = max(abs(complex(f(self.window))), abs(complex(f(-self.window))))
            if edge > 1e-12:
                raise DecayViolation(
                    f"component {j} is {edge:.2e} at the window edge +-{self.window}"
                )

    @property
    def k(self) -> int:
        return len(self.components)

    def __call__(self, j: int, u):
        return self.components[j % self.k](u)


def gauss_poly_vector(coeff_rows) -> TestVector:
    """Components p_j(x) e^{-pi x^2} from rows of polynomial coefficients."""

    def make(coeffs):
        c = tuple(coeffs)
        return lambda x: np.polyval(c, np.asarray(x)) * np.exp(
            -np.pi * np.asarray(x) ** 2
        )

    return TestVector(tuple(make(row) for row in coeff_rows))


def _msum_range(k: int, window: float) -> int:
    return int(np.ceil(k * (window + 1.5)))


def wgz_forward_at(f: TestVector, k: int, us, vs):
    """W(f) on the rectangle us x vs (outer product grid)."""
    if f.k != k:
        raise LevelMismatch(f"vector has {f.k} components, level is {k}")
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    mmax = _msum_range(k, f.window)
    acc = np.zeros((len(us), len(vs)), dtype=complex)
    for j in range(k):
        for m in range(-mmax, mmax + 1):
            col = f(j, us + m / k) * np.exp(2j * np.pi * j * us)
            row = np.exp(-2j * np.pi * m * vs)
            acc += np.outer(col, row)
    return np.exp(-1j * np.pi * k * np.outer(us, vs)) * acc


def wgz_forward(f: TestVector, k: int, M: int) -> np.ndarray:
    """W(f) on the grid of [0,1)^2: an (M, M) array with [i, j] = W(f)(i/M, j/M)."""
    grid = np.arange(M) / M
    return wgz_forward_at(f, k, grid, grid)


def quasi_periodicity_residual(f: TestVector, k: int, n_samples: int = 64, seed: int = 0):
    """Max defect of both quasi-periodicity relations for the forward image."""
    rng = np.random.default_rng(seed)
    us = rng.uniform(0, 1, n_samples)
    vs = rng.uniform(0, 1, n_samples)
    s00 = np.diag(wgz_forward_at(f, k, us, vs))
    s10 = np.diag(wgz_forward_at(f, k, us + 1, vs))
    s01 = np.diag(wgz_forward_at(f, k, us, vs + 1))
    r1 = np.max(np.abs(s10 - np.exp(1j * np.pi * k * vs) * s00))
    r2 = np.max(np.abs(s01 - np.exp(-1j * np.pi * k * us) * s00))
    return float(max(r1, r2))


def wgz_inverse(s: np.ndarray, k: int, us) -> np.ndarray:
    """Components, shape (k, len(us)), from the (M, M) grid section s; needs k | M.

    us must lie on the grid 1/M Z (the section only carries grid data).  The
    rows at u - j'/k are read from [0, 1) by the quasi-periodic extension: v
    stays in [0, 1), so only the u-wrap phase e^{pi i k a v} appears.
    """
    M = len(s)
    if M % k != 0:
        raise QuasiPeriodicityViolation(f"grid M={M} must be divisible by k={k}")
    us = np.asarray(us, dtype=float)
    idx = np.rint(us * M).astype(int)
    if np.max(np.abs(idx / M - us)) > 1e-12:
        raise ValueError("evaluation points must lie on the section grid")
    vs = np.arange(M) / M
    integrals = np.empty((k, len(us)), dtype=complex)  # [j', u]
    for jp in range(k):
        a, i0 = np.divmod(idx - (M // k) * jp, M)
        # the wrap phase e^{pi i k a v} times the kernel's e^{k pi i (u - j'/k) v}
        phase = np.exp(1j * np.pi * k * np.outer(a + us - jp / k, vs))
        integrals[jp] = (s[i0] * phase * np.exp(2j * np.pi * jp * vs)).mean(axis=1)
    j = np.arange(k)
    dft = np.exp(2j * np.pi * np.outer(j, j) / k)
    return np.exp(-2j * np.pi * np.outer(j, us)) * (dft @ integrals) / k


def _check_level(b: complex, k: int) -> None:
    lvl = 2 * (b * b).real
    if not abs(lvl - k) <= 1e-9:  # NaN fails this comparison
        raise LevelMismatch(f"2 Re(b^2) = {lvl} but level k = {k}")


@dataclass(frozen=True)
class OperatorWord:
    """Closed form of a composition of the conjugated generators.

    Acts componentwise as (A f)_i(u) = consts[i] * e^{2 pi i alpha u}
    * f_{(i + rot) mod k}(u + shift).
    """

    k: int
    rot: int = 0
    shift: complex = 0.0
    alpha: complex = 0.0
    consts: tuple = None

    def __post_init__(self):
        if self.consts is None:
            object.__setattr__(self, "consts", (1.0 + 0j,) * self.k)

    def compose(self, other: "OperatorWord") -> "OperatorWord":
        """self applied after other: (self * other) f = self(other(f))."""
        if self.k != other.k:
            raise LevelMismatch("operator levels differ")
        consts = tuple(
            self.consts[i]
            * other.consts[(i + self.rot) % self.k]
            * np.exp(2j * np.pi * other.alpha * self.shift)
            for i in range(self.k)
        )
        return OperatorWord(
            self.k,
            rot=(self.rot + other.rot) % self.k,
            shift=self.shift + other.shift,
            alpha=self.alpha + other.alpha,
            consts=consts,
        )

    def apply(self, f: TestVector) -> TestVector:
        k = self.k
        comps = []
        for i in range(k):
            scale = self.consts[i]

            def comp(u, i=i, scale=scale):
                return (
                    scale
                    * np.exp(2j * np.pi * self.alpha * np.asarray(u))
                    * f((i + self.rot) % k, np.asarray(u) + self.shift)
                )

            comps.append(comp)
        return TestVector(tuple(comps), f.window - abs(self.shift) - 0.5)


def operator_closed_form(name: str, b: complex, k: int) -> OperatorWord:
    """The componentwise closed form of one conjugated generator."""
    _check_level(b, k)
    bb = complex(b) * complex(b)
    cb = np.conj(complex(b)) ** 2
    if name == "U":
        return OperatorWord(k, rot=1, alpha=k / bb)
    if name == "V":
        return OperatorWord(k, shift=1.0 / k)
    if name == "Ut":
        ladder = np.exp(2j * np.pi / cb)
        return OperatorWord(
            k, shift=-1 / cb - 1.0 / k, consts=tuple(ladder**i for i in range(k))
        )
    if name == "Vt":
        return OperatorWord(k, rot=1)
    raise ValueError(f"unknown operator {name!r}; use U, V, Ut, Vt")


def conjugated_operator(name: str, b: complex, f: TestVector, k: int) -> TestVector:
    """Apply one of U, V, Ut, Vt (conjugated by the level-k transform) to f."""
    return operator_closed_form(name, b, k).apply(f)


def commutation_phase(name1: str, name2: str, b: complex, k: int) -> complex:
    """Predicted constant with  A B = phase * B A, from the closed forms.

    The two compositions have the same rot, shift and alpha, as compose adds them and
    IEEE addition commutes, so they differ by their consts alone.  Raises ValueError
    when those differ by a component-dependent factor.
    """
    A = operator_closed_form(name1, b, k)
    B = operator_closed_form(name2, b, k)
    ab = A.compose(B)
    ba = B.compose(A)
    ratios = [ca / cb for ca, cb in zip(ab.consts, ba.consts)]
    if max(abs(r - ratios[0]) for r in ratios) > 1e-12:
        raise ValueError("compositions differ by a component-dependent factor")
    return complex(ratios[0])
