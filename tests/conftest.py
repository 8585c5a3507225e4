import itertools

import numpy as np
import pytest

from qdlab.charged import ChargeTriple, forward_transform_closed, pentagon_normalization
from qdlab.faddeev import ThetaParam, log_phi_theta
from qdlab.lca import LcaPoint, Modulus, b_generator, fourier_kernel, gaussian_exp, halve
from qdlab.qdilog import QdParams, factor_args, inversion_constant
from qdlab.triangulation import FaceGluing, ShapedTet, ShapedTriangulation, builtin_census

THETA_FRACTIONS = ["1/3", "1/4", "2/5"]


@pytest.fixture(scope="session")
def thetas():
    return [ThetaParam.from_pi_fraction(f) for f in THETA_FRACTIONS]


@pytest.fixture
def theta3():
    return ThetaParam.from_pi_fraction("1/3")


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


def params(N: int, frac: str = "1/3") -> QdParams:
    return QdParams(ThetaParam.from_pi_fraction(frac), Modulus(N))


@pytest.fixture
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath


def mp_pochhammer(mp, lx, lq):
    """(e^lx; e^lq)_inf at the working precision, stopped once |x q^j| < 1e-45."""
    x, q, out = mp.exp(lx), mp.exp(lq), mp.mpc(1)
    while abs(x) >= mp.mpf("1e-45"):
        out *= 1 - x
        x *= q
    return out


def mp_phi(mp, z, th):
    """Phi_theta(z) from its product formula, at the float theta and z given."""
    t, z = mp.mpc(th.theta), mp.mpc(z)
    c = 1j * (t + 1 / t) / 2
    num = mp_pochhammer(mp, 2 * mp.pi * t * (z + c), 2j * mp.pi * t**2)
    return num / mp_pochhammer(mp, 2 * mp.pi / t * (z - c), -2j * mp.pi / t**2)


def mp_dtheta(mp, z, n: int, p: QdParams):
    """D_theta(z, n) as the product of its N Faddeev factors (the qdilog module docstring's
    formula) by mp_phi, at the float theta and z given; no reflection."""
    t, N = mp.mpc(p.theta.theta), p.N.N
    c = 1j * (t + 1 / t) / 2
    return mp.fprod(mp_phi(mp, mp.mpc(z) / mp.sqrt(N) + (1 - mp.mpf(1) / N) * c
                           - 1j / t * mp.mpf(j) / N - 1j * t * mp.mpf((j + n) % N) / N, p.theta)
                    for j in range(N))


def log_dtheta_n_factors(z, n, p: QdParams) -> np.ndarray:
    """log D_theta(z, n) as the sum of log Phi_theta over its N Faddeev factors
    (qdilog.factor_args): the N-factor form that qdilog.log_dtheta's two q-products replace,
    kept as a test oracle.  Each factor runs its own two products of nome q and q~.  A
    point with Re z > 0 is mapped back from (-z, -n) by the inversion relation, with
    lca.gaussian_exp and qdilog.inversion_constant, so that its Gaussian phase is one
    rounding, not N."""
    N = p.N.N
    z = np.asarray(z, dtype=complex)
    n = np.broadcast_to(np.asarray(n) % N, z.shape)
    flip = z.real > 0
    w, m = np.where(flip, -z, z), np.where(flip, -n % N, n)
    log_d = np.sum(log_phi_theta(factor_args(w, m, p), p.theta), axis=0)
    inv = np.log(gaussian_exp(LcaPoint(z, n), p.N) * inversion_constant(p))
    return np.where(flip, inv - log_d, log_d)


def brute_kernel(wkp, x: LcaPoint, y: LcaPoint, K: int) -> complex:
    """W(x, y) as <x; -y/2> times its B-orbit sum over j = -K..K, term by term from lca's
    characters: conj(kappa F psi)(y + j b0) conj<j b0> <j b0; mu - x>."""
    p = wkp.params
    jb = b_generator(p.N).scale(np.arange(-K, K + 1))
    terms = np.conj(pentagon_normalization(wkp.charges, p)
                    * forward_transform_closed(wkp.charges, y.x + jb.x, y.n + jb.n, p))
    phases = np.conj(gaussian_exp(jb, p.N)) * fourier_kernel(jb, wkp.mu - x, p.N)
    return complex(fourier_kernel(x, -halve(y, p.N), p.N) * np.sum(terms * phases))


# the even permutations of the vertices 0..3 of a tet
EVEN_PERMS = [p for p in itertools.permutations(range(4))
              if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]


def relabelled_fig8(perm, N: int = 1) -> ShapedTriangulation:
    """fig8_2tet with vertex v of tet 1 renamed perm[v]: every gluing goes 0 -> 1, so
    its face to_face becomes perm[to_face] and each vertex_map entry v becomes perm[v]."""
    X = builtin_census("fig8_2tet", N=N)
    gluings = [FaceGluing(g.from_tet, g.from_face, g.to_tet, perm[g.to_face],
                          tuple(perm[v] for v in g.vertex_map)) for g in X.gluings]
    return ShapedTriangulation(X.N, X.theta, X.tets, gluings)


def branched_two_tet(N: int = 1) -> ShapedTriangulation:
    """The two-tet triangulation whose face maps all preserve the vertex order, with
    tet signs (+1, -1) and equal angles: balanced, one vertex, H_1 = 0 as fig8_2tet."""
    third = ChargeTriple.equal()
    gluings = [FaceGluing(0, 0, 1, 2, (0, 1, 3)), FaceGluing(0, 1, 1, 3, (0, 1, 2)),
               FaceGluing(0, 2, 1, 0, (1, 2, 3)), FaceGluing(0, 3, 1, 1, (0, 2, 3))]
    return ShapedTriangulation(Modulus(N), ThetaParam.from_pi_fraction("1/3"),
                               [ShapedTet(1, third), ShapedTet(-1, third)], gluings)


def renumbered(X: ShapedTriangulation, order) -> ShapedTriangulation:
    """X with its tets renumbered: new tet i is old tet order[i], and every FaceGluing's
    tet indices are remapped to match."""
    new = {old: i for i, old in enumerate(order)}
    gluings = [FaceGluing(new[g.from_tet], g.from_face, new[g.to_tet], g.to_face, g.vertex_map)
               for g in X.gluings]
    return ShapedTriangulation(X.N, X.theta, [X.tets[t] for t in order], gluings)
