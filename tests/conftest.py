import itertools

import numpy as np
import pytest

from qdlab.charged import ChargeTriple, forward_transform_closed, pentagon_normalization
from qdlab.faddeev import ThetaParam
from qdlab.lca import LcaPoint, Modulus, b_generator, fourier_kernel, gaussian_exp, halve
from qdlab.qdilog import QdParams
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
