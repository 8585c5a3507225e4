"""Shaped triangulated oriented pseudo 3-manifolds: gluing data, edge classes,
the shaped 2-3 Pachner move with charge transfer, and a built-in census.

Conventions.  A tetrahedron has implicit vertex order 0..3; face f is the face
opposite vertex f, and its three vertices are listed in ascending order.  The
dihedral angles (a, b, c) sit at the edge pairs (01|23), (02|13), (03|12) and
sum to 1 in units of pi.  A gluing maps the ascending vertex list of one face
to vertices of the partner face via vertex_map.  A tet's sign says whether its
vertex order agrees with the orientation; a negative tet runs its angle slots
the other way round (gauge_direction).

The 2-3 move realizes the two-tetrahedron side as the boundary tetrahedra
d3 = (0,1,2,4), d1 = (0,2,3,4) of the bipyramid on labels {0..4} (shared face
(0,2,4), apexes 1 and 3) and replaces them by d0 = (1,2,3,4), d2 = (0,1,3,4),
d4 = (0,1,2,3) around the new edge (1,3).  A tet's weight formula is invariant
under the Klein four-group of double transpositions, which is exactly the
freedom used to align the two old tets with d3 and d1; the remaining parity of
the shared-face gluing must match one of the two exact wirings, otherwise the
move is refused.

Both moves follow one label rule.  Every old tet carries the bipyramid labels
of its local vertices 0..3 (the two-tet side _TWO, the three-tet side _THREE).
Two tets that share three labels are glued label to label (_label_gluings);
the 2-3 wiring check and the 3-2 recognition ask that these gluings are in X.
Each outer face of an old tet moves to the new tet holding its three labels,
its vertices following their labels, and the new tets are glued by the same
label rule (_rewire).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .charged import ChargeTriple
from .errors import (
    Infeasible,
    PositivityViolation,
    SchemaError,
    TopologyError,
    UnknownName,
    ValidationError,
)
from .faddeev import ThetaParam
from .lca import Modulus
from .pentagon import pentagon_residuals, solve_pentagon_charges

EDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# angle slot (0=a, 1=b, 2=c) carried by each edge pair; opposite edges agree.  Read only
# where ShapedTriangulation builds its incidence, which everything else reads
ANGLE_SLOT = {(0, 1): 0, (2, 3): 0, (0, 2): 1, (1, 3): 1, (0, 3): 2, (1, 2): 2}
# Klein four-group of vertex relabelings preserving the weight formula
V4 = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def face_vertices(f: int) -> tuple[int, int, int]:
    return tuple(v for v in range(4) if v != f)


def _angles(X) -> np.ndarray:  # row t: the angles (a, b, c) of tet t
    return np.array([(t.angles.a, t.angles.b, t.angles.c) for t in X.tets]).reshape(-1, 3)


@dataclass(frozen=True)
class ShapedTet:
    sign: int
    angles: ChargeTriple

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("tet sign must be +1 or -1")


@dataclass(frozen=True)
class FaceGluing:
    from_tet: int
    from_face: int
    to_tet: int
    to_face: int
    vertex_map: tuple[int, int, int]  # images of the ascending from-face vertices

    def __post_init__(self):
        if sorted(self.vertex_map) != sorted(face_vertices(self.to_face)):
            raise ValidationError(
                f"vertex_map {self.vertex_map} does not cover face {self.to_face}"
            )


class ShapedTriangulation:
    """Immutable triangulation: the face map partner, edge classes as sorted (tet, edge pair)
    tuples, the incidence [t, s, c] (edges of tet t at slot s in class c) and its angle_sums.

    partner[(t, f)] = (t', f', vertex map, i) for both ends (t, f) of each gluing i: the face
    (t', f') glued to (t, f), and the map {v: image} of the vertices of face f, read from
    (t, f).  It is validated as it is built; every face lookup reads it.  gluings keeps
    each gluing as given, in its order and direction, and to_document writes it so.
    """

    def __init__(self, N: Modulus, theta: ThetaParam, tets, gluings):
        self.N = N
        self.theta = theta
        self.tets: tuple[ShapedTet, ...] = tuple(tets)
        self.gluings: tuple[FaceGluing, ...] = tuple(gluings)
        self.partner: dict = {}
        for i, g in enumerate(self.gluings):
            if (g.from_tet, g.from_face) == (g.to_tet, g.to_face):  # else "glued twice"
                raise ValidationError("face glued to itself")
            vm = dict(zip(face_vertices(g.from_face), g.vertex_map))
            for t, f, t2, f2, m in ((g.from_tet, g.from_face, g.to_tet, g.to_face, vm),
                                    (g.to_tet, g.to_face, g.from_tet, g.from_face,
                                     {w: v for v, w in vm.items()})):
                if not (0 <= t < len(self.tets) and 0 <= f < 4):
                    raise ValidationError(f"face ({t},{f}) out of range")
                if (t, f) in self.partner:
                    raise ValidationError(f"face ({t},{f}) glued twice")
                self.partner[(t, f)] = (t2, f2, m, i)
        self.edge_classes: tuple[tuple, ...] = self._edge_classes()
        self.incidence = np.zeros((len(self.tets), 3, len(self.edge_classes)), dtype=int)
        for c, members in enumerate(self.edge_classes):
            for t, e in members:
                self.incidence[t, ANGLE_SLOT[e], c] += 1
        self.incidence.flags.writeable = False
        self.angle_sums = (_angles(self)[:, :, None] * self.incidence).sum(axis=(0, 1))
        self.angle_sums.flags.writeable = False

    def _edge_classes(self):
        items = [(t, e) for t in range(len(self.tets)) for e in EDGE_PAIRS]
        parent = {it: it for it in items}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for (t, f), (t2, _, vm, _) in self.partner.items():
            for v, w in combinations(face_vertices(f), 2):
                rx, ry = find((t, (v, w))), find((t2, tuple(sorted((vm[v], vm[w])))))
                if rx != ry:
                    parent[rx] = ry
        groups: dict = {}
        for it in items:
            groups.setdefault(find(it), []).append(it)
        return tuple(sorted(tuple(sorted(members)) for members in groups.values()))

    @property
    def is_closed(self) -> bool:
        return len(self.partner) == 4 * len(self.tets)

    def is_balanced(self, tol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(self.angle_sums - 2.0) <= tol))

    def with_angles(self, angle_rows) -> "ShapedTriangulation":
        tets = tuple(
            ShapedTet(t.sign, ChargeTriple(*row))
            for t, row in zip(self.tets, angle_rows)
        )
        return ShapedTriangulation(self.N, self.theta, tets, self.gluings)

    def to_document(self) -> dict:
        return {
            "N": self.N.N,
            "theta_arg_over_pi": math.atan2(self.theta.theta.imag, self.theta.theta.real)
            / math.pi,
            "tets": [
                {"sign": t.sign, "angles": [t.angles.a, t.angles.b, t.angles.c]}
                for t in self.tets
            ],
            "gluings": [
                {
                    "from": [g.from_tet, g.from_face],
                    "to": [g.to_tet, g.to_face],
                    "vertex_map": list(g.vertex_map),
                }
                for g in self.gluings
            ],
        }


def parse_triangulation(document) -> ShapedTriangulation:
    """Validate a triangulation document (dict or JSON text) into an object."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise SchemaError(f"not valid JSON: {e}") from e
    if not isinstance(document, dict):
        raise SchemaError("document must be a JSON object")
    allowed = {"N", "theta_arg_over_pi", "tets", "gluings"}
    unknown = set(document) - allowed
    if unknown:
        raise SchemaError(f"unknown fields {sorted(unknown)}")
    missing = allowed - set(document)
    if missing:
        raise SchemaError(f"missing fields {sorted(missing)}")
    if type(document["N"]) is not int:  # bool is not a modulus
        raise SchemaError("N must be an integer")
    try:
        theta = ThetaParam.from_pi_fraction(document["theta_arg_over_pi"])
    except (ValueError, OverflowError, TypeError) as e:  # Fraction(inf) overflows
        raise SchemaError(str(e)) from e
    if not (isinstance(document["tets"], list) and isinstance(document["gluings"], list)):
        raise SchemaError("tets and gluings must be lists")
    tets = []
    for i, td in enumerate(document["tets"]):
        if not isinstance(td, dict) or set(td) != {"sign", "angles"}:
            raise SchemaError(f"tet {i}: fields must be sign, angles")
        if type(td["sign"]) is not int or td["sign"] not in (1, -1):  # true is not a sign
            raise SchemaError(f"tet {i}: sign must be 1 or -1")
        ang = td["angles"]
        if not isinstance(ang, list) or len(ang) != 3:
            raise SchemaError(f"tet {i}: need 3 angles in a list")
        if any(isinstance(v, (str, bool)) for v in ang):  # float() would read these
            raise SchemaError(f"tet {i}: angles must be numbers")
        try:
            tets.append(ShapedTet(td["sign"], ChargeTriple(*map(float, ang))))
        except (ValueError, TypeError) as e:  # float(None) is a TypeError
            raise ValidationError(f"tet {i}: {e}") from e
    gluings = []
    for i, gd in enumerate(document["gluings"]):
        if not isinstance(gd, dict) or set(gd) != {"from", "to", "vertex_map"}:
            raise SchemaError(f"gluing {i}: fields must be from, to, vertex_map")
        for key, size in (("from", 2), ("to", 2), ("vertex_map", 3)):
            if not (isinstance(gd[key], list) and len(gd[key]) == size
                    and all(type(v) is int for v in gd[key])):  # bool is not a vertex or face
                raise SchemaError(f"gluing {i}: {key} must be a list of {size} integers")
        (t, f), (t2, f2) = gd["from"], gd["to"]
        vm = tuple(gd["vertex_map"])
        try:
            gluings.append(FaceGluing(t, f, t2, f2, vm))
        except ValidationError as e:
            raise ValidationError(f"gluing {i}: {e}") from e
    return ShapedTriangulation(Modulus(document["N"]), theta, tets, gluings)


# bipyramid labels of the local vertices 0..3 of each tet on either side
_TWO = ((0, 1, 2, 4), (0, 2, 3, 4))
_THREE = ((1, 2, 3, 4), (0, 1, 3, 4), (0, 1, 2, 3))


def _v4_placed(t: int, f: int, labels, apex: int):
    """(t, labels of its vertices 0..3): the V4 relabeling of labels putting apex on vertex f."""
    perm = next(p for p in V4 if labels[p[f]] == apex)
    return t, tuple(labels[p] for p in perm)


def _label_gluings(placed) -> list[FaceGluing]:
    """Glue every two placed (tet, labels) that share three labels, label to label."""
    out = []
    for i, (s, ls) in enumerate(placed):
        for t, lt in placed[i + 1:]:
            fs = [v for v in range(4) if ls[v] not in lt]
            ft = [v for v in range(4) if lt[v] not in ls]
            if len(fs) == 1:
                vm = tuple(lt.index(ls[v]) for v in face_vertices(fs[0]))
                out.append(FaceGluing(s, fs[0], t, ft[0], vm))
    return out


def _is_glued(X: ShapedTriangulation, gluings) -> bool:
    """Whether every one of gluings is a gluing of X, read in either direction."""
    return all(X.partner.get((g.from_tet, g.from_face), ())[:3]
               == (g.to_tet, g.to_face, dict(zip(face_vertices(g.from_face), g.vertex_map)))
               for g in gluings)


def _rewire(X: ShapedTriangulation, old, new_labels, new_tets) -> ShapedTriangulation:
    """Replace the placed old (tet, labels) of X by new_tets carrying new_labels.

    Each old face moves to the new tet holding its three labels, at the place of
    that tet's fourth label, and each vertex follows its label; the gluings between
    old faces no new tet holds are dropped.  The other tets keep their order and
    faces, the new tets follow them, and _label_gluings glues the new tets.
    """
    gone = {t for t, _ in old}
    survivors = [i for i in range(len(X.tets)) if i not in gone]
    placed = [(len(survivors) + j, labs) for j, labs in enumerate(new_labels)]
    side = {(t, f): (i, f, {v: v for v in face_vertices(f)})
            for i, t in enumerate(survivors) for f in range(4)}
    for t, labs in old:
        for f in range(4):
            face = {labs[v] for v in face_vertices(f)}
            for n, nl in placed:
                rest = [v for v in range(4) if nl[v] not in face]
                if len(rest) == 1:
                    side[(t, f)] = (n, rest[0], {v: nl.index(labs[v]) for v in face_vertices(f)})
    gluings = []
    for g in X.gluings:
        if (g.from_tet, g.from_face) not in side:
            continue
        ft, ff, fmap = side[(g.from_tet, g.from_face)]
        tt, tf, tmap = side[(g.to_tet, g.to_face)]
        corr = {fmap[v]: tmap[w] for v, w in zip(face_vertices(g.from_face), g.vertex_map)}
        gluings.append(FaceGluing(ft, ff, tt, tf, tuple(corr[v] for v in face_vertices(ff))))
    tets = [X.tets[i] for i in survivors] + list(new_tets)
    return ShapedTriangulation(X.N, X.theta, tets, gluings + _label_gluings(placed))


def pachner_23(X: ShapedTriangulation, face: tuple[int, int]) -> ShapedTriangulation:
    """Shaped 2-3 Pachner move across the given glued face (tet, face index).

    The two tets must be distinct, carry equal signs, and their shared-face
    gluing must match one of the two exact bipyramid wirings.  Charges of the
    three new tets come from solve_pentagon_charges; all pre-existing edge
    angle sums are conserved exactly and the new edge is balanced.

    The move reads the stored gluing at the face, whichever end of it the face
    is, in its from/to order: it first tries the from-tet as d3 and the to-tet
    as d1, then the other way round.  Where both wirings hold, that order picks
    the result, so reversing the stored direction of a gluing can give a
    different, equally valid, three-tet side.
    """
    if tuple(face) not in X.partner:
        raise TopologyError(f"face {face} is not glued")
    g = X.gluings[X.partner[tuple(face)][3]]
    if g.from_tet == g.to_tet:
        raise TopologyError("2-3 move needs two distinct tetrahedra")
    if X.tets[g.from_tet].sign != X.tets[g.to_tet].sign:
        raise TopologyError("2-3 move needs equal tet signs")
    sides = [(g.from_tet, g.from_face), (g.to_tet, g.to_face)]
    for (tA, fA), (tB, fB) in (sides, sides[::-1]):  # tA plays d3, tB plays d1
        old = [_v4_placed(tA, fA, _TWO[0], 1), _v4_placed(tB, fB, _TWO[1], 3)]
        if _is_glued(X, _label_gluings(old)):
            break
    else:
        raise TopologyError(
            "shared-face gluing parity does not match the exact pentagon wiring"
        )
    q = solve_pentagon_charges(X.tets[tB].angles, X.tets[tA].angles)
    sign = X.tets[tA].sign
    return _rewire(X, old, _THREE, [ShapedTet(sign, q[k]) for k in (0, 2, 4)])


def pachner_32(X: ShapedTriangulation, edge_index: int) -> ShapedTriangulation:
    """Inverse move: collapse a valence-3 internal edge in canonical position.

    Recognizes the configuration produced by pachner_23 (three distinct tets
    labeled by _THREE, the edge at labels (1,3), glued by _label_gluings) and
    rebuilds the two-tet side.
    """
    members = X.edge_classes[edge_index]
    if len(members) != 3:
        raise TopologyError("edge class does not have valence 3")
    tets_around = sorted({t for (t, _) in members})
    if len(tets_around) != 3:
        raise TopologyError("valence-3 edge must touch three distinct tets")
    found = set(members)
    for ks in permutations(tets_around):
        old = list(zip(ks, _THREE))
        axis = {(t, (labs.index(1), labs.index(3))) for t, labs in old}  # the edge (1,3)
        if axis == found and _is_glued(X, _label_gluings(old)):
            break
    else:
        raise TopologyError("edge is not in the canonical three-tet position")
    k0, k2, k4 = ks
    q0, q2, q4 = (X.tets[k].angles for k in ks)
    sign = X.tets[k0].sign
    if not (X.tets[k2].sign == X.tets[k4].sign == sign):
        raise TopologyError("three-tet signs disagree")
    a1, c1 = q0.a + q2.a, q0.c + q4.a
    a3, c3 = q2.a + q4.a, q0.a + q4.c
    try:
        t1 = ChargeTriple(a1, 1 - a1 - c1, c1)
        t3 = ChargeTriple(a3, 1 - a3 - c3, c3)
    except ValueError as e:
        raise Infeasible(str(e)) from e
    if pentagon_residuals([q0, t1, q2, t3, q4]) > 1e-9:  # c2 = c1 + c3 is the one left open
        raise Infeasible("charges around the edge do not satisfy the transfer equations")
    return _rewire(X, old, _TWO, [ShapedTet(sign, t3), ShapedTet(sign, t1)])


def gauge_direction(X: ShapedTriangulation, edge_index: int) -> np.ndarray:
    """Leading-trailing deformation of one edge class, flattened over angles.

    Each incidence of the edge at angle slot s adds +1 to slot s+1 and -1 to
    slot s+2 (cyclically) of a positive tetrahedron; a negative one runs its
    slots the other way round, so there the signs swap.  These vectors lie in
    the balance kernel and span the gauge orbits along which |Z| is constant;
    the kernel can be strictly larger (genuine shape directions move |Z|).
    """
    inc = X.incidence[:, :, edge_index]
    sign = np.array([t.sign for t in X.tets]).reshape(-1, 1)
    return (sign * (np.roll(inc, 1, axis=1) - np.roll(inc, -1, axis=1))).ravel().astype(float)


def balance_kernel(X: ShapedTriangulation) -> np.ndarray:
    """Basis of angle directions preserving per-tet sums and all edge sums (X.angle_sums)."""
    T, _, E = X.incidence.shape
    A = np.vstack([np.kron(np.eye(T), np.ones(3)), X.incidence.reshape(3 * T, E).T])
    _, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-12 * s[0]))
    return vt[rank:]


def balanced_perturbation(
    X: ShapedTriangulation, direction: np.ndarray, eps: float
) -> ShapedTriangulation:
    """Perturb angles by eps along a balance-kernel direction, preserving positivity."""
    ker = balance_kernel(X)
    direction = np.asarray(direction, dtype=float)
    resid = direction - ker.T @ (ker @ direction)
    if np.linalg.norm(resid) > 1e-9 * max(np.linalg.norm(direction), 1.0):
        raise ValueError("direction is not in the balance kernel")
    new = _angles(X).ravel() + eps * direction
    if np.any(new <= 0):
        raise PositivityViolation("perturbation leaves the positive-angle region")
    return X.with_angles(new.reshape(-1, 3))


def positivity_margin(X: ShapedTriangulation, direction: np.ndarray) -> float:
    """Largest eps with all angles positive along +/- eps * direction (inf if it is 0)."""
    d = np.abs(np.asarray(direction, dtype=float))
    return float(np.min(_angles(X).ravel()[d > 1e-15] / d[d > 1e-15], initial=np.inf))


def builtin_census(
    name: str, N: int = 1, theta_arg_over_pi: float | str = 1 / 3
) -> ShapedTriangulation:
    """Named example triangulations: fig8_2tet, fig8_3tet, single_tet."""
    theta = ThetaParam.from_pi_fraction(theta_arg_over_pi)
    third = ChargeTriple.equal()
    if name == "single_tet":
        return ShapedTriangulation(Modulus(N), theta, [ShapedTet(1, third)], [])
    if name == "fig8_2tet":
        tets = [ShapedTet(1, third), ShapedTet(1, third)]
        return ShapedTriangulation(Modulus(N), theta, tets, FIG8_GLUINGS())
    if name == "fig8_3tet":
        X = builtin_census("fig8_2tet", N, theta_arg_over_pi)
        return pachner_23(X, FIG8_CANONICAL_FACE)
    raise UnknownName(f"unknown census entry {name!r}")


FIG8_CANONICAL_FACE: tuple[int, int] = (0, 0)


def FIG8_GLUINGS() -> list[FaceGluing]:
    """Two-tetrahedron figure-eight complement, both tets positively ordered.

    Standard census gluing data with the second tetrahedron relabeled by an
    even 3-cycle so that the face (0,0) matches the exact bipyramid wiring of
    the 2-3 move.  Two edge classes, each of valence six.
    """
    return [
        FaceGluing(0, 0, 1, 0, (2, 1, 3)),
        FaceGluing(0, 1, 1, 3, (2, 1, 0)),
        FaceGluing(0, 2, 1, 2, (3, 1, 0)),
        FaceGluing(0, 3, 1, 1, (3, 2, 0)),
    ]
