"""Shaped triangulated oriented pseudo 3-manifolds: gluing data, edge classes,
the shaped 2-3 Pachner move with charge transfer, and a built-in census.

Conventions.  A tetrahedron has implicit vertex order 0..3; face f is the face
opposite vertex f, and its three vertices are listed in ascending order.  The
dihedral angles (a, b, c) sit at the edge pairs (01|23), (02|13), (03|12) and
sum to 1 in units of pi.  A gluing maps the ascending vertex list of one face
to vertices of the partner face via vertex_map.

The 2-3 move realizes the two-tetrahedron side as the boundary tetrahedra
d3 = (0,1,2,4), d1 = (0,2,3,4) of the bipyramid on labels {0..4} (shared face
(0,2,4), apexes 1 and 3) and replaces them by d0 = (1,2,3,4), d2 = (0,1,3,4),
d4 = (0,1,2,3) around the new edge (1,3).  A tet's weight formula is invariant
under the Klein four-group of double transpositions, which is exactly the
freedom used to align the two old tets with d3 and d1; the remaining parity of
the shared-face gluing must match one of the two exact wirings, otherwise the
move is refused.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, replace
from itertools import permutations

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
from .pentagon import solve_pentagon_charges

EDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_EDGE_INDEX = {e: i for i, e in enumerate(EDGE_PAIRS)}
# angle slot (0=a, 1=b, 2=c) carried by each edge pair; opposite edges agree
ANGLE_SLOT = {(0, 1): 0, (2, 3): 0, (0, 2): 1, (1, 3): 1, (0, 3): 2, (1, 2): 2}
# Klein four-group of vertex relabelings preserving the weight formula
V4 = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def face_vertices(f: int) -> tuple[int, int, int]:
    return tuple(v for v in range(4) if v != f)


@dataclass(frozen=True)
class ShapedTet:
    sign: int
    angles: ChargeTriple

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("tet sign must be +1 or -1")

    def angle_of_edge(self, edge: tuple[int, int]) -> float:
        slot = ANGLE_SLOT[tuple(sorted(edge))]
        return (self.angles.a, self.angles.b, self.angles.c)[slot]


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


@dataclass(frozen=True)
class EdgeClass:
    members: tuple[tuple[int, tuple[int, int]], ...]  # (tet index, edge pair)
    angle_sum: float


class ShapedTriangulation:
    """Immutable triangulation with derived edge classes and angle sums."""

    def __init__(self, N: Modulus, theta: ThetaParam, tets, gluings):
        self.N = N
        self.theta = theta
        self.tets: tuple[ShapedTet, ...] = tuple(tets)
        self.gluings: tuple[FaceGluing, ...] = tuple(gluings)
        self._validate()
        self.edge_classes: tuple[EdgeClass, ...] = self._edge_classes()
        self.edge_of = {
            m: i for i, cls in enumerate(self.edge_classes) for m in cls.members
        }

    def _validate(self):
        seen = set()
        T = len(self.tets)
        for g in self.gluings:
            for (t, f) in ((g.from_tet, g.from_face), (g.to_tet, g.to_face)):
                if not (0 <= t < T and 0 <= f < 4):
                    raise ValidationError(f"face ({t},{f}) out of range")
                if (t, f) in seen:
                    raise ValidationError(f"face ({t},{f}) glued twice")
                seen.add((t, f))
            if (g.from_tet, g.from_face) == (g.to_tet, g.to_face):
                raise ValidationError("face glued to itself")

    def _edge_classes(self):
        items = [(t, e) for t in range(len(self.tets)) for e in EDGE_PAIRS]
        parent = {it: it for it in items}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        for g in self.gluings:
            src = face_vertices(g.from_face)
            corr = dict(zip(src, g.vertex_map))
            for i in range(3):
                for j in range(i + 1, 3):
                    e_from = tuple(sorted((src[i], src[j])))
                    e_to = tuple(sorted((corr[src[i]], corr[src[j]])))
                    union((g.from_tet, e_from), (g.to_tet, e_to))
        groups: dict = {}
        for it in items:
            groups.setdefault(find(it), []).append(it)
        classes = []
        for members in groups.values():
            members = tuple(sorted(members))
            s = sum(self.tets[t].angle_of_edge(e) for (t, e) in members)
            classes.append(EdgeClass(members, s))
        return tuple(sorted(classes, key=lambda c: c.members))

    @property
    def glued_faces(self) -> set:
        out = set()
        for g in self.gluings:
            out.add((g.from_tet, g.from_face))
            out.add((g.to_tet, g.to_face))
        return out

    @property
    def is_closed(self) -> bool:
        return len(self.glued_faces) == 4 * len(self.tets)

    def is_balanced(self, tol: float = 1e-12) -> bool:
        return all(abs(c.angle_sum - 2.0) <= tol for c in self.edge_classes)

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
    if not isinstance(document["N"], int):
        raise SchemaError("N must be an integer")
    try:
        theta = ThetaParam(cmath.exp(1j * math.pi * float(document["theta_arg_over_pi"])))
    except ValueError as e:
        raise SchemaError(str(e)) from e
    tets = []
    for i, td in enumerate(document["tets"]):
        if set(td) != {"sign", "angles"}:
            raise SchemaError(f"tet {i}: fields must be sign, angles")
        if td["sign"] not in (1, -1):
            raise SchemaError(f"tet {i}: sign must be 1 or -1")
        ang = td["angles"]
        if len(ang) != 3:
            raise SchemaError(f"tet {i}: need 3 angles")
        try:
            tets.append(ShapedTet(td["sign"], ChargeTriple(*map(float, ang))))
        except ValueError as e:
            raise ValidationError(f"tet {i}: {e}") from e
    gluings = []
    for i, gd in enumerate(document["gluings"]):
        if set(gd) != {"from", "to", "vertex_map"}:
            raise SchemaError(f"gluing {i}: fields must be from, to, vertex_map")
        (t, f), (t2, f2) = gd["from"], gd["to"]
        vm = tuple(gd["vertex_map"])
        try:
            gluings.append(FaceGluing(t, f, t2, f2, vm))
        except ValidationError as e:
            raise ValidationError(f"gluing {i}: {e}") from e
    return ShapedTriangulation(Modulus(document["N"]), theta, tets, gluings)


# bipyramid labels of the order-aligned old tets
_D3_LABELS = (0, 1, 2, 4)
_D1_LABELS = (0, 2, 3, 4)
# new tets, order-induced labels
_NEW_LABELS = {0: (1, 2, 3, 4), 2: (0, 1, 3, 4), 4: (0, 1, 2, 3)}


def _v4_to_position(pos: int, target: int):
    """The unique V4 element (as new->old map) placing old position pos at target."""
    for perm in V4:
        if perm[target] == pos:
            return perm
    raise AssertionError


def _relabel_angles(tet: ShapedTet, perm) -> ChargeTriple:
    """Angles of the tet after reordering vertices by perm (new->old); V4 fixes them."""
    vals = (tet.angles.a, tet.angles.b, tet.angles.c)
    new = [None] * 3
    for new_edge, slot in ANGLE_SLOT.items():
        old_edge = tuple(sorted((perm[new_edge[0]], perm[new_edge[1]])))
        new[slot] = vals[ANGLE_SLOT[old_edge]]
    return ChargeTriple(*new)


def _bipyramid_wiring(X: ShapedTriangulation, g: FaceGluing, swap: bool):
    """Try to align the two tets of gluing g with (d3, d1); None if incompatible.

    Returns (t_d3, perm_d3, t_d1, perm_d1) where perm maps new position ->
    original local vertex, apex of d3 at position 1 and apex of d1 at
    position 2.  swap exchanges which side of the gluing plays d3.
    """
    sides = [(g.from_tet, g.from_face), (g.to_tet, g.to_face)]
    corr = dict(zip(face_vertices(g.from_face), g.vertex_map))
    if swap:
        sides = sides[::-1]
        corr = {v: k for k, v in corr.items()}
    (tA, fA), (tB, fB) = sides
    permA = _v4_to_position(fA, 1)
    permB = _v4_to_position(fB, 2)
    labelA = {permA[pos]: _D3_LABELS[pos] for pos in (0, 2, 3)}
    labelB = {permB[pos]: _D1_LABELS[pos] for pos in (0, 1, 3)}
    for v, lab in labelA.items():
        if labelB[corr[v]] != lab:
            return None
    return tA, permA, tB, permB


def _new_face_location(role: str, label: int):
    """(new tet key, face index) housing the outer face of d3/d1 opposite label."""
    table = {
        "d3": {0: (0, 2), 2: (2, 2), 4: (4, 3)},
        "d1": {0: (0, 0), 2: (2, 1), 4: (4, 1)},
    }
    return table[role][label]


def pachner_23(X: ShapedTriangulation, face: tuple[int, int]) -> ShapedTriangulation:
    """Shaped 2-3 Pachner move across the given glued face (tet, face index).

    The two tets must be distinct, carry equal signs, and their shared-face
    gluing must match one of the two exact bipyramid wirings.  Charges of the
    three new tets come from solve_pentagon_charges; all pre-existing edge
    angle sums are conserved exactly and the new edge is balanced.
    """
    match = [
        g
        for g in X.gluings
        if (g.from_tet, g.from_face) == tuple(face) or (g.to_tet, g.to_face) == tuple(face)
    ]
    if not match:
        raise TopologyError(f"face {face} is not glued")
    g = match[0]
    if g.from_tet == g.to_tet:
        raise TopologyError("2-3 move needs two distinct tetrahedra")
    if X.tets[g.from_tet].sign != X.tets[g.to_tet].sign:
        raise TopologyError("2-3 move needs equal tet signs")
    wiring = _bipyramid_wiring(X, g, swap=False) or _bipyramid_wiring(X, g, swap=True)
    if wiring is None:
        raise TopologyError(
            "shared-face gluing parity does not match the exact pentagon wiring"
        )
    tA, permA, tB, permB = wiring  # tA plays d3, tB plays d1
    sign = X.tets[tA].sign
    t3 = _relabel_angles(X.tets[tA], permA)
    t1 = _relabel_angles(X.tets[tB], permB)
    q = solve_pentagon_charges(t1, t3)

    # new tets indexed by bipyramid key 0, 2, 4 appended in this order
    survivors = [i for i in range(len(X.tets)) if i not in (tA, tB)]
    new_index = {old: i for i, old in enumerate(survivors)}
    base = len(survivors)
    key_index = {0: base, 2: base + 1, 4: base + 2}
    new_tets = [X.tets[i] for i in survivors] + [
        ShapedTet(sign, q[0]),
        ShapedTet(sign, q[2]),
        ShapedTet(sign, q[4]),
    ]

    def old_side_relocation(t_old, perm, role):
        """Maps (old tet, old local face) -> (new tet, new face, old local vertex -> new pos)."""
        labels = _D3_LABELS if role == "d3" else _D1_LABELS
        label_of = {perm[pos]: labels[pos] for pos in range(4)}
        out = {}
        for f_old in range(4):
            lab = label_of[f_old]
            apex_lab = 1 if role == "d3" else 3
            if lab == apex_lab:
                continue  # the shared face, consumed by the move
            key, new_face = _new_face_location(role, lab)
            vmap = {
                v: _label_positions(key)[label_of[v]] for v in face_vertices(f_old)
            }
            out[(t_old, f_old)] = (key_index[key], new_face, vmap)
        return out

    moved = {**old_side_relocation(tA, permA, "d3"), **old_side_relocation(tB, permB, "d1")}
    new_gluings = _outer_gluings(X, {(g.from_tet, g.from_face)}, moved, new_index)
    new_gluings += _internal_gluings(key_index)
    return ShapedTriangulation(X.N, X.theta, new_tets, new_gluings)


def pachner_32(X: ShapedTriangulation, edge_index: int) -> ShapedTriangulation:
    """Inverse move: collapse a valence-3 internal edge in canonical position.

    Recognizes the configuration produced by pachner_23 (three distinct tets
    wired by the _INTERNAL_GLUINGS) and rebuilds the two-tet side.
    """
    cls = X.edge_classes[edge_index]
    if len(cls.members) != 3:
        raise TopologyError("edge class does not have valence 3")
    tets_around = sorted({t for (t, _) in cls.members})
    if len(tets_around) != 3:
        raise TopologyError("valence-3 edge must touch three distinct tets")
    # canonical recognition: the member edges must sit at the (1,3)-slots
    found = set(cls.members)
    for assign in permutations(tets_around):
        k0, k2, k4 = assign
        expect = {(k0, (0, 2)), (k2, (1, 2)), (k4, (1, 3))}
        if expect == found and _check_internal_wiring(X, k0, k2, k4):
            break
    else:
        raise TopologyError("edge is not in the canonical three-tet position")
    q0, q2, q4 = (X.tets[k].angles for k in (k0, k2, k4))
    sign = X.tets[k0].sign
    if not (X.tets[k2].sign == X.tets[k4].sign == sign):
        raise TopologyError("three-tet signs disagree")
    a1 = q0.a + q2.a
    c1 = q0.c + q4.a
    a3 = q2.a + q4.a
    c3 = q0.a + q4.c
    if abs(q2.c - (c1 + c3)) > 1e-9:
        raise Infeasible("charges around the edge do not satisfy the transfer equations")
    try:
        t1 = ChargeTriple(a1, 1 - a1 - c1, c1)
        t3 = ChargeTriple(a3, 1 - a3 - c3, c3)
    except ValueError as e:
        raise Infeasible(str(e)) from e

    survivors = [i for i in range(len(X.tets)) if i not in (k0, k2, k4)]
    new_index = {old: i for i, old in enumerate(survivors)}
    iA, iB = len(survivors), len(survivors) + 1  # d3-role, d1-role
    new_tets = [X.tets[i] for i in survivors] + [
        ShapedTet(sign, t3),
        ShapedTet(sign, t1),
    ]
    # outer faces of the new (old) tets, inverted relocation tables
    back = {}
    for role, tet_new, labels, apex in (("d3", iA, _D3_LABELS, 1), ("d1", iB, _D1_LABELS, 3)):
        pos_of = {lab: i for i, lab in enumerate(labels)}
        for lab in labels:
            if lab == apex:
                continue
            key, face_in_key = _new_face_location(role, lab)
            k_idx = {0: k0, 2: k2, 4: k4}[key]
            vmap = {
                pos_in_key: pos_of[lab_v]
                for lab_v, pos_in_key in _label_positions(key).items()
                if lab_v in labels and lab_v != lab
            }
            back[(k_idx, face_in_key)] = (tet_new, pos_of[lab], vmap)

    internal_faces = {
        side for ig in _internal_gluings({0: k0, 2: k2, 4: k4})
        for side in ((ig.from_tet, ig.from_face), (ig.to_tet, ig.to_face))
    }
    new_gluings = _outer_gluings(X, internal_faces, back, new_index)
    new_gluings.append(
        FaceGluing(iA, 1, iB, 2, _shared_face_map())
    )
    return ShapedTriangulation(X.N, X.theta, new_tets, new_gluings)


def _label_positions(key: int) -> dict:
    """Bipyramid label -> local vertex position in the new tet of that key."""
    return {lab: i for i, lab in enumerate(_NEW_LABELS[key])}


# the internal gluings (key_a, face_a, key_b, face_b) of the three new tets
# around the new edge (1,3): the faces (1,3,4), (1,2,3) and (0,1,3)
_INTERNAL_GLUINGS = ((0, 1, 2, 0), (0, 3, 4, 0), (2, 3, 4, 2))


def _internal_gluings(index: dict) -> list[FaceGluing]:
    """The _INTERNAL_GLUINGS with the new tet of each key at index[key]."""
    out = []
    for key_a, face_a, key_b, face_b in _INTERNAL_GLUINGS:
        labs_a = [v for v in _NEW_LABELS[key_a] if v != _NEW_LABELS[key_a][face_a]]
        vm = tuple(_label_positions(key_b)[lab] for lab in labs_a)
        out.append(FaceGluing(index[key_a], face_a, index[key_b], face_b, vm))
    return out


def _outer_gluings(X: ShapedTriangulation, skip: set, moved: dict, new_index: dict) -> list:
    """The gluings of X whose from-side (tet, face) is not in skip, rewritten for a move.

    moved maps an old (tet, face) to (new tet, new face, {old vertex: new
    vertex}); any other face keeps its vertices, its tet renumbered by new_index.
    """
    def side(t, f):
        return moved.get((t, f)) or (new_index[t], f, {v: v for v in face_vertices(f)})

    out = []
    for og in X.gluings:
        if (og.from_tet, og.from_face) in skip:
            continue
        ft, ff, vmd = side(og.from_tet, og.from_face)
        tt, tf, vmd2 = side(og.to_tet, og.to_face)
        corr = dict(zip(face_vertices(og.from_face), og.vertex_map))
        new_corr = {vmd[v]: vmd2[corr[v]] for v in face_vertices(og.from_face)}
        vm = tuple(new_corr[v] for v in face_vertices(ff))
        out.append(FaceGluing(ft, ff, tt, tf, vm))
    return out


def _shared_face_map() -> tuple[int, int, int]:
    """Ascending vertices of d3 face 1 -> d1 face 2, matching labels (0,2,4)."""
    labelsA = {pos: _D3_LABELS[pos] for pos in (0, 2, 3)}
    posB = {_D1_LABELS[pos]: pos for pos in (0, 1, 3)}
    return tuple(posB[labelsA[p]] for p in (0, 2, 3))


def _check_internal_wiring(X, k0, k2, k4) -> bool:
    want = {
        (g.from_tet, g.from_face, g.to_tet, g.to_face, g.vertex_map)
        for g in _internal_gluings({0: k0, 2: k2, 4: k4})
    }
    have = {
        (g.from_tet, g.from_face, g.to_tet, g.to_face, g.vertex_map) for g in X.gluings
    }
    have |= {
        (g.to_tet, g.to_face, g.from_tet, g.from_face, _invert_map(g))
        for g in X.gluings
    }
    return want <= have


def _invert_map(g: FaceGluing) -> tuple[int, int, int]:
    corr = dict(zip(face_vertices(g.from_face), g.vertex_map))
    inv = {v: k for k, v in corr.items()}
    return tuple(inv[v] for v in face_vertices(g.to_face))


def gauge_direction(X: ShapedTriangulation, edge_index: int) -> np.ndarray:
    """Leading-trailing deformation of one edge class, flattened over angles.

    Each incidence of the edge at angle slot s adds +1 to slot s+1 and -1 to
    slot s+2 (cyclically) of that tetrahedron.  These vectors lie in the
    balance kernel and span the gauge orbits along which |Z| is constant; the
    kernel can be strictly larger (genuine shape directions move |Z|).
    """
    v = np.zeros(3 * len(X.tets))
    for (t, e) in X.edge_classes[edge_index].members:
        s = ANGLE_SLOT[e]
        v[3 * t + (s + 1) % 3] += 1.0
        v[3 * t + (s + 2) % 3] -= 1.0
    return v


def balance_kernel(X: ShapedTriangulation) -> np.ndarray:
    """Basis of angle directions preserving per-tet sums and all edge sums."""
    T = len(X.tets)
    rows = []
    for t in range(T):
        row = np.zeros(3 * T)
        row[3 * t : 3 * t + 3] = 1.0
        rows.append(row)
    for cls in X.edge_classes:
        row = np.zeros(3 * T)
        for (t, e) in cls.members:
            row[3 * t + ANGLE_SLOT[e]] += 1.0
        rows.append(row)
    A = np.array(rows)
    _, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > 1e-12 * s[0]))
    return vt[rank:]


def balanced_perturbation(
    X: ShapedTriangulation, direction: np.ndarray | None = None, eps: float = 0.0
) -> ShapedTriangulation:
    """Perturb angles along a balance-kernel direction, preserving positivity."""
    ker = balance_kernel(X)
    if direction is None:
        # default to a gauge direction, along which |Z| is provably constant
        for e in range(len(X.edge_classes)):
            direction = gauge_direction(X, e)
            if np.linalg.norm(direction) > 1e-12:
                break
        else:
            raise PositivityViolation("no nontrivial gauge direction")
    direction = np.asarray(direction, dtype=float)
    resid = direction - ker.T @ (ker @ direction)
    if np.linalg.norm(resid) > 1e-9 * max(np.linalg.norm(direction), 1.0):
        raise ValueError("direction is not in the balance kernel")
    flat = np.array([(t.angles.a, t.angles.b, t.angles.c) for t in X.tets]).ravel()
    new = flat + eps * direction
    if np.any(new <= 0):
        raise PositivityViolation("perturbation leaves the positive-angle region")
    return X.with_angles(new.reshape(-1, 3))


def positivity_margin(X: ShapedTriangulation, direction: np.ndarray) -> float:
    """Largest eps with all angles positive along +/- eps * direction."""
    flat = np.array([(t.angles.a, t.angles.b, t.angles.c) for t in X.tets]).ravel()
    d = np.asarray(direction, dtype=float)
    lim = np.inf
    for f, dd in zip(flat, d):
        if abs(dd) > 1e-15:
            lim = min(lim, f / abs(dd))
    return float(lim)


def builtin_census(
    name: str, N: int = 1, theta_arg_over_pi: float | str = 1 / 3
) -> ShapedTriangulation:
    """Named example triangulations: fig8_2tet, fig8_3tet, single_tet."""
    if isinstance(theta_arg_over_pi, str):
        from fractions import Fraction

        theta_arg_over_pi = float(Fraction(theta_arg_over_pi))
    theta = ThetaParam(cmath.exp(1j * math.pi * theta_arg_over_pi))
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
