"""Triangulation data model, edge classes, Pachner moves, census."""

import json
from itertools import permutations

import numpy as np
import pytest
from conftest import branched_two_tet
from hypothesis import given, settings
from hypothesis import strategies as st

from qdlab.charged import ChargeTriple
from qdlab.cli import run
from qdlab.errors import (
    Infeasible,
    PositivityViolation,
    SchemaError,
    TopologyError,
    UnknownName,
    ValidationError,
)
from qdlab.lca import QuadratureSpec
from qdlab.partition import partition_function
from qdlab.triangulation import (
    ANGLE_SLOT,
    FIG8_CANONICAL_FACE,
    FaceGluing,
    ShapedTet,
    ShapedTriangulation,
    balance_kernel,
    balanced_perturbation,
    builtin_census,
    face_vertices,
    gauge_direction,
    pachner_23,
    pachner_32,
    parse_triangulation,
    positivity_margin,
)


def fig8():
    return builtin_census("fig8_2tet")


def test_census_fig8_2tet():
    X = fig8()
    assert len(X.tets) == 2
    assert len(X.edge_classes) == 2
    assert X.is_closed
    assert X.is_balanced(1e-12)
    assert all(len(c) == 6 for c in X.edge_classes)
    # chi of the non-compact manifold: -T + F - E = -2 + 4 - 2 = 0
    faces = len(X.partner) // 2
    assert -len(X.tets) + faces - len(X.edge_classes) == 0


def test_census_single_tet():
    X = builtin_census("single_tet")
    assert len(X.tets) == 1
    assert len(X.edge_classes) == 6
    assert not X.is_closed


def test_census_unknown():
    with pytest.raises(UnknownName):
        builtin_census("borromean")


def test_parse_round_trip():
    X = fig8()
    Y = parse_triangulation(json.dumps(X.to_document()))
    assert len(Y.edge_classes) == 2
    assert Y.to_document() == X.to_document()


def test_parse_rejects_unknown_fields():
    doc = fig8().to_document()
    doc["color"] = "blue"
    with pytest.raises(SchemaError):
        parse_triangulation(doc)


def test_parse_rejects_double_gluing():
    doc = fig8().to_document()
    doc["gluings"].append(doc["gluings"][0])
    with pytest.raises(ValidationError):
        parse_triangulation(doc)


def test_parse_rejects_theta_outside_the_first_quadrant():
    doc = fig8().to_document()
    doc["theta_arg_over_pi"] = 0.5
    with pytest.raises(SchemaError, match=r"must be in \(0, 1/2\)"):
        parse_triangulation(doc)


def test_tet_sign_must_be_one_or_minus_one():
    # parse_triangulation refuses a bad sign itself; the constructor refuses it too
    with pytest.raises(ValueError, match="tet sign must be"):
        ShapedTet(0, ChargeTriple.equal())


def test_parse_rejects_bad_vertex_map():
    doc = fig8().to_document()
    doc["gluings"][0]["vertex_map"] = [0, 0, 1]
    with pytest.raises(ValidationError):
        parse_triangulation(doc)


def test_gluing_involution():
    # the induced face correspondence applied twice is the identity
    X = fig8()
    for g in X.gluings:
        src = tuple(v for v in range(4) if v != g.from_face)
        corr = dict(zip(src, g.vertex_map))
        inv = {v: k for k, v in corr.items()}
        for v in src:
            assert inv[corr[v]] == v


def test_edge_classes_relabel_invariant():
    # permuting tet order leaves the edge-class angle sums unchanged
    X = fig8()
    doc = X.to_document()
    doc["tets"] = doc["tets"][::-1]
    for g in doc["gluings"]:
        g["from"][0] = 1 - g["from"][0]
        g["to"][0] = 1 - g["to"][0]
    Y = parse_triangulation(doc)
    assert sorted(Y.angle_sums) == pytest.approx(sorted(X.angle_sums))


def test_pachner_23_combinatorics():
    X = fig8()
    # either wiring-compatible shared face of the census complex works
    for face in (FIG8_CANONICAL_FACE, (0, 2)):
        Y = pachner_23(X, face)
        assert len(Y.tets) == len(X.tets) + 1
        assert len(Y.edge_classes) == len(X.edge_classes) + 1
        assert Y.is_closed
        # all pre-existing sums conserved, new edge balanced
        assert Y.is_balanced(1e-14)
        assert any(len(c) == 3 for c in Y.edge_classes)


def test_pachner_23_conserves_unbalanced_sums():
    # angle-sum conservation per edge is an exact consequence of the transfer
    # equations, independent of balance
    X = fig8().with_angles([(0.5, 0.3, 0.2), (0.25, 0.35, 0.4)])
    assert not X.is_balanced(1e-3)
    Y = pachner_23(X, FIG8_CANONICAL_FACE)
    old = sorted(X.angle_sums)
    new = sorted(Y.angle_sums)
    # the two old classes keep their sums exactly; the new edge appears at 2
    assert new[0] == pytest.approx(old[0], abs=1e-15)
    assert 2.0 in [pytest.approx(v, abs=1e-14) for v in new]


def test_pachner_23_errors():
    X = fig8()
    with pytest.raises(TopologyError):
        pachner_23(X, (0, 7))
    bad = ShapedTriangulation(
        X.N,
        X.theta,
        [ShapedTet(1, ChargeTriple.equal()), ShapedTet(-1, ChargeTriple.equal())],
        X.gluings,
    )
    with pytest.raises(TopologyError):
        pachner_23(bad, FIG8_CANONICAL_FACE)


def _pairing(X):
    """X's face pairing with its vertex maps, whatever direction each gluing is stored in."""
    return {face: end[:3] for face, end in X.partner.items()}


def test_pachner_23_reads_the_stored_gluing_direction():
    # at fig8_3tet's face (0, 2) both wirings hold, so the stored from/to order picks
    # which old tet plays d3: stored the other way round, the same triangulation moves
    # to a different four-tet, with the same Z (1.5e-16 relative at N=1, M=64)
    X = builtin_census("fig8_3tet")
    doc = X.to_document()
    g = doc["gluings"][X.partner[(0, 2)][3]]
    inv = dict(zip(g["vertex_map"], face_vertices(g["from"][1])))
    g["from"], g["to"] = g["to"], g["from"]
    g["vertex_map"] = [inv[w] for w in face_vertices(g["from"][1])]
    Y = parse_triangulation(doc)
    assert _pairing(Y) == _pairing(X) and Y.gluings != X.gluings
    A, B = pachner_23(X, (0, 2)), pachner_23(Y, (0, 2))
    assert _pairing(A) != _pairing(B)
    za, zb = (partition_function(Z, QuadratureSpec(M=64), target=1.0).Z for Z in (A, B))
    assert abs(za - zb) <= 1e-12 * abs(za)


def test_pachner_23_infeasible_charges():
    # c1 + c3 = 1.6 > 1 leaves no room for a positive middle triple
    X = fig8()
    Y = X.with_angles([(0.1, 0.1, 0.8), (0.1, 0.1, 0.8)])
    with pytest.raises(Infeasible):
        pachner_23(Y, FIG8_CANONICAL_FACE)


def _isomorphic(X, Y) -> bool:
    """Brute force isomorphism search for small complexes."""
    if len(X.tets) != len(Y.tets):
        return False
    T = len(X.tets)
    perms4 = list(permutations(range(4)))

    def gluing_set(Z, tet_map, vperms):
        out = set()
        for g in Z.gluings:
            t1, t2 = tet_map[g.from_tet], tet_map[g.to_tet]
            p1, p2 = vperms[g.from_tet], vperms[g.to_tet]
            src = tuple(v for v in range(4) if v != g.from_face)
            corr = {p1[a]: p2[b] for a, b in zip(src, g.vertex_map)}
            f1, f2 = p1[g.from_face], p2[g.to_face]
            key_a = (t1, f1, t2, f2, tuple(corr[v] for v in sorted(corr)))
            inv = {v: k for k, v in corr.items()}
            key_b = (t2, f2, t1, f1, tuple(inv[v] for v in sorted(inv)))
            out.add(min(key_a, key_b))
        return out

    ident = [tuple(range(4))] * T
    target = gluing_set(Y, list(range(T)), ident)
    t_angles_Y = sorted(
        (t.sign, round(t.angles.a, 12), round(t.angles.b, 12), round(t.angles.c, 12))
        for t in Y.tets
    )
    for tet_map in permutations(range(T)):
        for vp0 in perms4:
            for vp1 in perms4:
                vperms = [vp0, vp1]
                if gluing_set(X, list(tet_map), vperms) == target:
                    return True
    return False


def test_pachner_32_round_trip():
    X = fig8()
    Y = pachner_23(X, FIG8_CANONICAL_FACE)
    idx = next(i for i, c in enumerate(Y.edge_classes) if len(c) == 3)
    Z = pachner_32(Y, idx)
    assert len(Z.tets) == 2 and len(Z.edge_classes) == 2
    assert Z.is_balanced(1e-12)
    assert _isomorphic(Z, X)


def test_pachner_32_rejects_wrong_edge():
    X = fig8()
    Y = pachner_23(X, FIG8_CANONICAL_FACE)
    idx = next(i for i, c in enumerate(Y.edge_classes) if len(c) != 3)
    with pytest.raises(TopologyError):
        pachner_32(Y, idx)


def _three_tet_side():
    """pachner_23 of fig8_2tet and the index of its valence-3 edge class."""
    Y = pachner_23(fig8(), FIG8_CANONICAL_FACE)
    return Y, next(i for i, c in enumerate(Y.edge_classes) if len(c) == 3)


def _relabelled(X, t, perm):
    """X with vertex v of tet t renamed perm[v], every gluing at tet t rewritten to match."""
    gluings = []
    for g in X.gluings:
        ends = [[g.from_tet, g.from_face, face_vertices(g.from_face)],
                [g.to_tet, g.to_face, g.vertex_map]]
        for end in ends:
            if end[0] == t:
                end[1], end[2] = perm[end[1]], tuple(perm[v] for v in end[2])
        corr = dict(zip(*(end[2] for end in ends)))
        gluings.append(FaceGluing(g.from_tet, ends[0][1], g.to_tet, ends[1][1],
                                  tuple(corr[v] for v in face_vertices(ends[0][1]))))
    return ShapedTriangulation(X.N, X.theta, X.tets, gluings)


def test_pachner_32_refuses_a_valence_3_edge_on_two_tets():
    # a closed two-tet gluing, found by enumerating face pairings: each tet is glued
    # to itself, and edge class 3 has three edges, all of tet 1
    X = fig8()
    gluings = [FaceGluing(0, 0, 0, 1, (0, 2, 3)), FaceGluing(0, 2, 0, 3, (0, 1, 2)),
               FaceGluing(1, 0, 1, 1, (0, 3, 2)), FaceGluing(1, 2, 1, 3, (1, 2, 0))]
    Y = ShapedTriangulation(X.N, X.theta, X.tets, gluings)
    assert Y.is_closed and len(Y.edge_classes[3]) == 3
    with pytest.raises(TopologyError, match="three distinct tets"):
        pachner_32(Y, 3)


def test_pachner_32_refuses_a_relabelled_three_tet_side():
    # renaming the vertices of one tet of the three by (1, 0, 3, 2) keeps the
    # triangulation, but moves that tet's edge of the class, here from (0, 2) to
    # (1, 3): no order of the three tets puts it in the canonical position, where
    # the side as pachner_23 built it collapses.  Relabelling twice is the identity.
    Y, idx = _three_tet_side()
    pachner_32(Y, idx)
    t, edge = Y.edge_classes[idx][0]
    moved = _relabelled(Y, t, (1, 0, 3, 2))
    assert _relabelled(moved, t, (1, 0, 3, 2)).gluings == Y.gluings
    idx = next(i for i, c in enumerate(moved.edge_classes) if len(c) == 3)
    assert (t, edge) not in moved.edge_classes[idx]
    with pytest.raises(TopologyError, match="canonical three-tet position"):
        pachner_32(moved, idx)


def test_pachner_32_refuses_three_tets_of_mixed_sign():
    Y, idx = _three_tet_side()
    t = Y.edge_classes[idx][0][0]
    tets = [ShapedTet(-q.sign, q.angles) if i == t else q for i, q in enumerate(Y.tets)]
    with pytest.raises(TopologyError, match="signs disagree"):
        pachner_32(ShapedTriangulation(Y.N, Y.theta, tets, Y.gluings), idx)


def test_pachner_32_refuses_a_non_positive_merged_charge():
    # charges (0.45, 0.1, 0.45) on the three tets around the edge: the merged tet has
    # a1 = 0.9 and c1 = 0.9, so its b = 1 - a1 - c1 is negative
    Y, idx = _three_tet_side()
    around = {t for t, _ in Y.edge_classes[idx]}
    rows = [(0.45, 0.1, 0.45) if t in around else (q.angles.a, q.angles.b, q.angles.c)
            for t, q in enumerate(Y.tets)]
    with pytest.raises(Infeasible, match="strictly positive"):
        pachner_32(Y.with_angles(rows), idx)


def test_pachner_32_refuses_charges_off_the_transfer_equations():
    # q2's c moved off c1 + c3 by 1e-6, with b compensating: each tet is still a
    # charge triple, but no two-tet side has these three as its 2-3 move
    Y = pachner_23(fig8(), FIG8_CANONICAL_FACE)
    idx = next(i for i, c in enumerate(Y.edge_classes) if len(c) == 3)
    q2 = Y.tets[-2].angles
    tets = [*Y.tets[:-2], ShapedTet(Y.tets[-2].sign, ChargeTriple(q2.a, q2.b - 1e-6, q2.c + 1e-6)),
            Y.tets[-1]]
    moved = ShapedTriangulation(Y.N, Y.theta, tets, Y.gluings)
    with pytest.raises(Infeasible, match="do not satisfy the transfer equations"):
        pachner_32(moved, idx)


def test_balanced_perturbation_identity_and_positivity():
    X = fig8()
    d = gauge_direction(X, 0)
    same = balanced_perturbation(X, d, 0.0)
    assert same.to_document() == X.to_document()
    margin = positivity_margin(X, d)
    ok = balanced_perturbation(X, d, margin / 2)
    assert ok.is_balanced(1e-13)
    # the margin bounds |eps| for both signs; pushing far enough past it must fail
    with pytest.raises(PositivityViolation):
        balanced_perturbation(X, d, margin * 2.1)
    with pytest.raises(PositivityViolation):
        balanced_perturbation(X, d, -margin * 1.01)


def test_positivity_margin_is_the_least_ratio(rng):
    # the least angle / |direction| over the components of the direction that
    # are not 0, computed one component at a time
    X = pachner_23(fig8(), FIG8_CANONICAL_FACE)
    angles = [a for t in X.tets for a in (t.angles.a, t.angles.b, t.angles.c)]
    for d in (gauge_direction(X, 0), rng.normal(size=9), np.zeros(9)):
        least = min((a / abs(v) for a, v in zip(angles, d) if abs(v) > 1e-15), default=np.inf)
        assert positivity_margin(X, d) == least


def test_balanced_perturbation_rejects_non_kernel():
    X = fig8()
    bad = np.ones(6)
    with pytest.raises(ValueError):
        balanced_perturbation(X, bad, 0.01)


def test_balance_kernel_rank():
    X = fig8()
    ker = balance_kernel(X)
    # 6 angle variables, 2 tet-sum constraints, edge rows add rank 1 here
    assert ker.shape == (3, 6)
    for e in range(2):
        v = gauge_direction(X, e)
        resid = v - ker.T @ (ker @ v)
        assert np.linalg.norm(resid) < 1e-12


def _leading_trailing(X, c):
    """The gauge direction of edge class c member by member, as for positive tets:
    +1 at slot s+1 and -1 at slot s+2 of its tet for each incidence at slot s."""
    v = np.zeros(3 * len(X.tets))
    for (t, e) in X.edge_classes[c]:
        s = ANGLE_SLOT[e]
        v[3 * t + (s + 1) % 3] += 1.0
        v[3 * t + (s + 2) % 3] -= 1.0
    return v


def test_gauge_direction_is_the_member_loop():
    X3 = builtin_census("fig8_3tet")
    for X in (fig8(), X3, pachner_23(X3, (0, 2))):
        for c in range(len(X.edge_classes)):
            np.testing.assert_array_equal(gauge_direction(X, c), _leading_trailing(X, c))
    # a negative tet runs its slots the other way round, so its signs swap
    X = branched_two_tet()
    for c in range(2):
        np.testing.assert_array_equal(gauge_direction(X, c),
                                      np.repeat([1, -1], 3) * _leading_trailing(X, c))


def test_balance_kernel_is_the_member_loop():
    # constraint rows built member by member, as before the incidence array, give
    # the same kernel bit for bit
    for X in (fig8(), pachner_23(fig8(), FIG8_CANONICAL_FACE), branched_two_tet()):
        T = len(X.tets)
        rows = [np.repeat(np.eye(T)[t], 3) for t in range(T)]
        for cls in X.edge_classes:
            row = np.zeros(3 * T)
            for (t, e) in cls:
                row[3 * t + ANGLE_SLOT[e]] += 1.0
            rows.append(row)
        _, s, vt = np.linalg.svd(np.array(rows))
        np.testing.assert_array_equal(balance_kernel(X), vt[int(np.sum(s > 1e-12 * s[0])):])


@pytest.mark.parametrize("N", [1, 2])
def test_gauge_check_with_a_negative_tet(N, tmp_path, capsys):
    # tet signs (+1, -1): |Z| stays put along the gauge direction (1.7e-13 at N=1,
    # 1.9e-6 at N=2), and moves by 0.14 at N=1 along the sign-blind member loop
    X = branched_two_tet(N)
    path = tmp_path / "branched.json"
    path.write_text(json.dumps(X.to_document()))
    assert run(["check", "gauge", "--in", str(path), "--grid", "128"]) == 0
    assert json.loads(capsys.readouterr().out)["rel_change"] < 1e-3
    if N == 1:
        d = _leading_trailing(X, 0)
        z0, z1 = (partition_function(Y, QuadratureSpec(M=128), target=1.0).abs
                  for Y in (X, balanced_perturbation(X, d, positivity_margin(X, d) / 2)))
        assert abs(z1 - z0) / z0 > 0.1


@pytest.mark.parametrize("N", [1, 2])
def test_pachner_moves_on_every_feasible_face(N):
    # every feasible 2-3 move of fig8_2tet, fig8_3tet and the 4-tet complex; each
    # result is closed and balanced, and its 3-2 move followed by the 2-3 move on
    # the rebuilt shared face gives back the same document
    X3 = builtin_census("fig8_3tet", N)
    moves = 0
    for X in (builtin_census("fig8_2tet", N), X3, pachner_23(X3, (0, 2))):
        for face in ((t, f) for t in range(len(X.tets)) for f in range(4)):
            try:
                Y = pachner_23(X, face)
            except (TopologyError, Infeasible):
                continue
            moves += 1
            T = len(Y.tets)
            assert Y.is_closed and Y.is_balanced(1e-12)
            assert sum(len(c) for c in Y.edge_classes) == 6 * T
            # the class of edge (1,3) of the first new tet
            new_edge = next(c for c, m in enumerate(Y.edge_classes) if (T - 3, (0, 2)) in m)
            Z = pachner_32(Y, new_edge)
            assert pachner_23(Z, (T - 3, 1)).to_document() == Y.to_document()
    assert moves == 12



def _feasible_moves(X):
    """The results of every feasible 2-3 move of X."""
    out = []
    for face in ((t, f) for t in range(len(X.tets)) for f in range(4)):
        try:
            out.append(pachner_23(X, face))
        except (TopologyError, Infeasible):
            pass
    return out


def test_a_move_whose_interval_is_empty_in_exact_arithmetic_is_refused():
    # the second move solves the charges from t1 = (1/12, 1/12, 5/6) and t3 = (1/6,
    # 2/3, 1/6): the interval for a0 is [1/12, 1/12] exactly, 4.2e-17 wide in floats.
    # Accepted, it left a tet with charges (1.4e-17, 1.1e-16, 1 - 1e-16), where the
    # kernel B-sum meets a zero of the Faddeev function
    Y = pachner_23(builtin_census("fig8_3tet"), (1, 2))
    with pytest.raises(Infeasible, match="empty up to rounding"):
        pachner_23(Y, (0, 2))
    # the walk helper skips it; the two moves it keeps have charges of at least 1/24
    moves = _feasible_moves(Y)
    charges = [c for Z in moves for t in Z.tets for c in (t.angles.a, t.angles.b, t.angles.c)]
    assert len(moves) == 2 and min(charges) == pytest.approx(1 / 24)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(min_value=3, max_value=4), st.data())
def test_random_pachner_chains(N, depth, data):
    # a random chain of 2-3 moves from fig8_2tet; every result is closed and
    # balanced with edge valences summing to 6T, and the 3-2 move on its new
    # edge followed by the 2-3 move on the rebuilt face gives back its document
    Y = builtin_census("fig8_2tet", N)
    for step in range(depth):
        moves = _feasible_moves(Y)
        if step < depth - 1:  # some 4-tet complexes admit no 2-3 move: skip them
            moves = [Z for Z in moves if _feasible_moves(Z)]
        Y = data.draw(st.sampled_from(moves))
        T = len(Y.tets)
        assert Y.is_closed and Y.is_balanced(1e-12)
        assert sum(len(c) for c in Y.edge_classes) == 6 * T
        new_edge = next(c for c, m in enumerate(Y.edge_classes) if (T - 3, (0, 2)) in m)
        assert pachner_23(pachner_32(Y, new_edge), (T - 3, 1)).to_document() == Y.to_document()
