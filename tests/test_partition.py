"""Boltzmann weights and the state integral: descent, stability, invariances."""

import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (EVEN_PERMS, branched_two_tet, brute_kernel, params, relabelled_fig8,
                      renumbered)

import qdlab.charged
import qdlab.partition
from qdlab.charged import (ChargeTriple, WeightKernelParams, weight_kernel, weight_kernel_cores,
                           weight_kernel_grid, weight_kernel_rows)
from qdlab.cli import run
from qdlab.errors import NonConvergent, TopologyError
from qdlab.lca import CircleVar, LcaPoint, Modulus, QuadratureSpec, b_generator, lift
from qdlab.partition import (
    _contract,
    _grid_values,
    _tet_tables,
    boltzmann_weight,
    convergence_report,
    descent_residual,
    partition_function,
    total_weight,
)
from qdlab.triangulation import (V4, ShapedTet, ShapedTriangulation, balanced_perturbation,
                                 builtin_census, gauge_direction, pachner_23,
                                 positivity_margin)


def test_empty_triangulation_is_one(theta3):
    X = ShapedTriangulation(Modulus(1), theta3, [], [])
    res = partition_function(X, QuadratureSpec(M=16))
    assert res.Z == 1.0
    # every grid gives 1 exactly, so the estimate is the rounding floor
    assert res.error_estimate == qdlab.partition._ROUNDOFF


def test_open_triangulation_is_refused(capsys):
    # fixing j_0 = 0 needs a total weight that descends; an unglued face breaks that
    # (single_tet: descent residual 1.6, fixed-j_0 sum far from the full-grid sum)
    with pytest.raises(TopologyError, match="unglued"):
        partition_function(builtin_census("single_tet"), QuadratureSpec(M=16))
    for command in (["partition"], ["check", "gauge"]):
        assert run([*command, "--name", "single_tet", "--grid", "16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "unglued" in captured.err


@pytest.mark.parametrize("target", ["nan", "0", "-1", "inf"])
def test_target_must_be_positive(target, capsys):
    # a usage error (exit 1), not a non-convergent sum (exit 2).  The library takes
    # target=inf (no bound), but the CLI's --target must be finite: an inf estimate
    # would reach the report, which JSON cannot hold
    if target != "inf":
        with pytest.raises(ValueError, match="target must be positive"):
            partition_function(builtin_census("fig8_2tet"), QuadratureSpec(M=16),
                               target=float(target))
    assert run(["partition", "--grid", "16", "--target", target]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("argument --target: must be finite" if target in ("nan", "inf")
            else "target must be positive") in captured.err


def test_equal_states_collapse_to_kernel_origin():
    # equal edge variables cancel in both alternating combinations
    X = builtin_census("fig8_2tet")
    t = 0.317
    state = tuple(CircleVar(t) for _ in X.edge_classes)
    w = boltzmann_weight(X, 0, state)
    wkp = WeightKernelParams(X.tets[0].angles, params(1))
    expect = weight_kernel(wkp, LcaPoint(0.0, 0), LcaPoint(0.0, 0))
    assert w == pytest.approx(expect, rel=1e-12)


def test_negative_sign_conjugates():
    X = builtin_census("fig8_2tet")
    Xn = ShapedTriangulation(
        X.N,
        X.theta,
        [type(X.tets[0])(-1, X.tets[0].angles), X.tets[1]],
        X.gluings,
    )
    state = (CircleVar(0.21), CircleVar(0.63))
    assert boltzmann_weight(Xn, 0, state) == pytest.approx(
        np.conj(boltzmann_weight(X, 0, state)), rel=1e-13
    )


@pytest.mark.parametrize("X", [builtin_census("fig8_2tet", N=2), builtin_census("fig8_3tet", N=2),
                               pachner_23(builtin_census("fig8_3tet", N=1), (0, 2))],
                         ids=["fig8_2tet-N2", "fig8_3tet-N2", "four-tet-N1"])
def test_descent_residual_is_one_dtheta_call_per_band(X, monkeypatch):
    # the 2T tet weights of a descent residual, at the lifts and at the shifted lifts,
    # make one log_dtheta call per b + c (the two-tet and three-tet fig8 one, the
    # four-tet two), and every (state, tet) has its own row at its own section point:
    # no shifted weight is read off its base's row
    N, rN = X.N.N, X.N.sqrt
    rows, y0s = [], []
    real_d, real_rows = qdlab.charged.log_dtheta, qdlab.charged._dtheta_rows

    def log_dtheta(z, *args):
        rows.append(len(z))
        return real_d(z, *args)

    def dtheta_rows(p, bc, y0):
        y0s.extend(y0.tolist())
        return real_rows(p, bc, y0)

    monkeypatch.setattr(qdlab.charged, "log_dtheta", log_dtheta)
    monkeypatch.setattr(qdlab.charged, "_dtheta_rows", dtheta_rows)
    state = tuple(CircleVar(t) for t in np.linspace(0.1, 0.9, len(X.edge_classes)) * rN)
    assert descent_residual(X, state, 0, k=N) < 1e-8
    lifts = [lift(s, X.N) for s in state]
    shifted = [lifts[0] + b_generator(X.N).scale(N), *lifts[1:]]
    expect = []
    for ls in (lifts, shifted):
        for m in qdlab.partition._slots(X)[:, 1].tolist():  # E2, the kernel's y
            y = sum((ls[c].scale(v) for c, v in enumerate(m)), LcaPoint(0.0, 0))
            expect.append(y.x - y.n % N / rN)
    assert len(rows) == len({tet.angles.b + tet.angles.c for tet in X.tets}) == (
        2 if len(X.tets) == 4 else 1)
    assert sum(rows) == 2 * len(X.tets)
    assert sorted(y0s) == pytest.approx(sorted(expect), abs=1e-12)


def test_weights_match_single_kernels():
    # the batched tet weights at two sets of lifts are the kernels one pair at a time,
    # conjugated for the negative tet of the branched two-tet triangulation
    X = branched_two_tet(2)
    assert [tet.sign for tet in X.tets] == [1, -1]
    items = [(t, [LcaPoint(0.3, 1), LcaPoint(1.1, 0)]) for t in (0, 1)]
    items += [(t, [LcaPoint(-0.4, 0), LcaPoint(0.7, 3)]) for t in (1, 0)]
    slots = qdlab.partition._slots(X).tolist()
    for (t, ls), w in zip(items, qdlab.partition._weights(X, items)):
        e1, e2 = (sum((ls[c].scale(v) for c, v in enumerate(m)), LcaPoint(0.0, 0))
                  for m in slots[t])
        one = weight_kernel(WeightKernelParams(X.tets[t].angles, params(2)), e1, e2)
        assert w == pytest.approx(np.conj(one) if X.tets[t].sign < 0 else one, rel=1e-13)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("name", ["fig8_2tet", "fig8_3tet"])
def test_descent_sqrtN_shift(N, name, rng):
    X = builtin_census(name, N=N)
    for _ in range(2):
        st = tuple(CircleVar(rng.uniform(0, X.N.sqrt)) for _ in X.edge_classes)
        for e in range(len(X.edge_classes)):
            assert descent_residual(X, st, e, k=N) < 1e-8
            assert descent_residual(X, st, e, k=2 * N) < 1e-8


def test_descent_single_generator_odd_N(rng):
    # at odd N every B-shift descends; at even N only even multiples do
    X1 = builtin_census("fig8_3tet", N=1)
    X3 = builtin_census("fig8_3tet", N=3)
    for X in (X1, X3):
        st = tuple(CircleVar(rng.uniform(0, X.N.sqrt)) for _ in X.edge_classes)
        assert descent_residual(X, st, 0, k=1) < 1e-8


def test_partition_value_stable():
    X = builtin_census("fig8_2tet")
    res = partition_function(X, QuadratureSpec(M=128), target=1e-3)
    res2 = partition_function(X, QuadratureSpec(M=256), target=1e-3)
    assert abs(res.abs - res2.abs) / res.abs < 1e-3
    assert res.error_estimate < 1e-6


def _gauge_moved(X):
    """X moved by half its positivity margin along the gauge direction of edge class 0."""
    d = gauge_direction(X, 0)
    return balanced_perturbation(X, d, positivity_margin(X, d) / 2)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("shape", ["fig8_2tet", "fig8_3tet", "fig8_2tet-gauge-moved"])
def test_error_estimate_covers_the_next_grid(shape, N):
    # the extrapolated estimate at M bounds |Z_M - Z_2M|, at M=128 where the error is
    # above rounding (fig8_2tet N=2: 2.9e-11 against 1.4e-11, fig8_3tet N=3: 1.3e-5
    # against 3.3e-6) and at M=256, where the rounding floor carries it
    X = builtin_census(shape.split("-")[0], N=N)
    if shape.endswith("gauge-moved"):
        X = _gauge_moved(X)
    res = [partition_function(X, QuadratureSpec(M=M), target=np.inf) for M in (128, 256)]
    z512 = _grid_values(X, [512])[0]
    assert res[0].error_estimate >= abs(res[0].Z - res[1].Z)
    assert res[1].error_estimate >= abs(res[1].Z - z512)


def test_error_estimate_of_a_ladder_that_does_not_contract():
    # fig8_2tet with tet 1 relabelled by (1, 0, 3, 2) descends at N=1, but its Z at
    # M=8, 4, 2 does not contract: the estimate is inf, which only target=inf meets
    X = relabelled_fig8((1, 0, 3, 2), 1)
    with pytest.raises(NonConvergent, match="is inf relative"):
        partition_function(X, QuadratureSpec(M=8), target=1.0)
    assert partition_function(X, QuadratureSpec(M=8), target=np.inf).error_estimate == np.inf


def test_default_target_accepts_a_converged_Z():
    # the default target bounds the extrapolated error, not the last grid step:
    # at N=2, M=128 the estimate is 2.9e-11 relative, the step |Z_128 - Z_64| 1.4e-4
    res = partition_function(builtin_census("fig8_2tet", N=2), QuadratureSpec(M=128))
    assert res.error_estimate < 1e-10 * res.abs


def test_partition_nonconvergent_guard():
    X = builtin_census("fig8_2tet")
    with pytest.raises(NonConvergent):
        partition_function(X, QuadratureSpec(M=16), target=1e-12)


def test_nonconvergent_message_is_relative(capsys):
    # the message prints the relative error estimate that is compared with the
    # target: here 3.3e-2, while the absolute one, 4.0e-4, is below the target 1e-2
    X = builtin_census("fig8_3tet", N=2)
    z64, z32, z16 = _grid_values(X, [64, 32, 16])
    d0, d1 = abs(z32 - z16), abs(z64 - z32)
    assert run(["partition", "--name", "fig8_3tet", "--N", "2", "--grid", "64",
                "--target", "1e-2"]) == 2
    err = capsys.readouterr().err
    printed = float(err.split(" is ")[1].split()[0])
    assert d1 < d0 and d1**3 / d0**2 < 1e-2
    assert printed == pytest.approx(d1**3 / d0**2 / abs(z64), rel=1e-3)
    assert printed > 1e-2 and "grids 64, 32, 16" in err and "(target 1.0e-02)" in err


@pytest.mark.parametrize("N", [1, 2])
def test_pachner_invariance(N):
    X = builtin_census("fig8_2tet", N=N)
    Y = builtin_census("fig8_3tet", N=N)
    spec = QuadratureSpec(M=128)
    zx = partition_function(X, spec, target=1e-2)
    zy = partition_function(Y, spec, target=1e-2)
    assert abs(zx.abs - zy.abs) / zx.abs < 1e-3


def test_pachner_invariance_four_tets_N2():
    """|Z| at N=2 is invariant under the 2-3 move from 3 to 4 tets.

    Andersen-Kashaev (arXiv:1109.6295) prove Pachner invariance for the N=1
    theory.  The 4-tet grid sums 192^3 points once j_0 is fixed.
    """
    X2 = builtin_census("fig8_2tet", N=2)
    X4 = pachner_23(builtin_census("fig8_3tet", N=2), (0, 2))
    z2 = _grid_values(X2, [256])[0]
    z4 = _grid_values(X4, [192])[0]
    assert abs(abs(z4) - abs(z2)) / abs(z2) < 1e-3


def _five_tet(N):
    """The five-tet complex: two 2-3 moves from fig8_3tet.  Its smallest charge is 1/24."""
    return pachner_23(pachner_23(builtin_census("fig8_3tet", N=N), (0, 2)), (2, 2))


def test_pachner_invariance_five_tets_N1():
    """|Z| at N=1 is invariant under two 2-3 moves, from 3 to 5 tets.

    Andersen-Kashaev (arXiv:1109.6295) prove Pachner invariance for the N=1
    theory.  M=96 is the first rung of the ladder that agrees: |Z5|/|Z2| - 1 is
    1.2e-2 at M=64 and 2.8e-4 at M=96.  The grid sums 96^4 points once j_0 is fixed.
    """
    z2 = _grid_values(builtin_census("fig8_2tet", N=1), [256])[0]
    z5 = _grid_values(_five_tet(1), [96])[0]
    assert abs(abs(z5) - abs(z2)) / abs(z2) < 1e-3


def _box(X, t, M, first=1):
    """[(umin, umax), (wmin, wmax)]: the u and w that tet t reads at indices in [0, M) on
    edges first.. and 0 on the others; first=1 is the slice j_0 = 0 that _contract sums."""
    return [tuple(sum(f(v, 0) for v in m[first:]) * (M - 1) for f in (min, max))
            for m in qdlab.partition._slots(X)[t].tolist()]


def _own_table(X, t, box, M):
    """Tet t's whole-block table over the blocks of box, from its own core, conjugated if
    the tet is negative, and the (u, w) of its entry [0, 0]."""
    wkp = qdlab.partition._kernel(X, X.tets[t])
    a, q = (range(lo // M, hi // M + 1) for lo, hi in box)
    table = weight_kernel_grid(wkp, weight_kernel_cores([wkp], M)[0], a, q)
    return np.conj(table) if X.tets[t].sign < 0 else table, (a[0] * M, q[0] * M)


def _all_edge_tables(X, M):
    """Each tet's table over the index box of every j in [0, M)^E, j_0 included.

    _tet_tables spans only the slice j_0 = 0; a sum with no edge fixed reads
    this wider box, built here by the same weight_kernel_grid.
    """
    tables = []
    for t in range(len(X.tets)):
        table, (u0, w0) = _own_table(X, t, _box(X, t, M, first=0), M)
        m1, m2 = qdlab.partition._slots(X)[t].tolist()
        tables.append({"table": table, "u0": u0, "w0": w0, "m1": m1, "m2": m2})
    return tables


def _full_grid_sum(X, tables, M, stride):
    """Z as the plain sum over all j in [0, n)^E, no edge fixed, from _all_edge_tables."""
    E = len(X.edge_classes)
    n = M // stride
    js = np.ix_(*[stride * np.arange(n)] * E)
    total = np.ones((n,) * E, dtype=complex)
    for tab in tables:
        u = sum(v * js[c] for c, v in enumerate(tab["m1"]))
        w = sum(v * js[c] for c, v in enumerate(tab["m2"]))
        total = total * tab["table"][w - tab["w0"], u - tab["u0"]]
    return complex(np.sum(total) / n**E)


@pytest.mark.parametrize(
    "name,N,M", [(name, N, M) for name in ("fig8_2tet", "fig8_3tet") for N in (1, 2, 3)
                 for M in (16, 32)]
    + [("four_tet", 1, 16), ("four_tet", 1, 32), ("five_tet", 1, 8), ("five_tet", 1, 16)]
)
def test_fixed_edge_matches_full_grid_sum(name, N, M):
    # the integrand depends on j_c - j_0 and is periodic, so fixing j_0 = 0
    # changes Z only by the B-sum truncation that descent rests on
    if name == "four_tet":
        X = pachner_23(builtin_census("fig8_3tet", N=N), (0, 2))
    elif name == "five_tet":
        X = _five_tet(N)
    else:
        X = builtin_census(name, N=N)
    tables, full = _tet_tables(X, M), _all_edge_tables(X, M)
    for stride in (1, 2):
        z = _contract(X, tables, M, stride)
        assert z == pytest.approx(_full_grid_sum(X, full, M, stride), rel=1e-11)


def _slot_documents():
    X3 = builtin_census("fig8_3tet")
    X5 = _five_tet(1)
    return [builtin_census("fig8_2tet"), X3, pachner_23(X3, (0, 2)), X5, pachner_23(X5, (2, 2)),
            relabelled_fig8((0, 3, 1, 2)), branched_two_tet()]


@pytest.mark.parametrize("X", _slot_documents(), ids=["fig8_2tet", "fig8_3tet", "four_tet",
                         "five_tet", "six_tet", "relabelled", "branched"])
def test_slot_rows_are_the_edge_formula(X):
    # E1 = x01 + x23 - x03 - x12 and E2 = x03 + x12 - x02 - x13, summed edge by edge
    # over each tet's classes, are the incidence differences of _slots
    e1 = {(0, 1): 1, (2, 3): 1, (0, 3): -1, (1, 2): -1}
    e2 = {(0, 3): 1, (1, 2): 1, (0, 2): -1, (1, 3): -1}
    want = np.zeros((len(X.tets), 2, len(X.edge_classes)), dtype=int)
    for c, members in enumerate(X.edge_classes):
        for t, e in members:
            want[t, :, c] += (e1.get(e, 0), e2.get(e, 0))
    slots = qdlab.partition._slots(X)
    np.testing.assert_array_equal(slots, want)
    # two edges at each slot: every row sums to 2 - 2 = 0, which lets _contract fix j_0
    np.testing.assert_array_equal(X.incidence.sum(axis=2), 2)
    np.testing.assert_array_equal(slots.sum(axis=2), 0)
    # the descent phases of _contract cancel: the signed form of the slot rows is zero
    sign = np.array([t.sign for t in X.tets])
    form = np.einsum("t,tc,td->cd", sign, slots[:, 0], slots[:, 1])
    np.testing.assert_array_equal(form - form.T, 0)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_partition_refuses_where_the_weight_does_not_descend(N):
    # the 12 even relabellings of tet 1 of fig8_2tet: Z is refused exactly where a
    # B-period shift moves the total weight; 8 of them fail at odd N
    rng = np.random.default_rng(N)
    refused = 0
    for perm in EVEN_PERMS:
        X = relabelled_fig8(perm, N)
        state = tuple(CircleVar(rng.uniform(0, X.N.sqrt)) for _ in X.edge_classes)
        descends = all(descent_residual(X, state, e, k=N) < 1e-8 for e in range(2))
        try:
            partition_function(X, QuadratureSpec(M=8), target=np.inf)
        except TopologyError as e:
            assert "does not descend along edge class" in str(e)
            assert not descends
            refused += 1
        else:
            assert descends
    assert refused == (0 if N == 2 else 8)


@pytest.mark.parametrize("N, code", [(1, 1), (2, 0), (3, 1)])
def test_partition_cli_on_a_relabelled_fig8(N, code, tmp_path, capsys):
    # vertex v of tet 1 renamed (0, 3, 1, 2)[v]: the weight descends only at N = 2
    doc = relabelled_fig8((0, 3, 1, 2), N).to_document()
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(doc))
    assert run(["partition", "--in", str(path), "--grid", "128", "--target", "1"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and captured.err.startswith("error:")
        assert captured.err.count("\n") == 1 and "edge class" in captured.err
    else:
        assert json.loads(captured.out)["abs"] == pytest.approx(1.0673394, abs=1e-7)


@pytest.mark.parametrize("X", [relabelled_fig8((0, 3, 1, 2), 1), relabelled_fig8((0, 3, 1, 2), 3),
                               builtin_census("single_tet")],
                         ids=["relabelled-N1", "relabelled-N3", "single_tet"])
def test_refusal_comes_before_any_table(X, monkeypatch):
    # the descent gate runs before the first table, so no B-sum core, no line and no
    # kernel grid is built: the relabelled fig8s are E = 2, so each of their tets reads
    # a line, whose first step is the D_theta rows
    def no_table(*args):
        raise AssertionError("a table was built before the refusal")

    monkeypatch.setattr(qdlab.partition, "weight_kernel_cores", no_table)
    monkeypatch.setattr(qdlab.partition, "weight_kernel_grid", no_table)
    monkeypatch.setattr(qdlab.charged, "_dtheta_rows", no_table)
    with pytest.raises(TopologyError):
        partition_function(X, QuadratureSpec(M=16), target=1.0)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_klein_four_relabellings_keep_Z(N):
    # renaming tet 1's vertices by an element of V4 permutes its edges within
    # each slot, so the slot rule, and with it every bit of Z, is unchanged
    X = builtin_census("fig8_2tet", N=N)
    z = _grid_values(X, [16])
    for p in V4:
        Y = relabelled_fig8(p, N)
        np.testing.assert_array_equal(qdlab.partition._slots(Y), qdlab.partition._slots(X))
        assert _grid_values(Y, [16]) == z


def test_convergence_report(monkeypatch):
    X = builtin_census("fig8_2tet")
    rows = convergence_report(X, (32, 64, 128))
    deltas = [r["delta"] for r in rows[1:]]
    assert deltas[1] < deltas[0]
    # serializes losslessly
    assert json.loads(json.dumps(rows)) == json.loads(json.dumps(rows))
    with pytest.raises(ValueError):
        convergence_report(X, (32, 64))
    # every rung must be a grid QuadratureSpec accepts (M >= 8)
    for bad in ((-8, 8, 16), (0, 8, 16), (4, 8, 16)):
        with pytest.raises(ValueError):
            convergence_report(X, bad)
    # 32 is read from the M=64 tables by stride 2; 24 does not divide 64 and
    # builds its own; each rung matches a direct build at its own grid
    built = []
    real = qdlab.partition._tet_tables
    monkeypatch.setattr(qdlab.partition, "_tet_tables",
                        lambda X, M: built.append(M) or real(X, M))
    rows = convergence_report(X, (24, 32, 64))
    assert sorted(built) == [24, 64]
    monkeypatch.undo()
    for r in rows:
        assert complex(*r["Z"]) == pytest.approx(_grid_values(X, [r["M"]])[0], rel=1e-12)


def test_edge_reversal_leaves_Z_unchanged():
    # reversing an edge circle is a change of variables fixing the grid
    X = builtin_census("fig8_2tet")
    M = 64
    base = _grid_values(X, [M])[0]
    tables = _all_edge_tables(X, M)

    def z_with_reversal(edge):
        # evaluate by substituting t_e -> sqrt(N) - t_e on the grid
        E = len(X.edge_classes)
        js = [np.arange(M).reshape((1,) * i + (M,) + (1,) * (E - i - 1)) for i in range(E)]
        js[edge] = (-js[edge]) % M
        total = None
        for tab in tables:
            u = sum(v * js[c] for c, v in enumerate(tab["m1"]))
            w = sum(v * js[c] for c, v in enumerate(tab["m2"]))
            vals = tab["table"][w - tab["w0"], u - tab["u0"]]
            total = vals if total is None else total * vals
        return complex(np.sum(total) / M**2)

    for e in range(2):
        assert z_with_reversal(e) == pytest.approx(base, rel=1e-12)


def test_gauge_invariance_along_gauge_direction():
    from qdlab.triangulation import balanced_perturbation, gauge_direction, positivity_margin

    X = builtin_census("fig8_2tet")
    spec = QuadratureSpec(M=64)
    z0 = partition_function(X, spec, target=1e-2)
    for e in range(2):
        d = gauge_direction(X, e)
        eps = positivity_margin(X, d) / 2
        Xp = balanced_perturbation(X, d, eps)
        z1 = partition_function(Xp, spec, target=1e-2)
        assert abs(z0.abs - z1.abs) / z0.abs < 1e-3


def test_result_schema():
    X = builtin_census("fig8_2tet")
    doc = partition_function(X, QuadratureSpec(M=32), target=1.0).to_document()
    assert set(doc) == {"Z", "abs", "grid", "error_estimate"}
    assert isinstance(doc["Z"], list) and len(doc["Z"]) == 2


def test_total_weight_matches_product():
    X = builtin_census("fig8_2tet")
    st = (CircleVar(0.15), CircleVar(0.72))
    lifts = [LcaPoint(s.t, 0) for s in st]
    prod = boltzmann_weight(X, 0, st) * boltzmann_weight(X, 1, st)
    assert total_weight(X, lifts) == pytest.approx(prod, rel=1e-13)


def test_tet_table_matches_pointwise_kernel():
    # the table path (the M x M core, extended by the automorphy relations), the line
    # path (the paired B-sum on the core's rows) and the pointwise path of the B-sum
    # give the same values at the free indices j that a tet's view reads; the corners
    # {0, M - 1}^2 reach every extreme of u and w, up to two periods outside the core,
    # and at N=3, N does not divide M.  fig8_3tet's tets read tables; the two-tet
    # triangulations' tets read lines: fig8_2tet's in block q = 0, the branched one's
    # tet 0 in block q = -1 and its tet 1, which is negative, and the relabelled one's
    # tet 1 in blocks q = -1 and -2
    M = 16
    for N, name in itertools.product((2, 3), ["fig8_3tet", "fig8_2tet", "branched", "relabelled"]):
        X = builtin_census(name, N=N) if name == "fig8_3tet" else _two_tets(name, N)
        h = X.N.sqrt / M
        for t, (view, row) in enumerate(zip(_tet_tables(X, M), qdlab.partition._slots(X))):
            wkp = WeightKernelParams(X.tets[t].angles, params(N))
            for j in [*itertools.product((0, M - 1), repeat=2), (M // 2, M // 3), (M // 3, 1)]:
                j = tuple(jc if k > 1 else 0 for jc, k in zip(j, view.shape))  # edges it reads
                u, w = (int(np.dot(m[1:], j)) for m in row)
                expect = weight_kernel(wkp, LcaPoint(u * h, 0), LcaPoint(w * h, 0))
                if X.tets[t].sign < 0:
                    expect = np.conj(expect)
                assert view[j] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("charges, want", [
    ((0.05, 0.9, 0.05), None),
    ((0.475, 0.05, 0.475), None),
    ((0.475, 0.475, 0.05), None),
    # W((0.1, 0), (0.2, 0)) and the table entries at (umin, wmin) and (umin + 30,
    # wmin + 30) of the sum over k = -400..400, from before the tails were summed in
    # closed form
    ((0.05, 0.475, 0.475), (0.7923974491314545 + 1.7012240234258045j,
                            0.6100782727582019 + 1.4744542095767674j,
                            32.135484131704246 + 2.9276006376445043j)),
], ids=["a-c-small", "b-small", "c-small", "a-small"])
def test_tet_table_truncation_is_checked(theta3, charges, want):
    # a charge 0.05 on C (right side) or B (left side) makes F psi decay so slowly
    # there that its terms stay above 1e-14 for about 1,000 B-shifts, past the 400
    # that a term-by-term sum used to reach.  The tails are summed in closed form, so
    # the paired path and the table both match a brute sum over k = -3000..3000.
    # A sets no side.
    ch = ChargeTriple(*charges)
    X = ShapedTriangulation(Modulus(5), theta3, [ShapedTet(1, ch)], [])
    wkp = WeightKernelParams(ch, params(5))
    table = _tet_tables(X, 16)[0].base
    # the entries at (umin + i, wmin + i) of the slice box, i = 0 and 30
    (umin, _), (wmin, _) = _box(X, 0, 16)
    ui, wi = umin % 16, wmin % 16  # its column and row in the whole-block table
    h = X.N.sqrt / 16
    points = [(LcaPoint(0.1, 0), LcaPoint(0.2, 0))] + [
        (LcaPoint((i + umin) * h, 0), LcaPoint((i + wmin) * h, 0)) for i in (0, 30)]
    got = (weight_kernel(wkp, *points[0]), table[wi, ui], table[wi + 30, ui + 30])
    assert got == pytest.approx([brute_kernel(wkp, x, y, 3000) for x, y in points], rel=1e-10)
    if want is not None:
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("M", [32, 33])
def test_partition_function_matches_direct_grids(M):
    # M=32 reads the M/2 and M/4 grids from the M tables by stride, M=33 builds the
    # M//2 and M//4 tables; these grids are too coarse for any target, so none is set
    X = builtin_census("fig8_3tet", N=2)
    spec = QuadratureSpec(M=M)
    res = partition_function(X, spec, target=np.inf)
    z, z2, z4 = (_grid_values(X, [m])[0] for m in (M, M // 2, M // 4))
    d0, d1 = abs(z2 - z4), abs(z - z2)
    assert res.Z == pytest.approx(z, rel=1e-12)
    assert d1 < d0  # the ladder contracts, so the estimate extrapolates
    assert res.error_estimate == pytest.approx(d1**3 / d0**2, rel=1e-12)


def test_contraction_in_many_slabs(monkeypatch):
    # with j_0 fixed the sum runs over edges 1 and 2; three planes of edge 1 per
    # slab: 11 slabs at M=32 (the last one short) and 6 on the stride-2 grid,
    # against the one-slab sums
    X = builtin_census("fig8_3tet", N=2)
    spec = QuadratureSpec(M=32)
    one = partition_function(X, spec, target=np.inf)
    monkeypatch.setattr(qdlab.partition, "_SLAB_POINTS", 3 * 32)
    many = partition_function(X, spec, target=np.inf)
    assert many.Z == pytest.approx(one.Z, rel=1e-13)
    assert many.error_estimate == pytest.approx(one.error_estimate, rel=1e-13)
    # four tets: edges 1, 2 and 3 are free, and three planes of edge 1 per slab
    # give 6 slabs at M=16 and 3 on the stride-2 grid, the last one short in both
    X4 = pachner_23(builtin_census("fig8_3tet", N=1), (0, 2))
    tables = _tet_tables(X4, 16)
    monkeypatch.undo()
    one4 = [_contract(X4, tables, 16, stride) for stride in (1, 2)]
    monkeypatch.setattr(qdlab.partition, "_SLAB_POINTS", 3 * 16**2)
    for stride, z in zip((1, 2), one4):
        assert _contract(X4, tables, 16, stride) == pytest.approx(z, rel=1e-13)
    # five tets: one plane of edge 1 (16^3 points) is larger than a slab, so a
    # slab is one plane of edge 1 times three planes of edge 2: 16 x 6 slabs at
    # M=16 and 8 x 3 on the stride-2 grid, the last run of edge 2 short in both
    X5 = _five_tet(1)
    tables = _tet_tables(X5, 16)
    monkeypatch.undo()
    one5 = [_contract(X5, tables, 16, stride) for stride in (1, 2)]
    monkeypatch.setattr(qdlab.partition, "_SLAB_POINTS", 3 * 16**2)
    for stride, z in zip((1, 2), one5):
        assert _contract(X5, tables, 16, stride) == pytest.approx(z, rel=1e-13)


def test_slabs_are_bounded_at_six_edges(monkeypatch):
    # a 2-3 move on the five-tet gives E = 6, so five edges are free.  A slab of
    # 24 points at M = 8 runs edges 1, 2 and 3 one index at a time and steps
    # edge 4 by three planes of edge 5: 8^3 x 3 slabs at stride 1 and 4^3 x 2
    # at stride 2, each at most 24 points, against the one-slab sums
    X = pachner_23(_five_tet(1), (2, 2))
    assert len(X.edge_classes) == 6
    assert min(min(t.angles.a, t.angles.b, t.angles.c) for t in X.tets) == pytest.approx(1 / 48)
    tables = _tet_tables(X, 8)
    one = [_contract(X, tables, 8, stride) for stride in (1, 2)]
    shapes, broadcast_shapes = [], np.broadcast_shapes

    def record(*args):
        shapes.append(broadcast_shapes(*args))
        return shapes[-1]

    monkeypatch.setattr(np, "broadcast_shapes", record)
    monkeypatch.setattr(qdlab.partition, "_SLAB_POINTS", 24)
    for stride, z in zip((1, 2), one):
        assert _contract(X, tables, 8, stride) == pytest.approx(z, rel=1e-13)
    assert max(int(np.prod(s)) for s in shapes) == 24
    assert len(shapes) == 8**3 * 3 + 4**3 * 2


def _take_contract(X, tables, M, stride=1):
    """_contract as one take per tet from int64 index arrays into its whole-block table
    (view.base), its blocks found from the slot row: the reference for the views."""
    E, n = len(X.edge_classes), M // stride
    ax, slab_points = stride * np.arange(n), qdlab.partition._SLAB_POINTS
    r = next((r for r in range(E - 1) if M ** (E - 2 - r) <= slab_points), 0)
    steps = [1] * r + [max(1, slab_points // M ** (E - 2 - r))]
    total = 0j
    for starts in itertools.product(*[range(0, n, s) for s in steps]):
        slab = [ax[a:a + s] for a, s in zip(starts, steps)]
        j = [0, *np.ix_(*slab, *[ax] * (E - 1 - len(steps)))]
        shape, out = np.broadcast_shapes(*map(np.shape, j)), np.ones((), dtype=complex)
        gathers = []
        for t, (view, row) in enumerate(zip(tables, qdlab.partition._slots(X).tolist())):
            (umin, _), (wmin, _) = _box(X, t, M)
            u, w = (sum((m[c] * j[c] for c in range(1, E) if m[c]), -(lo // M) * M)
                    for m, lo in zip(row, (umin, wmin)))
            gathers.append(view.base[w, u])
        for g in sorted(gathers, key=np.size):
            out = np.multiply(out, g, out=out if out.shape == shape else None)
        total += np.sum(out)
    return complex(total / n ** (E - 1))


def _contraction_complex(name):
    if name == "four_tet":
        return pachner_23(builtin_census("fig8_3tet", N=1), (0, 2))
    return _five_tet(1) if name == "five_tet" else builtin_census(name, N=2)


@pytest.mark.parametrize("name", ["fig8_3tet", "four_tet", "five_tet"])
@pytest.mark.parametrize("stride", [1, 2, 4])
@pytest.mark.parametrize("slab", ["default", "short"])
def test_strided_views_keep_the_bits_of_the_gathers(monkeypatch, name, stride, slab):
    # each tet reads its table through a strided view, not a take; the C-order
    # product keeps numpy's pairwise sum order, so Z is bit-identical.  "short"
    # gives three planes of the last slab edge per slab: many slabs, a short last one
    X = _contraction_complex(name)
    E, M = len(X.edge_classes), 16
    tables = _tet_tables(X, M)
    if slab == "short":
        monkeypatch.setattr(qdlab.partition, "_SLAB_POINTS", 3 * M ** (E - 3))
    assert _contract(X, tables, M, stride) == _take_contract(X, tables, M, stride)


def test_contraction_allocates_one_slab_product():
    # the four-tet at M=96 runs in slabs of 7 x 96 x 96 points: the views copy
    # nothing, so the traced peak is one slab product (1.25 MB), where per-tet
    # gathers and their int64 index arrays took 4.58 MB
    X = pachner_23(builtin_census("fig8_3tet", N=1), (0, 2))
    tables = _tet_tables(X, 96)
    tracemalloc.start()
    try:
        _contract(X, tables, 96)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * np.dtype(complex).itemsize * qdlab.partition._SLAB_POINTS


@pytest.mark.parametrize("rows", [-1, 1])
def test_contraction_refuses_a_read_past_the_table(rows, monkeypatch):
    # every table one row short, its first (-1) or its last (1) row cut: the view
    # of a tet that reads the last row of its blocks then ends past the table, and
    # numpy's bounds check raises as _tet_tables builds it, before any sum
    X = pachner_23(builtin_census("fig8_3tet", N=1), (0, 2))
    real = qdlab.partition.weight_kernel_grid
    monkeypatch.setattr(qdlab.partition, "weight_kernel_grid",
                        lambda *args: real(*args)[1:] if rows < 0 else real(*args)[:-1])
    with pytest.raises(ValueError, match="buffer"):
        _tet_tables(X, 16)


@pytest.mark.parametrize("name, shapes", [
    ("fig8_2tet", [(16,)] * 2),
    ("fig8_3tet", [(48, 16), (16, 48), (48, 16)]),
    ("four_tet", [(48, 32), (64, 48), (32, 48), (48, 48)]),
])
def test_tables_span_the_fixed_edge_slice(name, shapes):
    # each table is the whole blocks of the index box of the slice j_0 = 0 that
    # _contract sums, not those of all of [0, M)^E.  fig8_2tet's tets touch one free
    # edge, so each reads its line, M values at a unit stride, where a table would be
    # (16, 48) and the box of all of [0, M)^2 (32, 64)
    X = (pachner_23(builtin_census("fig8_3tet"), (0, 2)) if name == "four_tet"
         else builtin_census(name))
    tabs = _tet_tables(X, 16)
    assert [view.base.shape for view in tabs] == shapes
    if name == "fig8_2tet":
        assert [view.strides for view in tabs] == [(np.dtype(complex).itemsize,)] * 2
        assert tabs[0].base is tabs[1].base  # equal charges, sign and line
        assert [tab["table"].shape for tab in _all_edge_tables(X, 16)] == [(32, 64)] * 2
    if name == "fig8_3tet":
        assert tabs[0].base is tabs[2].base


def test_equal_tets_share_one_table():
    # tets 0 and 2 of fig8_3tet have equal charges, sign and index ranges
    X = builtin_census("fig8_3tet", N=2)
    tabs = _tet_tables(X, 16)
    assert tabs[0].base is tabs[2].base
    assert tabs[1].base is not tabs[0].base
    # a second call keeps its own memo: new arrays with the same entries
    again = _tet_tables(X, 16)
    for t in (0, 2):
        assert again[t].base is not tabs[t].base
        np.testing.assert_array_equal(again[t].base, tabs[t].base)


def _four_tet(N):
    return pachner_23(builtin_census("fig8_3tet", N=N), (0, 2))


@pytest.mark.parametrize("name,bands", [("fig8_2tet", 1), ("fig8_3tet", 1), ("four_tet", 2),
                                        ("five_tet", 3)])
def test_dtheta_runs_once_per_b_plus_c(name, bands, monkeypatch):
    # D_theta reads the charges through b + c alone, so _tet_tables evaluates it on
    # the B-sum band once per float b + c, for the tets that read a line and those that
    # read a table alike: 2, 3, 4 and 5 tets, 1, 1, 2 and 3 bands
    X = {"fig8_2tet": builtin_census("fig8_2tet"), "fig8_3tet": builtin_census("fig8_3tet"),
         "four_tet": _four_tet(1), "five_tet": _five_tet(1)}[name]
    real, calls = qdlab.charged.log_dtheta, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(qdlab.charged, "log_dtheta", counted)
    _tet_tables(X, 16)
    assert len({t.angles.b + t.angles.c for t in X.tets}) == len(calls) == bands


@pytest.mark.parametrize("name,N", [("fig8_3tet", 1), ("fig8_3tet", 2), ("fig8_3tet", 3),
                                    ("four_tet", 1), ("five_tet", 1)])
def test_shared_dtheta_rows_keep_every_table_bit(name, N):
    # a table read off its group's shared D_theta rows has the bits of the tet's own
    # weight_kernel_grid, which evaluates D_theta for that tet alone
    X = {"fig8_3tet": builtin_census("fig8_3tet", N=N), "four_tet": _four_tet(N),
         "five_tet": _five_tet(N)}[name]
    M = 32
    for t, view in enumerate(_tet_tables(X, M)):
        np.testing.assert_array_equal(view.base, _own_table(X, t, _box(X, t, M), M)[0])


@pytest.mark.parametrize("name", ["fig8_3tet", "four_tet"])
def test_tet_order_keeps_Z(name):
    # renumbering the tets moves the edge classes, the fixed edge j_0, the slab order
    # and the order in which D_theta bands are shared, but not Z beyond rounding
    X = builtin_census("fig8_3tet", N=2) if name == "fig8_3tet" else _four_tet(2)
    z = _grid_values(X, [64])[0]
    for order in itertools.permutations(range(len(X.tets))):
        zo = _grid_values(renumbered(X, order), [64])[0]
        assert abs(zo - z) <= 1e-12 * abs(z), order


@pytest.fixture
def nan_dtheta_rows(monkeypatch):
    """Put one NaN into the D_theta rows of every charged._dtheta_rows call."""
    real, calls = qdlab.charged._dtheta_rows, []

    def poisoned(*args):
        ks, log_d = real(*args)
        log_d[len(log_d) // 2, len(ks) // 2] = np.nan
        calls.append(1)
        return ks, log_d

    monkeypatch.setattr(qdlab.charged, "_dtheta_rows", poisoned)
    return calls


def test_nan_in_shared_dtheta_rows_is_refused(nan_dtheta_rows, capsys):
    # fig8_3tet's three tets share b + c, so all read one poisoned band, and the
    # B-sum's own guard refuses it.  The NaN meets finite imaginary parts on its
    # way to exp, where numpy would warn; warnings are raised as errors, so the
    # refusal must come from the guard and not from a warning
    X = builtin_census("fig8_3tet")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonConvergent):
            _tet_tables(X, 16)
        assert len(nan_dtheta_rows) == 1
        with pytest.raises(NonConvergent):
            partition_function(X, QuadratureSpec(M=16), target=1.0)
        assert run(["partition", "--name", "fig8_3tet", "--grid", "16", "--target", "1.0"]) == 2
    assert capsys.readouterr().out == ""


@pytest.fixture
def nan_transform(monkeypatch):
    """Put one NaN into the first output of charged.log_forward_transform."""
    real = qdlab.charged.log_forward_transform
    calls = []

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        if not calls:
            out = out.copy()
            out[len(out) // 2] = np.nan
        calls.append(1)
        return out

    monkeypatch.setattr(qdlab.charged, "log_forward_transform", poisoned)
    return calls


def test_b_sum_raises_on_nan_term(nan_transform):
    X = builtin_census("fig8_2tet", N=2)
    wkp = WeightKernelParams(X.tets[0].angles, params(2))
    with pytest.raises(NonConvergent):
        weight_kernel(wkp, LcaPoint(0.1, 0), LcaPoint(0.2, 1))
    nan_transform.clear()
    with pytest.raises(NonConvergent):
        _tet_tables(X, 16)


def test_partition_raises_on_nan_term(nan_transform, capsys):
    X = builtin_census("fig8_2tet")
    with pytest.raises(NonConvergent):
        partition_function(X, QuadratureSpec(M=16), target=1.0)
    nan_transform.clear()
    assert run(["partition", "--name", "fig8_2tet", "--grid", "16", "--target", "1.0"]) == 2
    assert capsys.readouterr().out == ""


def test_partition_raises_on_nan_table(monkeypatch):
    # the guard of partition_function itself, behind the B-sum's own guard, on a
    # whole-block table: fig8_3tet's tets touch two free edges each
    real, calls = qdlab.partition.weight_kernel_grid, []

    def poisoned(wkp, core, a_blocks, q_blocks):
        out = real(wkp, core, a_blocks, q_blocks)
        M = len(core)
        out[-q_blocks[0] * M, -a_blocks[0] * M] = np.nan  # the entry at equal states
        calls.append(1)
        return out

    monkeypatch.setattr(qdlab.partition, "weight_kernel_grid", poisoned)
    with pytest.raises(NonConvergent):
        partition_function(builtin_census("fig8_3tet"), QuadratureSpec(M=16), target=1.0)
    assert calls


def test_partition_raises_on_nan_line(monkeypatch):
    # the same guard on a line: fig8_2tet's tets touch one free edge each
    real, calls = qdlab.partition.weight_kernel_cores, []

    def poisoned(wkps, M, lines):
        out = real(wkps, M, lines)
        for values, line in zip(out, lines):
            if line is not None:
                values[0] = np.nan  # the value at equal states
                calls.append(1)
        return out

    monkeypatch.setattr(qdlab.partition, "weight_kernel_cores", poisoned)
    with pytest.raises(NonConvergent):
        partition_function(builtin_census("fig8_2tet"), QuadratureSpec(M=16), target=1.0)
    assert calls


def _two_tets(name, N):
    return {"fig8_2tet": lambda: builtin_census("fig8_2tet", N=N),
            "branched": lambda: branched_two_tet(N),
            "relabelled": lambda: relabelled_fig8((0, 3, 1, 2), N)}[name]()


@pytest.mark.parametrize("name", ["fig8_2tet", "branched", "relabelled"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_line_keeps_the_bits_of_the_kernel_rows(name, N):
    # a line read off the rows of F psi at y0 = (0..M-1) h that weight_kernel_cores
    # shares has the bits of weight_kernel_rows at the rows w0 it reads, W at
    # w = qM + w0 being W(u h, 0, qN) of row w0: the branched tet 0 reads q = -1 and
    # its tet 1 is negative, the relabelled tet 1 reads q = -1 and -2 and every other row
    X, M = _two_tets(name, N), 32
    h = X.N.sqrt / M
    for t, view in enumerate(_tet_tables(X, M)):
        (m1,), (m2,) = qdlab.partition._slots(X)[t, :, 1:].tolist()
        u, w = m1 * np.arange(M), m2 * np.arange(M)
        line = weight_kernel_rows(qdlab.partition._kernel(X, X.tets[t]), w % M * h, 0)(
            u * h, 0, w // M * N)
        np.testing.assert_array_equal(view, np.conj(line) if X.tets[t].sign < 0 else line)


def test_lines_build_no_table(monkeypatch):
    # fig8_2tet's Z reads M paired B-sum values per tet: no kernel grid, and no B-sum
    # core, the grid branch of _b_sum (offsets None)
    real_sum, sums = qdlab.charged._b_sum, []

    def b_sum(wkp, rows, xr, xn, off=None):
        sums.append(off is None)
        return real_sum(wkp, rows, xr, xn, off)

    def no_grid(*args):
        raise AssertionError("a whole-block table was built")

    monkeypatch.setattr(qdlab.charged, "_b_sum", b_sum)
    monkeypatch.setattr(qdlab.partition, "weight_kernel_grid", no_grid)
    partition_function(builtin_census("fig8_2tet", N=2), QuadratureSpec(M=32), target=1.0)
    assert sums == [False]  # one line: the two tets share it
