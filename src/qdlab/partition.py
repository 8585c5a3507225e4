"""Boltzmann weights and the state-integral partition function Z(X).

Each tetrahedron contributes the weight-kernel value at the two alternating
edge-variable combinations

    E1 = x01 + x23 - x03 - x12,      E2 = x03 + x12 - x02 - x13,

complex-conjugated for negative tets; per edge class both are differences of
the triangulation's incidence (_slots).  States live on the circle A/B, one per
edge class; Z(X) integrates the product of weights over [0, sqrt(N))^edges
with the mass-1 measure (dt/sqrt(N)) per edge, by periodic trapezoid on M
points per edge.  Kernel values are memoized on the index grid: for lifted
states all kernel arguments are integer multiples of h = sqrt(N)/M.  A tet
whose slot row touches at most one free edge of the slice j_0 = 0 that the sum
reads (below), as every tet of a two-tet triangulation does, reads M kernel
values along a line.  It gets them straight from the paired B-sum, M row
contractions, where a table would cost an M x M core and at least 3M^2
entries with M^2 chirp exponentials.  Every other tet needs a single
(E2-index, E1-index) table: the whole M x M blocks that cover the index box
of that slice.  The table comes from `charged.weight_kernel_grid`, which
shares the B-sum engine and its closed-form tails with every pointwise kernel
value.  It sums the B-sum on the M x M core only; by the two automorphy
relations of the kernel every M x M block of the table is that core times a
rank-one unimodular phase.

Within one call, tets with equal charges, sign and index ranges share one
table, positive tets with equal charges and lines share one line, tets with
equal charges share one core and one set of F psi rows, and D_theta, the
B-sum's one costly factor, is evaluated once per float b + c for the lines and
the cores together (charged.weight_kernel_cores): fig8_2tet's two tets and
fig8_3tet's three read one band, the four-tet's four read two, the five-tet's
five three.  Pointwise weights batch the same way (charged.weight_kernel_pairs):
descent_residual's 2T tet weights, at the lifts and at the shifted lifts, make one
D_theta call per float b + c, each (lifts, tet) on its own row at its own section
point, as a shifted weight read off its base's row would make the residual an
identity of the code.  A grid of M/s points per edge is the stride-s subgrid of
the M grid, so it is contracted straight from the M views: its index j reads the
M-grid entry at s j.  The error estimate reads its M/2 and M/4 grids this way where
they divide M, and a convergence ladder reads every rung that divides its largest.
Nothing is cached across calls.  Each tet's slot rows sum to zero (two edges
at each slot), so the integrand depends only on j_c - j_0, and descent makes it
periodic in each j_c: the sum is equal copies of the slice j_0 = 0 (M^(E-1)
points).  A tet's read plan is affine in the free j_c, so it is its line or
one strided view of its table, built once and bounds-checked by numpy's
constructor, and every slab and coarse grid is a basic slice of that view.
Where the weight does not descend, Z is refused before any line or table is
built (_require_descent).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .charged import (WeightKernelParams, weight_kernel_cores, weight_kernel_grid,
                      weight_kernel_pairs)
from .errors import NonConvergent, TopologyError
from .lca import LcaPoint, QuadratureSpec, b_generator, lift
from .qdilog import QdParams
from .triangulation import ShapedTriangulation

__all__ = [
    "boltzmann_weight",
    "total_weight",
    "descent_residual",
    "partition_function",
    "PartitionResult",
    "TARGET",
    "convergence_report",
]

def _kernel(X: ShapedTriangulation, tet) -> WeightKernelParams:
    return WeightKernelParams(tet.angles, QdParams(X.theta, X.N))


def _slots(X: ShapedTriangulation) -> np.ndarray:
    """The slot rule as a (T, 2, E) array: [t, 0, c] and [t, 1, c] are the coefficients
    of edge class c in E1 and in E2 of tet t.  E1 takes the slot-a edges (01, 23) minus
    the slot-c edges (03, 12), E2 the slot-c edges minus the slot-b edges (02, 13)."""
    inc = X.incidence
    return np.stack([inc[:, 0] - inc[:, 2], inc[:, 2] - inc[:, 1]], axis=1)


def boltzmann_weight(
    X: ShapedTriangulation,
    t: int,
    state: tuple,
) -> complex:
    """Weight of tet t at a state, one CircleVar per edge class (lifted canonically)."""
    return _weights(X, [(t, [lift(s, X.N) for s in state])])[0]


def _weights(X: ShapedTriangulation, items) -> list[complex]:
    """The weight of tet t at lifts (one LcaPoint per edge class) for each (t, lifts) of
    items: the kernel at (E1, E2), the combinations of the lifts by its slot rows
    (_slots), conjugated if the tet is negative.  All come from one weight_kernel_pairs
    call, each pair on its own row of F psi."""
    slots = _slots(X).tolist()
    args = [[sum((lifts[c].scale(v) for c, v in enumerate(row) if v), LcaPoint(0.0, 0))
             for row in slots[t]] for t, lifts in items]
    vals = weight_kernel_pairs([_kernel(X, X.tets[t]) for t, _ in items],
                               *([a[j] for a in args] for j in (0, 1))).tolist()
    return [v.conjugate() if X.tets[t].sign < 0 else v for (t, _), v in zip(items, vals)]


def total_weight(X: ShapedTriangulation, lifts) -> complex:
    """B_X at explicit lifts (one LcaPoint per edge class)."""
    return math.prod(_weights(X, [(t, lifts) for t in range(len(X.tets))]), start=1.0 + 0j)


def descent_residual(
    X: ShapedTriangulation,
    state: tuple,
    edge: int,
    k: int = 1,
) -> float:
    """Relative change of B_X when one edge lift is moved by k B-generators.

    Vanishing residuals certify that the total weight descends to A/B^edges.  The 2T
    tet weights, at the lifts and at the shifted lifts, come from one batch.
    """
    lifts = [lift(s, X.N) for s in state]
    shifted = list(lifts)
    shifted[edge] = shifted[edge] + b_generator(X.N).scale(k)
    T = len(X.tets)
    w = _weights(X, [(t, ls) for ls in (lifts, shifted) for t in range(T)])
    w0, w1 = (math.prod(w[s:s + T], start=1.0 + 0j) for s in (0, T))
    return abs(w1 - w0) / max(abs(w0), 1e-300)


def _require_descent(X: ShapedTriangulation) -> None:
    """Raise TopologyError unless the total weight descends to (A/B)^E.

    Z is defined only there.  A tet has two edges at each angle slot, so its
    slot rows sum to zero and the integrand depends only on j_c - j_0; descent
    makes it periodic in each j_c, which lets _contract fix j_0 = 0.
    Descent along c: j_c -> j_c + M moves (u, w) of tet t by (m1, m2) blocks,
    its slot row at c, and so by weight_kernel_grid's block phases multiplies
    its entry by e^{-pi i N (m1 w - m2 u)/M} (-1)^(N m2 (1 - m1)), conjugated
    if the tet is negative.  The exponentials cancel over the tets, as the form
    sum_t sign_t (m1_c m2_d - m2_c m1_d) is zero (Neumann-Zagier); the signs
    leave (-1)^(N sum_t m2 (1 - m1)), and an odd sum is refused.  `qdlab check
    descent` samples the same property (descent_residual).
    """
    if not X.is_closed:  # an open X's total weight need not descend
        raise TopologyError("triangulation has unglued faces; j_0 cannot be fixed")
    slots = _slots(X)
    odd = np.flatnonzero(X.N.N % 2 * np.sum(slots[:, 1] * (1 - slots[:, 0]), axis=0) % 2)
    if odd.size:
        raise TopologyError(f"the total weight does not descend along edge class {odd[0]} "
                            f"at N={X.N.N}: a B-period of it flips the sign")


def _tet_tables(X: ShapedTriangulation, M: int) -> list[np.ndarray]:
    """Each tet's kernel values on the index grid at size M, read through one view.

    At free grid indices j_c (j_0 = 0), tet t reads W((u h, 0), (w h, 0)), where u and w
    are the sums of j_c times its slot row (_slots), its E1 part giving u and its E2 part
    w.  view[j_1, ..., j_{E-1}] is that value, with size M on each free edge the tet
    touches and 1 on the others.

    A tet that touches at most one free edge c reads a line, u = m1_c j and w = m2_c j
    for j = 0..M-1 (one point if it touches none).  Its view is that line, M values from
    the paired B-sum (weight_kernel_cores' lines).  A table would cost an M x M core and
    at least 3M^2 entries with M^2 chirp exponentials for those M reads.

    Every other tet reads a table: the whole-block array of weight_kernel_grid over the
    blocks that the slice j_0 = 0 reads, u and w running over all integer combinations
    of free indices 0..M-1 with its slot row, the blocks a0..a1 and q0..q1 those of the
    extreme u and w.  Entry [w - q0 M, u - a0 M] = W((u h, 0), (w h, 0)), so with ncol
    columns the entry at free indices j_c is table.ravel()[sum_c step[c] j_c -
    (q0 ncol + a0) M], step[c] = m2_c ncol + m1_c.  The view is that read plan: numpy's
    constructor checks its extent against the table, negative strides included, and
    raises ValueError on a read past either end.

    Tets with equal charges, sign and blocks share one table; positive tets with equal
    charges and lines share one line.  The lines and the M x M B-sum cores, one per
    charge triple, come first, from one weight_kernel_cores call, which evaluates D_theta
    once per float b + c and drops those rows before any table is built.
    """
    kernels = {tet.angles: _kernel(X, tet) for tet in X.tets}
    slots = _slots(X)[:, :, 1:]  # the slice j_0 = 0 reads no column of edge 0
    # a tet's line (m1_c, m2_c) on the one free edge c it touches, (0, 0) on none
    lines = [tuple(row.sum(axis=1).tolist()) if np.count_nonzero(row.any(axis=0)) <= 1
             else None for row in slots]
    reads = list(dict.fromkeys((tet.angles, m) for tet, m in zip(X.tets, lines)))
    values = dict(zip(reads, weight_kernel_cores(
        [kernels[angles] for angles, _ in reads], M,
        [None if m is None else np.multiply.outer(m, np.arange(M if any(m) else 1))
         for _, m in reads])))
    memo, views = {}, []
    for tet, row, m in zip(X.tets, slots, lines):
        if m is not None:  # M values: a negative tet conjugates its own copy
            line = values[tet.angles, m]
            views.append((np.conj(line) if tet.sign < 0 else line).reshape(
                [M if s else 1 for s in row.any(axis=0)]))
            continue
        (a0, q0), (a1, q1) = ((f(row, 0).sum(axis=1) * (M - 1) // M).tolist()
                              for f in (np.minimum, np.maximum))
        key = (tet.angles, tet.sign, a0, a1, q0, q1)
        if key not in memo:
            table = weight_kernel_grid(kernels[tet.angles], values[tet.angles, None],
                                       range(a0, a1 + 1), range(q0, q1 + 1))
            memo[key] = np.conj(table) if tet.sign < 0 else table
        table = memo[key]
        ncol, step = table.shape[1], (row[1] * table.shape[1] + row[0]).tolist()
        views.append(np.ndarray([M if s else 1 for s in step], table.dtype, table,
                                -(q0 * ncol + a0) * M * table.itemsize,
                                [s * table.itemsize for s in step]))
    return views


# grid points per slab of the contraction; the E <= 3 grids of the census are one
# slab at M = 128
_SLAB_POINTS = 2**16

# the default bound on the estimated error of Z relative to |Z|
TARGET = 1e-8

# the relative floor of the error estimate: where Z has converged to rounding
# (fig8_2tet and fig8_3tet at N <= 3), |Z_M - Z_2M| reaches at most 1.2e-13 |Z|
_ROUNDOFF = 1e-12


def _contract(X: ShapedTriangulation, tables: list, M: int, stride: int = 1) -> complex:
    """Z on the grid of M // stride points per edge, read from the M-grid tet tables.

    Tensor-product periodic trapezoid: the coarse grid has step stride * h,
    so its index j reads the M-grid entry at stride * j.  X descends
    (_require_descent), so the sum over j_0 is n equal copies, j_0 = 0 is fixed
    and Z = n^-(E-1) times the sum over the other edges, whose box the tables span.
    Slabs hold at most _SLAB_POINTS points of the grid M at any E and stride:
    leading free edges run one index at a time until the remaining planes fit,
    then the next edge steps by as many planes as fit.  tables are the views of
    _tet_tables, and each tet reads a slab as the basic slice
    slice(stride a, stride (a + s), stride) of its view on every free edge it
    touches, a the slab's first index and s its length there: no index array, no
    copy, and no read that the view's own bounds check has not covered.  The
    product is allocated in C order, so np.sum adds in the pairwise order of a
    gathered product, not that of a strided view, and Z keeps its bits.
    """
    E = len(X.edge_classes)
    if E == 0:
        return 1.0 + 0j
    n = M // stride
    r = next((r for r in range(E - 1) if M ** (E - 2 - r) <= _SLAB_POINTS), 0)
    steps = [1] * r + [max(1, _SLAB_POINTS // M ** (E - 2 - r))] if E > 1 else []
    steps += [n] * (E - 1 - len(steps))  # free axis c - 1 runs edge c; the rest in one piece
    total = 0j
    for first in itertools.product(*[range(0, n, s) for s in steps]):
        cut = [slice(stride * a, stride * (a + s), stride) for a, s in zip(first, steps)]
        views = [v[tuple(c if k > 1 else slice(None) for c, k in zip(cut, v.shape))]
                 for v in tables]
        shape, out = np.broadcast_shapes(*map(np.shape, views)), np.ones((), dtype=complex)
        for g in sorted(views, key=np.size):  # the small factors first, then in place
            out = np.multiply(out, g, out=out if out.shape == shape else None, order="C")
        total += np.sum(out)
    return complex(total / n ** (E - 1))


def _grid_values(X: ShapedTriangulation, Ms) -> list[complex]:
    """Z at each grid size in Ms by tensor-product periodic trapezoid.

    X is refused first unless it descends.  Tables are built once, at the largest
    size; a size that divides it reads them by stride, any other builds its own.
    """
    _require_descent(X)
    top = max(Ms)
    tables = _tet_tables(X, top)
    return [_contract(X, tables, top, top // M) if top % M == 0
            else _contract(X, _tet_tables(X, M), M) for M in Ms]


@dataclass
class PartitionResult:
    Z: complex
    abs: float
    grid: int
    error_estimate: float

    def to_document(self) -> dict:
        return {**asdict(self), "Z": [self.Z.real, self.Z.imag]}


def _error_estimate(z: complex, z2: complex, z4: complex) -> float:
    """The error of Z_M extrapolated from Z_M, Z_{M/2} and Z_{M/4}.

    The periodic trapezoid converges geometrically, err(M) ~ C rho^M (Trefethen and
    Weideman, SIAM Rev. 56 (2014) 385).  With d0 = |Z_{M/2} - Z_{M/4}| ~ C s and
    d1 = |Z_M - Z_{M/2}| ~ C s^2, where s = rho^{M/4}, err(M) ~ C s^4 = d1^3 / d0^2.
    Where Z has converged, d1 is rounding and extrapolating it means nothing, so the
    estimate is floored at _ROUNDOFF |Z|, and a d1 at or below the floor reads as
    the floor.  A ladder that does not contract above it (d1 >= d0) reads as inf.
    """
    d0, d1 = abs(z2 - z4), abs(z - z2)
    floor = _ROUNDOFF * abs(z)
    if d1 <= floor:
        return floor
    if d1 >= d0:
        return math.inf
    return max(d1**3 / d0**2, floor)


def partition_function(
    X: ShapedTriangulation, spec: QuadratureSpec | None = None, target: float = TARGET
) -> PartitionResult:
    """Z(X) on the grid of spec.M points per edge, with an extrapolated error estimate.

    The estimate (_error_estimate) reads Z at M, M // 2 and M // 4 through
    _grid_values, by stride from the M tables where they divide M.  Those coarse
    grids fall below the floor 8 of QuadratureSpec.M for M < 32, which only the
    rungs of convergence_report must meet.
    Raises NonConvergent when Z is not finite, or when the estimate exceeds target
    relative to |Z| (an inf estimate meets only target = inf), and ValueError when
    the target is not positive.
    """
    spec = spec or QuadratureSpec()
    M = spec.M
    if not target > 0:  # written so that NaN fails
        raise ValueError(f"target must be positive, got {target}")
    zs = _grid_values(X, [M, M // 2, M // 4])
    z = zs[0]
    if not np.isfinite(z):
        raise NonConvergent(f"partition value at grid M={M} is not finite: {z}")
    err = _error_estimate(*zs)
    rel = err / max(abs(z), 1e-300)
    if not rel <= target:
        raise NonConvergent(f"partition grid M={M}: the error estimated from grids {M}, "
                            f"{M // 2}, {M // 4} is {rel:.3e} relative (target {target:.1e})")
    return PartitionResult(z, abs(z), M, err)


def convergence_report(X: ShapedTriangulation, Ms):
    """Successive grid values and differences over a ladder of at least 3 sizes."""
    Ms = [int(M) for M in Ms]
    if len(Ms) < 3:
        raise ValueError("ladder needs at least 3 grid sizes")
    if min(Ms) < 8:
        raise ValueError(f"grid sizes must be at least 8, as QuadratureSpec.M: {Ms}")
    zs = _grid_values(X, Ms)
    return [{"M": M, "Z": [z.real, z.imag], "delta": abs(z - zs[i - 1]) if i else None}
            for i, (M, z) in enumerate(zip(Ms, zs))]
