"""The verifications of qdlab, each defined once.

CHECKS maps a check kind to its seeded sampler `sample(rng, ctx, n)`, its
evaluator `evaluate(ctx, samples, spec)` returning a JSON-ready report dict,
its limits {report key: strict upper bound}, and `reads`, every flag among
"N", "theta-arg", "charges", "grid", "in" and "name" that the kind reads.
`qdlab check <kind>` takes exactly those flags, beside --samples, --seed and
--out, so any other is a usage error.  `qdlab check <kind>` and the acceptance
tests both go through this table.  ctx is a Context holding only what the
evaluator reads: the QdParams of a kind that evaluates D_theta, the charges of
`charged`, and the triangulation X of `descent` and `gauge`, whose N and theta
are X's own.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import charged, groupoid, partition, pentagon, qdilog, triangulation
from .lca import CircleVar, LcaPoint

Context = namedtuple("Context", "params charges X", defaults=(None, None, None))
Check = namedtuple("Check", "sample evaluate limits reads", defaults=((),))


def passes(report: dict, limits: dict) -> bool:
    """Each limited value is below its bound, and each exact sub-report passed."""
    return all(report[k] < bound for k, bound in limits.items()) and all(
        v["pass"] for v in report.values() if isinstance(v, dict) and "pass" in v
    )


_PENTAGON_CHARGES = pentagon.PentagonCharges.solve(
    charged.ChargeTriple.equal(), charged.ChargeTriple(0.4, 0.25, 0.35))


def _worst(values) -> float:
    # np.max keeps a NaN residual, which Python's max can drop
    return float(np.max(np.fromiter(values, float), initial=0.0))


def _residues(rng, ctx: Context, n: int, lo: float, hi: float) -> list:
    return [(rng.uniform(lo, hi), int(rng.integers(0, ctx.params.N.N))) for _ in range(n)]


def _max_residual(residual):
    """The evaluator {"max_residual": largest residual(x, n, params)} over samples (x, n)."""
    return lambda ctx, sam, spec: {
        "max_residual": _worst(residual(x, m, ctx.params) for (x, m) in sam)}


def _fourier_sample(rng, ctx: Context, n: int) -> list:
    # the transform diverges at the origin character, so samples near it move by 0.5
    return [(y + 0.5 if m == 0 and abs(y) < 0.05 else y, m)
            for (y, m) in _residues(rng, ctx, n, -1.0, 1.0)]


def _charged_evaluate(ctx: Context, samples, spec) -> dict:
    ch, p = ctx.charges, ctx.params
    rep = charged.charged_identity_residuals(ch, samples, p)
    f1 = _worst(  # f1 on the first three samples only: the quadrature path is slow
        abs(charged.forward_transform_closed(ch, x, m, p)
            - charged.forward_transform_quadrature(ch, x, m, p))
        for (x, m) in samples[:3]
    )
    return {"f1_closed_vs_quadrature": f1, "f2_max": rep["f2_max"], "f3_max": rep["f3_max"]}


def _pentagon_sample(rng, ctx: Context, n: int) -> list:
    N = ctx.params.N.N
    step = 2 if N % 2 == 0 else 1
    return [tuple(LcaPoint(rng.uniform(-0.8, 0.8), step * int(rng.integers(0, N)) % N)
                  for _ in range(4)) for _ in range(n)]


def _groupoid_evaluate(ctx: Context, samples, spec) -> dict:
    triples, pairs = samples
    reps = {
        "pentagon": groupoid.verify_pentagon_exact(triples),
        "inversion": groupoid.verify_inversion_exact(pairs),
        "form": groupoid.form_preservation_check(pairs[: max(10, len(pairs) // 2)]),
    }
    return {k: {kk: vv for kk, vv in r.items() if kk != "witness"} for k, r in reps.items()}


# the gauge check's limit on the relative change of |Z|, and the target of each Z it
# reads: a Z is refused only when its error could decide the check
_GAUGE_LIMIT = 1e-3


def _gauge_evaluate(ctx: Context, edge: int, spec) -> dict:
    """|Z| at X and at X moved by half the positivity margin along one gauge direction.
    Z of X comes first, so an X that Z refuses is refused before a direction is taken."""
    X = ctx.X
    z0 = partition.partition_function(X, spec, target=_GAUGE_LIMIT)
    d = triangulation.gauge_direction(X, edge)
    Xp = triangulation.balanced_perturbation(X, d, triangulation.positivity_margin(X, d) / 2)
    z1 = partition.partition_function(Xp, spec, target=_GAUGE_LIMIT)
    return {"abs_base": z0.abs, "abs_perturbed": z1.abs,
            "rel_change": abs(z0.abs - z1.abs) / z0.abs}


CHECKS: dict[str, Check] = {
    # holds by construction, as D_theta reflects Re x > 0 by this relation
    # (qdilog.inversion_residual); the q-products are held to the N-factor product and to
    # mpmath by tests/test_qdilog.py::test_two_products_match_the_n_factor_product_and_mpmath
    "inversion": Check(
        lambda rng, ctx, n: _residues(rng, ctx, n, -2.5, 2.5),
        _max_residual(qdilog.inversion_residual),
        {"max_residual": 1e-9},
        ("N", "theta-arg")),
    "fourier": Check(
        _fourier_sample,
        _max_residual(qdilog.fourier_formula_residual),
        {"max_residual": 1e-6},
        ("N", "theta-arg")),
    "charged": Check(
        lambda rng, ctx, n: _residues(rng, ctx, n, -2.0, 2.0),
        _charged_evaluate,
        {"f1_closed_vs_quadrature": 1e-6, "f2_max": 1e-8, "f3_max": 1e-8},
        ("N", "theta-arg", "charges")),
    "pentagon": Check(
        _pentagon_sample,
        lambda ctx, sam, spec: pentagon.check_charged_beta_pentagon(
            _PENTAGON_CHARGES, sam, ctx.params, spec),
        {"max_residual": 1e-4},
        ("N", "theta-arg", "grid")),
    "faddeev-type": Check(
        lambda rng, ctx, n: [tuple(LcaPoint(*xm) for xm in _residues(rng, ctx, 2, -0.6, 0.6))
                             for _ in range(n)],
        lambda ctx, sam, spec: pentagon.check_faddeev_type(_PENTAGON_CHARGES, sam, ctx.params),
        {"max_residual": 1e-4},
        ("N", "theta-arg")),
    "groupoid": Check(
        lambda rng, ctx, n: tuple([tuple(groupoid.random_point(rng) for _ in range(size))
                                   for _ in range(n)] for size in (3, 2)),
        _groupoid_evaluate,
        {}),  # exact: each sub-report carries its own pass
    "descent": Check(
        lambda rng, ctx, n: [tuple(CircleVar(rng.uniform(0, ctx.X.N.sqrt))
                                   for _ in ctx.X.edge_classes) for _ in range(n)],
        lambda ctx, sam, spec: {"max_residual": _worst(
            partition.descent_residual(ctx.X, st, e, k=ctx.X.N.N)
            for st in sam for e in range(len(ctx.X.edge_classes)))},
        {"max_residual": 1e-8},
        ("N", "theta-arg", "in", "name")),
    "gauge": Check(
        lambda rng, ctx, n: 0,  # the gauge direction of edge class 0; draws nothing
        _gauge_evaluate,
        {"rel_change": _GAUGE_LIMIT},
        ("N", "theta-arg", "grid", "in", "name")),
}

# the pass rule of `qdlab wgz` and of the WGZ acceptance criterion
WGZ_LIMITS = {"round_trip_sup_error": 1e-10, "quasi_periodicity_residual": 1e-10}
