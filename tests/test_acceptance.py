"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failed run).
"""

import subprocess
import sys

import numpy as np
import pytest
from conftest import params

from qdlab.charged import ChargeTriple
from qdlab.checks import CHECKS, WGZ_LIMITS, Context, passes
from qdlab.faddeev import ThetaParam, phi_theta, phi_zero, shift_defects
from qdlab.lca import QuadratureSpec
from qdlab.partition import partition_function
from qdlab.triangulation import (
    balanced_perturbation,
    builtin_census,
    gauge_direction,
    positivity_margin,
)
from qdlab.groupoid import (
    corner_form_check,
    form_preservation_check,
    random_point,
    verify_inversion_exact,
    verify_pentagon_exact,
)
from qdlab.wgz import (
    conjugated_operator,
    gauss_poly_vector,
    quasi_periodicity_residual,
    wgz_forward,
    wgz_inverse,
)

FRACTIONS = ["1/3", "1/4", "2/5"]


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name} {detail}")
    assert ok, f"criterion {num}: {name} {detail}"


def run_check(worst: dict, kind: str, rng, ctx: Context, n: int, spec=None) -> dict:
    """Draw n samples of a registry check, evaluate them and fold the limited
    report values into worst (a NaN stays NaN)."""
    chk = CHECKS[kind]
    rep = chk.evaluate(ctx, chk.sample(rng, ctx, n), spec)
    return {k: float(np.maximum(worst.get(k, 0.0), rep[k])) for k in chk.limits}


def test_criterion_01_inversion():
    rng = np.random.default_rng(1)
    worst = {}
    for N in (1, 2, 3, 5):
        for frac in FRACTIONS:
            worst = run_check(worst, "inversion", rng, Context(params(N, frac)), 100)
    report(1, "inversion relation", passes(worst, CHECKS["inversion"].limits),
           f"max residual {worst['max_residual']:.2e}")


def test_criterion_02_phi_zero():
    worst = 0.0
    for frac in ["1/3", "1/4", "2/5", "1/5", "3/8"]:
        th = ThetaParam.from_pi_fraction(frac)
        worst = max(worst, abs(phi_theta(0, th) - phi_zero(th)))
    report(2, "Phi_theta(0) closed form", worst < 1e-10, f"max err {worst:.2e}")


def test_criterion_03_shift_equations():
    rng = np.random.default_rng(3)
    worst = 0.0
    for frac in FRACTIONS:
        th = ThetaParam.from_pi_fraction(frac)
        zs = rng.uniform(-1.5, 1.5, 50) + 1j * rng.uniform(-0.1, 0.1, 50)
        r1, r2 = shift_defects(zs, th)
        worst = max(worst, float(np.max(np.abs(r1))), float(np.max(np.abs(r2))))
    report(3, "shift functional equations", worst < 1e-9, f"max residual {worst:.2e}")


def test_criterion_04_fourier_formula():
    rng = np.random.default_rng(4)
    worst = {}
    for N in (1, 2, 3):
        worst = run_check(worst, "fourier", rng, Context(params(N)), 20)
    report(4, "Fourier transformation formula", passes(worst, CHECKS["fourier"].limits),
           f"max residual {worst['max_residual']:.2e}")


def test_criterion_05_charged_identities():
    rng = np.random.default_rng(5)
    triples = [ChargeTriple.equal(), ChargeTriple(0.5, 0.2, 0.3), ChargeTriple(0.25, 0.45, 0.3)]
    worst = {}
    for N in (1, 2, 3):
        for ch in triples:
            worst = run_check(worst, "charged", rng, Context(params(N), ch), 10)
    report(5, "charged identities f1, f2, f3", passes(worst, CHECKS["charged"].limits),
           f"f1 {worst['f1_closed_vs_quadrature']:.2e}, "
           f"f2/f3 {max(worst['f2_max'], worst['f3_max']):.2e}")


def test_criterion_06_pentagon_identities():
    rng = np.random.default_rng(6)
    worst11 = {}
    worst50 = {}
    for N in (1, 2):
        worst11 = run_check(worst11, "pentagon", rng, Context(params(N)), 5, QuadratureSpec(M=256))
        worst50 = run_check(worst50, "faddeev-type", rng, Context(params(N)), 5)
    # refinement: residual decreases from a coarse grid to M=256
    pent = CHECKS["pentagon"]
    ctx1 = Context(params(1))
    sams1 = pent.sample(rng, ctx1, 2)
    coarse = pent.evaluate(ctx1, sams1, QuadratureSpec(M=8))["max_residual"]
    fine = pent.evaluate(ctx1, sams1, QuadratureSpec(M=256))["max_residual"]
    ok = (passes(worst11, pent.limits) and passes(worst50, CHECKS["faddeev-type"].limits)
          and fine < coarse)
    report(6, "beta pentagon and Faddeev-type identities", ok,
           f"eq11 {worst11['max_residual']:.2e}, eq50 {worst50['max_residual']:.2e}, "
           f"refinement {coarse:.1e}->{fine:.1e}")


def test_criterion_07_descent():
    rng = np.random.default_rng(7)
    worst = {}
    for N in (1, 2):
        for name in ("fig8_2tet", "fig8_3tet"):
            worst = run_check(worst, "descent", rng, Context(X=builtin_census(name, N=N)), 3)
    report(7, "sqrt(N)-shift descent of Boltzmann weights",
           passes(worst, CHECKS["descent"].limits), f"max residual {worst['max_residual']:.2e}")


def test_criterion_08_pachner_invariance():
    worst = 0.0
    for N in (1, 2):
        spec = QuadratureSpec(M=128)
        z2 = partition_function(builtin_census("fig8_2tet", N=N), spec, target=1e-2)
        z3 = partition_function(builtin_census("fig8_3tet", N=N), spec, target=1e-2)
        worst = max(worst, abs(z2.abs - z3.abs) / z2.abs)
    report(8, "Pachner 2-3 invariance of |Z|", worst < 1e-3, f"max rel diff {worst:.2e}")


def test_criterion_09_gauge_invariance():
    X = builtin_census("fig8_2tet")
    spec = QuadratureSpec(M=64)
    z0 = partition_function(X, spec, target=1e-2)
    worst = 0.0
    for e in range(len(X.edge_classes)):
        d = gauge_direction(X, e)
        eps = positivity_margin(X, d) / 2
        Xp = balanced_perturbation(X, d, eps)
        z1 = partition_function(Xp, spec, target=1e-2)
        worst = max(worst, abs(z0.abs - z1.abs) / z0.abs)
    ok = passes({"rel_change": worst}, CHECKS["gauge"].limits)
    report(9, "gauge invariance of |Z| on balanced shapes", ok,
           f"max rel change {worst:.2e}")


def test_criterion_10_wgz():
    worst_rt = 0.0
    worst_qp = 0.0
    for k in (1, 2, 3):
        rows = [[0.4 * (j + 1), 0.1 * j, 1.0][: j + 2] for j in range(k)]
        f = gauss_poly_vector(rows)
        M = 240
        s = wgz_forward(f, k, M)
        us = np.arange(-M // 3, M // 3) / M
        rec = wgz_inverse(s, k, us)
        orig = np.array([f(j, us) for j in range(k)])
        worst_rt = max(worst_rt, float(np.max(np.abs(rec - orig))))
        worst_qp = max(worst_qp, quasi_periodicity_residual(f, k, 24))
    # Vt^k is the identity exactly (pure component rotation)
    k = 3
    b = complex(np.sqrt((k + 0.7j) / 2))
    f = gauss_poly_vector([[1.0], [0.5, 0.2], [0.3, 0.0, 1.0]])
    g = f
    for _ in range(k):
        g = conjugated_operator("Vt", b, g, k)
    us = np.linspace(-1, 1, 9)
    vt_exact = all(
        np.array_equal(np.asarray(f(j, us)), np.asarray(g(j, us))) for j in range(k)
    )
    worst = {"round_trip_sup_error": worst_rt, "quasi_periodicity_residual": worst_qp}
    ok = passes(worst, WGZ_LIMITS) and vt_exact
    report(10, "Weil-Gel'fand-Zak round trip", ok,
           f"round-trip {worst_rt:.2e}, quasi-periodicity {worst_qp:.2e}, Vt^k exact {vt_exact}")


def test_criterion_11_groupoid_exact():
    rng = np.random.default_rng(11)
    triples = [tuple(random_point(rng) for _ in range(3)) for _ in range(110)]
    pairs = [tuple(random_point(rng) for _ in range(2)) for _ in range(110)]
    pent = verify_pentagon_exact(triples)
    inv = verify_inversion_exact(pairs)
    form = form_preservation_check(pairs[:60])
    corner = corner_form_check([x for (x, _) in pairs[:60]])
    ok = (
        pent["pass"]
        and inv["pass"]
        and form["pass"]
        and corner["pass"]
        and pent["checked"] >= 100
        and inv["checked"] >= 100
    )
    report(11, "groupoid relations exact over Gaussian rationals", ok,
           f"pentagon {pent['checked']}, inversion {inv['checked']}, form {form['checked']}")


def test_criterion_12_determinism():
    cmds = [
        ["check", "inversion", "--N", "2", "--samples", "20", "--seed", "9"],
        ["check", "groupoid", "--samples", "15", "--seed", "2"],
        ["partition", "--name", "fig8_2tet", "--grid", "64", "--target", "1.0"],
    ]
    ok = True
    for args in cmds:
        a = subprocess.run([sys.executable, "-m", "qdlab.cli", *args],
                           capture_output=True, check=True).stdout
        b = subprocess.run([sys.executable, "-m", "qdlab.cli", *args],
                           capture_output=True, check=True).stdout
        ok = ok and (a == b)
    report(12, "byte-identical JSON under fixed seed", ok)
