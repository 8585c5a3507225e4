"""Command-line surface: values, schemas, exit codes, determinism."""

import cmath
import functools
import importlib
import json
import math
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from conftest import relabelled_fig8

import qdlab.cli
from qdlab import checks
from qdlab.cli import run
from qdlab.triangulation import ShapedTriangulation, builtin_census


def invoke(args, capsys):
    code = run(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_phi_value_example(capsys):
    code, doc = invoke(["phi", "--theta-arg", "1/3", "--z", "0,0"], capsys)
    assert code == 0
    want = cmath.exp(-1j * cmath.pi / 24)
    assert doc["value"][0] == pytest.approx(want.real, abs=1e-12)
    assert doc["value"][1] == pytest.approx(want.imag, abs=1e-12)


def test_gamma(capsys):
    code, doc = invoke(["gamma", "--N", "2"], capsys)
    assert code == 0
    assert doc["value"] == pytest.approx([0.0, 1.0], abs=1e-12)


def test_check_inversion(capsys):
    code, doc = invoke(["check", "inversion", "--N", "3", "--samples", "25"], capsys)
    assert code == 0
    assert doc["pass"] is True
    assert doc["max_residual"] < 1e-9


def test_check_groupoid(capsys):
    code, doc = invoke(["check", "groupoid", "--samples", "40"], capsys)
    assert code == 0 and doc["pass"]


def test_partition_schema(capsys):
    code, doc = invoke(
        ["partition", "--name", "fig8_2tet", "--grid", "32", "--target", "1.0"], capsys
    )
    assert code == 0
    assert set(doc) >= {"Z", "abs", "grid", "error_estimate", "params"}


def test_census_and_pachner(capsys, tmp_path):
    code, doc = invoke(["census", "--name", "fig8_2tet"], capsys)
    assert code == 0 and len(doc["tets"]) == 2
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    code, moved = invoke(["pachner", "--in", str(path), "--face", "0,0"], capsys)
    assert code == 0 and len(moved["tets"]) == 3


def test_validation_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"N": 1, "theta_arg_over_pi": 0.33, "tets": [], "gluings": [], "x": 1}')
    code = run(["partition", "--in", str(bad)])
    assert code == 1


@pytest.mark.parametrize("command", ["pachner", "partition"])
@pytest.mark.parametrize("theta,angle", [(math.nan, 1 / 3), (math.inf, 1 / 3), (1 / 3, math.nan)])
def test_non_finite_document_is_rejected(command, theta, angle, capsys, tmp_path):
    # json reads NaN and Infinity; validation must refuse them, with no traceback
    doc = builtin_census("fig8_2tet").to_document()
    doc["theta_arg_over_pi"] = theta
    doc["tets"][0]["angles"] = [angle, 1 / 3, 1 / 3]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run([command, "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("flag", ["--grid", "--tol"])
def test_zero_grid_and_tol_are_rejected(flag, capsys):
    # 0 is a value, not a missing option: QuadratureSpec must see and reject it.
    # No command reads a tolerance (partition's accuracy is --target), so --tol is
    # a usage error
    assert run(["partition", "--name", "fig8_2tet", flag, "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("M must be at least 8" if flag == "--grid" else "unrecognized arguments: --tol 0"
            ) in captured.err


@pytest.mark.parametrize("flag,value", [("N", "5000"), ("theta-arg", "1/2"),
                                        ("charges", "0.9,0.05,0.05"), ("grid", "16"),
                                        ("tol", "1e-3"), ("name", "nonexistent"),
                                        ("in", "missing.json")])
@pytest.mark.parametrize("kind", list(checks.CHECKS))
def test_check_rejects_flags_it_does_not_read(kind, flag, value, capsys):
    # a kind that does not read a flag must not accept it silently.  `check <kind>`
    # takes exactly the flags of Check.reads, so any other is a usage error of
    # `qdlab check <kind>`, refused before anything is built: the name and the path
    # are not looked up, and an N too large for D_theta is not reached.  No kind
    # reads a tolerance
    reads = {"N": set(checks.CHECKS) - {"groupoid"}, "theta-arg": set(checks.CHECKS) - {"groupoid"},
             "charges": {"charged"}, "grid": {"pentagon", "gauge"}, "tol": set(),
             "name": {"descent", "gauge"}, "in": {"descent", "gauge"}}[flag]
    assert (flag in checks.CHECKS[kind].reads) == (kind in reads)
    if kind in reads:
        return
    assert run(["check", kind, "--samples", "2", f"--{flag}", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"usage: qdlab check {kind} ")
    assert captured.err.endswith(
        f"\nqdlab check {kind}: error: unrecognized arguments: --{flag} {value}\n")


@pytest.mark.parametrize("kind", list(checks.CHECKS))
def test_check_help_lists_the_flags_it_reads(kind, capsys):
    assert run(["check", kind, "--help"]) == 0
    listed = set(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M))
    reads = (*checks.CHECKS[kind].reads, "samples", "seed", "out")
    assert listed == {f"--{flag}" for flag in reads}


def test_check_builds_a_triangulation_only_for_kinds_that_read_one(monkeypatch, capsys):
    # a triangulation for descent and gauge, the QdParams for a kind that evaluates
    # D_theta, and the charge triple for charged
    built = []
    for name in ("_load_triangulation", "_params", "_parse_charges"):
        real = getattr(qdlab.cli, name)
        monkeypatch.setattr(qdlab.cli, name, lambda *a, name=name, real=real:
                            built.append(name) or real(*a))
    assert run(["check", "groupoid", "--samples", "2"]) == 0
    assert built == []
    assert run(["check", "inversion", "--samples", "2"]) == 0
    assert built == ["_params"]
    assert run(["check", "charged", "--samples", "1"]) == 0
    assert built == ["_params", "_params", "_parse_charges"]
    built.clear()
    assert run(["check", "descent", "--samples", "1"]) == 0
    assert built == ["_load_triangulation"]
    assert run(["check", "descent", "--samples", "1", "--name", "nonexistent"]) == 1
    assert "unknown census entry" in capsys.readouterr().err


@pytest.mark.parametrize("k,grid", [(2, 0), (3, 2)])
def test_wgz_grid_below_k_is_rejected(k, grid, capsys):
    # M is rounded down to a multiple of k; a grid with no such point is an error
    assert run(["wgz", "--k", str(k), "--grid", str(grid)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--grid" in captured.err and "--k" in captured.err


@pytest.mark.parametrize("k", ["0", "-2"])
def test_wgz_k_below_1_is_rejected(k, capsys):
    assert run(["wgz", "--k", k]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--k must be at least 1" in captured.err


@pytest.mark.parametrize("edit,message", [
    ("{", "not valid JSON"),
    ("[1, 2]", "document must be a JSON object"),
    (lambda d: d.pop("gluings"), "missing fields ['gluings']"),
    (lambda d: d.update(N=1.5), "N must be an integer"),
    (lambda d: d["tets"][0].pop("angles"), "tet 0: fields must be sign, angles"),
    (lambda d: d["tets"][1].update(sign=0), "tet 1: sign must be 1 or -1"),
    (lambda d: d["tets"][0].update(angles=[0.5, 0.5]), "tet 0: need 3 angles"),
    (lambda d: d["gluings"][2].pop("vertex_map"), "gluing 2: fields must be from, to, vertex_map"),
    (lambda d: d["gluings"][0].update(to=[2, 0]), "face (2,0) out of range"),
    (lambda d: d["gluings"].append(d["gluings"][0]), "face (0,0) glued twice"),
    (lambda d: d["gluings"][0].update(to=[0, 0]), "face glued to itself"),
    # JSON of the wrong type names the item in one error line, with no traceback
    (lambda d: d.update(N=True), "N must be an integer"),
    (lambda d: d.update(tets=5), "tets and gluings must be lists"),
    (lambda d: d.update(gluings=5), "tets and gluings must be lists"),
    (lambda d: d["tets"].__setitem__(0, 5), "tet 0: fields must be sign, angles"),
    (lambda d: d["tets"][0].update(angles=5), "tet 0: need 3 angles"),
    (lambda d: d["tets"][1].update(angles=[None, 0.5, 0.5]), "tet 1: float() argument"),
    (lambda d: d["gluings"].__setitem__(1, 5), "gluing 1: fields must be from, to, vertex_map"),
    (lambda d: d["gluings"][0].update({"from": 5}), "gluing 0: from must be a list of 2 integers"),
    (lambda d: d["gluings"][0].update({"from": ["a", 0]}), "gluing 0: from must be a list of 2"),
    (lambda d: d["gluings"][0].update({"from": [0.5, 0]}), "gluing 0: from must be a list of 2"),
    (lambda d: d["gluings"][3].update(to=[True, 1]), "gluing 3: to must be a list of 2 integers"),
    (lambda d: d["gluings"][0].update(vertex_map=5), "gluing 0: vertex_map must be a list of 3"),
    (lambda d: d["gluings"][0].update(vertex_map=[2, 1, "x"]), "vertex_map must be a list of 3"),
    (lambda d: d["tets"][1].update(sign=True), "tet 1: sign must be 1 or -1"),
    (lambda d: d["tets"][0].update(angles=["0.3333333333333333"] * 3), "tet 0: angles must be"),
    # QdParams refuses an N above qdilog._MAX_N by name
    (lambda d: d.update(N=10**30), f"N = {10**30} is too large"),
], ids=["invalid-json", "not-object", "missing-field", "N-not-integer", "tet-fields",
        "tet-sign", "angle-count", "gluing-fields", "face-out-of-range", "glued-twice",
        "glued-to-itself", "N-bool", "tets-not-list", "gluings-not-list", "tet-not-object",
        "angles-not-list", "angle-null", "gluing-not-object", "from-not-list", "from-not-integer",
        "from-float", "to-bool", "vertex-map-not-list", "vertex-map-not-integer", "sign-bool",
        "angle-string", "N-overflow"])
def test_rejected_triangulation_document(edit, message, capsys, tmp_path):
    # each edit of the figure-eight document (or raw text) fails one check of
    # parse_triangulation or the face map of ShapedTriangulation, with its own message;
    # unknown fields and a bad vertex map have their own tests in test_triangulation
    if callable(edit):
        doc = builtin_census("fig8_2tet").to_document()
        edit(doc)
        edit = json.dumps(doc)
    path = tmp_path / "bad.json"
    path.write_text(edit)
    assert run(["partition", "--in", str(path), "--grid", "16"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and message in captured.err
    assert captured.err.count("\n") == 1  # one error line, no traceback


@pytest.mark.parametrize("args, text", [
    (["kernel", "--charges", "0.4,0.35,0.25", "--x", "0.1,0", "--y", "1e300,0"],
     "shift index, about sqrt(N) |y|, reaches 2^52 at y = 1e+300"),
    (["kernel", "--charges", "0.4,0.35,0.25", "--x", "1e300,0", "--y", "0.2,0"],
     "a phase of W, at most |k - yn - shift| (|x| + |mu_x|)/sqrt(N) turns, reaches 2^52 "
     "at x = 1e+300"),
    (["dtheta", "--z", "1e300"], "reaches 2^52 at z = (1e+300+0j)"),
    (["phi", "--z", "1e300"], "reaches 2^52 at z = (1e+300+0j)"),
    (["psi", "--charges", "0.4,0.35,0.25", "--z", "1e300"], "reaches 2^52 at z = (1e+300+0j)"),
], ids=["kernel-y", "kernel-x", "dtheta", "phi", "psi"])
def test_finite_value_too_large_is_refused(args, text, capsys):
    # a finite point at which a B-sum shift index or a phase in turns reaches 2^52 keeps
    # no fractional bit: it is refused by name, with no warning and no output
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert text in captured.err


def test_wgz_nan_level_is_rejected(capsys):
    # a NaN b is refused as it is read, and a finite b off the level by the level check
    assert run(["wgz", "--b", "nan,0", "--k", "2", "--grid", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "must be finite, got nan" in captured.err
    assert run(["wgz", "--b", "0.5,0", "--k", "2", "--grid", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "level k = 2" in captured.err


_KERNEL = ["kernel", "--charges", "0.4,0.35,0.25"]


@pytest.mark.parametrize("args, text", [
    ([*_KERNEL, "--x", "nan,0", "--y", "0.2,0"], "nan"),
    ([*_KERNEL, "--x", "0.1,0", "--y", "inf,0"], "inf"),
    ([*_KERNEL, "--x", "0.1,0", "--y", "0.2,0", "--mu", "nan,0"], "nan"),
    (["dtheta", "--z", "nan"], "nan"),
    (["dtheta", "--z", "1e400"], "1e400"),
    (["phi", "--z", "nan"], "nan"),
    (["psi", "--charges", "0.4,0.35,0.25", "--z", "0.3,-inf"], "-inf"),
], ids=["kernel-x", "kernel-y", "kernel-mu", "dtheta", "dtheta-overflow", "phi", "psi"])
def test_non_finite_number_is_refused(args, text, capsys):
    # --z, --x, --y and --mu refuse a NaN or inf as they are read, as --target does:
    # exit 1 and one error line that names the number, before numpy can warn on it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: must be finite, got {text}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["check", "nope"],
        ["gamma", "--N", "abc"],
        ["partition", "--bogus"],
        ["gamma", "--threads", "1"],
        ["partition", "--seed", "1"],
        ["phi", "--z", "0.3", "--grid", "64"],
    ],
    ids=["unknown-kind", "bad-int", "unknown-flag", "gamma-threads", "partition-seed", "phi-grid"],
)
def test_usage_error_exits_1(args, capsys):
    # 2 is non-convergence; a command line argparse refuses is a validation error
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "usage: qdlab" in captured.err


def test_help_exits_0(capsys):
    assert run(["partition", "--help"]) == 0
    assert "--grid" in capsys.readouterr().out


def test_complex_with_three_parts_is_rejected(capsys):
    assert run(["phi", "--z", "1,2,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


def test_readme_cli_examples_run(capsys):
    # every `qdlab ...` line of the README's CLI block must parse and succeed
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln.split("#", 1)[0].split() for ln in block.splitlines() if ln.startswith("qdlab ")]
    assert len(lines) >= 10
    for argv in lines:
        assert run(argv[1:]) == 0, " ".join(argv)
        capsys.readouterr()


def test_readme_names_exist():
    # every backticked qdlab name the README points to exists: a module's by getattr
    # on the module, a class's on the class or, for an attribute set in __init__, on
    # fig8_2tet; other dotted names (numpy, statistics, file names) are not qdlab's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = {m.name: importlib.import_module(f"qdlab.{m.name}")
               for m in pkgutil.iter_modules(qdlab.__path__)}
    classes = {k: v for m in modules.values() for k, v in vars(m).items() if isinstance(v, type)}
    instances = {ShapedTriangulation: builtin_census("fig8_2tet")}
    checked = []
    for dotted in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", readme):
        head, *path = dotted.split(".")
        if head in modules:
            owners = [modules[head]]
        elif head in classes:
            owners = [classes[head], instances.get(classes[head])]
        else:
            continue
        assert any(o is not None and _has_path(o, path) for o in owners), dotted
        checked.append(dotted)
    assert len(checked) >= 30


def _has_path(obj, path) -> bool:
    try:
        functools.reduce(getattr, path, obj)
    except AttributeError:
        return False
    return True


@pytest.mark.parametrize("kind", list(checks.CHECKS))
def test_samples_flag_validated(kind, capsys):
    # a check over no samples checks nothing; it must not report a pass
    assert run(["check", kind, "--samples", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "--samples must be >= 1" in captured.err


def test_wgz_report(capsys):
    code, doc = invoke(["wgz", "--k", "2", "--grid", "120"], capsys)
    assert code == 0
    assert doc["pass"] is True
    assert doc["round_trip_sup_error"] < 1e-10


def test_check_fourier(capsys):
    code, doc = invoke(["check", "fourier", "--N", "1", "--samples", "3"], capsys)
    assert code == 0 and doc["pass"]


def test_check_charged(capsys):
    code, doc = invoke(["check", "charged", "--N", "1", "--samples", "4"], capsys)
    assert code == 0 and doc["pass"]


def test_check_pentagon(capsys):
    code, doc = invoke(
        ["check", "pentagon", "--N", "1", "--samples", "2", "--grid", "64"], capsys
    )
    assert code == 0 and doc["pass"]


def test_check_faddeev_type(capsys):
    code, doc = invoke(["check", "faddeev-type", "--N", "1", "--samples", "2"], capsys)
    assert code == 0 and doc["pass"]


def test_check_descent(capsys):
    code, doc = invoke(
        ["check", "descent", "--name", "fig8_2tet", "--N", "1", "--samples", "2"], capsys
    )
    assert code == 0 and doc["pass"]


def test_check_gauge(capsys):
    code, doc = invoke(["check", "gauge", "--name", "fig8_2tet", "--grid", "32"], capsys)
    assert code == 0 and doc["pass"]


@pytest.mark.parametrize("args", [
    ["check", "pentagon", "--N", "1", "--grid", "8", "--samples", "2"],
    ["check", "descent", "--samples", "3", "--in", 1],
    ["check", "descent", "--samples", "3", "--in", 3],
], ids=["pentagon-coarse-grid", "descent-relabelled-N1", "descent-relabelled-N3"])
def test_check_failing_exit_code(args, capsys, tmp_path):
    # M=8 is far too coarse for the beta-pentagon integral: residual about 0.38.
    # fig8_2tet with tet 1 relabelled by (0, 3, 1, 2), read with --in at level N, does
    # not descend at N = 1, 3: residual 2.0 (1.1e-13 at N = 2, where it descends)
    if args[-2] == "--in":
        path = tmp_path / "relabelled.json"
        path.write_text(json.dumps(relabelled_fig8((0, 3, 1, 2), args[-1]).to_document()))
        args = [*args[:-1], str(path)]
    code, doc = invoke(args, capsys)
    assert code == 3
    assert doc["pass"] is False and doc["max_residual"] > 1e-4


@pytest.mark.parametrize("args,code", [
    (["partition", "--name", "fig8_2tet", "--grid", "16", "--target", "1"], 0),
    (["check", "pentagon", "--N", "1", "--grid", "8", "--samples", "2"], 3),
    (["wgz", "--k", "2", "--grid", "3"], 3),
], ids=["partition", "check-failing", "wgz-failing"])
def test_out_writes_the_printed_report(args, code, capsys, tmp_path):
    # --out moves the report that stdout would get into the file, and keeps the exit code
    assert run(args) == code
    printed = capsys.readouterr().out
    path = tmp_path / "report.json"
    assert run([*args, "--out", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == printed.encode()


@pytest.mark.parametrize("command", [["partition", "--grid", "128"], ["pachner"],
                                     ["check", "descent", "--samples", "1"]],
                         ids=["partition", "pachner", "check"])
@pytest.mark.parametrize("flag,value", [("--N", "2"), ("--theta-arg", "1/4")])
def test_in_refuses_level_and_theta_flags(command, flag, value, capsys, tmp_path):
    # the document fixes N and theta, so a flag beside --in would be ignored: refuse it
    path = tmp_path / "fig8.json"
    path.write_text(json.dumps(builtin_census("fig8_2tet").to_document()))
    assert run([*command, "--in", str(path)]) == 0
    capsys.readouterr()
    assert run([*command, "--in", str(path), flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert captured.err.count("\n") == 1 and "--N" in captured.err and "--theta-arg" in captured.err
    # without --in the flag still applies, and N = 0 is still refused
    assert run([*command, flag, value]) == 0
    assert run([*command, "--N", "0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", [["partition", "--grid", "16"], ["pachner"],
                                     ["check", "descent", "--samples", "1"]],
                         ids=["partition", "pachner", "check"])
def test_in_refuses_name(command, capsys, tmp_path):
    # the document is the triangulation, so a --name beside --in would be ignored
    path = tmp_path / "fig8.json"
    path.write_text(json.dumps(builtin_census("fig8_2tet").to_document()))
    assert run([*command, "--in", str(path), "--name", "single_tet"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert captured.err.count("\n") == 1 and "--name" in captured.err


def test_nan_residual_fails_its_check():
    residuals = iter([1e-12, float("nan"), 1e-13])
    evaluate = checks._max_residual(lambda x, n, p: next(residuals))
    report = evaluate(checks.Context(), [(0.0, 0)] * 3, None)
    assert not checks.passes(report, {"max_residual": 1e-9})


def test_dtheta_psi_kernel_commands(capsys):
    code, doc = invoke(["dtheta", "--theta-arg", "1/3", "--N", "2", "--z", "0.4", "--n", "1"], capsys)
    assert code == 0 and len(doc["value"]) == 2
    code, doc = invoke(
        ["psi", "--theta-arg", "1/3", "--N", "1", "--charges", "0.4,0.35,0.25", "--z", "0.3"],
        capsys,
    )
    assert code == 0
    code, doc = invoke(
        [
            "kernel", "--theta-arg", "1/3", "--N", "1",
            "--charges", "0.4,0.35,0.25", "--x", "0.1,0", "--y", "0.2,0",
        ],
        capsys,
    )
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["kernel", "--charges", "0.4,0.35,0.25", "--x", "0.1,0", "--y", "0.2,0"],
    ["dtheta", "--z", "0.4", "--n", "1"],
    ["psi", "--charges", "0.4,0.35,0.25", "--z", "0.3"],
], ids=["kernel", "dtheta", "psi"])
def test_kernel_refuses_an_n_too_large_for_the_b_sum(argv, capsys):
    # at N = 10**12 the N Faddeev factors of one point of D_theta would need
    # terabytes; QdParams says why, for every command that evaluates D_theta
    code = run(argv + ["--N", str(10**12)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: N = {10**12} is too large")
    assert captured.err.count("\n") == 1  # one error line, no traceback


@pytest.mark.parametrize("command, flags", [
    ("phi", {"--z": "-0.3,0.2"}),
    ("psi", {"--N": "2", "--charges": "0.4,0.35,0.25", "--z": "-0.3,-0.1", "--n": "-1"}),
    ("kernel", {"--N": "3", "--charges": "0.4,0.35,0.25", "--x": "-0.4,2", "--y": "-.2,-1",
                "--mu": "-0.1,1"}),
], ids=["phi", "psi", "kernel"])
def test_negative_values_read_as_values(command, flags, capsys):
    # argparse alone reads a separate -0.3,0.2 as a flag; it must parse like --z=-0.3,0.2
    spaced = [command] + [t for flag in flags.items() for t in flag]
    code, doc = invoke(spaced, capsys)
    assert code == 0
    assert invoke([command] + [f"{k}={v}" for k, v in flags.items()], capsys) == (0, doc)


@pytest.mark.parametrize("x, charges, form", [
    ("0.3", "0.4,0.3,0.3", "xr,n"),
    ("0.3,0,1", "0.4,0.3,0.3", "xr,n"),
    ("0.3,0", "0.4,0.3", "a,b,c"),
], ids=["point-short", "point-long", "charges-short"])
def test_malformed_point_and_charges_name_the_form(x, charges, form, capsys):
    code = run(["kernel", "--charges", charges, "--x", x, "--y", "0.2,0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert form in captured.err


def test_cli_import_loads_no_scipy():
    code = "import sys, qdlab.cli; sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def _cli_bytes(args):
    proc = subprocess.run(
        [sys.executable, "-m", "qdlab.cli", *args], capture_output=True, check=True
    )
    return proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["check", "inversion", "--N", "2", "--samples", "10", "--seed", "7"],
        ["check", "groupoid", "--samples", "12", "--seed", "3"],
        ["partition", "--name", "fig8_2tet", "--grid", "32", "--target", "1.0"],
    ],
)
def test_determinism_byte_identical(args):
    assert _cli_bytes(args) == _cli_bytes(args)
