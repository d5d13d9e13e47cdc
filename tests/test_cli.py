import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from levilab import cli, specfile
from levilab import curvature as cv
from levilab import quadrature as qd
from levilab import surfaces as sf
from levilab import verify as vf
from levilab.surfaces import _coarse_directions
from levilab.wirtinger import MAX_NVARS


@pytest.mark.parametrize("n", [1, 4])
def test_identities_pass(n, capsys):
    assert cli.main(["identities", "--n", str(n)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 * n + 1
    assert all(line.startswith("PASS ") for line in lines)
    assert all("max_terms=" in line for line in lines[:-1])


@pytest.mark.parametrize("argv", [
    ["identities", "--n", str(MAX_NVARS)],
    ["identities", "--n", "2", "--j", "3"],
    ["identities", "--n", "0"],  # a suite of no checks would pass vacuously
    ["identities", "--n", "-1"],
])
def test_identities_usage_errors(argv, capsys):
    assert cli.main(argv) == cli.USAGE_EXIT == 64
    assert "levilab identities:" in capsys.readouterr().err


# The ellipsoid's complex Hessian is constant, so its Newton gap is 0.0397 at
# every node: a gap tolerance of -0.03 holds and -0.05 is violated.
NEWTON_ARGV = ["verify", "newton", "--surface", "ellipsoid:axes=1,1.3,0.8,1.1", "--quad", "gauss:order=4"]


@pytest.mark.parametrize("tol, code", [("-0.03", 0), ("-0.05", cli.VIOLATED_EXIT)])
def test_newton_tol_is_the_gap_tolerance(tol, code, tmp_path):
    out = tmp_path / "r.json"
    assert cli.main([*NEWTON_ARGV, "--tol", tol, "--out", str(out)]) == code
    report = json.loads(out.read_text())
    assert report["config"]["tol"] == float(tol)
    assert abs(report["lhs"] - 0.0397) < 1e-3


@pytest.mark.parametrize("identity", ["isoperimetric", "minkowski", "newton"])
def test_f_choice_only_for_integral(identity, capsys):
    argv = ["verify", identity, "--surface", "sphere:R=1", "--quad", "gauss:order=4", "--f-choice", "exp"]
    assert cli.main(argv) == cli.USAGE_EXIT
    assert "--f-choice" in capsys.readouterr().err


def test_f_choice_integral_is_used(tmp_path):
    out = tmp_path / "r.json"
    argv = ["verify", "integral", "--surface", "sphere:R=1", "--quad", "gauss:order=8", "--f-choice", "exp"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["identity"]["f_choice"] == report["config"]["f_choice"] == "exp"


def _no_quadrature(*args, **kwargs):
    raise AssertionError("a usage error must exit before any quadrature runs")


@pytest.mark.parametrize("identity, extra", [
    ("integral", ["--j", "0"]),
    ("newton", ["--j", "2"]),
    ("integral", ["--tol", "-1"]),
    ("minkowski", ["--tol", "nan"]),
    ("newton", ["--tol", "nan"]),
    ("alexandrov", ["--tol", "inf"]),
])
def test_verify_usage_errors(identity, extra, tmp_path, capsys, monkeypatch):
    # j outside 1..n and a non-finite --tol are usage errors, as a negative one is where
    # --tol bounds a relative error (newton's and alexandrov's slack may be negative)
    monkeypatch.setattr(qd, "_nodes", _no_quadrature)
    argv = ["verify", identity, "--surface", "sphere:R=1", "--quad", "gauss:order=4", *extra]
    assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) == cli.USAGE_EXIT
    assert "levilab verify:" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def _never_called(*args, **kwargs):
    raise AssertionError("an output path that cannot be written must exit before the computation")


@pytest.mark.parametrize("command", [
    ["verify", "integral", "--surface", "sphere:R=1", "--quad", "gauss:order=4"],
    ["curvature", "--surface", "sphere:R=2", "--direction", "1,0,0,0"],
])
def test_unwritable_out_exits_before_the_computation(command, tmp_path, capsys, monkeypatch):
    # --out under a regular file: its directory cannot be made, which is a usage error found first
    monkeypatch.setattr(vf, "verify_integral_formula", _never_called)
    monkeypatch.setattr(cv.FrameBatch, "at_points", _never_called)
    monkeypatch.setattr(sf, "radial_roots", _never_called)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli.main([*command, "--out", str(blocker / "r.json")]) == cli.USAGE_EXIT
    err = capsys.readouterr().err
    assert err.startswith("levilab: ") and err.count("\n") == 1 and str(blocker) in err


def test_read_only_out_directory_exits_before_the_computation(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(vf, "verify_integral_formula", _never_called)
    monkeypatch.setattr(os, "access", lambda path, mode: path != str(tmp_path))
    argv = ["verify", "integral", "--surface", "sphere:R=1", "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == cli.USAGE_EXIT
    assert capsys.readouterr().err == f"levilab: [Errno 13] Permission denied: '{tmp_path}'\n"


@pytest.mark.parametrize("surface, codes", [
    ("sphere:R=1", {cli.FAILURE_EXIT}),
    ("ellipsoid:axes=1,1.3,0.8,1.1,center=0.1,0,0,0", {cli.FAILURE_EXIT}),
    ("ellipsoid:axes=1,1.3,0.8,1.1", {0, cli.VIOLATED_EXIT}),
])
def test_dirichlet_needs_a_centered_ellipsoid(surface, codes, tmp_path):
    argv = ["verify", "dirichlet", "--surface", surface, "--quad", "gauss:order=8"]
    assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) in codes


def test_surface_help_lists_each_family_with_its_constructor_keys():
    # generated from the families' signatures, and the same bytes as the hand-written text it replaced
    assert cli.SURFACE_HELP == (
        "surface description: inline 'family:key=val,...' or a path to a key=value file. "
        "Families: sphere (R, center, n), ellipsoid (axes, center), quadric (n, c, hterms), "
        "cylinder (R, kind), reinhardt (k, f0, fp0, s0, smax), poly (n, terms, center, scale), "
        "dirichlet (axes). Example: sphere:R=2 or ellipsoid:axes=1,1,1,2"
    )


@pytest.mark.parametrize("quad, message", [
    ("mc:samples=20000,seed=7", "unknown method 'mc'"),
    ("gauss:order=8,radial_order=1", "unknown key 'radial_order'"),  # a bulk pass puts order points on each ray
])
def test_monte_carlo_quadrature_is_a_usage_error(quad, message, tmp_path, capsys):
    argv = ["verify", "integral", "--surface", "ellipsoid:axes=1,1.3,0.8,1.1", "--quad", quad]
    assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) == cli.USAGE_EXIT
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def _curvature(argv, tmp_path):
    out = tmp_path / "k.json"
    code = cli.main(["curvature", *argv, "--out", str(out)])
    return code, json.loads(out.read_text()) if code == 0 else None


@pytest.mark.parametrize("where", [["--point", "2,0,0,0"], ["--direction", "2,0,0,0"]])
def test_curvature_on_the_sphere(where, tmp_path):
    code, out = _curvature(["--surface", "sphere:R=2", *where], tmp_path)
    assert code == 0
    assert out["config"]["point"] == [2.0, 0.0, 0.0, 0.0]
    assert out["K"] == pytest.approx(0.5, rel=1e-14) and out["H"] == pytest.approx(0.5, rel=1e-14)
    assert out["normal"] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)


def test_curvature_near_unit_direction(tmp_path):
    # a norm within 1e-9 of 1 is normalised too: the root and the point lie on one ray
    code, out = _curvature(["--surface", "sphere:R=2", "--direction", "1.0000000005,0,0,0"], tmp_path)
    assert code == 0
    assert out["K"] == pytest.approx(0.5, rel=1e-14) and out["H"] == pytest.approx(0.5, rel=1e-14)


def test_star_validation_takes_o_of_m_directions(tmp_path):
    # the signed axes and the two main diagonals in place of the 2^m cube corners: n = 20 (m = 42) in well
    # under a second, where 2^42 corners would never end
    assert [len(_coarse_directions(m)) for m in (4, 6, 42)] == [10, 14, 86]
    code, out = _curvature(["--surface", "sphere:R=1,n=20", "--direction", ",".join(["1"] + ["0"] * 41)], tmp_path)
    assert code == 0
    assert out["K"] == pytest.approx(1.0, rel=1e-14) and out["H"] == pytest.approx(1.0, rel=1e-14)


def test_off_boundary_point_prints_a_plain_float(tmp_path, capsys):
    assert _curvature(["--surface", "sphere:R=2", "--point", "1.999999999,0,0,0"], tmp_path)[0] == cli.FAILURE_EXIT
    err = capsys.readouterr().err
    assert "off the boundary: f = -4.000000330961484e-09" in err and "np.float64" not in err


@pytest.mark.parametrize("argv", [
    ["--point", "2,0,0,0", "--direction", "1,0,0,0"],
    [],
    ["--point", "2,0,0"],
    ["--direction", "1,0,0,0,0"],
    ["--point", "2,0,0,0", "--j", "2"],
    ["--direction", "1,0,0,0", "--j", "0"],
    ["--point", "2,abc,0,0"],
    ["--direction", "1,,0,0"],
])
def test_curvature_usage_errors(argv, tmp_path, capsys):
    assert _curvature(["--surface", "sphere:R=2", *argv], tmp_path)[0] == cli.USAGE_EXIT
    assert "levilab curvature:" in capsys.readouterr().err


@pytest.mark.parametrize("params, name", [
    ("k=nan,f0=4", "k"),
    ("k=inf,f0=4", "k"),
    ("k=0.5,f0=inf", "f0"),
    ("k=0.5,f0=nan", "f0"),
    ("k=0.5,f0=4,fp0=nan,s0=1", "fp0"),
    ("k=0.5,f0=4,fp0=-1,s0=inf", "s0"),
    ("k=0.5,f0=4,smax=inf", "smax"),
])
def test_reinhardt_parameters_are_named(params, name, tmp_path, capsys):
    # a usage error naming the parameter, before any profile step or numpy warning
    assert _curvature(["--surface", f"reinhardt:{params}", "--direction", "1,0,0,0"], tmp_path)[0] == 64
    assert f": {name} must be" in capsys.readouterr().err


def _cli_warnings_as_errors(*argv):
    """Run the command in a fresh interpreter where a numpy RuntimeWarning is a traceback."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "levilab.cli", *argv]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


# the sphere profile 4 - s started at s0 = 1: a band, undefined below s0, so it has no star center
BAND = "reinhardt:k=0.5,f0=3.0,fp0=-1.0,s0=1.0,smax=10"


def test_closed_band_is_pointwise_only(tmp_path, capsys):
    code, out = _curvature(["--surface", BAND, "--point", "1.3228756555322954,0,1.5,0"], tmp_path)
    assert code == 0
    assert out["K"] == pytest.approx(0.5, rel=1e-12) and out["H"] == pytest.approx(0.5, rel=1e-12)
    argv = ["verify", "isoperimetric", "--surface", BAND, "--quad", "gauss:order=8"]
    assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) == cli.FAILURE_EXIT
    assert "no star center" in capsys.readouterr().err


# star-shaped surfaces on which a suite's hypothesis fails: K_1 < 0 at some nodes of the n = 1 quartic
# |z|^4 - 3|z1|^2 + |z2|^2 - 1; H = diag(-1, -1, 2), outside Gamma_3, at the origin of the n = 2 quartic
# |z|^4 - |z1|^2 - |z2|^2 + 2|z3|^2 - 1
SIGN_CHANGING_N1 = "poly:n=1,terms=-1:0,0,0,0;1:0,1,0,1;1:0,2,0,2;-3:1,0,1,0;2:1,1,1,1;1:2,0,2,0"
OUTSIDE_CONE_N2 = ("poly:n=2,terms=-1:0,0,0,0,0,0;2:0,0,1,0,0,1;1:0,0,2,0,0,2;-1:0,1,0,0,1,0;2:0,1,1,0,1,1;"
                   "1:0,2,0,0,2,0;-1:1,0,0,1,0,0;2:1,0,1,1,0,1;2:1,1,0,1,1,0;1:2,0,0,2,0,0")


@pytest.mark.parametrize("identity, surface, extra", [
    ("isoperimetric", SIGN_CHANGING_N1, ["--quad", "gauss:order=12"]),
    ("newton", OUTSIDE_CONE_N2, ["--quad", "gauss:order=6", "--j", "2"]),
])
def test_failed_hypothesis_exits_3(identity, surface, extra, tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["verify", identity, "--surface", surface, *extra, "--out", str(out)]) == cli.HYPOTHESES_EXIT
    assert json.loads(out.read_text())["verdict"]["kind"] == "hypotheses_not_met"


def test_batch_failed_hypothesis_exits_3(tmp_path):
    src = tmp_path / "surfaces"
    src.mkdir()
    (src / "quartic").write_text("family=poly\nn=1\nterms=" + SIGN_CHANGING_N1.split("terms=")[1] + "\n")
    argv = ["batch", str(src), "--identity", "isoperimetric", "--quad", "gauss:order=12"]
    assert cli.main([*argv, "--out-dir", str(tmp_path / "o")]) == cli.HYPOTHESES_EXIT
    row = (tmp_path / "o" / "summary.csv").read_text().splitlines()[1].split(",", 6)
    assert (row[0], row[5], row[6]) == ("quartic", "hypotheses_not_met", "")


def test_curvature_zero_direction_prints_no_numpy_warning():
    proc = _cli_warnings_as_errors("curvature", "--surface", "sphere:R=2", "--direction", "0,0,0,0")
    assert proc.returncode == cli.FAILURE_EXIT
    assert "RuntimeWarning" not in proc.stderr and "direction" in proc.stderr


@pytest.mark.parametrize("surface, n, j, gnorm, power", [
    ("quadric:n=3,c=1e150", 3, 3, "1.000e+75", 5),  # (|grad f| / 2)^(j+2) is not a float
    ("sphere:R=6e153,n=5", 5, 1, "1.200e+154", 3),  # nor is the sum of the 2x2 bordered minors
])
def test_levi_overflow_is_a_domain_error(surface, n, j, gnorm, power):
    # the lengths are inside the accepted range, but K_j's numerator or denominator overflows
    direction = ",".join(["1"] + ["0"] * (2 * n + 1))
    proc = _cli_warnings_as_errors("curvature", "--surface", surface, "--direction", direction, "--j", str(j))
    assert proc.returncode == cli.FAILURE_EXIT == 4
    assert proc.stderr == (f"levilab: |grad f| = {gnorm}: the bordered-minor sum or (|grad f| / 2)^{power} "
                           "overflows a float\n")


# Alexandrov at order 8: the sphere's chain holds (violated under --tol -1), the
# ellipsoid's curvature is not constant, the cylinder parses but has no star
# center to integrate from, and a file without a family fails to parse.
BATCH_FILES = {"sphere": "family=sphere\nR=1\n", "ellipsoid": "family=ellipsoid\naxes=1,1,1,2\n",
               "cylinder": "family=cylinder\nR=1\n", "broken": "axes=1,1,1,2\n"}


def _batch(tmp_path, names, *extra):
    src = tmp_path / "surfaces"
    src.mkdir(exist_ok=True)
    for name in names:
        (src / name).write_text(BATCH_FILES[name])
    out = tmp_path / "reports"
    argv = ["batch", str(src), "--identity", "alexandrov", "--quad", "gauss:order=8", "--out-dir", str(out), *extra]
    return cli.main(argv), out


def test_batch_summary_and_one_report_per_file(tmp_path, capsys):
    code, out = _batch(tmp_path, ["sphere", "ellipsoid", "cylinder", "broken"])
    assert code == cli.USAGE_EXIT
    header, *rows = (out / "summary.csv").read_text().splitlines()
    assert header == "surface,identity,lhs,rhs,rel_err,verdict,note"
    cells = [row.split(",", 6) for row in rows]
    assert [(c[0], c[1], c[5]) for c in cells] == [
        ("broken", "alexandrov", "error"), ("cylinder", "alexandrov", "error"),
        ("ellipsoid", "alexandrov", "hypotheses_not_met"), ("sphere", "alexandrov", "inequality_holds")]
    assert all(c[2:5] == ["", "", ""] for c in cells[:2])
    assert "family" in cells[0][6] and "star center" in cells[1][6]
    assert all(c[6] == "" for c in cells[2:])
    assert sorted(p.name for p in out.iterdir()) == ["ellipsoid.report.json", "sphere.report.json", "summary.csv"]
    for name, kind in (("ellipsoid", "hypotheses_not_met"), ("sphere", "inequality_holds")):
        report = json.loads((out / f"{name}.report.json").read_text())
        assert report["verdict"]["kind"] == kind
        assert report["config"]["source_file"] == name
    assert "4 surfaces" in capsys.readouterr().out


# the batch exit code is the worst over the files: an unreadable file 64 (as verify
# exits on it), then violated 2, then a numerical failure 4, then hypotheses 3
@pytest.mark.parametrize("names, extra, code", [
    (["sphere"], [], 0),
    (["sphere", "ellipsoid"], [], cli.HYPOTHESES_EXIT),
    (["sphere", "ellipsoid", "cylinder"], [], cli.FAILURE_EXIT),
    (["sphere", "ellipsoid", "cylinder"], ["--tol", "-1"], cli.VIOLATED_EXIT),
    (["sphere", "ellipsoid", "broken"], [], cli.USAGE_EXIT),
    (["sphere", "cylinder", "broken"], ["--tol", "-1"], cli.USAGE_EXIT),
])
def test_batch_exit_code_is_the_worst_outcome(names, extra, code, tmp_path):
    assert _batch(tmp_path, names, *extra)[0] == code


def test_batch_j_out_of_range_is_a_usage_error_as_in_verify(tmp_path, capsys, monkeypatch):
    # --j above a file's n is an argument out of range: 64 with verify's message, not a numerical failure
    monkeypatch.setattr(qd, "_nodes", _no_quadrature)
    (tmp_path / "sphere").write_text(BATCH_FILES["sphere"])
    assert cli.main(["verify", "integral", "--surface", str(tmp_path / "sphere"), "--j", "3"]) == cli.USAGE_EXIT
    message = capsys.readouterr().err.strip().removeprefix("levilab verify: ")
    assert message == "j=3 out of range 1..1"
    out = tmp_path / "reports"
    argv = ["batch", str(tmp_path), "--identity", "integral", "--j", "3", "--out-dir", str(out)]
    assert cli.main(argv) == cli.USAGE_EXIT
    assert (out / "summary.csv").read_text().splitlines()[1:] == [f'sphere,integral,,,,error,"{message}"']


@pytest.mark.parametrize("identity, tol", [("minkowski", "-1"), ("integral", "nan"), ("alexandrov", "nan")])
def test_batch_bad_tol_is_a_usage_error(identity, tol, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(qd, "_nodes", _no_quadrature)
    (tmp_path / "sphere").write_text(BATCH_FILES["sphere"])
    out = tmp_path / "reports"
    argv = ["batch", str(tmp_path), "--identity", identity, "--tol", tol, "--out-dir", str(out)]
    assert cli.main(argv) == cli.USAGE_EXIT
    assert "levilab batch: --tol" in capsys.readouterr().err
    assert not out.exists()


def test_verify_exits_on_a_malformed_file_as_batch_does(tmp_path, capsys):
    path = tmp_path / "broken"
    path.write_text(BATCH_FILES["broken"])
    argv = ["verify", "alexandrov", "--surface", str(path), "--quad", "gauss:order=8"]
    assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) == cli.USAGE_EXIT == _batch(tmp_path, ["broken"])[0]
    assert "family" in capsys.readouterr().err


def test_batch_on_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    argv = ["batch", str(missing), "--identity", "alexandrov", "--out-dir", str(tmp_path / "reports")]
    assert cli.main(argv) == cli.USAGE_EXIT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(missing) in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "batch"])
def test_output_under_a_regular_file_is_a_usage_error(command, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    if command == "verify":
        argv = ["verify", "alexandrov", "--surface", "sphere:R=1", "--quad", "gauss:order=4",
                "--out", str(blocker / "r.json")]
    else:
        (tmp_path / "sphere").write_text(BATCH_FILES["sphere"])
        argv = ["batch", str(tmp_path), "--identity", "alexandrov", "--out-dir", str(blocker / "reports")]
    assert cli.main(argv) == cli.USAGE_EXIT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(blocker) in err


def test_batch_unreadable_file_is_an_error_row(tmp_path, monkeypatch):
    # a file that cannot be read (here: one open() refuses, or one not in UTF-8) counts as 64, as one
    # that does not parse
    parse = specfile.parse_surface

    def refuse_locked(path):
        if path.endswith("locked"):
            raise PermissionError(13, "Permission denied", path)
        return parse(path)

    monkeypatch.setattr(specfile, "parse_surface", refuse_locked)
    (tmp_path / "surfaces").mkdir()
    (tmp_path / "surfaces" / "locked").write_text(BATCH_FILES["sphere"])
    (tmp_path / "surfaces" / "latin1").write_bytes(b"family=sphere\nR=1 # \xe9\n")
    code, out = _batch(tmp_path, ["sphere"])
    assert code == cli.USAGE_EXIT
    rows = [row.split(",", 6) for row in (out / "summary.csv").read_text().splitlines()[1:]]
    assert [(c[0], c[5]) for c in rows] == [("latin1", "error"), ("locked", "error"), ("sphere", "inequality_holds")]
    assert "not UTF-8" in rows[0][6] and "Permission denied" in rows[1][6]
