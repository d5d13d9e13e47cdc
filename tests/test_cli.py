import json

import pytest

from levilab import cli
from levilab.wirtinger import MAX_NVARS


def test_identities_pass(capsys):
    assert cli.main(["identities", "--n", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS ") for line in lines)
    assert all("max_terms=" in line for line in lines[:3])


@pytest.mark.parametrize("argv", [
    ["identities", "--n", str(MAX_NVARS)],
    ["identities", "--n", "2", "--j", "3"],
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


@pytest.mark.parametrize("raw, recorded", [(None, "1"), ("2", "2"), (" 3 ", "3")])
def test_threads_recorded_as_parsed(raw, recorded, monkeypatch, tmp_path):
    if raw is None:
        monkeypatch.delenv("LEVILAB_THREADS", raising=False)
    else:
        monkeypatch.setenv("LEVILAB_THREADS", raw)
    out = tmp_path / "r.json"
    assert cli.main([*NEWTON_ARGV, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["threads"] == recorded


def test_bad_threads_is_an_error(monkeypatch, capsys):
    monkeypatch.setenv("LEVILAB_THREADS", "abc")
    assert cli.main(NEWTON_ARGV) == cli.FAILURE_EXIT
    assert "LEVILAB_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("surface, codes", [
    ("sphere:R=1", {cli.FAILURE_EXIT}),
    ("ellipsoid:axes=1,1.3,0.8,1.1,center=0.1,0,0,0", {cli.FAILURE_EXIT}),
    ("ellipsoid:axes=1,1.3,0.8,1.1", {0, cli.VIOLATED_EXIT}),
])
def test_dirichlet_needs_a_centered_ellipsoid(surface, codes, tmp_path):
    argv = ["verify", "dirichlet", "--surface", surface, "--quad", "gauss:order=8"]
    assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) in codes


def test_monte_carlo_quadrature_is_a_usage_error(tmp_path, capsys):
    argv = ["verify", "integral", "--surface", "ellipsoid:axes=1,1.3,0.8,1.1", "--quad", "mc:samples=20000,seed=7"]
    assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) == cli.USAGE_EXIT
    assert "unknown method 'mc'" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()
