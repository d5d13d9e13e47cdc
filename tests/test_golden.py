"""Golden reports: a fixed corpus of verifications.

tests/golden/reports.json holds the JSON reports of the corpus. The first
five entries (gauss order 16) were recorded before the polynomial families
moved off the jet engine; the one with a separate radial order and the
Newton sweep were recorded before the quadrature passes were folded into one
core. The n = 2 quadric's Minkowski entry and the exp
reparametrised integral formula were recorded before the jets became
Wirtinger-native: they pin the mean curvature on a non-quadratic pure
Hessian and a bulk sigma taken through the chain rule. The two n = 2 bulk
entries at order 7 (the sphere at j = 2, the paired-axis Dirichlet chain)
were recorded before the bulk passes read a quadratic's constant H without
evaluating f, which they pin. alexandrov:reinhardt
was recorded again when the profile integrator became the Taylor series
method, whose sphere profile ends at smax=4.0 exactly. Every verdict kind must match, and lhs and rhs
must agree to GOLDEN_RTOL relative: the compiled evaluators sum the same
terms in a different order, so the last bits may move.

tests/golden/curvature.json holds the JSON output of `levilab curvature` on a
few points and ray directions; it must match byte for byte.

To record the entries missing from either file with a given checkout of the
program (entries already in a file are left as they are):

    PYTHONPATH=<checkout>/src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from levilab import cli
from levilab import quadrature as qd
from levilab import surfaces as sf
from levilab import verify as vf

GOLDEN = Path(__file__).parent / "golden" / "reports.json"
GOLDEN_RTOL = 1e-13
CURVATURE_GOLDEN = Path(__file__).parent / "golden" / "curvature.json"

Q16 = qd.QuadratureSpec(order=16)
Q16_RADIAL5 = qd.QuadratureSpec(order=16, radial_order=5)
Q7 = qd.QuadratureSpec(order=7)
ELLIPSOID_AXES = [1.0, 1.3, 0.8, 1.1]
QUADRIC_HTERMS = {(2, 0): 0.15 + 0.05j, (1, 1): -0.1j}
# Complex Hessian diag(2 + 2|z1|^2, 1 - 0.4|z2|^2): the Newton gap is at least
# 1/4 and smallest near the center, so the sweep's minimum is an interior node.
NEWTON_TERMS = {(1, 0, 1, 0): 2.0, (2, 0, 2, 0): 0.5, (0, 1, 0, 1): 1.0, (0, 2, 0, 2): -0.1, (0, 0, 0, 0): -1.0}
# A non-quadratic pure Hessian at n = 2: the Minkowski moment reads the mean curvature there.
QUADRIC_N2_HTERMS = {(2, 0, 0): 0.1 + 0.05j, (1, 1, 0): -0.1j, (0, 1, 1): 0.05, (0, 0, 3): 0.02 - 0.03j}

CORPUS = {
    "integral_formula:ellipsoid_n1": lambda: vf.verify_integral_formula(sf.Ellipsoid(ELLIPSOID_AXES), 1, Q16),
    "isoperimetric:quadric": lambda: vf.isoperimetric_ratio(
        sf.PerturbedQuadric(1, c=1.0, hterms=QUADRIC_HTERMS), 1, Q16),
    "alexandrov:reinhardt": lambda: vf.alexandrov_check(sf.ReinhardtSurface(0.5, 4.0), 1, Q16),
    "dirichlet_chain:n1": lambda: vf.dirichlet_chain([1.0, 1.0, 1.0, 2.0], 1, Q16),
    "minkowski:ellipsoid": lambda: vf.minkowski_residual(sf.Ellipsoid(ELLIPSOID_AXES), Q16),
    "integral_formula:ellipsoid_n1_radial5": lambda: vf.verify_integral_formula(
        sf.Ellipsoid(ELLIPSOID_AXES), 1, Q16_RADIAL5),
    "newton_sweep:poly_interior_min": lambda: vf.newton_sweep(sf.UserPolynomial(1, NEWTON_TERMS), 1, Q16),
    "minkowski:quadric_n2": lambda: vf.minkowski_residual(
        sf.PerturbedQuadric(2, hterms=QUADRIC_N2_HTERMS), qd.QuadratureSpec(order=8)),
    "integral_formula:ellipsoid_n1_exp": lambda: vf.verify_integral_formula(
        sf.Ellipsoid(ELLIPSOID_AXES), 1, Q16, f_choice="exp"),
    "integral_formula:sphere_n2_j2": lambda: vf.verify_integral_formula(sf.Sphere(1.5, n=2), 2, Q7),
    "dirichlet_chain:n2": lambda: vf.dirichlet_chain([1.0, 1.0, 1.2, 1.2, 1.4, 1.4], 1, Q7),
}

# `levilab curvature` arguments: an explicit point, the same point by its ray, an
# off-axis ray on an ellipsoid, and j = 2 on the n = 2 sphere
CURVATURE_CASES = {
    "sphere_point": ["--surface", "sphere:R=2", "--point", "2,0,0,0"],
    "sphere_direction": ["--surface", "sphere:R=2", "--direction", "2,0,0,0"],
    "ellipsoid_direction": ["--surface", "ellipsoid:axes=1,1.3,0.8,1.1", "--direction", "1,-2,0.5,3"],
    "sphere_n2_direction_j2": ["--surface", "sphere:R=1.5,n=2", "--direction", "1,1,1,1,1,1", "--j", "2"],
}


def _report(name: str) -> dict:
    return json.loads(CORPUS[name]().to_json())


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_matches_file(golden):
    assert sorted(golden) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_report(name, golden):
    want = golden[name]
    got = _report(name)
    assert got["verdict"]["kind"] == want["verdict"]["kind"]
    assert got["surface"] == want["surface"]
    for side in ("lhs", "rhs"):
        scale = max(abs(want[side]), 1e-300)
        assert abs(got[side] - want[side]) <= GOLDEN_RTOL * scale, (side, got[side], want[side])


def _curvature_output(name: str) -> str:
    """stdout of `levilab curvature` on one case."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["curvature", *CURVATURE_CASES[name]]) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def curvature_golden() -> dict:
    return json.loads(CURVATURE_GOLDEN.read_text())


def test_curvature_cases_match_file(curvature_golden):
    assert sorted(curvature_golden) == sorted(CURVATURE_CASES)


@pytest.mark.parametrize("name", sorted(CURVATURE_CASES))
def test_golden_curvature_output(name, curvature_golden):
    assert _curvature_output(name) == json.dumps(curvature_golden[name], indent=2) + "\n"


def _record(path: Path, names, output) -> None:
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        if name not in recorded:
            recorded[name] = output(name)
    path.write_text(json.dumps(dict(sorted(recorded.items())), indent=2) + "\n")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    _record(GOLDEN, CORPUS, _report)
    _record(CURVATURE_GOLDEN, CURVATURE_CASES, lambda name: json.loads(_curvature_output(name)))
