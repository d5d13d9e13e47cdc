import dataclasses
import json
import math
import re

import numpy as np
import pytest

from levilab import curvature as cv
from levilab import quadrature as qd
from levilab import surfaces as sf
from levilab import verify as vf
from levilab.hermitian import sigma_batch

Q24 = qd.QuadratureSpec(order=24)
Q12 = qd.QuadratureSpec(order=12)
Q7 = qd.QuadratureSpec(order=7)

QUADRIC_N1 = dict(c=1.0, hterms={(2, 0): 0.25, (0, 2): 0.25})
QUARTIC_N1 = {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (2, 0, 2, 0): 0.05, (1, 1, 1, 1): 0.1, (0, 0, 0, 0): -2.0}
# |z|^4 - 3|z1|^2 + |z2|^2 - 1 = 0 is star-shaped, but its K_1 is negative at some nodes
SIGN_CHANGING_N1 = {(2, 0, 2, 0): 1, (0, 2, 0, 2): 1, (1, 1, 1, 1): 2, (1, 0, 1, 0): -3, (0, 1, 0, 1): 1,
                    (0, 0, 0, 0): -1}


def _outside_cone_n2() -> sf.UserPolynomial:
    """|z|^4 - |z1|^2 - |z2|^2 + 2|z3|^2 - 1: H = diag(-1, -1, 2) at the origin lies outside the Garding cone
    Gamma_3, and the sigma_3 gap there is -2."""
    unit = np.eye(3, dtype=int)
    quartic = {tuple(np.tile(unit[a] + unit[b], 2).tolist()): 2 - (a == b) for a in range(3) for b in range(a, 3)}
    return sf.UserPolynomial(2, {**quartic, (1, 0, 0, 1, 0, 0): -1, (0, 1, 0, 0, 1, 0): -1, (0, 0, 1, 0, 0, 1): 2,
                                 (0,) * 6: -1})


def _named_point(report) -> np.ndarray:
    """The boundary point that a hypotheses_not_met reason names; Python's float repr reads back exactly."""
    return np.array(json.loads(report.verdict["reason"].split("boundary point ")[1]))


def _first_nonpositive(spec, q, j=1) -> np.ndarray:
    """The first boundary node, in node order, where K_j <= 0."""
    k, pts = qd.scan_boundary(spec, q, lambda fr: (fr.levi(j), fr.points))
    return pts[np.flatnonzero(k <= 0)[0]]


def _finite_json(report) -> bool:
    text = report.to_json()
    return "NaN" not in text and "Infinity" not in text


class TestIntegralFormula:
    def test_ball_closed_form_both_sides(self):
        # sigma_2 of the identity Hessian times the 4-ball volume: pi^2 R^4 / 2
        r = vf.verify_integral_formula(sf.Sphere(2.0), 1, Q24)
        exact = math.pi**2 * 8
        assert r.verdict["kind"] == "equal"
        assert abs(r.lhs - exact) / exact < 1e-8
        assert abs(r.rhs - exact) / exact < 1e-8

    def test_reparametrized_defining_function(self):
        base = vf.verify_integral_formula(sf.Sphere(2.0), 1, Q24)
        rep = vf.verify_integral_formula(sf.Sphere(2.0), 1, Q24, f_choice="exp")
        assert rep.verdict["kind"] == "equal"
        assert rep.rel_err < 1e-6
        # the identity held for the default function too: same value, new f
        assert abs(rep.lhs - base.lhs) / base.lhs < 1e-2  # sides differ, zero set does not

    def test_ellipsoid(self):
        r = vf.verify_integral_formula(sf.Ellipsoid([1.0, 1.0, 1.0, 2.0]), 1, Q24)
        assert r.verdict["kind"] == "equal"
        assert r.rel_err < 1e-6

    def test_dirichlet_function_choice(self):
        r = vf.verify_integral_formula(sf.Ellipsoid([1.0, 1.0, 1.0, 2.0]), 1, Q24, f_choice="dirichlet")
        assert r.verdict["kind"] == "equal"
        assert r.rel_err < 1e-6

    def test_n2_both_indices(self):
        spec = sf.Sphere(1.5, n=2)
        for j in (1, 2):
            r = vf.verify_integral_formula(spec, j, Q12)
            assert r.verdict["kind"] == "equal"
            assert r.rel_err < 1e-7

    def test_j_range_enforced(self):
        with pytest.raises(ValueError):
            vf.verify_integral_formula(sf.Sphere(1.0), 5, Q12)


class TestIsoperimetric:
    def test_ball_equality(self):
        r = vf.isoperimetric_ratio(sf.Sphere(2.0), 1, Q24)
        assert r.verdict["kind"] == "equal"
        assert abs(r.details["ratio"] - 1.0) < 1e-8

    def test_quadric_equality_family_nonspherical(self):
        spec = sf.PerturbedQuadric(1, **QUADRIC_N1)
        r = vf.isoperimetric_ratio(spec, 1, Q24)
        assert abs(r.details["ratio"] - 1.0) < 1e-6

    def test_generic_ellipsoid_strict(self):
        r24 = vf.isoperimetric_ratio(sf.Ellipsoid([1.0, 1.3, 0.8, 1.1]), 1, Q24)
        assert r24.verdict["kind"] == "inequality_holds"
        assert r24.verdict["margin"] > 1e-4
        # order doubling moves the margin by far less than the margin itself
        r48 = vf.isoperimetric_ratio(sf.Ellipsoid([1.0, 1.3, 0.8, 1.1]), 1, qd.QuadratureSpec(order=48))
        assert abs(r48.verdict["margin"] - r24.verdict["margin"]) < 1e-6 * r24.verdict["margin"] + 1e-12

    def test_nonpositive_curvature_is_an_unmet_hypothesis(self):
        # |z|^2 - 1 - 3|z1 z2|^2 + 4|z1 z2|^4 = 0 is star-shaped but its Levi form
        # changes sign (K_1 spans about [-1.98, 3.16] on the order-12 grid)
        spec = sf.UserPolynomial(
            1,
            {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (0, 0, 0, 0): -1.0,
             (1, 1, 1, 1): -3.0, (2, 2, 2, 2): 4.0},
            scale=1.2,
        )
        r = vf.isoperimetric_ratio(spec, 1, Q12)
        assert (r.verdict["kind"], r.exit_code) == ("hypotheses_not_met", 3)
        p = _named_point(r)
        assert abs(sf.eval_values(spec, p[None, :])[0]) < 1e-10
        assert cv.levi(cv.FrameBatch.at_points(spec, p), 1)[0] <= 0
        assert np.array_equal(p, _first_nonpositive(spec, Q12))
        assert _finite_json(r)

    def test_nonpositive_curvature_message_prints_plain_floats(self):
        # the reason prints K at the first such node as a plain float, not as a numpy repr
        r = vf.isoperimetric_ratio(sf.UserPolynomial(1, SIGN_CHANGING_N1), 1, Q12)
        message = r.verdict["reason"]
        assert re.match(r"nonpositive curvature K=-0\.01431909025552\d* at quadrature node with boundary point "
                        r"\[-0\.3524947418317", message)
        assert "np." not in message


class TestMinkowski:
    def test_ball(self):
        r = vf.minkowski_residual(sf.Sphere(2.0), Q24)
        assert r.verdict["kind"] == "equal"
        assert r.rel_err < 1e-10

    def test_ellipsoid(self):
        r = vf.minkowski_residual(sf.Ellipsoid([1.0, 1.0, 1.0, 2.0]), qd.QuadratureSpec(order=32))
        assert r.verdict["kind"] == "equal"
        assert r.rel_err < 1e-6

    def test_perturbed_quadric(self):
        r = vf.minkowski_residual(sf.PerturbedQuadric(1, **QUADRIC_N1), qd.QuadratureSpec(order=32))
        assert r.rel_err < 1e-6

    def test_translation_invariance_off_center(self):
        r = vf.minkowski_residual(sf.Sphere(1.5, center=[0.4, -0.1, 0.2, 0.3]), Q24)
        assert r.verdict["kind"] == "equal"
        assert r.rel_err < 1e-6


class TestAlexandrov:
    def test_ball_all_three_equal(self):
        r = vf.alexandrov_check(sf.Sphere(2.0), 1, Q24)
        assert r.verdict["kind"] == "inequality_holds"
        vals = (r.lhs, r.details["area_over_scaled_volume"], r.rhs)
        assert all(abs(v - 0.5) < 1e-7 for v in vals)

    def test_ellipsoid_hypotheses_not_met(self):
        r = vf.alexandrov_check(sf.Ellipsoid([1.0, 1.0, 1.0, 2.0]), 1, Q24)
        assert r.verdict["kind"] == "hypotheses_not_met"
        assert r.exit_code == 3

    def test_reinhardt_profile_surface(self):
        r24 = vf.alexandrov_check(sf.ReinhardtSurface(0.5, 4.0), 1, Q24)
        assert r24.verdict["kind"] == "inequality_holds"
        assert r24.details["k_defect_rel"] < 1e-5
        assert r24.verdict["margin"] > -1e-6
        r32 = vf.alexandrov_check(sf.ReinhardtSurface(0.5, 4.0), 1, qd.QuadratureSpec(order=32))
        assert abs(r32.verdict["margin"] - r24.verdict["margin"]) < 1e-8


class TestDirichletChain:
    def test_ball_equalities(self):
        r = vf.dirichlet_chain([2.0, 2.0, 2.0, 2.0], 1, Q24)
        assert r.verdict["kind"] == "equal"
        assert abs(r.details["bulk_bound_margin_rel"]) < 1e-8
        assert r.details["pointwise_product_max_dev"] < 1e-10

    def test_generic_axes_strict_and_stable(self):
        r24 = vf.dirichlet_chain([1.0, 1.0, 1.0, 2.0], 1, Q24)
        assert r24.verdict["kind"] == "inequality_holds"
        m24 = r24.details["bulk_bound_margin"]
        assert m24 > 0
        r48 = vf.dirichlet_chain([1.0, 1.0, 1.0, 2.0], 1, qd.QuadratureSpec(order=48))
        m48 = r48.details["bulk_bound_margin"]
        assert m48 > 0
        assert abs(m48 - m24) < 1e-6 * m24
        # frozen closed form: sigma_2(diag(8/13, 5/13)) = 40/169 against 1/4
        vol = math.pi**2
        assert r24.lhs == pytest.approx(40.0 / 169.0 * vol, rel=1e-8)
        assert r24.rhs == pytest.approx(0.25 * vol, rel=1e-8)

    def test_gradient_flux(self):
        r = vf.dirichlet_chain([1.0, 1.0, 1.0, 2.0], 1, Q24)
        assert r.details["gradient_flux_rel_err"] < 1e-7

    def test_paired_axes_equality_without_ball(self):
        # the Hessian is proportional to the identity whenever the per-z sums
        # of inverse squared axes agree, not only for equal axes
        r = vf.dirichlet_chain([2.0, 1.0, 1.0, 2.0], 1, Q24)
        assert r.verdict["kind"] == "equal"
        assert r.details["hessian_proportional_to_identity"]
        assert r.details["pointwise_product_max_dev"] < 1e-10

    def test_n2(self):
        r = vf.dirichlet_chain([1.0, 1.0, 1.0, 1.0, 1.0, 2.0], 2, Q12)
        assert r.verdict["kind"] == "inequality_holds"
        assert r.details["bulk_bound_margin"] > 0

    def test_inflated_gradient_flux_is_violated(self, monkeypatch):
        # a 1e-4 relative flux error is far above the order-24 bound (about 1.1e-7)
        pgrad = vf._pgrad
        monkeypatch.setattr(vf, "_pgrad", lambda frames: pgrad(frames) * (1 + 1e-4))
        r = vf.dirichlet_chain([1.0, 1.0, 1.0, 2.0], 1, Q24)
        assert r.verdict == {"kind": "violated", "failed": ["gradient_flux"]}
        assert r.details["gradient_flux_rel_err"] > r.details["gradient_flux_rel_bound"]


class TestNewtonSweep:
    def test_ball_gap_zero(self):
        r = vf.newton_sweep(sf.Sphere(2.0), 1, Q12)
        assert r.verdict["kind"] == "inequality_holds"
        assert abs(r.lhs) < 1e-10

    def test_quadric_gap_zero(self):
        r = vf.newton_sweep(sf.PerturbedQuadric(1, **QUADRIC_N1), 1, Q12)
        assert abs(r.lhs) < 1e-10

    def test_generic_polynomial_surface(self):
        r = vf.newton_sweep(sf.UserPolynomial(1, QUARTIC_N1, scale=1.5), 1, Q12)
        assert r.lhs >= -1e-10

    def test_outside_the_garding_cone_is_an_unmet_hypothesis(self):
        # the sigma_3 gap is negative there, which is no violation: Newton-Maclaurin needs H in Gamma_3
        r = vf.newton_sweep(_outside_cone_n2(), 2, qd.QuadratureSpec(order=6))
        assert (r.verdict["kind"], r.exit_code) == ("hypotheses_not_met", 3)
        reason = r.verdict["reason"]
        assert re.match(r"H outside the Garding cone Gamma_3: smallest sigma_i -3\.05\d*$", reason)
        assert r.lhs < -1.9
        assert _finite_json(r)

    def test_inside_the_garding_cone_the_gap_holds(self):
        # a generic n = 2 ellipsoid's H is positive definite: j = 2 keeps its verdict and positive margin
        r = vf.newton_sweep(sf.Ellipsoid([1, 1.1, 0.9, 1.2, 1.05, 0.95]), 2, qd.QuadratureSpec(order=6))
        assert r.verdict["kind"] == "inequality_holds"
        assert abs(r.verdict["margin"] - 0.00215) < 1e-5


# the quadratics whose bulk side is sigma_{j+1}(H) |Omega| in closed form, and their orders: 16 at n = 1, where
# the grid is one chunk; at n = 2 order 7 already spans five chunks, and order 16 (2.1M directions) costs seconds
CLOSED_FORM_BULK = {
    "sphere_n1": (lambda: sf.Sphere(1.5), (7, 16)),
    "sphere_n1_off_center": (lambda: sf.Sphere(1.5, center=[0.2, -0.1, 0.3, 0.05]), (7, 16)),
    "sphere_n2": (lambda: sf.Sphere(1.5, n=2), (7, 9)),
    "sphere_n2_off_center": (lambda: sf.Sphere(1.2, center=[0.1, 0.0, -0.2, 0.3, 0.0, 0.1], n=2), (7, 9)),
    "ellipsoid_n1": (lambda: sf.Ellipsoid([1.0, 1.3, 0.8, 1.1]), (7, 16)),
    "ellipsoid_n2": (lambda: sf.Ellipsoid([1.0, 1.3, 0.8, 1.1, 0.9, 1.2]), (7, 9)),
    "quadric_n1": (lambda: sf.PerturbedQuadric(1, c=1.0, hterms={(2, 0): 0.1 + 0.05j, (1, 1): -0.08j}), (7, 16)),
    "dirichlet_n1": (lambda: sf.DirichletQuadratic([1.0, 1.0, 1.0, 2.0]), (7, 16)),
    "dirichlet_n2": (lambda: sf.DirichletQuadratic([1.0, 1.0, 1.2, 1.2, 1.4, 1.4]), (7, 9)),
    # Re(z1 zbar2) and Re(z1^2) cross terms, linear terms in z1 and z2
    "user_quadratic_n1": (lambda: sf.UserPolynomial(1, {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.2, (1, 0, 0, 1): 0.3 + 0.1j,
                                                        (2, 0, 0, 0): 0.15, (1, 0, 0, 0): 0.2, (0, 1, 0, 0): 0.1j,
                                                        (0, 0, 0, 0): -1.0}), (7, 16)),
}


class TestClosedFormBulk:
    @pytest.mark.parametrize("name", CLOSED_FORM_BULK)
    def test_equals_the_radial_layering(self, name):
        make, orders = CLOSED_FORM_BULK[name]
        spec = make()
        for order in orders:
            q = qd.QuadratureSpec(order=order)
            vol = qd.volume(spec, q)
            for j in range(1, spec.n + 1):
                closed = vf._bulk_sigma(spec, j, q)
                layered = qd.bulk_integral(spec, vf._mixed_field(spec, sigma_batch, j), q)
                assert closed.value == pytest.approx(layered.value, rel=1e-13, abs=0), (order, j)
                assert closed.nodes_used == layered.nodes_used == vol.nodes_used
                assert vf._bulk_sigma(spec, j, q, vol) == closed  # the volume pass a caller hands in

    def test_radial_layering_only_where_h_varies(self, monkeypatch):
        def forbidden(spec, field, q):
            raise AssertionError(f"radial layering on {spec.canonical()}")

        monkeypatch.setattr(qd, "bulk_integral", forbidden)
        vf.verify_integral_formula(sf.Sphere(1.5, n=2), 2, Q7)
        vf.verify_integral_formula(sf.Ellipsoid([1.0, 1.0, 1.0, 2.0]), 1, Q7, f_choice="dirichlet")
        vf.dirichlet_chain([1.0, 1.0, 1.0, 2.0], 1, Q7)
        reached = []
        monkeypatch.setattr(qd, "bulk_integral", lambda spec, field, q: reached.append(spec) or forbidden(spec, field, q))
        exp_ell = sf.ExpReparam(sf.Ellipsoid([1.0, 1.0, 1.0, 2.0]))
        quartic = sf.UserPolynomial(1, QUARTIC_N1, scale=1.5)
        for spec in (exp_ell, quartic):
            with pytest.raises(AssertionError, match="radial layering"):
                vf.verify_integral_formula(spec, 1, Q7)
        assert reached == [exp_ell, quartic]


class TestReports:
    def test_relative_error_definition(self):
        r = vf.minkowski_residual(sf.Sphere(1.0), Q12)
        assert r.rel_err == abs(r.lhs - r.rhs) / max(abs(r.lhs), abs(r.rhs), 1e-300)

    def test_json_bytes_reproducible(self):
        a = vf.isoperimetric_ratio(sf.Sphere(1.0), 1, Q12).to_json({"seed": 0})
        qd.clear_root_cache()
        b = vf.isoperimetric_ratio(sf.Sphere(1.0), 1, Q12).to_json({"seed": 0})
        assert a.encode() == b.encode()

    def test_schema_fields(self):
        r = vf.isoperimetric_ratio(sf.Sphere(1.0), 1, Q12)
        d = json.loads(r.to_json({"quad": "gauss:order=12"}))
        assert d["schema_version"] == "1"
        for key in ("identity", "lhs", "rhs", "abs_err", "rel_err", "verdict", "quadrature", "surface", "config"):
            assert key in d

    def test_exit_codes(self):
        ok = vf.minkowski_residual(sf.Sphere(1.0), Q12)
        assert ok.exit_code == 0
        hyp = vf.alexandrov_check(sf.Ellipsoid([1.0, 1.0, 1.0, 2.0]), 1, Q12)
        assert hyp.exit_code == 3

    @pytest.mark.parametrize("kind, code", [("equal", 0), ("inequality_holds", 0), ("violated", 2),
                                            ("hypotheses_not_met", 3), ("inconclusive", None), (None, None)])
    def test_exit_code_table(self, kind, code):
        # one table of the four kinds the suites emit (every verdict branch below); any other kind is named,
        # never read as violated
        assert set(vf.EXIT_CODES) == {branch[2] for branch in VERDICT_BRANCHES}
        r = dataclasses.replace(vf.minkowski_residual(sf.Sphere(1.0), Q12), verdict={"kind": kind})
        if code is None:
            with pytest.raises(ValueError, match=f"verdict kind {kind!r} has no exit code"):
                r.exit_code
        else:
            assert r.exit_code == code


Q8 = qd.QuadratureSpec(order=8)
ELL = [1.0, 1.3, 0.8, 1.1]

# (suite, run, kind, verdict keys in order) for every verdict branch; a tol of -1 forces violated
VERDICT_BRANCHES = [
    ("integral", lambda: vf.verify_integral_formula(sf.Sphere(1.0), 1, Q8), "equal", ["kind", "tol"]),
    ("integral", lambda: vf.verify_integral_formula(sf.Sphere(1.0), 1, Q8, tol=-1.0), "violated", ["kind", "tol"]),
    ("minkowski", lambda: vf.minkowski_residual(sf.Sphere(1.0), Q8), "equal", ["kind", "tol"]),
    ("minkowski", lambda: vf.minkowski_residual(sf.Sphere(1.0), Q8, tol=-1.0), "violated", ["kind", "tol"]),
    ("isoperimetric", lambda: vf.isoperimetric_ratio(sf.Sphere(1.0), 1, Q8), "equal", ["kind", "tol", "margin"]),
    ("isoperimetric", lambda: vf.isoperimetric_ratio(sf.Ellipsoid(ELL), 1, Q8), "inequality_holds", ["kind", "margin"]),
    ("isoperimetric", lambda: vf.isoperimetric_ratio(sf.Ellipsoid(ELL), 1, Q8, tol=-1.0), "violated",
     ["kind", "margin"]),
    ("alexandrov", lambda: vf.alexandrov_check(sf.Ellipsoid([1.0, 1.0, 1.0, 2.0]), 1, Q8), "hypotheses_not_met",
     ["kind", "reason"]),
    ("alexandrov", lambda: vf.alexandrov_check(sf.Sphere(1.0), 1, Q8), "inequality_holds", ["kind", "margin"]),
    ("alexandrov", lambda: vf.alexandrov_check(sf.Sphere(1.0), 1, Q8, tol=-1.0), "violated", ["kind", "margin"]),
    ("dirichlet", lambda: vf.dirichlet_chain([1.0, 1.0, 1.0, 1.0], 1, Q8), "equal", ["kind", "tol", "margin"]),
    ("dirichlet", lambda: vf.dirichlet_chain([1.0, 1.0, 1.0, 2.0], 1, Q8), "inequality_holds", ["kind", "margin"]),
    ("dirichlet", lambda: vf.dirichlet_chain([1.0, 1.0, 1.0, 2.0], 1, Q8, tol=-1.0), "violated", ["kind", "failed"]),
    ("newton", lambda: vf.newton_sweep(sf.Ellipsoid(ELL), 1, Q8), "inequality_holds", ["kind", "margin"]),
    ("newton", lambda: vf.newton_sweep(sf.Ellipsoid(ELL), 1, Q8, tol=-1.0), "violated", ["kind", "margin"]),
    ("isoperimetric", lambda: vf.isoperimetric_ratio(sf.UserPolynomial(1, SIGN_CHANGING_N1), 1, Q8),
     "hypotheses_not_met", ["kind", "reason"]),
    ("newton", lambda: vf.newton_sweep(_outside_cone_n2(), 2, qd.QuadratureSpec(order=4)), "hypotheses_not_met",
     ["kind", "reason"]),
]


class TestVerdictBranches:
    # the report schema pins each branch's verdict keys and their order, not only its kind
    @pytest.mark.parametrize("suite, run, kind, keys", VERDICT_BRANCHES,
                             ids=[f"{b[0]}-{b[2]}" for b in VERDICT_BRANCHES])
    def test_verdict_keys(self, suite, run, kind, keys):
        verdict = run().verdict
        assert verdict["kind"] == kind
        assert list(verdict) == keys

    def test_alexandrov_nonpositive_constant_curvature(self, monkeypatch):
        _forced_nonpositive(monkeypatch, lambda pts: np.ones(len(pts), dtype=bool))
        r = vf.alexandrov_check(sf.Sphere(1.0), 1, Q8)
        assert r.verdict == {"kind": "hypotheses_not_met", "reason": "curvature not positive"}
        assert (r.lhs, r.exit_code) == (-1.0, 3)
        assert "margins" not in r.details


class TestOneBoundaryPass:
    # perf guard: each suite builds one FrameBatch per chunk of its one pass. Order 16 in R^4
    # is one chunk of 8192 nodes; order 20 has two chunks.
    @pytest.mark.parametrize("order,calls", [(16, 1), (20, 2)])
    def test_one_frame_batch_per_chunk_and_order(self, order, calls, frame_calls):
        q = qd.QuadratureSpec(order=order)
        runs = {
            "minkowski": lambda: vf.minkowski_residual(sf.Ellipsoid([1.0, 1.3, 0.8, 1.1]), q),
            "alexandrov": lambda: vf.alexandrov_check(sf.ReinhardtSurface(0.5, 4.0), 1, q),
            "dirichlet": lambda: vf.dirichlet_chain([1.0, 1.0, 1.0, 2.0], 1, q),
            "dirichlet_proportional": lambda: vf.dirichlet_chain([2.0, 1.0, 1.0, 2.0], 1, q),
            "isoperimetric": lambda: vf.isoperimetric_ratio(sf.Ellipsoid([1.0, 1.3, 0.8, 1.1]), 1, q),
        }
        for name, run in runs.items():
            frame_calls.clear()
            run()
            assert len(frame_calls) == calls, name

    def test_dirichlet_computes_each_levi_once_per_frame_batch(self, monkeypatch):
        seen = []  # the batches themselves, so no id is reused
        real = cv.levi
        monkeypatch.setattr(cv, "levi", lambda fr, j: (seen.append(fr), real(fr, j))[1])
        vf.dirichlet_chain([2.0, 1.0, 1.0, 2.0], 1, qd.QuadratureSpec(order=16))
        assert len(seen) == len({id(fr) for fr in seen}) == 1


def _forced_nonpositive(monkeypatch, mask):
    """Make K_j = -1 at the boundary points selected by mask(points)."""
    real = cv.levi

    def levi(frames, j):
        k = real(frames, j).copy()
        k[mask(frames.points)] = -1.0
        return k

    monkeypatch.setattr(cv, "levi", levi)


class TestNonpositiveCurvatureNode:
    # the hypotheses_not_met reason names the first node, in node order at the main order, whose K_j is <= 0;
    # where every node has K_j <= 0 the K^{-1/j} integral is 0, and the Hoelder bound must not divide by it
    @pytest.mark.parametrize("mask", [lambda pts: pts[:, 3] < -1.2, lambda pts: np.ones(len(pts), dtype=bool)],
                             ids=["some_nodes", "every_node"])
    @pytest.mark.parametrize("suite", ["isoperimetric", "dirichlet"])
    def test_reports_first_nonpositive_node(self, suite, mask, monkeypatch):
        axes = [1.0, 1.0, 1.0, 2.0]
        spec = sf.DirichletQuadratic(axes)
        q = qd.QuadratureSpec(order=20)  # two chunks
        pts = qd.scan_boundary(spec, q, lambda fr: fr.points)
        first = pts[np.flatnonzero(mask(pts))[0]]
        _forced_nonpositive(monkeypatch, mask)
        r = vf.isoperimetric_ratio(spec, 1, q) if suite == "isoperimetric" else vf.dirichlet_chain(axes, 1, q)
        assert (r.verdict["kind"], r.exit_code) == ("hypotheses_not_met", 3)
        assert r.verdict["reason"].startswith("nonpositive curvature K=-1.0 at quadrature node")
        assert np.array_equal(_named_point(r), first) and mask(first[None, :])[0]
        assert abs(sf.eval_values(spec, first[None, :])[0]) < 1e-10
        assert _finite_json(r)

    @pytest.mark.parametrize("suite", ["isoperimetric", "dirichlet"])
    def test_j2_fields_read_no_power_of_a_nonpositive_k(self, suite, monkeypatch):
        # K^{-1/2} and K^{1/2} at K = -1 would warn (an error under -W error::RuntimeWarning) and put nan in the report
        axes = [1.0, 1.0, 1.2, 1.2, 1.4, 1.4]
        _forced_nonpositive(monkeypatch, lambda pts: pts[:, 5] < -1.0)
        r = (vf.isoperimetric_ratio(sf.DirichletQuadratic(axes), 2, Q7) if suite == "isoperimetric"
             else vf.dirichlet_chain(axes, 2, Q7))
        assert r.verdict["kind"] == "hypotheses_not_met"
        assert _finite_json(r)
