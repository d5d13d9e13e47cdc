import json
import math
import re

import numpy as np
import pytest

from levilab import curvature as cv
from levilab import quadrature as qd
from levilab import surfaces as sf
from levilab import verify as vf
from levilab.errors import HypothesisViolationError

Q24 = qd.QuadratureSpec(order=24)
Q12 = qd.QuadratureSpec(order=12)

QUADRIC_N1 = dict(c=1.0, hterms={(2, 0): 0.25, (0, 2): 0.25})


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

    def test_nonpositive_curvature_aborts(self):
        # |z|^2 - 1 - 3|z1 z2|^2 + 4|z1 z2|^4 = 0 is star-shaped but its Levi form
        # changes sign (K_1 spans about [-1.98, 3.16] on the order-12 grid)
        spec = sf.UserPolynomial(
            1,
            {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (0, 0, 0, 0): -1.0,
             (1, 1, 1, 1): -3.0, (2, 2, 2, 2): 4.0},
            scale=1.2,
        )
        with pytest.raises(HypothesisViolationError) as info:
            vf.isoperimetric_ratio(spec, 1, Q12)
        p = info.value.point
        assert abs(sf.eval_values(spec, p[None, :])[0]) < 1e-10
        assert cv.levi(cv.FrameBatch.at_points(spec, p), 1)[0] <= 0

    def test_nonpositive_curvature_message_prints_plain_floats(self):
        # |z|^4 - 3|z1|^2 + |z2|^2 - 1 = 0 is star-shaped, but its K_1 is negative at some nodes:
        # the message prints K as a plain float, not as a numpy repr
        spec = sf.UserPolynomial(1, {(2, 0, 2, 0): 1, (0, 2, 0, 2): 1, (1, 1, 1, 1): 2, (1, 0, 1, 0): -3,
                                     (0, 1, 0, 1): 1, (0, 0, 0, 0): -1})
        with pytest.raises(HypothesisViolationError) as info:
            vf.isoperimetric_ratio(spec, 1, Q12)
        message = str(info.value)
        assert re.match(r"nonpositive curvature K=-0\.81843325771\d* at quadrature node with boundary point \[-0\.0973", message)
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
        spec = sf.UserPolynomial(
            1,
            {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (2, 0, 2, 0): 0.05,
             (1, 1, 1, 1): 0.1, (0, 0, 0, 0): -2.0},
            scale=1.5,
        )
        r = vf.newton_sweep(spec, 1, Q12)
        assert r.lhs >= -1e-10


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
    # the error names the first node, in node order at the main order, whose K_j is <= 0
    @pytest.mark.parametrize("suite", ["isoperimetric", "dirichlet"])
    def test_raises_at_first_nonpositive_node(self, suite, monkeypatch):
        axes = [1.0, 1.0, 1.0, 2.0]
        spec = sf.DirichletQuadratic(axes)
        q = qd.QuadratureSpec(order=20)  # two chunks
        mask = lambda pts: pts[:, 3] < -1.2  # noqa: E731
        _, _, pts = qd.scan_boundary(spec, q, lambda fr: fr.pgrad_norm)
        first = pts[np.flatnonzero(mask(pts))[0]]
        _forced_nonpositive(monkeypatch, mask)
        with pytest.raises(HypothesisViolationError) as info:
            if suite == "isoperimetric":
                vf.isoperimetric_ratio(spec, 1, q)
            else:
                vf.dirichlet_chain(axes, 1, q)
        assert np.array_equal(info.value.point, first)
