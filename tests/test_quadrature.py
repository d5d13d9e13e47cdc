import gc
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from levilab import curvature as cv
from levilab import quadrature as qd
from levilab import surfaces as sf
from levilab.errors import SpecParseError, StarShapeError
from levilab.specfile import parse_quadrature
from levilab.surfaces import DirichletQuadratic


def ones(frames):
    return np.ones(len(frames))


Q24 = qd.QuadratureSpec(order=24)
Q16 = qd.QuadratureSpec(order=16)


class TestGrid:
    @pytest.mark.parametrize("m", [4, 6])
    def test_total_weight_is_sphere_area(self, m):
        dirs, wts = qd.sphere_grid(m, 12)
        assert wts.sum() == pytest.approx(qd.sphere_area(m), rel=1e-13)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-14)

    def test_polynomial_exactness(self):
        # moments of even monomials on S^3: int w1^2 = area/4, int w1^2 w3^2 = area/24
        dirs, wts = qd.sphere_grid(4, 6)
        area = qd.sphere_area(4)
        assert np.dot(dirs[:, 0] ** 2, wts) == pytest.approx(area / 4, rel=1e-12)
        assert np.dot(dirs[:, 0] ** 2 * dirs[:, 2] ** 2, wts) == pytest.approx(area / 24, rel=1e-12)
        assert abs(np.dot(dirs[:, 1] * dirs[:, 3], wts)) < 1e-14

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_gegenbauer_rule_exact_moments(self, beta):
        # int x^{2k} (1 - x^2)^beta dx = B(k + 1/2, beta + 1), exact up to degree 2*order - 1;
        # odd moments vanish because nodes and weights are exactly symmetric
        for order in range(1, 65):
            x, w = qd._gegenbauer_rule(order, beta)
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
            k = np.arange(order)
            exact = np.array([math.gamma(i + 0.5) * math.gamma(beta + 1) / math.gamma(i + beta + 1.5) for i in k])
            got = (x[None, :] ** (2 * k[:, None])) @ w
            assert np.max(np.abs(got - exact) / exact) <= 2e-14, order

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_gegenbauer_rule_matches_scipy(self, beta):
        from scipy.special import roots_jacobi

        for order in range(1, 65):
            x, w = qd._gegenbauer_rule(order, beta)
            xs, ws = roots_jacobi(order, beta, beta)
            assert np.max(np.abs(x - xs)) <= 4.4e-16, order
            assert np.max(np.abs(w - ws) / ws) <= 1e-11, order

    def test_grid_bytes_independent_of_blas_threads(self):
        # eigvalsh puts LAPACK inside the determinism contract, and the error estimate's coefficient
        # products go through BLAS: fresh interpreters, 1 and 2 BLAS threads
        code = (
            "import hashlib; from levilab import quadrature as qd, surfaces as sf; h = hashlib.sha256()\n"
            "for m, o in ((4, 32), (6, 7), (8, 3)): h.update(b''.join(a.tobytes() for a in qd.sphere_grid(m, o)))\n"
            "for b in (0.0, 0.5, 3.0): h.update(b''.join(a.tobytes() for a in qd._gegenbauer_rule(64, b)))\n"
            "for spec, o in ((sf.Ellipsoid([1.0, 1.3, 0.8, 1.1]), 32), (sf.DirichletQuadratic([1, 1, 1.2, 1.2, 1.4, 1.4]), 7)):\n"
            "    q = qd.QuadratureSpec(order=o)\n"
            "    for r in (qd.volume(spec, q), qd.surface_integral(spec, lambda fr: fr.pgrad_norm, q),\n"
            "              qd.bulk_integral(spec, lambda pts: (pts * pts).sum(axis=1), q)):\n"
            "        h.update(r.error_estimate.hex().encode())\n"
            "print(h.hexdigest())"
        )
        src = os.path.dirname(os.path.dirname(qd.__file__))
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr[-2000:]
            digests.add(proc.stdout.strip())
        assert len(digests) == 1

    def test_mc_directions_deterministic(self):
        d1, w1 = qd.mc_directions(4, 5000, seed=9)
        d2, w2 = qd.mc_directions(4, 5000, seed=9)
        assert np.array_equal(d1, d2) and np.array_equal(w1, w2)


class TestSurfaceIntegral:
    def test_sphere_area(self):
        res = qd.surface_integral(sf.Sphere(2.0), ones, Q24)
        exact = 2 * math.pi**2 * 8
        assert abs(res.value - exact) / exact < 1e-8
        assert abs(res.value - exact) <= max(res.error_estimate * 10, 1e-10)

    def test_constant_curvature_field(self):
        res = qd.surface_integral(sf.Sphere(2.0), lambda fr: cv.levi(fr, 1), Q24)
        exact = 2 * math.pi**2 * 4
        assert abs(res.value - exact) / exact < 1e-8

    def test_order_consistency_within_estimate(self):
        spec = sf.Ellipsoid([1.0, 1.0, 1.0, 2.0])
        r16 = qd.surface_integral(spec, ones, Q16)
        r24 = qd.surface_integral(spec, ones, Q24)
        assert abs(r16.value - r24.value) <= max(r16.error_estimate, 1e-12)

    def test_jacobian_reduces_to_one_on_sphere(self):
        # rho const and |grad f| = <grad f, omega>: the integrand weight is rho^3
        dirs, wts = qd.sphere_grid(4, 8)
        rho, slope = sf.radial_roots(sf.Sphere(1.3), dirs)
        fr = cv.FrameBatch.at_points(sf.Sphere(1.3), 1.3 * dirs)
        jac = rho**3 * (2 * fr.pgrad_norm) / slope
        assert np.max(np.abs(jac - 1.3**3)) < 1e-11


FIELDS = (
    ones,
    lambda fr: cv.levi(fr, 1),
    lambda fr: cv.mean_curvature(fr) * np.einsum("bi,bi->b", fr.normal, fr.points),
)


class TestFusedPass:
    # Q24 at n=1 is 27,648 nodes in 4 chunks, the last one ragged (3,072 nodes)
    @pytest.mark.parametrize("q", [Q16, qd.QuadratureSpec(order=18), Q24])
    def test_tuple_call_equals_separate_calls(self, q):
        spec = sf.Ellipsoid([1.0, 1.3, 0.8, 1.1])
        fused = qd.surface_integral(spec, FIELDS, q)
        assert isinstance(fused, tuple) and len(fused) == len(FIELDS)
        for field, got in zip(FIELDS, fused):
            alone = qd.surface_integral(spec, field, q)
            assert got.value == alone.value
            assert got.error_estimate == alone.error_estimate
            assert got.nodes_used == alone.nodes_used
            assert got == alone

    @pytest.mark.parametrize("q", [Q16, Q24])
    def test_scan_equals_scan_boundary(self, q):
        spec = sf.ReinhardtSurface(0.5, 4.0)
        scan = lambda fr: (cv.levi(fr, 1), cv.mean_curvature(fr))  # noqa: E731
        res, ((k, h), w, pts) = qd.surface_integral(spec, ones, q, scan=scan)
        (k0, h0), w0, pts0 = qd.scan_boundary(spec, q, scan)
        assert res == qd.surface_integral(spec, ones, q)
        for a, b in ((k, k0), (h, h0), (w, w0), (pts, pts0)):
            assert np.array_equal(a, b)


class TestVolume:
    def test_ball(self):
        res = qd.volume(sf.Sphere(2.0), Q24)
        exact = math.pi**2 * 16 / 2
        assert abs(res.value - exact) / exact < 1e-8

    def test_ellipsoid_change_of_variables(self):
        res = qd.volume(sf.Ellipsoid([1.0, 1.0, 1.0, 2.0]), qd.QuadratureSpec(order=32))
        exact = math.pi**2 / 2 * 2.0
        assert abs(res.value - exact) / exact < 1e-7


class TestBulkIntegral:
    def test_constant_field_matches_volume(self):
        spec = sf.Sphere(2.0)
        bulk = qd.bulk_integral(spec, lambda pts: np.ones(pts.shape[0]), Q24)
        vol = qd.volume(spec, Q24)
        assert abs(bulk.value - vol.value) / vol.value < 1e-10

    def test_hessian_invariant_field_on_ball(self):
        # the mixed Hessian of |z|^2 - R^2 is the identity: sigma_2 = 1 for n=1
        from levilab.hermitian import sigma_batch

        spec = sf.Sphere(2.0)

        def field(pts):
            return sigma_batch(sf.eval_jets(spec, pts).mixed, 2)

        res = qd.bulk_integral(spec, field, Q24)
        exact = math.pi**2 * 8
        assert abs(res.value - exact) / exact < 1e-10

    def test_constant_hessian_of_quadratic(self):
        from levilab.hermitian import HermitianMatrix, sigma_batch

        dspec = DirichletQuadratic([1.0, 1.0, 1.0, 2.0])

        def field(pts):
            return sigma_batch(sf.eval_jets(dspec, pts).mixed, 2)

        res = qd.bulk_integral(dspec, field, Q24)
        const = sigma_batch(HermitianMatrix(np.diag(dspec.hessian_diagonal())), 2)
        vol = qd.volume(dspec, Q24).value
        assert abs(res.value - const * vol) / abs(const * vol) < 1e-8


class TestSelfConsistency:
    @pytest.mark.parametrize("make", [
        lambda: sf.Sphere(1.5),
        lambda: sf.Ellipsoid([1.0, 1.0, 1.0, 2.0]),
        lambda: sf.PerturbedQuadric(1, c=1.0, hterms={(2, 0): 0.25, (0, 2): 0.25}),
        lambda: sf.ReinhardtSurface(0.5, 4.0),
    ])
    def test_divergence_theorem(self, make):
        spec = make()
        flux = qd.surface_integral(spec, lambda fr: np.einsum("bi,bi->b", fr.points, fr.normal), Q24)
        vol = qd.volume(spec, Q24)
        m = spec.m
        assert abs(flux.value - m * vol.value) <= 10 * (flux.error_estimate + m * vol.error_estimate) + 1e-9

    @pytest.mark.parametrize("axes", [[2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 2.0]])
    def test_gradient_flux_of_unit_trace_solution(self, axes):
        dspec = DirichletQuadratic(axes)
        flux = qd.surface_integral(dspec, lambda fr: fr.pgrad_norm, qd.QuadratureSpec(order=28))
        vol = qd.volume(dspec, qd.QuadratureSpec(order=28))
        assert abs(flux.value - 2 * vol.value) / (2 * vol.value) < 1e-7


class TestDeterminism:
    def test_bitwise_identical_across_runs(self):
        spec = sf.Ellipsoid([1.0, 1.3, 0.8, 1.1])
        field = lambda fr: cv.levi(fr, 1)

        def values():  # Q24 is four chunks
            qd.clear_root_cache()
            return qd.surface_integral(spec, field, Q16).value, qd.surface_integral(spec, FIELDS, Q24)

        assert values() == values()


class TestRootCache:
    def test_entries_live_and_die_with_their_surface(self):
        qd.clear_root_cache()
        # spheres of radius 2 and 3: two polynomials, so the two entries hold different roots
        a, b = (sf.UserPolynomial(1, {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (0, 0, 0, 0): -r * r}) for r in (2.0, 3.0))
        for spec in (a, b):
            qd.volume(spec, qd.QuadratureSpec(order=4))
        # one entry per surface object, holding the roots of its one pass order
        assert set(qd._ROOT_CACHE.keys()) == {a, b}
        assert all(sorted(qd._ROOT_CACHE[spec]) == [4] for spec in (a, b))
        assert not np.array_equal(qd._ROOT_CACHE[a][4][0], qd._ROOT_CACHE[b][4][0])
        del a
        gc.collect()
        assert list(qd._ROOT_CACHE.keys()) == [b]
        qd.clear_root_cache()
        assert len(qd._ROOT_CACHE) == 0


class TestErrors:
    def test_no_star_center(self):
        with pytest.raises(StarShapeError):
            qd.volume(sf.Cylinder(1.0), Q16)

    def test_band_profile_not_integrable(self):
        spec = sf.ReinhardtSurface(0.5, 4.0, fp0=-1.0, s0=1.0, smax=2.0)
        with pytest.raises(StarShapeError):
            qd.volume(spec, Q16)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="order must be >= 3"):
            qd.QuadratureSpec(order=2)
        with pytest.raises(ValueError, match="radial_order must be >= 1"):
            qd.QuadratureSpec(order=12, radial_order=0)

    @pytest.mark.parametrize("text", [
        "gauss:order=2", "gauss:order=12,radial_order=0", "mc:samples=20000,seed=7", "simpson:order=4",
    ])
    def test_invalid_orders_are_parse_errors(self, text):
        # at order 2 the error estimate reads one coefficient per polar factor, zero on even integrands;
        # radial_order 0 used to fail inside numpy instead of at the spec;
        # the product rule is the only method
        with pytest.raises(SpecParseError):
            parse_quadrature(text)


class TestDescribe:
    @pytest.mark.parametrize("q", [
        qd.QuadratureSpec(order=12),
        qd.QuadratureSpec(order=7, radial_order=3),
    ], ids=["gauss", "gauss-radial"])
    def test_parse_round_trip(self, q):
        assert parse_quadrature(q.describe()) == q

    def test_radial_order_is_named(self):
        assert qd.QuadratureSpec(order=7, radial_order=3).describe() == "gauss:order=7,radial_order=3"
        assert qd.QuadratureSpec(order=7).describe() == "gauss:order=7"
