import gc
import itertools
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest
from scipy.spatial import cKDTree

import levilab
from levilab import curvature as cv
from levilab import quadrature as qd
from levilab import surfaces as sf
from levilab.errors import SpecParseError, StarShapeError
from levilab.specfile import parse_quadrature
from levilab.surfaces import DirichletQuadratic
from quadrature_probe import USER_QUARTIC


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
        # odd moments vanish because nodes and weights are exactly symmetric; the null rules' rows
        # p_0 = 1, ..., p_{order-1} are orthogonal under the rule, each of square norm mu_0
        for order in range(1, 65):
            x, w, rows = qd._gegenbauer_rule(order, beta)
            assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
            k = np.arange(order)
            exact = np.array([math.gamma(i + 0.5) * math.gamma(beta + 1) / math.gamma(i + beta + 1.5) for i in k])
            got = (x[None, :] ** (2 * k[:, None])) @ w
            assert np.max(np.abs(got - exact) / exact) <= 2e-14, order
            assert np.max(np.abs((rows * w) @ rows.T / exact[0] - np.eye(order))) <= 1e-13, order

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    def test_gegenbauer_rule_matches_scipy(self, beta):
        from scipy.special import roots_jacobi

        for order in range(1, 65):
            x, w, _ = qd._gegenbauer_rule(order, beta)
            xs, ws = roots_jacobi(order, beta, beta)
            assert np.max(np.abs(x - xs)) <= 4.4e-16, order
            assert np.max(np.abs(w - ws) / ws) <= 1e-11, order

    @pytest.mark.parametrize("order", [3, 7, 12, 18, 24, 32])
    def test_legendre_rule_matches_mpmath(self, order):
        # the bulk passes' radial rule against 40 digits: the roots of P_o by findroot, and
        # w = 2 / ((1 - x^2) P_o'(x)^2); the positive roots, mirrored, and 0 exactly where o is odd
        mpmath = pytest.importorskip("mpmath")

        def legendre(t):  # P_o(t) and P_o'(t) by the three-term recurrence
            p0, p1 = mpmath.mpf(1), t
            for k in range(1, order):
                p0, p1 = p1, ((2 * k + 1) * t * p1 - k * p0) / (k + 1)
            return p1, order * (t * p1 - p0) / (t * t - 1)

        with mpmath.workdps(40):
            pos = [mpmath.findroot(lambda t: legendre(t)[0], mpmath.cos(mpmath.pi * (k - 0.25) / (order + 0.5)),
                                   solver="newton", df=lambda t: legendre(t)[1]) for k in range(order // 2, 0, -1)]
            assert all(a < b for a, b in zip(pos, pos[1:])) and pos[0] > 0  # distinct roots, ascending
            ref = [-t for t in pos[::-1]] + [mpmath.mpf(0)] * (order % 2) + pos
            wref = [2 / ((1 - t * t) * legendre(t)[1] ** 2) for t in ref]
            x, w, _ = qd._gegenbauer_rule(order, 0.0)
            x_ulps = [0.0 if t == 0 else float(abs(mpmath.mpf(a) - t)) / math.ulp(float(t)) for a, t in zip(x, ref)]
            w_ulps = [float(abs(mpmath.mpf(a) - t)) / math.ulp(float(t)) for a, t in zip(w, wref)]
        assert order % 2 == 0 or x[order // 2] == 0.0
        assert max(x_ulps) <= 2 and max(w_ulps) <= 100, (max(x_ulps), max(w_ulps))

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
        res, (k, h) = qd.surface_integral(spec, ones, q, scan=scan)
        k0, h0 = qd.scan_boundary(spec, q, scan)
        assert res == qd.surface_integral(spec, ones, q)
        for a, b in ((k, k0), (h, h0)):
            assert np.array_equal(a, b)


class TestScanStructure:
    # a scan returns what its function returns, joined over the chunks (order 18 in R^4 is two) and, in scan_bulk,
    # over the shells: an array for an array, a tuple of arrays for a tuple, a 1-tuple among them
    @pytest.mark.parametrize("order", [8, 18])
    def test_each_entry_point_keeps_its_functions_structure(self, order):
        sphere, q = sf.Sphere(1.0), qd.QuadratureSpec(order=order)
        full = qd.grid_nodes(4, order)
        boundary = (lambda fn: qd.scan_boundary(sphere, q, fn),
                    lambda fn: qd.surface_integral(sphere, ones, q, scan=fn)[1])
        for scan in boundary:
            alone = scan(lambda fr: fr.pgrad_norm)
            (one,) = scan(lambda fr: (fr.pgrad_norm,))
            pair = scan(lambda fr: (fr.points[:, 0], fr.pgrad_norm))
            assert isinstance(alone, np.ndarray) and alone.shape == (full,)
            assert isinstance(pair, tuple) and len(pair) == 2 and np.array_equal(pair[1], alone)
            assert np.array_equal(one, alone)
        x0, x1 = qd.scan_bulk(sphere, q, lambda p: p[:, 0]), qd.scan_bulk(sphere, q, lambda p: p[:, 1])
        (one,) = qd.scan_bulk(sphere, q, lambda p: (p[:, 0],))
        pair = qd.scan_bulk(sphere, q, lambda p: (p[:, 0], p[:, 1]))
        assert isinstance(x0, np.ndarray) and x0.shape == (qd._BULK_SHELLS * full,)
        assert isinstance(pair, tuple) and len(pair) == 2
        assert np.array_equal(one, x0) and np.array_equal(pair[0], x0) and np.array_equal(pair[1], x1)
        qd.clear_root_cache()


VOLUME_FIELD_CASES = {
    "ellipsoid_o32": (lambda: sf.Ellipsoid([1.0, 1.3, 0.8, 1.1]), 32),
    "quadric_o32": (lambda: sf.PerturbedQuadric(1, c=1.0, hterms={(2, 0): 0.1 + 0.05j, (1, 1): -0.08j}), 32),
    "reinhardt_o32": (lambda: sf.ReinhardtSurface(0.5, 4.0), 32),
    "sphere_n2_o7": (lambda: sf.Sphere(1.5, n=2), 7),
    "ellipsoid_off_center_o24": (lambda: sf.Ellipsoid([1.0, 1.3, 0.8, 1.1], center=[0.1, -0.2, 0.05, 0.3]), 24),
    "exp_ellipsoid_o13": (lambda: sf.ExpReparam(sf.Ellipsoid([1.0, 1.3, 0.8, 1.1])), 13),
    "dirichlet_n2_o12": (lambda: sf.DirichletQuadratic([1.0, 1.0, 1.2, 1.2, 1.4, 1.4]), 12),
}


class TestVolumeField:
    @pytest.mark.parametrize("name", VOLUME_FIELD_CASES)
    def test_equals_the_volume_pass_beside_marked_fields(self, name):
        # the same node set as volume()'s, and each integrand keeps its own chunk sums and estimate: equal in
        # value, estimate and nodes_used. Beside an unmarked field the pass reads the full grid, so there the
        # volume may move in its last bits (6.3e-16 relative seen), which is not pinned.
        make, order = VOLUME_FIELD_CASES[name]
        spec, q = make(), qd.QuadratureSpec(order=order)
        fused = qd.surface_integral(spec, (qd.invariant(lambda fr: cv.levi(fr, 1)), qd.volume), q)
        assert fused[1] == qd.volume(spec, q)
        qd.clear_root_cache()


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
        # one entry per surface object, holding the roots of its one pass, keyed by its node set: order 4,
        # collapsed (both are spheres) and folded by the flip of z_1 (the rows absorb that of z_2)
        assert set(qd._ROOT_CACHE.keys()) == {a, b}
        assert all(sorted(qd._ROOT_CACHE[spec]) == [(4, True, (1,))] for spec in (a, b))
        assert not np.array_equal(qd._ROOT_CACHE[a][4, True, (1,)][0], qd._ROOT_CACHE[b][4, True, (1,)][0])
        del a
        gc.collect()
        assert list(qd._ROOT_CACHE.keys()) == [b]
        qd.clear_root_cache()
        assert len(qd._ROOT_CACHE) == 0

    def test_a_reparametrisation_reads_its_base_entry(self, monkeypatch):
        # one root set per zero set: the entry is keyed on the swept family, an ExpReparam's innermost base
        qd.clear_root_cache()
        base = sf.Ellipsoid([1.0, 1.3, 0.8, 1.1])
        q = qd.QuadratureSpec(order=6)
        qd.volume(base, q)
        monkeypatch.setattr(qd, "radial_roots", lambda *args: pytest.fail("roots solved again"))
        for spec in (sf.ExpReparam(base), sf.ExpReparam(sf.ExpReparam(base))):
            nodes = qd._nodes(spec, q, True)  # volume's pass: folded by the flips of z_1 and z_2
            entry = qd._ROOT_CACHE[base][6, False, (1, 2)]
            assert nodes.rho is entry[0] and nodes.slope is entry[1]
        assert list(qd._ROOT_CACHE.keys()) == [base]
        qd.clear_root_cache()


def _chunked_roots(spec, dirs):
    """The roots of every ray of the grid, CHUNK rays per radial_roots call."""
    parts = [sf.radial_roots(spec, dirs[i:i + qd.CHUNK]) for i in range(0, len(dirs), qd.CHUNK)]
    return tuple(np.concatenate([p[k] for p in parts]) for k in (0, 1))


class TestOrbitRoots:
    # the phase-invariant golden surfaces at their golden orders; each center's last pair is (0, 0)
    INVARIANT = {
        "sphere_n2_o7": (lambda: sf.Sphere(1.5, n=2), 7),
        "dirichlet_n2_o7": (lambda: DirichletQuadratic([1.0, 1.0, 1.2, 1.2, 1.4, 1.4]), 7),
        "reinhardt_o16": (lambda: sf.ReinhardtSurface(0.5, 4.0), 16),
        "exp_sphere_n2_o7": (lambda: sf.ExpReparam(sf.Sphere(1.5, n=2)), 7),
    }

    @pytest.mark.parametrize("name", sorted(INVARIANT))
    def test_one_solve_per_azimuth_row_equals_the_full_solve(self, name, monkeypatch):
        # a collapsed pass's nodes are the first azimuth node of each polar node, bit for bit, weighted with
        # their row's sum; its one root per row is the root of every ray of the row, to a few ulps. It solves
        # each row's first node and, for its check, its second
        make, order = self.INVARIANT[name]
        spec, q, naz = make(), qd.QuadratureSpec(order=order), 2 * order
        monkeypatch.setattr(sf.swept_family(spec), "flip_group", (0,))  # the rows alone; TestFlipFold adds the flips
        solved = []
        monkeypatch.setattr(qd, "radial_roots", lambda s, d: solved.append(len(d)) or sf.radial_roots(s, d))
        qd.clear_root_cache()
        nodes = qd._nodes(spec, q, True)
        dirs, wts = qd.sphere_grid(spec.m, order)
        assert sum(solved) == 2 * len(nodes.dirs) and len(nodes.wts) == len(dirs) // naz == order ** (spec.m - 2)
        assert nodes.dirs.tobytes() == dirs[::naz].tobytes()
        assert np.allclose(nodes.wts, wts.reshape(-1, naz).sum(axis=1), rtol=8 * np.finfo(float).eps, atol=0)
        for got, want in zip((nodes.rho, nodes.slope), sf.radial_roots(spec, dirs)):
            rows = want.reshape(-1, naz)
            assert np.all(np.abs(got[:, None] - rows) <= 4 * np.finfo(float).eps * rows)
        qd.clear_root_cache()

    @pytest.mark.parametrize("make,marked", [
        # no flip group either: a center off (0, 0) in both pairs, and a cubic term odd in z_1 next to z_1 z_2
        (lambda: sf.Ellipsoid([1.0, 1.3, 0.8, 1.1], center=[0.0, 0.1, -0.2, 0.0]), True),
        (lambda: sf.PerturbedQuadric(1, hterms={(2, 0): 0.15 + 0.05j, (1, 1): -0.1j, (3, 0): 0.05}), True),
        (lambda: sf.UserPolynomial(1, USER_QUARTIC, scale=1.2, validate=False), True),
        (lambda: sf.Sphere(1.0, center=[0.4, -0.1, 0.2, 0.3]), True),  # invariant about a center off the axis
        (lambda: sf.Sphere(1.0), False),  # invariant, but the pass's integrands are not marked
    ], ids=["off_center_ellipsoid", "cubic_quadric", "user_quartic", "off_center_sphere", "unmarked"])
    def test_a_surface_without_the_symmetry_solves_every_ray(self, make, marked):
        spec = make()
        assert spec.flip_group == ((0,) if marked else (0, 1, 2, 3))
        qd.clear_root_cache()
        nodes = qd._nodes(spec, Q16, marked)
        want = _chunked_roots(spec, nodes.dirs)
        assert nodes.dirs is qd.sphere_grid(spec.m, 16)[0] and len(nodes.wts) == qd.grid_nodes(spec.m, 16)
        assert nodes.rho.tobytes() == want[0].tobytes() and nodes.slope.tobytes() == want[1].tobytes()
        qd.clear_root_cache()

    def test_a_predicate_forced_true_fails_loudly(self, monkeypatch):
        # an ellipsoid's azimuth rows do not share one root: a collapsed pass's check of each row's second node
        # raises, caches nothing, and never yields a silent integral; an unmarked field keeps the full grid
        spec = sf.Ellipsoid([1.0, 1.3, 0.8, 1.1])
        qd.clear_root_cache()
        full = qd.surface_integral(spec, ones, Q16)
        monkeypatch.setattr(spec, "phase_invariant", True)
        qd.clear_root_cache()
        for run in (lambda: qd.surface_integral(spec, qd.invariant(lambda fr: ones(fr)), Q16),
                    lambda: qd.volume(spec, Q16)):
            with pytest.raises(ValueError, match="claimed symmetry's image"):
                run()
        assert not any(collapsed for _, collapsed, _ in qd._ROOT_CACHE[spec])
        assert qd.surface_integral(spec, ones, Q16) == full
        qd.clear_root_cache()


def _flip_signs(g: int, m: int) -> np.ndarray:
    """The coordinate signs of the flip g: -1 on each pair whose bit is set."""
    return np.repeat([-1.0 if g >> k & 1 else 1.0 for k in range(m // 2)], 2)


class TestFlipFold:
    # marked passes on surfaces with a flip group: the ellipsoid folds twice (z_1, z_2), the boundary-n1 quadric once
    # (its joint flip), and the collapsed Reinhardt surface and n = 2 sphere once and twice on the rows, at odd order 7
    FOLDED = {
        "ellipsoid_o16": (lambda: sf.Ellipsoid([1.0, 1.3, 0.8, 1.1]), 16, False, (1, 2)),
        "quadric_o16": (lambda: sf.PerturbedQuadric(1, hterms={(2, 0): 0.15 + 0.05j, (1, 1): -0.1j}), 16, False, (3,)),
        "reinhardt_o16": (lambda: sf.ReinhardtSurface(0.5, 4.0), 16, True, (1,)),
        "sphere_n2_o7": (lambda: sf.Sphere(1.5, n=2), 7, True, (1, 2)),
        "dirichlet_n1_o7": (lambda: DirichletQuadratic([1.0, 1.0, 1.0, 2.0]), 7, False, (1, 2)),
    }

    @pytest.mark.parametrize("name", sorted(FOLDED))
    def test_the_domain_is_a_subgrid_with_its_orbits_weights_and_roots(self, name, monkeypatch):
        # the domain's nodes are base-grid nodes bit for bit, in base-grid order, each weighted with its orbit's
        # weight; its roots are the full solve's to a few ulps; and it solves the domain and, for its checks, each
        # flip's image of the domain (and each row's second node) in one sweep
        make, order, rows, flips = self.FOLDED[name]
        spec, q = make(), qd.QuadratureSpec(order=order)
        solved = []
        monkeypatch.setattr(qd, "radial_roots", lambda s, d: solved.append(len(d)) or sf.radial_roots(s, d))
        qd.clear_root_cache()
        nodes = qd._nodes(spec, q, True)
        assert nodes.flips == flips and sum(solved) == (1 + rows + len(flips)) * len(nodes.dirs)
        base, base_wts = qd.sphere_grid(spec.m, order, 0 if rows else None)
        index = {d.tobytes(): i for i, d in enumerate(base)}
        at = np.array([index[d.tobytes()] for d in nodes.dirs])
        assert np.all(np.diff(at) > 0) and len(at) < len(base)
        # each domain node's orbit under the group the flips span, found on the base grid (a turn of the azimuth
        # by pi moves its nodes by rounding): the orbits cover the grid, and a node carries its orbit's weight,
        # shared with the orbit's other domain nodes (at an odd rule's x = 0, the node and its image)
        group = {0}
        for g in flips:
            group |= {h ^ g for h in group}
        dist, orbits = cKDTree(base).query(np.stack([nodes.dirs * _flip_signs(g, spec.m) for g in sorted(group)], 1))
        assert dist.max() <= 1e-14 and len(np.unique(orbits)) == len(base)
        orbits = [np.unique(o) for o in orbits]
        shares = [base_wts[o].sum() / np.isin(o, at).sum() for o in orbits]
        assert np.allclose(nodes.wts, shares, rtol=8 * np.finfo(float).eps, atol=0)
        for got, want in zip((nodes.rho, nodes.slope), _chunked_roots(spec, base[at])):
            assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(want))
        qd.clear_root_cache()

    # reduced echelon bases of flips (lowest bit the pivot) on R^4 and R^6, the rows never folding the last pair
    @pytest.mark.parametrize("m,order,flips,rows", [
        (m, order, flips, rows) for m, order in ((4, 6), (4, 7), (6, 5))
        for flips, rows in (((1, 2), False), ((3,), False), ((1,), True), ((2,), False), ((5, 2), False),
                            ((1, 6), False), ((1, 2), True))
        if max(flips) < 1 << (m // 2) and not (rows and any(g >> (m // 2 - 1) & 1 for g in flips))])
    @pytest.mark.parametrize("chunk", [qd.CHUNK, 37])  # 37: chunks that start and end inside azimuth rows
    def test_the_domain_read_marginals_are_the_base_grids(self, m, order, flips, rows, chunk, monkeypatch):
        # a function that every flip of the group keeps (a polynomial in monomials even in the flipped pairs): each
        # factor's marginal that _integral's per-chunk sums on the domain give (_marginals) is the marginal of its
        # weighted values on the base grid, to a few ulps of the largest entry of the marginal of their magnitudes
        group = {0}
        for g in flips:
            group |= {h ^ g for h in group}
        rng = np.random.default_rng(order)
        even = [e for e in itertools.product(range(3), repeat=m)
                if all(sum(e[2 * k] + e[2 * k + 1] for k in range(m // 2) if g >> k & 1) % 2 == 0 for g in group)]
        terms = [(c, np.array(even[i])) for c, i in zip(rng.uniform(-1, 1, 12), rng.choice(len(even), 12, replace=False))]

        def fn(x):
            return sum(c * np.prod(x ** e, axis=1) for c, e in terms)

        halves = tuple(2 * ((g & -g).bit_length() - 1) for g in flips)
        dirs, wts = qd.sphere_grid(m, order, 0 if rows else None, halves)
        base, base_wts = qd.sphere_grid(m, order, 0 if rows else None)
        nodes = qd._Nodes(np.zeros(m), dirs, wts, np.ones(len(wts)), np.ones(len(wts)), flips, halves)
        sums, estimate = [], qd._error_estimate
        monkeypatch.setattr(qd, "_nodes", lambda spec, q, marked: nodes)
        monkeypatch.setattr(qd, "_error_estimate", lambda *args: sums.append(args) or estimate(*args))
        monkeypatch.setattr(qd, "CHUNK", chunk)
        qd._integral(types.SimpleNamespace(m=m), qd.QuadratureSpec(order=order),
                     lambda nodes, sl: ((fn(nodes.dirs[sl]),), None), True)
        (polar, az, total, _, _), = sums
        want = fn(base) * base_wts
        assert total[0] == pytest.approx(np.abs(want).sum(), rel=1e-14)
        for d, (got,) in enumerate(qd._marginals(polar, az, order, flips)):
            wanted, scale = (np.einsum(a.reshape((order,) * (m - 2) + (-1,)), [*range(m - 1)], [d])
                             for a in (want, np.abs(want)))
            assert np.max(np.abs(got - wanted)) <= 8 * np.finfo(float).eps * np.max(scale), d

    def test_a_group_forced_wrong_fails_loudly(self, monkeypatch):
        # the quadric's z_1 z_2 term breaks the single flips: a check of each flip's image raises, caches nothing
        # and never yields a silent integral; an unmarked field keeps the full grid
        spec = sf.PerturbedQuadric(1, hterms={(2, 0): 0.15 + 0.05j, (1, 1): -0.1j})
        qd.clear_root_cache()
        full = qd.surface_integral(spec, ones, Q16)
        monkeypatch.setattr(spec, "flip_group", (0, 1, 2, 3))
        for run in (lambda: qd.surface_integral(spec, qd.invariant(lambda fr: ones(fr)), Q16),
                    lambda: qd.volume(spec, Q16)):
            with pytest.raises(ValueError, match="claimed symmetry's image"):
                run()
        assert list(qd._ROOT_CACHE[spec]) == [(16, False, ())]
        assert qd.surface_integral(spec, ones, Q16) == full
        qd.clear_root_cache()


class TestUnmarkedFields:
    # the public entry points collapse only for marked integrands: on the unit sphere of R^4, whose marked passes
    # collapse, a field that the phase rotation of z_2 moves still gets its exact integral from the full grid
    Q = qd.QuadratureSpec(order=8)

    def test_non_invariant_fields_keep_their_exact_integrals(self):
        sphere, area = sf.Sphere(1.0), qd.sphere_area(4)  # int_{S^3} x_4^2 = area / 4; int_{B^4} x_4^2 = area / 24
        assert levilab.surface_integral(sphere, lambda fr: fr.points[:, 3] ** 2, self.Q).value == pytest.approx(
            area / 4, rel=1e-13)
        assert abs(levilab.surface_integral(sphere, lambda fr: fr.points[:, 2], self.Q).value) < 1e-14
        assert levilab.bulk_integral(sphere, lambda p: p[:, 3] ** 2, self.Q).value == pytest.approx(area / 24,
                                                                                                    rel=1e-13)
        qd.clear_root_cache()

    def test_scans_read_every_node_unless_marked(self):
        sphere, full = sf.Sphere(1.0), qd.grid_nodes(4, 8)
        assert len(qd.scan_boundary(sphere, self.Q, lambda fr: fr.pgrad_norm)) == full
        assert len(qd.scan_bulk(sphere, self.Q, lambda p: p[:, 0])) == qd._BULK_SHELLS * full
        # marked: one node per row (16 azimuth nodes) on the half x_1 <= 0 that the flip of z_1 leaves
        assert len(qd.scan_boundary(sphere, self.Q, qd.invariant(lambda fr: fr.pgrad_norm))) == full // 32
        qd.clear_root_cache()


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

    @pytest.mark.parametrize("text", [
        "gauss:order=2", "gauss:order=12,radial_order=0", "mc:samples=20000,seed=7", "simpson:order=4",
    ])
    def test_invalid_orders_are_parse_errors(self, text):
        # at order 2 the error estimate reads one coefficient per polar factor, zero on even integrands;
        # radial_order is no key: a bulk pass puts order Gauss points on each ray;
        # the product rule is the only method
        with pytest.raises(SpecParseError):
            parse_quadrature(text)


class TestDescribe:
    @pytest.mark.parametrize("q", [qd.QuadratureSpec(order=12)], ids=["gauss"])
    def test_parse_round_trip(self, q):
        assert parse_quadrature(q.describe()) == q
