import copy
import itertools
import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from quadrature_probe import QUADRIC_N2, USER_QUARTIC

from levilab import quadrature as qd
from levilab import reinhardt as rh
from levilab import surfaces as sf
from levilab.curvature import FrameBatch, mean_curvature
from levilab.errors import (
    DomainError,
    SingularityError,
    SpecParseError,
    StarShapeError,
    TransversalityError,
)
from levilab.polynomial import RealPolynomial, horner
from levilab.quadrature import sphere_grid
from levilab.reinhardt import ode_residual, reinhardt_profile, series_coeffs
from levilab.specfile import parse_surface

FAMILIES = {}


def _families():
    if not FAMILIES:
        FAMILIES.update(
            sphere=sf.Sphere(2.0),
            sphere3=sf.Sphere(1.5, n=2),
            ellipsoid=sf.Ellipsoid([1.0, 1.0, 1.0, 2.0]),
            quadric=sf.PerturbedQuadric(1, c=1.0, hterms={(2, 0): 0.25, (0, 2): 0.25}),
            cyl=sf.Cylinder(2.0, kind="curved"),
            reinhardt=sf.ReinhardtSurface(0.5, 4.0),
            poly=sf.UserPolynomial(
                1, {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (2, 0, 0, 0): 0.1, (0, 0, 2, 0): 0.1, (0, 0, 0, 0): -4.0},
                scale=2.0,
            ),
        )
    return FAMILIES


class TestJetExamples:
    def test_sphere_jet(self):
        j = sf.eval_jets(_families()["sphere"], [2.0, 0.0, 0.0, 0.0])
        assert j.val[0] == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(j.grad[0], [4.0, 0.0, 0.0, 0.0])
        assert np.allclose(j.mixed[0], np.eye(2), atol=1e-14)
        assert not np.any(j.pure[0])

    def test_ellipsoid_jet(self):
        j = sf.eval_jets(_families()["ellipsoid"], [1.0, 0.0, 0.0, 0.0])
        assert j.val[0] == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(j.grad[0], [2.0, 0.0, 0.0, 0.0])

    def test_quadric_hessian_is_half_identity_everywhere(self):
        spec = _families()["quadric"]
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((40, 4))
        wh = sf.eval_jets(spec, pts).mixed
        assert np.max(np.abs(wh - 0.5 * np.eye(2))) < 1e-14

    def test_quadric_boundary_value(self):
        spec = _families()["quadric"]
        p = [math.sqrt(4.0 / 3.0), 0.0, 0.0, 0.0]
        assert sf.eval_jets(spec, p).val[0] == pytest.approx(0.0, abs=1e-12)


class TestFiniteDifferenceConsistency:
    @pytest.mark.parametrize("name", ["sphere", "ellipsoid", "quadric", "cyl", "poly", "reinhardt", "sphere3"])
    def test_jets_match_fd(self, name, real_hessian):
        spec = _families()[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        if name == "reinhardt":
            # stay inside the profile validity range
            pts = np.array([spec.boundary_point(s, rng.uniform(0, 6), rng.uniform(0, 6))
                            for s in rng.uniform(0.2, 3.8, 100)])
            pts += rng.uniform(-0.05, 0.05, pts.shape)
        else:
            pts = rng.standard_normal((100, spec.m))
        jt = sf.eval_jets(spec, pts)
        hess = real_hessian(jt.mixed, jt.pure)
        h = 1e-6
        for i in range(spec.m):
            dp = np.zeros(spec.m)
            dp[i] = h
            fd = (sf.eval_values(spec, pts + dp) - sf.eval_values(spec, pts - dp)) / (2 * h)
            assert np.max(np.abs(jt.grad[:, i].real - fd)) < 1e-5
        # second order: FD of the gradient against the real Hessian that H and S determine
        for i in range(spec.m):
            dp = np.zeros(spec.m)
            dp[i] = h
            gp = sf.eval_jets(spec, pts + dp).grad.real
            gm = sf.eval_jets(spec, pts - dp).grad.real
            fd = (gp - gm) / (2 * h)
            assert np.max(np.abs(hess[:, :, i] - fd)) < 1e-5


def _record_rays(spec, monkeypatch):
    """Record the rho of every ray evaluation of spec. A polynomial family's ray is a partial of
    surfaces.horner, which radial_roots recognises, so there horner itself is wrapped."""
    calls = []
    if hasattr(spec, "poly"):
        monkeypatch.setattr(sf, "horner", lambda a, rho: calls.append(rho.copy()) or horner(a, rho))
        return calls
    real = spec.ray

    def recording_ray(d):
        along = real(d)
        return lambda rho: calls.append(rho.copy()) or along(rho)

    monkeypatch.setattr(spec, "ray", recording_ray)
    return calls


class TestRadialRoots:
    def test_sphere_every_direction(self):
        rng = np.random.default_rng(1)
        d = rng.standard_normal((200, 4))
        d /= np.linalg.norm(d, axis=1)[:, None]
        rho, slope = sf.radial_roots(_families()["sphere"], d)
        assert np.max(np.abs(rho - 2.0)) < 1e-12
        assert np.all(slope > 0)

    def test_ellipsoid_axis_directions(self):
        e = _families()["ellipsoid"]
        for k, a in enumerate([1.0, 1.0, 1.0, 2.0]):
            d = np.zeros(4)
            d[k] = 1.0
            rho, _ = sf.radial_roots(e, d)
            assert rho[0] == pytest.approx(a, abs=1e-12)

    def test_quadric_closed_form(self):
        rho, _ = sf.radial_roots(_families()["quadric"], [1.0, 0.0, 0.0, 0.0])
        assert rho[0] == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-12)

    def test_roots_land_on_boundary(self):
        rng = np.random.default_rng(2)
        for name in ("ellipsoid", "quadric", "reinhardt", "poly"):
            spec = _families()[name]
            d = rng.standard_normal((50, 4))
            d /= np.linalg.norm(d, axis=1)[:, None]
            rho, _ = sf.radial_roots(spec, d)
            vals = sf.eval_values(spec, spec.star_center[None] + rho[:, None] * d)
            assert np.max(np.abs(vals)) < 1e-11

    @pytest.mark.parametrize("name", ["sphere", "sphere3", "ellipsoid", "quadric", "reinhardt", "poly"])
    def test_slope_is_a_fresh_evaluation_at_the_root(self, name):
        # the slope comes from the last Newton evaluation; it must equal a clean evaluation of the
        # family's ray bit for bit, and the point evaluation to rounding
        spec = _families()[name]
        dirs, _ = sphere_grid(spec.m, 12 if spec.m == 4 else 5)
        rho, slope = sf.radial_roots(spec, dirs)
        assert np.array_equal(slope, spec.ray(dirs)(rho)[1])
        ray = sf.eval_ray(spec, spec.star_center, dirs, rho).grad[:, 0]
        assert np.max(np.abs(slope - ray) / np.abs(ray)) <= 1e-14

    @pytest.mark.parametrize("name,most", [("reinhardt", 3)])
    def test_newton_start_needs_few_sweeps(self, name, most, monkeypatch):
        # ReinhardtSurface(0.5, 4.0) is the radius-2 sphere, and its scale (the first bracket
        # end) is 2.0, the root of every ray; a midpoint start took 48 Newton sweeps there.
        # The bound counts every call of the ray function, bracket sweeps included: three on
        # the Reinhardt sphere, where f at the scale rounds to 0 on about half the rays.
        spec = _families()[name]
        dirs, _ = sphere_grid(spec.m, 32)
        calls = _record_rays(spec, monkeypatch)
        rho, _ = sf.radial_roots(spec, dirs)
        assert 0 < len(calls) <= most and {len(r) for r in calls} == {len(dirs)}
        vals = sf.eval_values(spec, spec.star_center[None] + rho[:, None] * dirs)
        assert np.max(np.abs(vals)) < 1e-11

    def test_quadric_roots_need_no_bracket_sweep(self, monkeypatch):
        # a quadratic ray a0 + a1 rho + a2 rho^2 is solved by formula: one evaluation for the
        # Newton step, one for the returned slope, and none at a bracket end
        spec = sf.Ellipsoid([0.8, 1.0, 1.2, 1.4])
        dirs, _ = sphere_grid(spec.m, 32)
        calls = _record_rays(spec, monkeypatch)
        rho, _ = sf.radial_roots(spec, dirs)
        assert 0 < len(calls) <= 2 and {len(r) for r in calls} == {len(dirs)}
        assert not any(np.any(r == spec.scale) for r in calls)
        vals = sf.eval_values(spec, spec.star_center[None] + rho[:, None] * dirs)
        assert np.max(np.abs(vals)) < 1e-11

    def test_cylinder_has_no_star_center(self):
        with pytest.raises(StarShapeError):
            sf.radial_roots(_families()["cyl"], [1.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [[0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0], [np.inf, 1.0, 0.0, 0.0]])
    def test_degenerate_direction_is_a_value_error(self, bad):
        # rejected before normalising, so no 0/0 warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero or not finite"):
                sf.radial_roots(_families()["sphere"], np.array([[1.0, 0.0, 0.0, 0.0], bad]))

    def test_center_outside_fails(self):
        # the radius-2 sphere written as a polynomial, with a star center off the domain
        sphere = sf.UserPolynomial(1, {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (0, 0, 0, 0): -4.0},
                                   center=[5.0, 0.0, 0.0, 0.0], validate=False)
        with pytest.raises(StarShapeError):
            sf.radial_roots(sphere, np.eye(4)[:1])


# every polynomial family, n = 1 and 2, off-center and with degree up to 8
RAY_FAMILIES = {
    "sphere": lambda: sf.Sphere(2.0),
    "sphere_n2": lambda: sf.Sphere(1.5, n=2),
    "sphere_off": lambda: sf.Sphere(1.3, center=[0.5, -0.2, 0.1, 0.3]),
    "ellipsoid_off_n2": lambda: sf.Ellipsoid([0.8, 1.0, 1.2, 1.4, 0.9, 1.1], center=[0.1, 0.2, -0.3, 0.05, 0.0, 0.1]),
    "quadric": lambda: sf.PerturbedQuadric(1, c=1.0, hterms={(2, 0): 0.25, (0, 2): 0.25}),
    "quadric_cubic_n2": lambda: sf.PerturbedQuadric(2, c=1.0, hterms=QUADRIC_N2),
    "user_centered": lambda: sf.UserPolynomial(
        1, {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (2, 0, 0, 0): 0.1, (0, 0, 2, 0): 0.1, (0, 0, 0, 0): -4.0},
        center=[0.3, -0.2, 0.1, 0.4], scale=2.0,
    ),
    "user_quartic": lambda: sf.UserPolynomial(1, USER_QUARTIC, scale=1.2, validate=False),
    "dirichlet_n2": lambda: sf.DirichletQuadratic([1.0, 1.2, 0.9, 1.1, 1.3, 1.0]),
    "cylinder": lambda: sf.Cylinder(2.0, kind="curved"),
    "reinhardt": lambda: sf.ReinhardtSurface(0.5, 4.0),
    "exp_ellipsoid": lambda: sf.ExpReparam(sf.Ellipsoid([0.8, 1.0, 1.2, 1.4])),
    "exp_user_centered": lambda: sf.ExpReparam(RAY_FAMILIES["user_centered"]()),
}


class _PointEvaluation(sf.SurfaceSpec):
    """A star family seen only through point evaluation: its ray reads eval_ray at the points."""

    def __init__(self, spec):
        self.spec, self.n, self.star_center, self.scale = spec, spec.n, spec.star_center, spec.scale

    def derivatives(self, pts):
        return self.spec.derivatives(pts)

    def ray(self, dirs):
        def along(rho):
            j = sf.eval_ray(self.spec, self.star_center, dirs, rho)
            return j.val, j.grad[:, 0]

        return along


def _ray_sizes(spec, dirs, rho):
    """Sums of the magnitudes of the terms of f and of df/drho along the rays: the scale of
    the rounding by which two evaluation orders may differ."""
    if isinstance(spec, sf.ExpReparam):
        size, dsize = _ray_sizes(spec.base, dirs, rho)
        p, dp = spec.base.ray(dirs)(rho)
        e = np.exp(p)
        return e * (1.0 + size), e * (dsize + np.abs(dp) * size)
    if isinstance(spec, sf.ReinhardtSurface):
        a, b = np.sum(dirs[:, :2] ** 2, axis=1), np.sum(dirs[:, 2:] ** 2, axis=1)
        f, fp, fpp = spec.profile.eval(b * rho * rho)
        return (a * rho * rho + np.abs(f) + np.abs(fp) * b * rho * rho,
                2.0 * rho * (a + b * np.abs(fp) + np.abs(fpp) * b * b * rho * rho))
    return horner(np.abs(spec.poly.restrict(dirs)), rho)


def _random_dirs(rng, b, m):
    d = rng.standard_normal((b, m))
    return d / np.linalg.norm(d, axis=1)[:, None]


class TestRayRestriction:
    @settings(max_examples=60)
    @given(name=st.sampled_from(sorted(RAY_FAMILIES)), seed=st.integers(0, 2**32 - 1))
    def test_restriction_matches_point_evaluation(self, name, seed):
        # each family's ray about its star center (the cylinder's polynomial center); a polynomial
        # is also re-expanded about a random center and restricted there
        spec = RAY_FAMILIES[name]()
        rng = np.random.default_rng(seed)
        dirs = _random_dirs(rng, 32, spec.m)
        rho = rng.uniform(0.0, 2.0 * spec.scale, 32)
        center = np.zeros(spec.m) if spec.star_center is None else spec.star_center
        size, dsize = _ray_sizes(spec, dirs, rho)
        checks = [(spec, center, *spec.ray(dirs)(rho), size, dsize)]
        if hasattr(spec, "poly"):
            moved = spec.poly.about(center + rng.uniform(-0.5, 0.5, spec.m))
            a = moved.restrict(dirs)
            assert a.shape == (1 + max(sum(e) for e in spec.poly.terms), 32)
            checks.append((spec, moved.center, *horner(a, rho), *horner(np.abs(a), rho)))
        for spec, center, val, der, size, dsize in checks:
            point = sf.eval_values(spec, center + rho[:, None] * dirs)
            slope = sf.eval_ray(spec, center, dirs, rho).grad[:, 0]
            assert np.all(np.abs(val - point) <= 1e-13 * np.maximum(1.0, size))
            assert np.all(np.abs(der - slope) <= 1e-13 * np.maximum(1.0, dsize))

    @settings(max_examples=40)
    @given(name=st.sampled_from(sorted(set(RAY_FAMILIES) - {"cylinder"})), seed=st.integers(0, 2**32 - 1))
    def test_roots_equal_the_point_evaluation_roots(self, name, seed):
        spec = RAY_FAMILIES[name]()
        dirs = _random_dirs(np.random.default_rng(seed), 64, spec.m)
        rho, slope = sf.radial_roots(spec, dirs)
        f = sf.eval_values(spec, spec.star_center + rho[:, None] * dirs)
        assert np.all(np.abs(f) <= sf.ROOT_ABS_TOL * np.maximum(1.0, np.abs(slope) * rho))
        rho_pt, _ = sf.radial_roots(_PointEvaluation(spec), dirs)
        assert np.all(np.abs(rho - rho_pt) <= 1e-13 * rho)
        assert np.all(slope > 0)

    def test_sweeps_evaluate_no_points(self, monkeypatch):
        # every star family's sweeps read its ray alone: no eval_ray, and eval_values only for
        # the one-point check at the star center
        calls = []
        for name in ("eval_ray", "eval_values"):
            real = getattr(sf, name)
            monkeypatch.setattr(sf, name, lambda spec, *args, real=real, name=name: calls.append(
                (name, len(np.atleast_2d(args[0])))) or real(spec, *args))
        dirs, _ = sphere_grid(4, 8)
        for spec in (_families()["ellipsoid"], _families()["poly"], _families()["reinhardt"],
                     sf.ExpReparam(_families()["ellipsoid"])):
            sf.radial_roots(spec, dirs)
            assert calls == [("eval_values", 1)]
            calls.clear()

    @pytest.mark.parametrize("name", ["sphere_off", "ellipsoid_off_n2", "quadric_cubic_n2", "user_centered", "user_quartic"])
    def test_center_outside_fails(self, name):
        moved = copy.copy(RAY_FAMILIES[name]())  # the same f, its star center moved off the domain
        moved.star_center = np.full(moved.m, 3.0)
        with pytest.raises(StarShapeError, match="nonnegative"):
            sf.radial_roots(moved, np.eye(moved.m)[:2])

    def test_too_strong_perturbation_fails_at_the_bracket(self):
        # f = -1 along the y1 axis: the doubling bracket passes the search radius
        with pytest.raises(StarShapeError, match="no boundary crossing within radius"):
            sf.PerturbedQuadric(1, c=1.0, hterms={(2, 0): 0.5})

    def test_tangential_root_fails_transversality(self):
        # f = (x1 - 1)^3 + |z2|^2 as Re of a polynomial in z, zbar: along x1 the bracket [0, 2] has
        # f = -1 and 1 at its ends, so the false-position start is the triple root rho = 1, slope 0
        cubic = {(3, 0, 0, 0): 0.25, (2, 0, 1, 0): 0.75, (2, 0, 0, 0): -1.5, (1, 0, 1, 0): -1.5,
                 (1, 0, 0, 0): 3.0, (0, 0, 0, 0): -1.0, (0, 1, 0, 1): 1.0}
        spec = sf.UserPolynomial(1, cubic, scale=2.0, validate=False)
        assert np.array_equal(spec.poly.restrict(np.eye(4)[:1])[:, 0], [-1.0, 3.0, -3.0, 1.0])
        with pytest.raises(TransversalityError) as err:
            sf.radial_roots(spec, np.eye(4)[:1])
        assert "np.float64" not in str(err.value)  # a plain float in the message


def _positive_definite_quadratic(kind, rng):
    """A quadratic family whose rays all have a2 > 0: an off-center ellipsoid, a quadric with small
    degree-2 terms, or a UserPolynomial with a linear term and an off-center star center."""
    n = int(rng.integers(1, 3))
    if kind == "ellipsoid":
        return sf.Ellipsoid(rng.uniform(0.3, 3.0, 2 * n + 2), center=rng.uniform(-1.0, 1.0, 2 * n + 2))
    if kind == "quadric":  # each |h| < 0.043, too small to undo |z|^2 / (n + 1)
        keys = [e for e in itertools.product(range(3), repeat=n + 1) if sum(e) == 2]
        return sf.PerturbedQuadric(n, c=rng.uniform(0.2, 5.0),
                                   hterms={e: complex(*rng.uniform(-0.03, 0.03, 2)) for e in keys})
    # a|z1|^2 + b|z2|^2 + Re(g z1^2 + d z1 zbar2 + e z1) - 1, f < 0 at every center within 0.5
    a, b = rng.uniform(0.5, 2.0, 2)
    g, d, e = (complex(*rng.uniform(-0.1, 0.1, 2)) for _ in range(3))
    return sf.UserPolynomial(1, {(1, 0, 1, 0): a, (0, 1, 0, 1): b, (2, 0, 0, 0): g, (1, 0, 0, 1): d,
                                 (1, 0, 0, 0): e, (0, 0, 0, 0): -1.0}, center=rng.uniform(-0.25, 0.25, 4))


def _point_evaluation_roots(spec, dirs):
    """Roots by point evaluation alone. The loop stops once |f| <= 1e-14 max(1, slope rho), which
    can leave rho 1e-14 off, so one more Newton step on point evaluations takes it to rounding."""
    rho, _ = sf.radial_roots(_PointEvaluation(spec), dirs)
    j = sf.eval_ray(spec, spec.star_center, dirs, rho)
    return rho - j.val / j.grad[:, 0]


class TestClosedFormRoots:
    @settings(max_examples=60)
    @given(kind=st.sampled_from(["ellipsoid", "quadric", "user"]), seed=st.integers(0, 2**32 - 1))
    def test_equal_the_point_evaluation_roots(self, kind, seed):
        rng = np.random.default_rng(seed)
        spec = _positive_definite_quadratic(kind, rng)
        dirs = _random_dirs(rng, 64, spec.m)
        a = spec.ray(dirs).args[0]
        assert len(a) == 3 and np.all(a[2] > 0)  # the closed-form path
        rho, slope = sf.radial_roots(spec, dirs)
        ref = _point_evaluation_roots(spec, dirs)
        assert np.all(np.abs(rho - ref) <= 1e-14 * ref)
        assert np.array_equal(slope, spec.ray(dirs)(rho)[1])

    def test_center_near_the_boundary(self):
        # |z|^2 - 1 seen from 1 - 2^-40 along x1, on a ray a little off -x1: a1 = -2 + O(1e-4), a0 =
        # -2^-39. There -2 a0 / (a1 + sqrt(a1^2 - 4 a0 a2)) keeps about 4 digits, and one Newton step
        # 8, too few for the residual check; the form for a1 < 0, (sqrt(...) - a1) / (2 a2), keeps all
        spec = sf.UserPolynomial(1, {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (0, 0, 0, 0): -1.0},
                                 center=[1.0 - 2.0**-40, 0.0, 0.0, 0.0])
        dirs = np.array([[-math.cos(0.01), math.sin(0.01), 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
        rho, _ = sf.radial_roots(spec, dirs)
        assert np.all(np.abs(rho - _point_evaluation_roots(spec, dirs)) <= 1e-14 * rho)
        assert rho[1] == pytest.approx(2.0 - 2.0**-40, rel=1e-15, abs=0.0)

    def test_a_flat_ray_takes_the_bracket_path(self, monkeypatch):
        # f = -1 + |z1|^2 + y2 is linear along y2 (a2 = 0): the bracket path finds -a0/a1 = 1 there,
        # and along -y2, where f = -1 - rho never crosses, the bracket passes the search radius
        spec = sf.UserPolynomial(1, {(1, 0, 1, 0): 1.0, (0, 1, 0, 0): -1j, (0, 0, 0, 0): -1.0},
                                 scale=0.75, validate=False)
        up = np.array([[0.0, 0.0, 0.0, 1.0]])
        assert np.array_equal(spec.poly.restrict(up)[:, 0], [-1.0, 1.0, 0.0])
        calls = _record_rays(spec, monkeypatch)
        rho, slope = sf.radial_roots(spec, up)
        assert rho[0] == 1.0 and slope[0] == 1.0
        assert calls[0][0] == spec.scale  # the first evaluation is the bracket end
        with pytest.raises(StarShapeError, match="no boundary crossing within radius"):
            sf.radial_roots(spec, -up)


class TestReparametrization:
    def test_same_zero_set_and_parallel_normals(self):
        base = _families()["ellipsoid"]
        g = sf.ExpReparam(base)
        rng = np.random.default_rng(3)
        d = rng.standard_normal((30, 4))
        d /= np.linalg.norm(d, axis=1)[:, None]
        rho_f, _ = sf.radial_roots(base, d)
        rho_g, _ = sf.radial_roots(g, d)
        assert np.max(np.abs(rho_f - rho_g)) < 1e-11
        pts = base.star_center[None] + rho_f[:, None] * d
        jf = sf.eval_jets(base, pts)
        jg = sf.eval_jets(g, pts)
        nf = jf.grad / np.linalg.norm(jf.grad, axis=1)[:, None]
        ng = jg.grad / np.linalg.norm(jg.grad, axis=1)[:, None]
        assert np.max(np.abs(nf - ng)) < 1e-10

    def test_jets_are_the_chain_rule_through_exp(self):
        base = sf.Ellipsoid([1.0, 1.3, 0.8, 1.1], center=[0.1, -0.2, 0.0, 0.3])
        pts = np.random.default_rng(4).uniform(-1.5, 1.5, (50, 4))
        f = base.derivatives(pts)
        e = np.exp(f.val)
        w = sf.wirtinger_gradient(f.grad)  # H(exp f) = e^f (H + w w*), S(exp f) = e^f (S + w w^T)
        want = [e - 1.0, e[:, None] * f.grad, e[:, None, None] * (f.mixed + w[:, :, None] * np.conj(w)[:, None, :]),
                e[:, None, None] * (f.pure + w[:, :, None] * w[:, None, :])]
        for a, b in zip(sf.ExpReparam(base).derivatives(pts), want):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))


class TestReinhardtProfile:
    def test_sphere_profile_closed_form_residual(self):
        # oracle: f = R^2 - s, f' = -1, f'' = 0 annihilates the equation exactly
        s = np.linspace(0.0, 4.0, 101)
        res = ode_residual(s, 4.0 - s, -np.ones_like(s), np.zeros_like(s), 0.5)
        assert np.max(np.abs(res)) == 0.0

    def test_integrated_sphere_profile_matches_closed_form(self):
        p = reinhardt_profile(0.5, 4.0)
        assert p.closed
        assert p.s_end == pytest.approx(4.0, abs=1e-10)
        s = np.linspace(0.0, p.s_end, 500)
        f, fp, fpp = p.eval(s)
        assert np.max(np.abs(f - (4.0 - s))) < 1e-9
        assert np.max(np.abs(p.residual(s))) < 1e-9

    def test_series_coefficients_vanish_on_sphere_data(self):
        c0, c1, c2, c3 = series_coeffs(0.5, 4.0)
        assert (c1, c2, c3) == pytest.approx((-1.0, 0.0, 0.0), abs=1e-15)

    def test_generic_band_curvature(self):
        from levilab.curvature import FrameBatch, levi

        spec = sf.ReinhardtSurface(0.5, 3.5, fp0=-1.1, s0=0.8, smax=3.0)
        send = spec.profile.s_end
        pts = np.array([spec.boundary_point(s, 0.3 * s, 1.0 + s) for s in np.linspace(0.8, send, 20)])
        k = levi(FrameBatch.at_points(spec, pts), 1)
        assert np.max(np.abs(k - 0.5)) < 1e-6

    def test_degenerate_closure_raises_singularity(self):
        with pytest.raises(SingularityError):
            reinhardt_profile(0.5, 1.0)

    def test_band_domain_error(self):
        p = reinhardt_profile(0.5, 4.0, fp0=-1.0, s0=1.0, smax=2.0)
        with pytest.raises(DomainError):
            p.eval(0.5)
        with pytest.raises(DomainError):
            p.eval(2.5)

    def test_band_requires_positive_s0(self):
        with pytest.raises(ValueError):
            reinhardt_profile(0.5, 4.0, fp0=-1.0, s0=0.0)


R1SQ = RealPolynomial({(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0}, np.zeros(4))
S = RealPolynomial({(0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0}, np.zeros(4))


def composed_reinhardt_jets(spec, pts):
    """r1^2 - F(s) through the general composition: polynomial jets of r1^2 and s,
    the profile chained onto s by surfaces._chain, then the two added."""
    s = sf.Jet(*S.evaluate(pts))
    fval, fp, fpp = spec.profile.eval(s.val)
    neg_f = sf._chain(s, -fval, -fp, -fpp)
    return [a + b for a, b in zip(R1SQ.evaluate(pts), neg_f)]


def reinhardt_points(spec, seed):
    """Points whose s = |z2|^2 covers every branch of the profile, with signed-zero coordinates."""
    p = spec.profile
    s = [np.linspace(p.s_lo, p.s_end, 200), p.s_lo + np.geomspace(1e-9, 1e-3, 40) * p.s_end, p._knots]
    if p.closed:
        w = p._cap[2]
        s += [p.s_end + np.linspace(0.0, w, 30), p.s_end + w * np.linspace(1.0, 40.0, 30)]  # cap, tail
    s = np.concatenate(s)
    rng = np.random.default_rng(seed)
    r1 = rng.uniform(0.0, 2.5, s.size)
    t1, t2 = rng.uniform(0.0, 2 * np.pi, (2, s.size))
    pts = np.stack([r1 * np.cos(t1), r1 * np.sin(t1), np.sqrt(s) * np.cos(t2), np.sqrt(s) * np.sin(t2)], axis=1)
    pts[::7, 0] = -0.0
    pts[::11, 1] = 0.0
    if p.regular_start:
        pts[::13, 2] = -0.0
    return pts


class TestReinhardtClosedForm:
    @pytest.mark.parametrize("make", [
        lambda: sf.ReinhardtSurface(0.5, 4.0),
        lambda: sf.ReinhardtSurface(0.5, 3.5, fp0=-1.1, s0=0.8, smax=3.0),
    ], ids=["regular", "band"])
    def test_bitwise_equal_to_the_composition(self, make):
        # value and gradient bit for bit; H and S value for value, as the closed form's
        # zeros need not carry the signs that the composition's products give them
        spec = make()
        pts = reinhardt_points(spec, 17)
        for i, (a, b) in enumerate(zip(spec.derivatives(pts), composed_reinhardt_jets(spec, pts))):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes() if i < 2 else np.array_equal(a, b)

    @pytest.mark.parametrize("make", [
        lambda: sf.ReinhardtSurface(0.5, 4.0),
        lambda: sf.ReinhardtSurface(0.5, 3.5, fp0=-1.1, s0=0.8, smax=3.0),
    ], ids=["regular", "band"])
    def test_branches_are_covered(self, make):
        spec = make()
        p = spec.profile
        s = np.sum(reinhardt_points(spec, 17)[:, 2:] ** 2, axis=1)
        n = p._coefs.shape[1]
        seg = np.clip(np.searchsorted(p._knots, s[s <= p.s_end], side="right") - 1, 0, n - 1)
        assert set(seg.tolist()) == set(range(n))  # every segment polynomial
        assert np.any(s - p.s_lo < 1e-6 * p.s_end)
        beyond = s - p.s_end
        assert not p.closed or (np.any((beyond > 0) & (beyond <= p._cap[2])) and np.any(beyond > p._cap[2]))

    def test_no_jet_composition(self, forbid_chain_rule):
        # perf guard: the Reinhardt jets and frames never build the general (B, m, m) outer product
        spec = sf.ReinhardtSurface(0.5, 4.0)
        pts = reinhardt_points(spec, 18)
        assert np.all(np.isfinite(spec.derivatives(pts).val))
        d = _random_dirs(np.random.default_rng(19), 64, 4)
        fr = FrameBatch.at_points(spec, sf.radial_roots(spec, d)[0][:, None] * d)
        assert np.all(np.isfinite(mean_curvature(fr)))

    @pytest.mark.parametrize("make", [
        lambda: sf.ReinhardtSurface(0.5, 4.0),
        lambda: sf.ReinhardtSurface(0.5, 3.5, fp0=-1.1, s0=0.8, smax=3.0),
    ], ids=["regular", "band"])
    def test_profile_orders_are_bitwise_prefixes(self, make):
        spec = make()
        p = spec.profile
        s = np.sum(reinhardt_points(spec, 21)[:, 2:] ** 2, axis=1)  # every branch of eval
        full = p.eval(s)
        assert len(full) == 3
        for order in (0, 1):
            low = p.eval(s, order)
            assert len(low) == order + 1
            assert all(a.tobytes() == b.tobytes() for a, b in zip(low, full))
        assert p.eval(float(s[5]), 0) == (float(full[0][5]),)

    def test_orders_below_two_skip_the_fpp_recurrence(self, monkeypatch):
        p = reinhardt_profile(0.5, 3.5, fp0=-1.1, s0=0.8, smax=3.0)
        s = np.linspace(p.s_lo, p.s_end, 200)
        jet, fpps = rh._jet, []

        def spy(a, t, order=2):
            out = jet(a, t, order)
            fpps.append(out[2])
            return out

        monkeypatch.setattr(rh, "_jet", spy)
        for order in (0, 1, 2):
            p.eval(s, order)
        assert [bool(np.any(v)) for v in fpps] == [False, False, True]

    @pytest.mark.parametrize("kw", [dict(k=0.5, f0=3.5, fp0=-1.1, s0=0.8, smax=3.0), dict(k=0.7, f0=1.7, smax=2.9)],
                             ids=["band", "regular"])
    def test_fpp_from_the_series_solves_the_equation(self, kw):
        # f'' is read off each segment's polynomial, also at s = 0 and at the knots
        p = reinhardt_profile(**kw)
        s = np.concatenate([np.linspace(p.s_lo, p.s_end, 500), p._knots, p.s_lo + np.geomspace(1e-12, 1e-3, 20)])
        f, fp, fpp = p.eval(s)
        assert np.max(np.abs(p.residual(s))) <= 1e-14 * np.max(np.abs(s * f * fpp) + np.abs(f * fp) + p.k)


class TestRealOutput:
    @pytest.mark.parametrize("make", [
        lambda: sf.Sphere(1.5, n=2),
        lambda: sf.Ellipsoid([1.0, 1.3, 0.8, 1.1]),
        lambda: sf.PerturbedQuadric(1, c=1.0, hterms={(2, 0): 0.15 + 0.05j, (1, 1): -0.1j}),
        lambda: sf.Cylinder(2.0, kind="curved"),
        lambda: sf.ReinhardtSurface(0.5, 4.0),
        lambda: sf.UserPolynomial(1, {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (0, 0, 0, 0): -4.0}, scale=2.0),
        lambda: sf.ExpReparam(sf.Sphere(2.0)),
        lambda: sf.DirichletQuadratic([1.0, 1.0, 1.0, 2.0]),
    ])
    def test_every_family_returns_float64(self, make):
        spec = make()
        rng = np.random.default_rng(5)
        pts = 0.5 * rng.standard_normal((16, spec.m))
        dirs = pts / np.linalg.norm(pts, axis=1)[:, None]
        jt = sf.eval_jets(spec, pts)
        ray = sf.eval_ray(spec, np.zeros(spec.m), dirs, np.full(16, 0.5))
        for arr in (jt.val, jt.grad, sf.eval_values(spec, pts), ray.val, ray.grad):
            assert arr.dtype == np.float64
        assert jt.mixed.dtype == jt.pure.dtype == np.complex128


QUADRATICS = ("sphere_n2", "ellipsoid_off_n2", "quadric", "dirichlet_n2", "cylinder")
MIXED_FAMILIES = QUADRATICS + ("user_quartic", "exp_ellipsoid", "reinhardt")


def _mixed_points(spec, seed=3):
    if isinstance(spec, sf.ReinhardtSurface):
        return reinhardt_points(spec, seed)
    return np.random.default_rng(seed).uniform(-1.2, 1.2, (300, spec.m))


class TestMixedEvaluator:
    """eval_mixed is the H of eval_jets, read without f where H is constant."""

    @pytest.mark.parametrize("name", MIXED_FAMILIES)
    def test_equals_the_jets_bit_for_bit(self, name):
        spec = RAY_FAMILIES[name]()
        pts = _mixed_points(spec)
        for p in (pts, pts[:1], pts[0]):
            want, got = sf.eval_jets(spec, p).mixed, sf.eval_mixed(spec, p)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("name", MIXED_FAMILIES)
    def test_rejects_points_as_the_jets_do(self, name):
        spec = RAY_FAMILIES[name]()
        good = _mixed_points(spec)[:4]
        nan, inf = good.copy(), good.copy()
        nan[1, 0], inf[2, -1] = np.nan, -np.inf
        for bad in (nan, inf, good[:, :-1], np.zeros((2, spec.m + 1)), good[None]):
            with pytest.raises(ValueError) as jets:
                sf.eval_jets(spec, bad)
            with pytest.raises(ValueError) as mixed:
                sf.eval_mixed(spec, bad)
            assert str(mixed.value) == str(jets.value)

    @pytest.mark.parametrize("name", QUADRATICS)
    def test_a_quadratic_builds_no_table(self, name, monkeypatch):
        spec = RAY_FAMILIES[name]()
        pts = _mixed_points(spec)
        want = sf.eval_jets(spec, pts).mixed

        def no_table(*args):
            raise AssertionError("monomial table built")

        monkeypatch.setattr(RealPolynomial, "_times", no_table)
        got = sf.eval_mixed(spec, pts)
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
        with pytest.raises(AssertionError, match="monomial table"):
            sf.eval_jets(spec, pts)


class TestUserPolynomialCanonical:
    TERMS = {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (0, 0, 0, 0): -4.0}

    def test_scale_and_center_are_named_off_their_defaults(self):
        plain = sf.UserPolynomial(1, self.TERMS, scale=1.0).canonical()
        scaled = sf.UserPolynomial(1, self.TERMS, scale=3.0).canonical()
        moved = sf.UserPolynomial(1, self.TERMS, center=[0.1, 0.0, 0.0, 0.0]).canonical()
        assert len({plain, scaled, moved}) == 3
        assert plain == sf.UserPolynomial(1, self.TERMS).canonical()
        assert "scale" not in plain and "center" not in plain
        assert scaled.endswith(",scale=3.0")
        assert moved.endswith(",center=0.1,0.0,0.0,0.0")


class TestValidationErrors:
    def test_negative_radius(self):
        with pytest.raises(ValueError):
            sf.Sphere(-1.0)

    def test_odd_axes(self):
        with pytest.raises(ValueError):
            sf.Ellipsoid([1.0, 2.0, 3.0])

    def test_quadric_low_degree_perturbation(self):
        with pytest.raises(ValueError):
            sf.PerturbedQuadric(1, hterms={(1, 0): 0.5})

    def test_quadric_too_strong_perturbation_fails_validation(self):
        # h = Re(z1^2) with coefficient 1/2 flattens the y1 direction to zero
        with pytest.raises((StarShapeError, TransversalityError)):
            sf.PerturbedQuadric(1, c=1.0, hterms={(2, 0): 0.5})

    def test_point_dimension_checked(self):
        with pytest.raises(ValueError):
            sf.eval_jets(_families()["sphere"], [1.0, 0.0])

    @pytest.mark.parametrize("text, name", [
        ("sphere:R=inf", "R"),
        ("sphere:R=nan", "R"),
        ("sphere:R=1,center=inf,0,0,0", "center"),
        ("quadric:n=1,c=inf", "c"),
        ("ellipsoid:axes=1,1,1,inf", "axes"),
        ("ellipsoid:axes=1,1,1,1,center=0,nan,0,0", "center"),
        ("dirichlet:axes=1,1,1,inf", "axes"),
        ("dirichlet:axes=1,1,1,nan", "axes"),
        ("cylinder:R=inf", "R"),
        ("poly:n=1,terms=1:1,0,1,0;1:0,1,0,1;-1:0,0,0,0;0.1:2,0,2,0,scale=inf", "scale"),
        ("poly:n=1,terms=1:1,0,1,0;1:0,1,0,1;-1:0,0,0,0,center=nan,0,0,0", "center"),
        ("sphere:R=1e200", "R"),                                          # R^2 overflows
        ("ellipsoid:axes=1e-170,1,1,1", "axes"),                          # a^-2 overflows
        ("dirichlet:axes=1e300,1,1,1", "axes"),                           # a^2 overflows
        ("sphere:R=1,n=0", "n"),
        ("quadric:n=0", "n"),
        ("poly:n=0,terms=1:1,1;-1:0,0", "n"),
        ("quadric:n=1,hterms=inf:2,0", r"coefficient of \(2, 0\)"),
        ("poly:n=1,terms=1:1,0,1,0;1:0,1,0,1;-1:0,0,0,0;inf:2,0,2,0", r"coefficient of \(2, 0, 2, 0\)"),
        ("reinhardt:k=1e-200,f0=4", "k"),                                 # k^-2 overflows
    ])
    def test_non_finite_parameter_is_a_parse_error(self, text, name):
        # rejected at construction, by name, before any numpy warning or root finder
        with pytest.raises(SpecParseError, match=f": {name} must be"):
            parse_surface(text)

    @pytest.mark.parametrize("make", [
        lambda: sf.PerturbedQuadric(1, hterms={(2, 0): complex(0.1, math.nan)}),
        lambda: sf.UserPolynomial(1, {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (0, 0, 0, 0): -math.inf}),
    ], ids=["quadric", "poly"])
    def test_constructors_reject_a_non_finite_coefficient(self, make):
        with pytest.raises(ValueError, match="coefficient of .* must be finite"):
            make()
