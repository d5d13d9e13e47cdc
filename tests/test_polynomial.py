"""Compiled polynomial evaluators against the forward-mode jet expressions.

Each reference below builds the family's defining function from seed jets,
as the polynomial families did before they were compiled. The compiled
value, gradient and Hessian must agree to RTOL relative to the largest entry
of the reference over the batch.
"""

import numpy as np
import pytest

from levilab import jets
from levilab import polynomial
from levilab import surfaces as sf
from levilab.jets import Jet
from levilab.polynomial import RealPolynomial

RTOL = 1e-13


def _sum(terms):
    total = None
    for t in terms:
        total = t if total is None else total + t
    return total


def ref_sphere(spec, coords):
    return _sum((x - spec.center[i]) * (x - spec.center[i]) for i, x in enumerate(coords)) - spec.radius**2


def ref_ellipsoid(spec, coords):
    def sq(i, x):
        d = (x - spec.center[i]) * (1.0 / spec.axes[i])
        return d * d

    return _sum(sq(i, x) for i, x in enumerate(coords)) - 1.0


def ref_dirichlet(spec, coords):
    def sq(i, x):
        d = x * (1.0 / spec.axes[i])
        return d * d

    return (_sum(sq(i, x) for i, x in enumerate(coords)) - 1.0) * spec.cfactor


def ref_cylinder(spec, coords):
    x1, y1, x2, _y2 = coords
    f = x1 * x1 + y1 * y1 - spec.radius**2
    return f + x2 * x2 if spec.kind == "curved" else f


def _zzbar_real(coords, n, coeffs):
    zs, zbs = jets.complex_coords(coords)
    terms = []
    for exps, c in coeffs.items():
        term = Jet.constant(1.0 + 0j, coords[0])
        for i in range(n + 1):
            for var, e in ((zs[i], exps[i]), (zbs[i], exps[n + 1 + i])):
                if e:
                    term = term * var**e
        terms.append(term * c)
    return _sum(terms).real


def ref_quadric(spec, coords):
    f = _sum(x * x for x in coords) * (1.0 / (spec.n + 1)) - spec.c
    if spec.hterms:
        w = spec.n + 1
        f = f + _zzbar_real(coords, spec.n, {e + (0,) * w: c for e, c in spec.hterms.items()})
    return f


def ref_user(spec, coords):
    return _zzbar_real(coords, spec.n, spec.coeffs)


LEVI_INDEFINITE = {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (0, 0, 0, 0): -1.0, (1, 1, 1, 1): -3.0, (2, 2, 2, 2): 4.0}

CASES = {
    "sphere_off_center": (lambda: sf.Sphere(1.3, center=[0.4, -0.2, 0.1, 0.7]), ref_sphere),
    "sphere_n2": (lambda: sf.Sphere(1.5, n=2), ref_sphere),
    "ellipsoid_off_center": (lambda: sf.Ellipsoid([1.0, 1.3, 0.8, 1.1], center=[-0.3, 0.5, 0.2, -0.1]),
                             ref_ellipsoid),
    "quadric_complex_hterms": (lambda: sf.PerturbedQuadric(
        1, c=1.0, hterms={(2, 0): 0.15 + 0.05j, (1, 1): -0.1j, (0, 3): 0.02 - 0.03j}), ref_quadric),
    "user_levi_indefinite": (lambda: sf.UserPolynomial(1, LEVI_INDEFINITE, scale=1.2), ref_user),
    "cylinder_flat": (lambda: sf.Cylinder(2.0, kind="flat"), ref_cylinder),
    "cylinder_curved": (lambda: sf.Cylinder(2.0, kind="curved"), ref_cylinder),
    "dirichlet": (lambda: sf.DirichletQuadratic([1.0, 1.2, 0.9, 1.4, 1.1, 1.3]), ref_dirichlet),
}


def _points(spec, count=64, seed=0):
    rng = np.random.default_rng(seed)
    center = spec.star_center if spec.star_center is not None else np.zeros(spec.m)
    return center + rng.uniform(-1.5, 1.5, size=(count, spec.m))


def _assert_close(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert np.max(np.abs(got - want)) <= RTOL * scale


@pytest.mark.parametrize("name", sorted(CASES))
def test_compiled_derivatives_match_jet_reference(name):
    make, ref = CASES[name]
    spec = make()
    pts = _points(spec)
    want = ref(spec, Jet.variables(pts))
    got = sf.eval_jets(spec, pts)
    _assert_close(got.val, want.val)
    _assert_close(got.grad, want.grad)
    _assert_close(got.hess, want.hess)
    _assert_close(sf.eval_values(spec, pts), want.val)


@pytest.mark.parametrize("name", sorted(CASES))
def test_hessian_exactly_symmetric(name):
    spec = CASES[name][0]()
    h = sf.eval_jets(spec, _points(spec)).hess
    assert np.array_equal(h, h.transpose(0, 2, 1))


@pytest.mark.parametrize("name", sorted(CASES))
def test_ray_value_and_slope_match_full_jets(name):
    spec = CASES[name][0]()
    rng = np.random.default_rng(1)
    center = _points(spec, count=1, seed=2)[0]
    dirs = rng.standard_normal((40, spec.m))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    rho = rng.uniform(0.1, 2.0, size=40)
    ray = sf.eval_ray(spec, center, dirs, rho)
    full = sf.eval_jets(spec, center + rho[:, None] * dirs)
    assert ray.grad.shape == (40, 1)
    _assert_close(ray.val, full.val)
    _assert_close(ray.grad[:, 0], np.einsum("bi,bi->b", full.grad, dirs))


def test_from_zzbar_real_part_of_z_squared():
    p = RealPolynomial.from_zzbar(1, {(2, 0, 0, 0): 1.0})
    assert p.terms == {(0, 2, 0, 0): -1.0, (2, 0, 0, 0): 1.0}


def test_from_zzbar_norm_squared():
    p = RealPolynomial.from_zzbar(1, {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0})
    assert p.terms == {(0, 0, 0, 2): 1.0, (0, 0, 2, 0): 1.0, (0, 2, 0, 0): 1.0, (2, 0, 0, 0): 1.0}


def test_from_zzbar_imaginary_coefficient():
    # Re(i z1^2) = -2 x1 y1
    p = RealPolynomial.from_zzbar(1, {(2, 0, 0, 0): 1j})
    assert p.terms == {(1, 1, 0, 0): -2.0}


def test_lower_orders_are_prefixes_of_the_full_evaluation():
    spec = CASES["user_levi_indefinite"][0]()
    pts = _points(spec)
    v0, g0, h0 = spec.poly.evaluate(pts, 0)
    v1, g1, h1 = spec.poly.evaluate(pts, 1)
    v2, g2, h2 = spec.poly.evaluate(pts, 2)
    assert g0 is None and h0 is None and h1 is None
    _assert_close(v0, v2)
    _assert_close(v1, v2)
    _assert_close(g1, g2)


def test_row_blocks_do_not_change_results(monkeypatch):
    spec = CASES["user_levi_indefinite"][0]()
    pts = _points(spec, count=200)
    whole = spec.poly.evaluate(pts, 2)
    monkeypatch.setattr(polynomial, "TABLE_BUDGET", 7)
    blocked = spec.poly.evaluate(pts, 2)
    for a, b in zip(blocked, whole):
        _assert_close(a, b)


def test_bad_order_rejected():
    with pytest.raises(ValueError):
        RealPolynomial({(2, 0): 1.0}, np.zeros(2)).evaluate(np.zeros((1, 2)), 3)


def test_bad_exponent_vector_rejected():
    with pytest.raises(ValueError):
        RealPolynomial({(2, 0, 1): 1.0}, np.zeros(2))
    with pytest.raises(ValueError):
        RealPolynomial.from_zzbar(1, {(1, 0, 1): 1.0})
