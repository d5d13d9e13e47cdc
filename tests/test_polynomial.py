"""Compiled polynomial evaluators against an exact reference in wirtinger.WPoly.

Each reference below builds the family's defining function as a WPoly in z
and zbar, with x_k = (z_k + zbar_k)/2 and y_k = (z_k - zbar_k)/(2i). It takes
the real gradient with d/dx = d/dz + d/dzbar and d/dy = i (d/dz - d/dzbar),
and the Wirtinger Hessians directly, H_lk = d/dz_l d/dzbar_k f and
S_lk = d/dz_l d/dz_k f, and evaluates them in exact rational arithmetic at the
float test points. The compiled value, gradient, H and S must agree to RTOL
relative to the largest entry of the reference over the batch.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from levilab import polynomial, reinhardt
from levilab import surfaces as sf
from levilab.polynomial import RealPolynomial, horner
from levilab.wirtinger import WPoly

RTOL = 1e-13


def real_coords(nvars: int) -> list[WPoly]:
    """x_1, y_1, ..., x_N, y_N as polynomials in z and zbar."""
    out = []
    for k in range(1, nvars + 1):
        z, zb = WPoly.variable(nvars, "z", k), WPoly.variable(nvars, "zbar", k)
        out += [(z + zb) * 0.5, (z - zb) * -0.5j]
    return out


def real_derivative(p: WPoly, a: int) -> WPoly:
    """d/dx_k (a = 2k - 2) or d/dy_k (a = 2k - 1) of p."""
    dz, dzb = p.wd("z", a // 2 + 1), p.wd("zbar", a // 2 + 1)
    return dz + dzb if a % 2 == 0 else (dz - dzb) * 1j


def exact_values(polys: list[WPoly], pts: np.ndarray) -> np.ndarray:
    """Every polynomial at every point (x_1, y_1, ...), exactly, as complex of shape (B, len(polys)).

    The real and imaginary parts are each rounded once from their exact values.
    """
    terms = [list(p.terms.items()) for p in polys]
    out = np.empty((len(pts), len(polys)), dtype=complex)
    for b, point in enumerate(pts):
        xy = [Fraction(float(v)) for v in point]
        zs = [(xy[i], xy[i + 1]) for i in range(0, len(xy), 2)]
        variables = zs + [(x, -y) for x, y in zs]
        monomials = {}
        for i, poly in enumerate(terms):
            re = im = Fraction(0)
            for exps, (cr, ci) in poly:
                if exps not in monomials:
                    mr, mi = Fraction(1), Fraction(0)
                    for (vr, vi), e in zip(variables, exps):
                        for _ in range(e):
                            mr, mi = mr * vr - mi * vi, mr * vi + mi * vr
                    monomials[exps] = mr, mi
                mr, mi = monomials[exps]
                re += cr * mr - ci * mi
                im += cr * mi + ci * mr
            out[b, i] = complex(float(re), float(im))
    return out


def exact_jets(f: WPoly, pts: np.ndarray) -> sf.Jet:
    """Value, real gradient, H and S of f at the points, each part rounded once from its exact value."""
    nv, m = f.nvars, 2 * f.nvars
    grad = [real_derivative(f, a) for a in range(m)]
    dz = [f.wd("z", l) for l in range(1, nv + 1)]
    mixed = [d.wd("zbar", k) for d in dz for k in range(1, nv + 1)]
    pure = [d.wd("z", k) for d in dz for k in range(1, nv + 1)]
    vals = exact_values([f, *grad, *mixed, *pure], pts)
    real = vals[:, :m + 1]
    assert not np.any(real.imag)  # f is real, and so is its real gradient
    return sf.Jet(real[:, 0].real, real[:, 1:].real, vals[:, m + 1:m + 1 + nv * nv].reshape(-1, nv, nv),
                  vals[:, m + 1 + nv * nv:].reshape(-1, nv, nv))


def ref_sphere(spec, coords):
    return sum((x - spec.center[i]) ** 2 for i, x in enumerate(coords)) - spec.radius**2


def ref_ellipsoid(spec, coords):
    return sum(((x - spec.center[i]) * (1.0 / spec.axes[i])) ** 2 for i, x in enumerate(coords)) - 1.0


def ref_dirichlet(spec, coords):
    return (sum((x * (1.0 / spec.axes[i])) ** 2 for i, x in enumerate(coords)) - 1.0) * spec.cfactor


def ref_cylinder(spec, coords):
    x1, y1, x2, _y2 = coords
    f = x1 * x1 + y1 * y1 - spec.radius**2
    return f + x2 * x2 if spec.kind == "curved" else f


def _real_part(nvars, coeffs):
    p = WPoly(nvars, coeffs)
    return (p + p.conj()) * 0.5


def ref_quadric(spec, coords):
    f = sum(x * x for x in coords) * (1.0 / (spec.n + 1)) - spec.c
    if spec.hterms:
        w = spec.n + 1
        f = f + _real_part(w, {e + (0,) * w: c for e, c in spec.hterms.items()})
    return f


def ref_user(spec, coords):
    return _real_part(spec.n + 1, spec.coeffs)


# |z|^2 - 1 plus Re(0.4 z1 zbar2 + 0.1i z1^2), about an off-origin center: every kind of quadratic term
USER_QUADRATIC_CROSS = {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (0, 0, 0, 0): -1.0, (1, 0, 0, 1): 0.4, (2, 0, 0, 0): 0.1j}
LEVI_INDEFINITE = {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (0, 0, 0, 0): -1.0, (1, 1, 1, 1): -3.0, (2, 2, 2, 2): 4.0}

CASES = {
    "sphere_off_center": (lambda: sf.Sphere(1.3, center=[0.4, -0.2, 0.1, 0.7]), ref_sphere),
    "sphere_n2": (lambda: sf.Sphere(1.5, n=2), ref_sphere),
    "ellipsoid_off_center": (lambda: sf.Ellipsoid([1.0, 1.3, 0.8, 1.1], center=[-0.3, 0.5, 0.2, -0.1]),
                             ref_ellipsoid),
    "quadric_complex_hterms": (lambda: sf.PerturbedQuadric(
        1, c=1.0, hterms={(2, 0): 0.15 + 0.05j, (1, 1): -0.1j, (0, 3): 0.02 - 0.03j}), ref_quadric),
    "user_quadratic_cross": (lambda: sf.UserPolynomial(1, USER_QUADRATIC_CROSS, center=[0.1, -0.05, 0.02, 0.03]),
                             ref_user),
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
    want = exact_jets(ref(spec, real_coords(spec.n + 1)), pts)
    got = sf.eval_jets(spec, pts)
    _assert_close(got.val, want.val)
    _assert_close(got.grad, want.grad)
    _assert_close(got.mixed, want.mixed)
    _assert_close(got.pure, want.pure)
    _assert_close(sf.eval_values(spec, pts), want.val)


@pytest.mark.parametrize("name", sorted(CASES))
def test_hessian_exactly_symmetric(name):
    # H exactly Hermitian and S exactly symmetric, also for one point, where the
    # matrix product takes another BLAS kernel than for a batch
    spec = CASES[name][0]()
    for count in (1, 64):
        j = sf.eval_jets(spec, _points(spec, count=count))
        assert np.array_equal(j.mixed, np.conj(j.mixed.transpose(0, 2, 1)))
        assert np.array_equal(j.pure, j.pure.transpose(0, 2, 1))


def test_quadratic_hessians_are_one_broadcast_matrix(monkeypatch):
    # perf guard: a quadratic's H and S are constant, and its value, gradient and rays come from its explicit
    # form (c, b, A): no monomial table is built
    tables, times = [], RealPolynomial._times
    monkeypatch.setattr(RealPolynomial, "_times", lambda self, *args: tables.append(1) or times(self, *args))
    for name, quartic in (("sphere_n2", False), ("dirichlet", False), ("user_quadratic_cross", False),
                          ("user_levi_indefinite", True)):
        spec = CASES[name][0]()
        tables.clear()
        j = sf.eval_jets(spec, _points(spec))
        assert (j.mixed.strides[0] == 0) == (j.pure.strides[0] == 0) == (not quartic)
        spec.poly.restrict(np.eye(spec.m))
        assert bool(tables) == quartic


def test_quadratic_form_reads_every_term():
    # a linear part (the expansion about an off-origin center) and cross terms d_i d_k, i < k, in A
    c, lin, rows = CASES["user_quadratic_cross"][0]().poly._quadratic
    assert c < 0 and np.count_nonzero(lin) == 4
    assert any(k != i for i, row in enumerate(rows) for k, _ in row)


def test_each_block_is_the_row_major_product(monkeypatch):
    # coefs^T @ table, which would write the coordinate-major output directly, is another BLAS call: it moved
    # bits of this cubic at n = 3 (8,192 points) and made them depend on the BLAS thread count
    spec = sf.PerturbedQuadric(3, hterms={(3, 0, 0, 0): 0.02, (0, 1, 1, 1): 0.03 - 0.01j, (2, 0, 0, 0): 0.05j})
    operands, matmul = [], np.matmul

    def spy(a, b, *args, **kwargs):
        operands.append((a.shape, b.shape))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    jet = sf.eval_jets(spec, _points(spec, count=2048))
    plan = spec.poly._plan
    assert len(operands) > 1 and all(a[1] == plan.shape[0] and b == plan.shape for a, b in operands)
    assert jet.grad.T.flags.c_contiguous and jet.mixed.transpose(1, 2, 0).flags.c_contiguous


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


def test_from_zzbar_rounds_each_coefficient_once():
    # -0.1 |z2|^4 = -0.1 (x2^4 + 2 x2^2 y2^2 + y2^4): the x2^2 y2^2 coefficient is 0.1 - 0.4 + 0.1, which float
    # addition leaves at -0.20000000000000004, so the polynomial would not be invariant under z2 -> e^{it} z2
    p = RealPolynomial.from_zzbar(1, {(0, 2, 0, 2): -0.1})
    assert p.terms == {(0, 0, 0, 4): -0.1, (0, 0, 2, 2): -0.2, (0, 0, 4, 0): -0.1}
    assert p.phase_invariant()


def test_row_blocks_do_not_change_results(monkeypatch):
    spec = CASES["user_levi_indefinite"][0]()
    pts = _points(spec, count=200)
    whole = spec.poly.evaluate(pts)
    monkeypatch.setattr(polynomial, "TABLE_BUDGET", 7)
    blocked = spec.poly.evaluate(pts)
    for a, b in zip(blocked, whole):
        _assert_close(a, b)


def test_bad_exponent_vector_rejected():
    with pytest.raises(ValueError):
        RealPolynomial({(2, 0, 1): 1.0}, np.zeros(2))
    with pytest.raises(ValueError):
        RealPolynomial.from_zzbar(1, {(1, 0, 1): 1.0})


def _exact_jet(a, t) -> list:
    """[(p, size), (p', size), (p'', size)] at t, exactly: each size is the sum of the magnitudes of the terms."""
    a, t = [Fraction(float(c)) for c in a], Fraction(float(t))
    out = []
    for r in range(3):
        terms = [math.perm(k, r) * c * t ** (k - r) for k, c in enumerate(a) if k >= r]
        out.append((sum(terms, Fraction(0)), sum((abs(x) for x in terms), Fraction(0))))
    return out


# Horner's rule for p and its derivatives errs by a small multiple of d u times the sum of the magnitudes of
# the terms (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., chapter 5); with the unit
# roundoff u = 2^-53, the bound 4 d eps = 8 d u leaves room (the worst of 200 seeds reads 0.8 d eps)
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
def test_horner_matches_the_exact_jet(seed, batched):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 25))
    a = rng.standard_normal((d + 1, 6)) * 10.0 ** rng.uniform(-3, 3, (d + 1, 1))
    t = rng.uniform(-2.0, 2.0, 6)
    # six polynomials at once, or the first alone at a scalar t
    got = np.stack(horner(a, t, 2)) if batched else np.array(horner(a[:, 0], float(t[0]), 2))[:, None]
    for b in range(got.shape[1]):
        for value, (want, size) in zip(got[:, b], _exact_jet(a[:, b], t[b])):
            assert abs(Fraction(float(value)) - want) <= 4 * d * np.finfo(float).eps * size


def test_lower_orders_are_prefixes_that_skip_the_second_derivative():
    # orders 0 and 1 give the first one or two entries of order 2 bit for bit, with two in-place
    # products by t per coefficient where order 2 takes three: the p'' recurrence does not run
    class Counted(np.ndarray):
        products = 0

        def __imul__(self, other):
            Counted.products += 1
            return super().__imul__(other)

    rng = np.random.default_rng(5)
    a, t = rng.standard_normal((9, 40)), rng.uniform(-1.5, 1.5, 40)
    full = horner(a, t, 2)
    for order in (0, 1, 2):
        Counted.products = 0
        low = horner(a, t.view(Counted), order)
        assert len(low) == order + 1 and all(np.array_equal(x, y) for x, y in zip(low, full))
        assert Counted.products == (3 if order == 2 else 2) * 8


def test_one_horner_routine():
    assert reinhardt.horner is polynomial.horner
