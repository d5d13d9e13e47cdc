"""Defining-function families on C^{n+1} identified with R^{2n+2}.

Real coordinates are interleaved as (x1, y1, ..., x_{n+1}, y_{n+1}) with
z_k = x_k + i y_k. Every family produces a smooth real defining function f
with f < 0 inside, f = 0 on the boundary, and gives from derivatives(pts),
exact to rounding, its value, its real gradient and its complex Hessians
H_lk = d^2 f / dz_l dzbar_k and S_lk = d^2 f / dz_l dz_k, never the real one.
The polynomial families (Sphere, Ellipsoid, PerturbedQuadric, Cylinder,
UserPolynomial, DirichletQuadratic) expand f once, about the star center,
into a RealPolynomial and evaluate closed-form derivatives from it.
ReinhardtSurface writes the chain rule through its profile in closed form;
ExpReparam composes its base family's derivatives with _chain, the
one-variable chain rule. No finite differencing happens on the default path.

Points enter through evaluators that check shape and finiteness: eval_jets
gives the whole Jet, eval_values the value, and eval_mixed H alone for the
bulk integrands, a quadratic's constant H broadcast without evaluating f.

Star-shaped families declare a star center and are validated at construction
on 2m + 2 coarse directions, the signed axes and the two main diagonals: each
ray must cross the boundary once, transversally, with a nondegenerate
gradient. radial_roots finds the crossings from each family's ray(dirs), which
restricts f (or, for ExpReparam, its base: the same crossings and sign) to a
batch of rays once, in closed form: a quadratic restriction is solved by
formula, any other by bracketed Newton on the value and slope read from it.
"""

from __future__ import annotations

import functools
import inspect
import math
from typing import NamedTuple

import numpy as np

from .errors import (LENGTH_RANGE, LENGTH_RULE, DegenerateGradientError, DomainError, StarShapeError,
                     TransversalityError, positive_length)
from .polynomial import RealPolynomial, horner
from .reinhardt import ReinhardtProfile, reinhardt_profile

ROOT_ABS_TOL = 1e-12        # |f| at a radial root
BOUNDARY_VALUE_TOL = 1e-10  # |f| accepted when a point claims to be on the boundary
GRADIENT_FLOOR = 1e-10      # |grad f| below this is a characteristic degeneracy
MAX_RADIUS_FACTOR = 1e3     # star-shaped search radius in units of the family scale


class Jet(NamedTuple):
    """Value (B,), real gradient (B, m), and the complex Hessians H_lk = d^2 f / dz_l dzbar_k
    (mixed, Hermitian) and S_lk = d^2 f / dz_l dz_k (pure, symmetric), (B, N, N) with
    N = m / 2, of a scalar function over B points.
    """

    val: np.ndarray
    grad: np.ndarray
    mixed: np.ndarray
    pure: np.ndarray


FAMILIES: dict[str, type] = {}  # family name -> class, in the order of definition


@functools.cache
def spec_keys(cls) -> dict[str, inspect.Parameter]:
    """The spec keys of a family (or of any spec class): its constructor's parameters that are not
    keyword-only, by name; those without a default are required. Read once per class."""
    return {name: p for name, p in inspect.signature(cls).parameters.items() if p.kind is p.POSITIONAL_OR_KEYWORD}


def _spec_text(value) -> str:
    """A key's value as the spec grammar reads it back: a term map as coeff:e1,e2;..., a vector
    comma-separated, a float by repr."""
    if isinstance(value, dict):
        return ";".join(f"{c!r}:{','.join(str(e) for e in exps)}" for exps, c in value.items())
    return ",".join(repr(float(x)) for x in value) if isinstance(value, np.ndarray) else str(value)


class SurfaceSpec:
    """Base class: a named defining-function family over C^{n+1}.

    A family names itself by a class keyword, class Sphere(SurfaceSpec, family="sphere"), and its
    constructor's parameters are its spec keys (spec_keys). canonical() prints the keys() back in
    the grammar that specfile parses. Polynomial families set poly at construction, expanded about
    the star center, and inherit derivatives() and ray(); the other families override both.
    """

    family: str | None = None
    n: int
    star_center: np.ndarray | None
    scale: float
    poly: RealPolynomial

    def __init_subclass__(cls, family: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if family is not None:
            cls.family, FAMILIES[family] = family, cls

    @property
    def m(self) -> int:
        return 2 * (self.n + 1)

    def derivatives(self, pts: np.ndarray) -> Jet:
        """Value, real gradient, H and S at points (B, m)."""
        return Jet(*self.poly.evaluate(pts))

    def ray(self, dirs: np.ndarray):
        """rho -> (g, dg/drho) along star_center + rho * dirs, (B,) each, where g has f's sign on every ray and f's
        slope at its crossings, to rounding. Here g is f: Horner's rule on f restricted to the rays, as a partial
        of horner, so that radial_roots can read the coefficients (args[0]) of a quadratic."""
        return functools.partial(horner, self.poly.restrict(dirs))

    @functools.cached_property
    def phase_invariant(self) -> bool:
        """Whether f is exactly invariant under z_{n+1} -> e^{i theta} z_{n+1} about the star center, decided once on a
        polynomial's terms (RealPolynomial); the quadrature checks it, as flip_group, at the images of its nodes."""
        return self.poly.phase_invariant()

    flip_group = functools.cached_property(lambda self: self.poly.flip_group())  # once per family object

    def keys(self) -> dict:
        """Each spec key's value, None for a key the spec string leaves out: by default the attribute
        of the key's name."""
        return {name: getattr(self, name) for name in spec_keys(type(self))}

    def canonical(self) -> str:
        """family:key=value,... of keys(), the spec string that parses back to this surface."""
        return f"{self.family}:" + ",".join(f"{k}={_spec_text(v)}" for k, v in self.keys().items() if v is not None)

    def __repr__(self):
        return f"{type(self).__name__}({self.canonical()})"


def _center_array(center, m: int) -> np.ndarray:
    if center is None:
        return np.zeros(m)
    c = np.asarray(center, dtype=float)
    if c.shape != (m,) or not np.all(np.isfinite(c)):
        raise ValueError(f"center must be {m} finite coordinates, got {c.tolist()}")
    return c


def _axes_array(axes) -> np.ndarray:
    a = np.asarray(axes, dtype=float)
    if a.ndim != 1 or len(a) < 4 or len(a) % 2:
        raise ValueError("axes must list 2(n+1) >= 4 semi-axes")
    if not np.all((a >= LENGTH_RANGE[0]) & (a <= LENGTH_RANGE[1])):
        raise ValueError(f"axes must be {LENGTH_RULE}, got {_spec_text(a)}")
    return a


def _dimension(n) -> int:
    """n of C^{n+1}: at least 1, so that the boundary has a complex tangent direction."""
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return n


def _finite_coefficient(exps: tuple, coeff) -> complex:
    coeff = complex(coeff)
    if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
        raise ValueError(f"coefficient of {exps} must be finite, got {coeff!r}")
    return coeff


def _diagonal_quadratic(weights, constant: float, center=None) -> RealPolynomial:
    """sum_i weights[i] * d_i^2 + constant with d = x - center (default 0)."""
    m = len(weights)
    terms = {tuple(2 * (k == i) for k in range(m)): w for i, w in enumerate(weights)}
    terms[(0,) * m] = constant
    return RealPolynomial(terms, np.zeros(m) if center is None else center)


def wirtinger_gradient(rgrad: np.ndarray) -> np.ndarray:
    """(..., 2N) real gradient -> (..., N) complex gradient f_k = (d_x - i d_y)/2, written into one complex
    array; 0 - d_y, not -d_y, keeps a zero +0.0 as (d_x - 1j d_y) / 2 gives it."""
    w = np.empty_like(rgrad[..., 0::2], dtype=complex)  # in rgrad's memory order
    w.real = rgrad[..., 0::2]
    np.subtract(0.0, rgrad[..., 1::2], out=w.imag)
    w *= 0.5
    return w


def _chain(inner: Jet, f0, f1, f2) -> Jet:
    """phi(inner) from phi, phi', phi'' at inner.val.

    With w = del f, H(phi o f) = phi' H + phi'' w w* and S(phi o f) = phi' S + phi'' w w^T; the
    outer products are built from real products of the gradient, exactly (Hermitian) symmetric.
    """
    gx, gy = inner.grad.T[0::2], inner.grad.T[1::2]  # entry-major: (N, N, B) products of (N, B) rows
    xx, yy, xy = (u[:, None] * v[None, :] for u, v in ((gx, gx), (gy, gy), (gx, gy)))
    b = f2 / 4.0  # w w* = (xx + yy + i (xy - xy^T)) / 4
    mixed = f1 * inner.mixed.transpose(1, 2, 0) + b * ((xx + yy) + 1j * (xy - xy.transpose(1, 0, 2)))
    pure = f1 * inner.pure.transpose(1, 2, 0) + b * ((xx - yy) - 1j * (xy + xy.transpose(1, 0, 2)))
    return Jet(f0, (f1 * inner.grad.T).T, mixed.transpose(2, 0, 1), pure.transpose(2, 0, 1))


class Sphere(SurfaceSpec, family="sphere"):
    """|z - z0|^2 = R^2 in C^{n+1}; n defaults to the one the center's length gives, else 1."""

    def __init__(self, R: float, center=None, n: int | None = None):
        if n is None:
            n = 1 if center is None else len(center) // 2 - 1
        self.n = _dimension(n)
        self.radius = positive_length("R", R)
        self.center = _center_array(center, self.m)
        self.star_center = self.center
        self.scale = self.radius
        self.poly = _diagonal_quadratic(np.ones(self.m), -self.radius**2, self.center)
        _validate_star_family(self)

    def keys(self):
        return {"R": self.radius, "center": self.center}


class Ellipsoid(SurfaceSpec, family="ellipsoid"):
    """Axis-aligned real ellipsoid, one semi-axis per real coordinate."""

    def __init__(self, axes, center=None):
        self.axes = a = _axes_array(axes)
        self.n = len(a) // 2 - 1
        self.center = _center_array(center, self.m)
        self.star_center = self.center
        self.scale = float(np.max(a))
        self.poly = _diagonal_quadratic((1.0 / a) ** 2, -1.0, self.center)
        _validate_star_family(self)


class PerturbedQuadric(SurfaceSpec, family="quadric"):
    """-c + |z|^2/(n+1) plus the real part of a holomorphic polynomial.

    The perturbation is pluriharmonic, so the complex Hessian of f is exactly
    I/(n+1) everywhere regardless of the perturbation coefficients. Holomorphic
    exponents must have total degree >= 2 so the perturbation vanishes to
    second order at the origin.
    """

    def __init__(self, n: int, c: float = 1.0, hterms: dict | None = None):
        self.n = _dimension(n)
        self.c = positive_length("c", c)
        terms = {}
        for exps, coeff in (hterms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.n + 1 or any(e < 0 for e in exps):
                raise ValueError(f"bad holomorphic exponent vector {exps}")
            if sum(exps) < 2:
                raise ValueError(f"perturbation monomial {exps} must have degree >= 2")
            coeff = _finite_coefficient(exps, coeff)
            if coeff != 0:
                terms[exps] = coeff
        self.hterms = dict(sorted(terms.items()))
        self.star_center = np.zeros(self.m)
        self.scale = math.sqrt(self.c * (self.n + 1))
        w = self.n + 1
        zzbar = {(0,) * (2 * w): -self.c}
        zzbar.update({tuple(int(i % w == k) for i in range(2 * w)): 1.0 / w for k in range(w)})  # |z_k|^2
        zzbar.update({exps + (0,) * w: coeff for exps, coeff in self.hterms.items()})
        self.poly = RealPolynomial.from_zzbar(self.n, zzbar)
        _validate_star_family(self)


class Cylinder(SurfaceSpec, family="cylinder"):
    """Unbounded model surfaces in C^2; no star center, pointwise use only.

    kind='flat' is |z1|^2 = R^2 (zero Levi curvature); kind='curved' is
    |z1|^2 + (Re z2)^2 = R^2, a round cylinder over S^2 in R^4.
    """

    def __init__(self, R: float, kind: str = "flat"):
        if kind not in ("flat", "curved"):
            raise ValueError(f"kind must be 'flat' or 'curved', got {kind!r}")
        self.n = 1
        self.radius = positive_length("R", R)
        self.kind = kind
        self.star_center = None
        self.scale = self.radius
        self.poly = _diagonal_quadratic([1.0, 1.0, float(kind == "curved"), 0.0], -self.radius**2)

    def keys(self):
        return {"kind": self.kind, "R": self.radius}


class ReinhardtSurface(SurfaceSpec, family="reinhardt"):
    """Rotation-invariant surface |z1|^2 = f(|z2|^2) driven by an integrated profile.

    Regular starts (fp0 omitted) integrate from s = 0 and, with the right data,
    close up into a compact star-shaped surface; band data (s0 > 0) yields an
    annular piece usable for pointwise curvature only.
    """

    phase_invariant = True  # f depends on z2 through |z2|^2 alone
    flip_group = (0, 1, 2, 3)  # and on z1 through |z1|^2: torus-invariant

    def __init__(self, k: float, f0: float, fp0: float | None = None,
                 s0: float = 0.0, smax: float | None = None):
        self.n = 1
        self.profile: ReinhardtProfile = reinhardt_profile(k, f0, fp0=fp0, s0=s0, smax=smax)
        self.k = float(k)
        self.scale = math.sqrt(max(self.profile.f0, self.profile.s_end))
        self.star_center = np.zeros(4) if self.profile.closed and self.profile.regular_start else None
        if self.star_center is not None:  # a band (s0 > 0) is undefined below s0, so has no star center
            _validate_star_family(self)

    def derivatives(self, pts):
        """r1^2 - F(s), s = |z2|^2, in closed form: gradient (2 x1, 2 y1, -2 F' x2, -2 F' y2),
        H = diag(1, -F' - F'' s), S = diag(0, -F'' zbar2^2), each value bit for bit and in the memory order
        that _chain's composition gives it (+ 0.0 turns the gradient's -0.0 into the +0.0 its sums give)."""
        x1, y1, x2, y2 = np.ascontiguousarray(pts.T)
        s = x2 * x2 + y2 * y2
        fval, fp, fpp = self.profile.eval(s)
        val = (x1 * x1 + y1 * y1) - fval
        grad = np.stack([2.0 * x1, 2.0 * y1, -fp * (2.0 * x2), -fp * (2.0 * y2)]).T + 0.0
        mixed, pure = np.zeros((2, 2, 2, len(pts)), dtype=complex)
        mixed[0, 0] = 1.0
        mixed[1, 1] = -fp - fpp * s
        pure[1, 1] = -fpp * ((x2 * x2 - y2 * y2) - 2j * (x2 * y2))
        return Jet(val, grad, mixed.transpose(2, 0, 1), pure.transpose(2, 0, 1))

    def ray(self, dirs):
        """a rho^2 - F(b rho^2) with a = d0^2 + d1^2, b = d2^2 + d3^2 and slope 2 rho (a - b F'): one
        profile evaluation per call, of F and F' only, so never the f'' polynomial."""
        a, b = dirs[:, 0] * dirs[:, 0] + dirs[:, 1] * dirs[:, 1], dirs[:, 2] * dirs[:, 2] + dirs[:, 3] * dirs[:, 3]

        def along(rho):
            r2 = rho * rho
            fval, fp = self.profile.eval(b * r2, 1)
            return a * r2 - fval, 2.0 * rho * (a - b * fp)

        return along

    def boundary_point(self, s: float, phase1: float = 0.0, phase2: float = 0.0) -> np.ndarray:
        """A point on the surface at profile parameter s and torus phases."""
        fval = self.profile.eval(float(s), 0)[0]
        if fval < 0:
            raise DomainError(f"profile is negative at s={s}; no surface point there")
        r1, r2 = math.sqrt(fval), math.sqrt(s)
        return np.array([
            r1 * math.cos(phase1), r1 * math.sin(phase1),
            r2 * math.cos(phase2), r2 * math.sin(phase2),
        ])

    def keys(self):
        p = self.profile
        band = not p.regular_start
        return {"k": self.k, "f0": p.f0, "fp0": p.fp0 if band else None, "s0": p.s_lo if band else None,
                "smax": p.s_end}


class UserPolynomial(SurfaceSpec, family="poly"):
    """Re(p) for a polynomial p in z and zbar with complex float coefficients.

    Exponent keys are tuples of length 2(n+1), z-block first. The defining
    function is the real part, so conjugate-symmetric input reproduces the
    polynomial itself and anything else is implicitly symmetrized.
    """

    def __init__(self, n: int, terms: dict, center=None, scale: float = 1.0, *, validate: bool = True):
        self.n = _dimension(n)
        width = 2 * (self.n + 1)
        clean = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != width or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for n={self.n}")
            c = _finite_coefficient(exps, c)
            if c != 0:
                clean[exps] = c
        if not clean:
            raise ValueError("polynomial has no terms")
        self.coeffs = dict(sorted(clean.items()))
        self.star_center = _center_array(center, self.m)
        self.scale = positive_length("scale", scale)
        self.poly = RealPolynomial.from_zzbar(self.n, self.coeffs).about(self.star_center)
        if validate:
            _validate_star_family(self)

    def keys(self):
        return {"n": self.n, "terms": self.coeffs, "scale": None if self.scale == 1.0 else self.scale,
                "center": self.star_center if np.any(self.star_center) else None}


class ExpReparam(SurfaceSpec):
    """exp(f) - 1 for a base family: same zero set and inside, different jets, and the base's ray."""

    def __init__(self, base: SurfaceSpec):
        self.base = base
        self.n = base.n
        self.star_center = base.star_center
        self.scale = base.scale

    def derivatives(self, pts):
        f = self.base.derivatives(pts)
        e = np.exp(f.val)
        return _chain(f, e - 1.0, e, e)

    phase_invariant = property(lambda self: self.base.phase_invariant)  # the base's: exp(f) - 1 has f's symmetries
    flip_group = property(lambda self: self.base.flip_group)

    def ray(self, dirs):
        """The base family's ray: e^p - 1 and p cross each ray at the same rho with the same sign, and their
        slopes there differ by the factor e^p = 1 + O(rounding), so a quadratic base's roots come by formula."""
        return self.base.ray(dirs)

    def canonical(self):
        return f"exp({self.base.canonical()})"


class DirichletQuadratic(SurfaceSpec, family="dirichlet"):
    """Quadratic with unit-trace mixed Hessian vanishing on an axis ellipsoid.

    f(x) = (sum x_k^2 / a_k^2 - 1) * 2 / sum(1/a_k^2). The full Laplacian is 4,
    so the mixed complex Hessian has trace exactly 1; it is constant and
    diagonal, with entry k pairing the two real semi-axes of z_k.
    """

    def __init__(self, axes):
        self.axes = a = _axes_array(axes)
        self.n = len(a) // 2 - 1
        self.cfactor = 2.0 / float(np.sum(1.0 / a**2))
        self.star_center = np.zeros(self.m)
        self.scale = float(np.max(a))
        self.poly = _diagonal_quadratic(self.cfactor * (1.0 / a) ** 2, -self.cfactor)

    def hessian_diagonal(self) -> np.ndarray:
        """The constant diagonal of the mixed complex Hessian."""
        inv2 = 1.0 / self.axes**2
        return self.cfactor / 2.0 * (inv2[0::2] + inv2[1::2])


# -- evaluation ----------------------------------------------------------------


def _check_points(pts, m: int) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != m:
        raise ValueError(f"points must have shape (B, {m}), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite coordinates")
    return pts


def eval_jets(spec: SurfaceSpec, pts) -> Jet:
    """Value, real gradient, H and S of the defining function at points (B, m)."""
    return spec.derivatives(_check_points(pts, spec.m))


def eval_mixed(spec: SurfaceSpec, pts) -> np.ndarray:
    """H alone at points (B, m): a quadratic's constant H as a broadcast view, else the jets' H."""
    pts = _check_points(pts, spec.m)
    constant = spec.poly.constant_hessians(len(pts)) if hasattr(spec, "poly") else None
    return spec.derivatives(pts).mixed if constant is None else constant[0]


def eval_values(spec: SurfaceSpec, pts) -> np.ndarray:
    """Values of the defining function at points (B, m): the point-evaluation reference."""
    return spec.derivatives(_check_points(pts, spec.m)).val


def eval_ray(spec: SurfaceSpec, center: np.ndarray, dirs: np.ndarray, rho: np.ndarray) -> Jet:
    """Value and slope along rays center + rho * dir by point evaluation, as a width-1 Jet:
    the reference for a family's ray. grad[:, 0] is the directional derivative <grad f, dir>;
    mixed and pure are None.
    """
    dirs = np.asarray(dirs, dtype=float)
    pts = np.asarray(center, dtype=float)[None, :] + np.asarray(rho, dtype=float)[:, None] * dirs
    d = spec.derivatives(pts)
    return Jet(d.val, np.einsum("bi,bi->b", d.grad, dirs)[:, None], None, None)


# -- radial roots ---------------------------------------------------------------


def swept_family(spec: SurfaceSpec) -> SurfaceSpec:
    """The family whose ray radial_roots sweeps for spec: an ExpReparam's innermost base, else spec."""
    while isinstance(spec, ExpReparam):
        spec = spec.base
    return spec


def radial_roots(spec: SurfaceSpec, dirs) -> tuple[np.ndarray, np.ndarray]:
    """Boundary crossings along rays from the star center, vectorized.

    Returns (rho, slope) with f(center + rho * dir) = 0 to ROOT_ABS_TOL and
    slope = <grad f, dir> > 0 at each root (to rounding: see SurfaceSpec.ray), dir
    the unit direction of a row of dirs; a zero or non-finite row is a ValueError.
    Every ray evaluation reads value and slope for the whole batch from the
    family's ray(dirs), restricted to the rays once. Where the restriction is
    a0 + a1 rho + a2 rho^2 with a2 > 0 on every ray (a0 = f(center) < 0), the
    root comes by formula and one Newton step. Otherwise safeguarded Newton,
    started at the false-position point, runs inside a bracket obtained by
    doubling; failure to bracket within the configured search radius means the
    domain is not star-shaped about the center.
    """
    if spec.star_center is None:
        raise StarShapeError(f"{type(spec).__name__} declares no star center")
    center = spec.star_center
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    norms = np.sqrt(sum(d * d for d in dirs.T))  # a column sum: np.linalg.norm reduces short rows slowly
    bad = ~(np.isfinite(norms) & (norms > 0))  # checked before normalising: 0/0 would only warn
    if np.any(bad):
        raise ValueError(f"direction {dirs[np.argmax(bad)].tolist()} is zero or not finite")
    if np.any(np.abs(norms - 1.0) > 1e-9):
        dirs = dirs / norms[:, None]

    along = spec.ray(dirs)  # every evaluation takes every ray: a stopped ray's rho, f and slope stay put
    a = along.args[0] if getattr(along, "func", None) is horner else None  # a polynomial family's coefficients
    fc = float(a[0, 0] if a is not None else eval_values(swept_family(spec), center[None, :])[0])  # the swept f(center)
    if fc >= 0:
        raise StarShapeError(f"defining function is nonnegative ({fc!r}) at the star center")

    if a is not None and len(a) == 3 and np.all(a[2] > 0):
        # a0 < 0 < a2: the discriminant exceeds a1^2, and each form divides by a positive number
        s = np.sqrt(a[1] * a[1] - 4.0 * a[0] * a[2])
        rho = np.where(a[1] >= 0, -2.0 * a[0] / (a[1] + s), (s - a[1]) / (2.0 * a[2]))
        g, gp = along(rho)
        rho = rho - g / gp  # one Newton step; the slope at the root is s > 0
        g, gp = along(rho)
    else:
        rho, g, gp = _bracketed_newton(along, fc, spec.scale, dirs)

    # a ray stops at the rho of its last evaluation, where g and gp hold f and the returned slope
    if np.any(gp <= 0):
        idx = int(np.argmin(gp))
        raise TransversalityError(
            f"<grad f, direction> = {float(gp[idx])!r} <= 0 at the root along {dirs[idx].tolist()}"
        )
    bad = np.abs(g) > ROOT_ABS_TOL * np.maximum(1.0, np.abs(gp) * rho)
    if np.any(bad):
        idx = int(np.argmax(np.abs(g)))
        raise StarShapeError(f"residual {float(g[idx])!r} at radial root along {dirs[idx].tolist()}")
    return rho, gp


def _bracketed_newton(along, fc: float, scale: float, dirs: np.ndarray):
    """(rho, f, df/drho) at the last evaluation of safeguarded Newton inside a doubling bracket."""
    b = dirs.shape[0]
    max_radius = MAX_RADIUS_FACTOR * scale
    lo = np.zeros(b)
    hi = np.full(b, scale)
    flo = np.full(b, fc)
    for _ in range(64):
        fhi = along(hi)[0]
        neg = fhi <= 0
        if not np.any(neg):
            break
        lo = np.where(neg, hi, lo)
        flo = np.where(neg, fhi, flo)
        hi = np.where(neg, hi * 2.0, hi)
        if np.any(hi > max_radius):
            idx = int(np.argmax(hi))
            raise StarShapeError(
                f"no boundary crossing within radius {max_radius:g} along direction {dirs[idx].tolist()}"
            )
    else:
        raise StarShapeError("bracketing did not terminate")

    # false-position start: on a convex ray whose root lies at the bracket's edge (a sphere
    # whose radius is the family scale), Newton from the midpoint lands past hi every step
    rho = lo + (hi - lo) * flo / (flo - fhi)
    active = np.ones(b, dtype=bool)
    for _ in range(200):
        g, gp = along(rho)
        pos = g > 0
        hi = np.where(active & pos, rho, hi)
        lo = np.where(active & ~pos, rho, lo)
        # converge two orders below the acceptance threshold checked afterwards
        tol = 0.01 * ROOT_ABS_TOL * np.maximum(1.0, np.abs(gp) * rho)
        active &= (np.abs(g) > tol) & (hi - lo > 1e-17 * np.maximum(1.0, rho))
        if not np.any(active):
            return rho, g, gp
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = rho - g / gp
        ok = active & np.isfinite(newton) & (newton > lo) & (newton < hi)
        rho = np.where(ok, newton, np.where(active, 0.5 * (lo + hi), rho))
    worst = int(np.argmax(np.abs(g)))
    raise StarShapeError(f"radial root failed to converge along direction {dirs[worst].tolist()}")


# -- construction-time validation ----------------------------------------------


def _coarse_directions(m: int) -> np.ndarray:
    """The 2m signed axes e_1, -e_1, ..., e_m, -e_m and the diagonals +-(1, ..., 1) / sqrt(m): O(m) rays."""
    diagonal = np.full((1, m), 1.0) / math.sqrt(m)
    return np.concatenate([np.stack([np.eye(m), -np.eye(m)], axis=1).reshape(2 * m, m), diagonal, -diagonal])


def _validate_star_family(spec: SurfaceSpec) -> None:
    dirs = _coarse_directions(spec.m)
    rho, _ = radial_roots(spec, dirs)
    pts = spec.star_center[None, :] + rho[:, None] * dirs
    j = eval_jets(spec, pts)
    if np.any(np.abs(j.val) > BOUNDARY_VALUE_TOL * max(1.0, spec.scale**2)):
        raise StarShapeError(f"boundary residual {np.max(np.abs(j.val)):.3e} too large at validation points")
    gn = np.sqrt(sum(g * g for g in j.grad.T))  # the column sum of FrameBatch.at_points and radial_roots
    if np.any(gn <= GRADIENT_FLOOR):
        raise DegenerateGradientError(
            f"gradient norm {np.min(gn):.3e} at a validation boundary point"
        )
