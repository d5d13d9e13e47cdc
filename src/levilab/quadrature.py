"""Surface, volume, and bulk integration over star-shaped domains in R^{2n+2}.

Everything is parametrized radially over the unit sphere: a boundary point is
center + rho(omega) * omega, the surface measure is

    d sigma = rho^{m-1} * |grad f| / <grad f, omega> d omega      (m = 2n+2),

volume is the integral of rho^m / m, and bulk integrals layer Gauss nodes
along each ray. Directions come from one spherical product rule (Gauss-Gegenbauer
in the polar cosines, computed here in numpy; trapezoid in the azimuth), each
integral's error estimated from its own pass (_error_estimate). No quadrature
path imports scipy.

All passes share one core: `_nodes(spec, q)` gives the pass's center,
directions, weights and cached radial roots, and maps a function over its
chunks; `_integral(spec, q, node_values)` reduces k per-node integrands and
estimates their errors. The boundary has one pass, reached through
`surface_integral` (a field or a tuple of fields, plus an optional scan) and
`scan_boundary`: each chunk builds one FrameBatch, every integrand and the scan
read it, and it is dropped before the next chunk. A suite asks for all its
boundary quantities in one call.

Reproducibility contract: node order is fixed, and nodes are processed one
fixed chunk after another, whose partial sums are combined with compensated
summation in fixed order, so results and estimates are bitwise identical across
runs at a fixed BLAS thread count: the jets of a polynomial with a wide monomial
table may take other bits at another thread count (see RealPolynomial._times).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .curvature import FrameBatch
from .errors import StarShapeError
from .surfaces import SurfaceSpec, radial_roots

CHUNK = 8192  # fixed; part of the determinism contract
_STEADY, _SAFETY = 1.5, 32.0  # _tail: a steady decay's window ratios agree to _STEADY; _SAFETY scales its extrapolation
_ROUNDING_ULPS = 8  # the estimate's floor, in ulps of the sum of |weight * value|
_BULK_SHELLS = 3  # radial shells of the interior node sample


@dataclass(frozen=True)
class QuadratureSpec:
    """The spherical product rule at a given order, with an optional radial order."""

    order: int = 24                # Gauss-Gegenbauer points per polar angle; 2*order trapezoid points in the azimuth
    radial_order: int | None = None  # Gauss points along each ray (default: order)

    def __post_init__(self):
        if self.order < 3:  # below 3 a polar factor's error estimate reads one coefficient, zero when even
            raise ValueError(f"order must be >= 3, got {self.order}")
        if self.radial_order is not None and self.radial_order < 1:
            raise ValueError(f"radial_order must be >= 1, got {self.radial_order}")

    def describe(self) -> str:
        radial = "" if self.radial_order is None else f",radial_order={self.radial_order}"
        return f"gauss:order={self.order}{radial}"


@dataclass(frozen=True)
class IntegralResult:
    """One computed integral with its self-estimated error."""

    value: float
    error_estimate: float
    nodes_used: int

    def __post_init__(self):
        if not math.isfinite(self.error_estimate) or self.error_estimate < 0:
            raise ValueError(f"bad error estimate {self.error_estimate!r}")
        if self.nodes_used <= 0:
            raise ValueError("nodes_used must be positive")


def sphere_area(m: int, radius: float = 1.0) -> float:
    """Area of the radius-R sphere in R^m."""
    return 2.0 * math.pi ** (m / 2) / math.gamma(m / 2) * radius ** (m - 1)


_AZIMUTH_FACTOR = 2  # trapezoid points per order unit; matches polar exactness degree


def _recurrence(x: np.ndarray, b: np.ndarray):
    """p_K(x), p_K'(x) and the rows p_0(x) .. p_{K-1}(x) for b_{k+1} p_{k+1} = x p_k - b_k p_{k-1}, p_0 = 1."""
    p_prev, p, d_prev, d, rows = np.zeros_like(x), np.ones_like(x), np.zeros_like(x), np.zeros_like(x), []
    for b_prev, bk in zip((0.0, *b[:-1]), b):
        rows.append(p)
        p_prev, p, d_prev, d = p, (x * p - b_prev * p_prev) / bk, d, (p + x * d - b_prev * d_prev) / bk
    return p, d, np.array(rows)


def _gegenbauer_b(order: int, beta: float) -> np.ndarray:
    """b_1 .. b_order of the orthonormal recurrence for the weight (1 - x^2)^beta."""
    k = np.arange(1.0, order + 1)
    return np.sqrt(k * (k + 2 * beta) / ((2 * k + 2 * beta - 1) * (2 * k + 2 * beta + 1)))


def _gegenbauer_rule(order: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight (1 - x^2)^beta on [-1, 1] (Golub & Welsch, Math. Comp. 23, 1969): eigenvalues
    of the Jacobi matrix of the orthonormal recurrence, one Newton step on it, and the Christoffel weights
    mu_0 / sum_k p_k(x)^2. Nodes ascend; nodes and weights are exactly symmetric about 0."""
    b = _gegenbauer_b(order, beta)
    x = np.linalg.eigvalsh(np.diag(b[:-1], 1) + np.diag(b[:-1], -1))
    x = x - np.divide(*_recurrence(x, b)[:2])
    x = (x - x[::-1]) / 2
    w = math.sqrt(math.pi) * math.gamma(beta + 1) / math.gamma(beta + 1.5) / sum(p * p for p in _recurrence(x, b)[2])
    return x, (w + w[::-1]) / 2


@lru_cache(maxsize=32)
def sphere_grid(m: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Product quadrature directions and weights on the unit sphere of R^m.

    Each polar angle is handled in x = cos(theta) by the Gauss-Gegenbauer rule
    whose weight absorbs the sin^{m-2-i} surface factor exactly; the periodic
    azimuth uses the trapezoid rule with 2*order points (exact for trig
    polynomials of degree < 2*order). The product is exact for all spherical
    polynomials of degree <= 2*order - 1, which plain Gauss-Legendre in the
    angles is not; nodes are enumerated lexicographically and never reordered.
    """
    rules = [_gegenbauer_rule(order, (m - 3 - i) / 2.0) for i in range(m - 2)]  # weight (1 - x^2)^beta from sin^{m-2-i}
    naz = _AZIMUTH_FACTOR * order
    rules.append(((np.arange(naz) + 0.5) * 2 * np.pi / naz, np.full(naz, 2 * np.pi / naz)))
    grids = np.meshgrid(*(x for x, _ in rules), indexing="ij")
    wgrids = np.meshgrid(*(w for _, w in rules), indexing="ij")
    b = grids[0].size
    dirs = np.empty((m, b)).T  # coordinate-major: each coordinate of every chunk is one contiguous row
    sin_prod = np.ones(b)
    wts = np.ones(b)
    for i in range(m - 1):
        t = grids[i].reshape(-1)
        wts = wts * wgrids[i].reshape(-1)
        if i < m - 2:
            cos_t, sin_t = t, np.sqrt(1.0 - t * t)  # t is already cos(theta_i)
        else:
            cos_t, sin_t = np.cos(t), np.sin(t)
        dirs[:, i] = sin_prod * cos_t
        sin_prod = sin_prod * sin_t
    dirs[:, m - 1] = sin_prod
    dirs.setflags(write=False)
    wts.setflags(write=False)
    return dirs, wts


# unused in src/; kept only because perfbench/spans.py wraps it by name on every traced run
def mc_directions(m: int, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform directions on the unit sphere of R^m with equal weights."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((samples, m))
    d /= np.linalg.norm(d, axis=1)[:, None]
    wts = np.full(samples, sphere_area(m) / samples)
    return d, wts


def _neumaier(values) -> float:
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


class _Nodes(NamedTuple):
    """One pass's node set: rays center + t * rho * dirs, t in [0, 1]."""

    center: np.ndarray
    dirs: np.ndarray
    wts: np.ndarray
    rho: np.ndarray
    slope: np.ndarray

    def points(self, sl: slice, r: np.ndarray) -> np.ndarray:
        """center + r * dirs[sl], (B, m) in the coordinate-major memory of the directions."""
        return np.multiply(r, self.dirs[sl].T).T + self.center

    def map(self, fn) -> list:
        """fn(slice) over the fixed CHUNK slices of the nodes, results in node order."""
        return [fn(slice(i, i + CHUNK)) for i in range(0, len(self.dirs), CHUNK)]


# every pass at an order reads the same roots: surface -> {order: (rho, slope)}, dropped with the surface
_ROOT_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _nodes(spec: SurfaceSpec, q: QuadratureSpec) -> _Nodes:
    """Directions, weights and (cached) radial roots of the pass at q.order."""
    if spec.star_center is None:
        raise StarShapeError(f"{type(spec).__name__} has no star center; cannot integrate")
    dirs, wts = sphere_grid(spec.m, q.order)
    nodes = _Nodes(spec.star_center, dirs, wts, None, None)
    cached = _ROOT_CACHE.setdefault(spec, {})
    if q.order not in cached:
        parts = nodes.map(lambda sl: radial_roots(spec, dirs[sl]))
        cached[q.order] = tuple(np.concatenate([p[k] for p in parts]) for k in (0, 1))
    rho, slope = cached[q.order]
    return nodes._replace(rho=rho, slope=slope)


@lru_cache(maxsize=64)
def _rows(order: int, beta: float) -> np.ndarray:
    """Orthonormal p_j(x_k), j < order, for the weight (1 - x^2)^beta at the nodes of _gegenbauer_rule(order, beta)."""
    rows = _recurrence(_gegenbauer_rule(order, beta)[0], _gegenbauer_b(order, beta))[2]
    rows.setflags(write=False)  # cached: every caller gets this array
    return rows


def _tail(c: np.ndarray) -> float:
    """Error of a factor rule exact to degree 2K + 1, from its discrete coefficients c_0 .. c_K. If the top three
    windows of w = 2 (one parity) or 4 degrees (an oscillating decay) fall at a steady rate, the top one is carried
    to degree 2K + 2 at their slowest rate, times _SAFETY; otherwise the top pair is the estimate as it stands."""
    a = np.abs(c[:0:-1]).tolist()
    for w in (2, 4):
        e = [max(a[i:i + w]) for i in range(0, min(len(a), 3 * w), w)]
        if len(e) == 3 and 0 < e[0] < e[1] < e[2]:
            r = [x / y for x, y in zip(e, e[1:])]
            if max(r) <= _STEADY * min(r):
                return _SAFETY * e[0] * max(r) ** ((len(a) + 2) / w)
    return max(a[:2], default=0.0)


def _error_estimate(wv: np.ndarray, m: int, order: int) -> float:
    """Error of the product rule from its weighted node values wv, by null rules on its own nodes (Berntsen &
    Espelid, ACM TOMS 17, 1991) on each factor's marginal of wv: orthonormal Gegenbauer coefficients for a polar
    factor; Fourier modes below order for the azimuth, counted twice as modes +-2*order alias onto 0 (the cosine
    of mode order vanishes at the half-offset nodes). Plus a floor of _ROUNDING_ULPS ulps of sum |wv|."""
    grid = wv.reshape(-1, 2 * order)  # rows: the polar nodes, lexicographic; columns: the azimuth
    polar = np.einsum("ij->i", grid).reshape((order,) * (m - 2))
    est = sum(_tail(_rows(order, (m - 3 - d) / 2.0) @ np.einsum(polar, [*range(m - 2)], [d])) for d in range(m - 2))
    est += 2 * _tail(np.fft.rfft(np.einsum("ij->j", grid))[:order])
    return est + _ROUNDING_ULPS * math.ulp(1.0) * float(np.sum(np.abs(wv)))


def _integral(spec: SurfaceSpec, q: QuadratureSpec, node_values):
    """Weighted sums of k per-node integrands and their error estimates, from one pass. node_values(nodes)
    returns a function of a chunk's slice giving the k integrands and the chunk's scan outputs (or None).
    Each integrand has its own per-chunk np.dot and Neumaier sum, and _error_estimate reads its weighted
    node values. Returns the results, the scan outputs concatenated in chunk order, the weights."""
    nodes = _nodes(spec, q)
    at = node_values(nodes)

    def job(sl):
        vals, out = at(sl)
        return [(float(np.dot(v, nodes.wts[sl])), v * nodes.wts[sl]) for v in vals], out

    parts, outs = zip(*nodes.map(job))
    results = tuple(IntegralResult(_neumaier(s), _error_estimate(np.concatenate(wv), spec.m, q.order), len(nodes.wts))
                    for s, wv in (zip(*p) for p in zip(*parts)))
    scanned = None if outs[0] is None else tuple(np.concatenate(k) for k in zip(*outs))
    return results, scanned, nodes.wts


def _boundary(spec: SurfaceSpec, q: QuadratureSpec, fields: tuple, scan=None):
    """The one boundary pass: each chunk builds one FrameBatch. Every field (times
    the surface Jacobian) reads it, and so does scan. Returns the field results
    and the scan_boundary triple, or None."""
    m = spec.m

    def node_values(nodes):
        def at(sl):
            frames = FrameBatch.at_points(spec, nodes.points(sl, nodes.rho[sl]))
            jac = nodes.rho[sl] ** (m - 1) * (2.0 * frames.pgrad_norm) / nodes.slope[sl]
            vals = tuple(np.asarray(f(frames), dtype=float) * jac for f in fields)
            if scan is None:
                return vals, None
            out = scan(frames)
            return vals, (*(out if isinstance(out, tuple) else (out,)), frames.points)

        return at

    results, scanned, wts = _integral(spec, q, node_values)
    if scanned is None:
        return results, None
    *outs, points = scanned
    return results, ((outs[0] if len(outs) == 1 else tuple(outs)), wts, points)


def surface_integral(spec: SurfaceSpec, field, q: QuadratureSpec, scan=None):
    """Integral of a boundary scalar over the surface; field maps a FrameBatch to one value per point.

    A tuple of fields gives a tuple of IntegralResult from one boundary pass,
    each equal to its single-field call. With scan=fn the call returns
    (result, scan_boundary(spec, q, fn)), the scan read from that same pass.
    """
    results, scanned = _boundary(spec, q, field if isinstance(field, tuple) else (field,), scan)
    result = results if isinstance(field, tuple) else results[0]
    return result if scan is None else (result, scanned)


def volume(spec: SurfaceSpec, q: QuadratureSpec) -> IntegralResult:
    """Lebesgue measure of the enclosed domain via the radial formula."""
    return _integral(spec, q, lambda nodes: lambda sl: ((nodes.rho[sl] ** spec.m / spec.m,), None))[0][0]


def bulk_integral(spec: SurfaceSpec, field, q: QuadratureSpec) -> IntegralResult:
    """Integral of an interior scalar over the domain by radial layering: radial_order Gauss points per ray
    (default: the pass order), whose null rules join the error estimate. field maps points (B, m) to values."""
    m = spec.m
    t, u = np.polynomial.legendre.leggauss(q.radial_order or q.order)
    t, u = (t + 1) / 2, u / 2

    def node_values(nodes):
        def at(sl):
            rho = nodes.rho[sl]
            acc, radial = np.zeros(rho.shape[0]), []  # radial: the chunk's share of each radial node's sum
            for t_i, u_i in zip(t, u):
                r = rho * t_i
                term = u_i * r ** (m - 1) * rho * np.asarray(field(nodes.points(sl, r)), dtype=float)
                acc += term
                radial.append(np.dot(term, nodes.wts[sl]))
            return (acc,), (np.array([radial]),)

        return at

    (res,), (radial,), _ = _integral(spec, q, node_values)
    return replace(res, error_estimate=res.error_estimate + _tail(_rows(t.size, 0.0) @ radial.sum(axis=0)))


def scan_boundary(spec: SurfaceSpec, q: QuadratureSpec, fn):
    """Apply fn(FrameBatch) -> array or tuple of arrays over every boundary node.

    Returns the concatenated per-node outputs in fixed node order, plus the
    node weights and boundary points; used for node sweeps (extrema, defects)
    that are not integrals.
    """
    return _boundary(spec, q, (), fn)[1]


def scan_bulk(spec: SurfaceSpec, q: QuadratureSpec, fn):
    """Apply fn(points) over an interior sample: _BULK_SHELLS radial shells of the
    direction grid, strictly inside the boundary. Returns concatenated outputs."""
    nodes = _nodes(spec, q)
    outs = []
    for fr in (np.arange(1, _BULK_SHELLS + 1) - 0.5) / _BULK_SHELLS:
        outs.extend(nodes.map(lambda sl: np.asarray(fn(nodes.points(sl, nodes.rho[sl] * fr)))))
    return np.concatenate(outs)


def clear_root_cache() -> None:
    _ROOT_CACHE.clear()
