"""Surface, volume, and bulk integration over star-shaped domains in R^{2n+2}.

Everything is parametrized radially over the unit sphere: a boundary point is
center + rho(omega) * omega, the surface measure is

    d sigma = rho^{m-1} * |grad f| / <grad f, omega> d omega      (m = 2n+2),

volume is the integral of rho^m / m, and bulk integrals layer Gauss nodes
along each ray. Directions come from one spherical product rule (Gauss-Gegenbauer
in the polar cosines, computed here in numpy; trapezoid in the azimuth), with the
error estimate |I(order) - I(order - 4)|. No quadrature path imports scipy.

All passes share one core: `_nodes(spec, q, order)` gives a pass's center,
directions, weights and cached radial roots, and maps a function over its
chunks; `_integral(spec, q, node_values)` reduces k per-node integrands and
attaches their error estimates. The boundary has one pass, reached through
`surface_integral` (a field or a tuple of fields, plus an optional scan) and
`scan_boundary`: each chunk builds one FrameBatch per order, every integrand
and the scan read it, and it is dropped before the next chunk. A suite asks
for all its boundary quantities in one call.

Reproducibility contract: node order is fixed, nodes are processed in fixed
chunks whose partial sums are combined with compensated summation in fixed
order, and the optional thread pool (LEVILAB_THREADS) only distributes whole
chunks, so results are bitwise identical across runs and worker counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .curvature import FrameBatch
from .errors import StarShapeError
from .surfaces import SurfaceSpec, radial_roots

CHUNK = 8192  # fixed, independent of worker count; part of the determinism contract
_ERROR_ORDER_DROP = 4


@dataclass(frozen=True)
class QuadratureSpec:
    """The spherical product rule at a given order, with an optional radial order."""

    order: int = 24                # Gauss-Gegenbauer points per polar angle; 2*order trapezoid points in the azimuth
    radial_order: int | None = None  # Gauss points along each ray (default: order)

    def __post_init__(self):
        if self.order < 3:  # order 2 is its own error-estimate rule
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
    method: str

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
    """p_K(x), p_K'(x) and sum_{k<K} p_k(x)^2 for b_{k+1} p_{k+1} = x p_k - b_k p_{k-1}, p_0 = 1, K = len(b)."""
    p_prev, p, d_prev, d, ssq = np.zeros_like(x), np.ones_like(x), np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    for b_prev, bk in zip((0.0, *b[:-1]), b):
        ssq += p * p
        p_prev, p, d_prev, d = p, (x * p - b_prev * p_prev) / bk, d, (p + x * d - b_prev * d_prev) / bk
    return p, d, ssq


def _gegenbauer_rule(order: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight (1 - x^2)^beta on [-1, 1] (Golub & Welsch, Math. Comp. 23, 1969): eigenvalues
    of the Jacobi matrix of the orthonormal recurrence, one Newton step on it, and the Christoffel weights
    mu_0 / sum_k p_k(x)^2. Nodes ascend; nodes and weights are exactly symmetric about 0."""
    k = np.arange(1.0, order + 1)
    b = np.sqrt(k * (k + 2 * beta) / ((2 * k + 2 * beta - 1) * (2 * k + 2 * beta + 1)))
    x = np.linalg.eigvalsh(np.diag(b[:-1], 1) + np.diag(b[:-1], -1))
    x = x - np.divide(*_recurrence(x, b)[:2])
    x = (x - x[::-1]) / 2
    w = math.sqrt(math.pi) * math.gamma(beta + 1) / math.gamma(beta + 1.5) / _recurrence(x, b)[2]
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
    angle_nodes = []
    angle_wts = []
    for i in range(m - 2):
        beta = (m - 2 - i - 1) / 2.0  # weight (1 - x^2)^beta from sin^{m-2-i}
        x, w = _gegenbauer_rule(order, beta)
        angle_nodes.append(x)
        angle_wts.append(w)
    naz = _AZIMUTH_FACTOR * order
    angle_nodes.append((np.arange(naz) + 0.5) * 2 * np.pi / naz)
    angle_wts.append(np.full(naz, 2 * np.pi / naz))
    grids = np.meshgrid(*angle_nodes, indexing="ij")
    wgrids = np.meshgrid(*angle_wts, indexing="ij")
    b = grids[0].size
    dirs = np.empty((b, m))
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


def worker_threads() -> int:
    """Worker threads from LEVILAB_THREADS (default 1); the only reader of that variable."""
    raw = os.environ.get("LEVILAB_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"LEVILAB_THREADS must be an integer >= 1, got {raw!r}")
    return int(raw)


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
    order: int  # angular order of the pass; the default radial order of bulk passes

    def points(self, sl: slice, r: np.ndarray) -> np.ndarray:
        out = r[:, None] * self.dirs[sl]
        out += self.center
        return out

    def map(self, fn) -> list:
        """fn(slice) over the fixed CHUNK slices of the nodes, results in node order."""
        slices = [slice(i, i + CHUNK) for i in range(0, self.dirs.shape[0], CHUNK)]
        workers = worker_threads()
        if workers == 1 or len(slices) == 1:
            return [fn(sl) for sl in slices]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, slices))


# every pass at an order reads the same roots; cache them per (surface, grid)
_ROOT_CACHE: dict = {}
_ROOT_CACHE_CAP = 16


def _nodes(spec: SurfaceSpec, q: QuadratureSpec, order: int | None = None) -> _Nodes:
    """Directions, weights and (cached) radial roots of one pass at the given order."""
    if spec.star_center is None:
        raise StarShapeError(f"{type(spec).__name__} has no star center; cannot integrate")
    center = spec.star_center
    order = q.order if order is None else order
    dirs, wts = sphere_grid(spec.m, order)
    nodes = _Nodes(center, dirs, wts, None, None, order)
    cache_key = (spec.canonical(), tuple(center.tolist()), spec.m, order)
    roots = _ROOT_CACHE.get(cache_key)
    if roots is None:
        parts = nodes.map(lambda sl: radial_roots(spec, dirs[sl], center=center))
        roots = tuple(np.concatenate([p[k] for p in parts]) for k in (0, 1))
        if len(_ROOT_CACHE) >= _ROOT_CACHE_CAP:
            _ROOT_CACHE.pop(next(iter(_ROOT_CACHE)))
        _ROOT_CACHE[cache_key] = roots
    return nodes._replace(rho=roots[0], slope=roots[1])


def _integral(spec: SurfaceSpec, q: QuadratureSpec, node_values, order: int | None = None):
    """Weighted sums of k per-node integrands with their error estimates.

    node_values(nodes, main) returns a function of a chunk's slice giving the
    k integrands and, at the main order, per-node scan outputs (else None).
    Each integrand has its own per-chunk np.dot and Neumaier sum and the error
    estimate |value(order) - value(order-4)| of the order that ran (no re-pass
    when k = 0). Returns the results, the scan outputs in node order, the weights.
    """

    def run(order, main):
        nodes = _nodes(spec, q, order)
        at = node_values(nodes, main)

        def job(sl):
            vals, out = at(sl)
            return [float(np.dot(v, nodes.wts[sl])) for v in vals], out

        sums, outs = zip(*nodes.map(job))
        return [_neumaier(s) for s in zip(*sums)], outs, nodes.wts

    values, outs, wts = run(order, True)
    lower = run(max(2, (order or q.order) - _ERROR_ORDER_DROP), False)[0] if values else []
    errs = [abs(v - w) for v, w in zip(values, lower)]
    results = tuple(IntegralResult(v, e, wts.shape[0], q.describe()) for v, e in zip(values, errs))
    scanned = None if outs[0] is None else tuple(np.concatenate(k) for k in zip(*outs))
    return results, scanned, wts


def _boundary(spec: SurfaceSpec, q: QuadratureSpec, fields: tuple, scan=None, order: int | None = None):
    """The one boundary pass: each chunk builds one FrameBatch per order. Every
    field (times the surface Jacobian) reads it, and at the main order so does
    scan. Returns the field results and the scan_boundary triple, or None."""
    m = spec.m

    def node_values(nodes, main):
        def at(sl):
            frames = FrameBatch.at_points(spec, nodes.points(sl, nodes.rho[sl]))
            jac = nodes.rho[sl] ** (m - 1) * (2.0 * frames.pgrad_norm) / nodes.slope[sl]
            vals = tuple(np.asarray(f(frames), dtype=float) * jac for f in fields)
            if not main or scan is None:
                return vals, None
            out = scan(frames)
            return vals, (*(out if isinstance(out, tuple) else (out,)), frames.points)

        return at

    results, scanned, wts = _integral(spec, q, node_values, order)
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
    return _integral(spec, q, lambda nodes, main: lambda sl: ((nodes.rho[sl] ** spec.m / spec.m,), None))[0][0]


def bulk_integral(spec: SurfaceSpec, field, q: QuadratureSpec) -> IntegralResult:
    """Integral of an interior scalar over the domain by radial layering: radial_order Gauss
    points per ray (default: the pass order). field maps points (B, m) to one value per point."""
    m = spec.m

    def node_values(nodes, main):
        rho = nodes.rho
        t, u = np.polynomial.legendre.leggauss(q.radial_order if q.radial_order is not None else nodes.order)
        t, u = (t + 1) / 2, u / 2

        def at(sl):
            acc = np.zeros(rho[sl].shape[0])
            for t_i, u_i in zip(t, u):
                r = rho[sl] * t_i
                acc += u_i * r ** (m - 1) * rho[sl] * np.asarray(field(nodes.points(sl, r)), dtype=float)
            return (acc,), None

        return at

    return _integral(spec, q, node_values)[0][0]


def scan_boundary(spec: SurfaceSpec, q: QuadratureSpec, fn, order: int | None = None):
    """Apply fn(FrameBatch) -> array or tuple of arrays over every boundary node.

    Returns the concatenated per-node outputs in fixed node order, plus the
    node weights and boundary points; used for node sweeps (extrema, defects)
    that are not integrals.
    """
    return _boundary(spec, q, (), fn, order)[1]


def scan_bulk(spec: SurfaceSpec, q: QuadratureSpec, fn, shells: int = 4):
    """Apply fn(points) over an interior sample: a few radial shells of the
    direction grid, strictly inside the boundary. Returns concatenated outputs."""
    nodes = _nodes(spec, q)
    outs = []
    for fr in (np.arange(1, shells + 1) - 0.5) / shells:
        outs.extend(nodes.map(lambda sl: np.asarray(fn(nodes.points(sl, nodes.rho[sl] * fr)))))
    return np.concatenate(outs)


def clear_root_cache() -> None:
    _ROOT_CACHE.clear()
