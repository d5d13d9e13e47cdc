"""Surface, volume, and bulk integration over star-shaped domains in R^{2n+2}.

Everything is parametrized radially over the unit sphere: a boundary point is
center + rho(omega) * omega, the surface measure is

    d sigma = rho^{m-1} * |grad f| / <grad f, omega> d omega      (m = 2n+2),

volume is the integral of rho^m / m, and bulk integrals layer Gauss nodes along
each ray. One 1-D Gauss family, _gegenbauer_rule (numpy only), gives the polar
factors of the spherical product rule (trapezoid in the azimuth), the radial
nodes of bulk passes (Gauss-Legendre) and the rows of the null rules on them
that estimate each integral's error from its own pass (_error_estimate).

All passes share one core: `_nodes(spec, q, marked)` gives the pass's center,
directions, weights and cached radial roots, and maps a function over its
chunks. The roots are cached per zero set (an ExpReparam reads its base's).
`_integral(spec, q, at, marked)` reduces the k per-node integrands that
`at(nodes, sl)` gives for each chunk and estimates their errors. The boundary
has one pass, reached through `surface_integral` (a field or a tuple of
fields, plus an optional scan) and `scan_boundary`: each chunk builds one
FrameBatch, every integrand and the scan read it, and it is dropped before the
next chunk. A suite asks for all its boundary quantities in one call, `volume`
among them, integrated per solid angle (rho^m / m). A scan returns what its
function returns, an array or a tuple of arrays, concatenated in node order; a
caller that wants the boundary points scans `fr.points`.

Orbit collapse and flip folding: a pass whose fields and scan are all marked
`invariant` (volume's integrand always is) reads functions of the geometry that
the unitary maps fixing f and the origin keep (K_j, H, |del f|, <normal, x>).
Where z_{n+1} -> e^{i theta} z_{n+1} is one (phase_invariant, about a star
center whose last pair is (0, 0)), it runs on one node per azimuth row; where
flips z_k -> -z_k are (flip_group, exact on f's terms), which reflect pair k's
polar factors or turn the azimuth by pi, on a fundamental domain of their group:
each flip of its reduced echelon basis over GF(2) keeps the lower half (x <= 0,
k < order) of its lowest pair's first factor at twice the weight, bar an odd
rule's x = 0 node. A scan gives one entry per domain node, which holds each
orbit's first node; the error estimate reads the base grid's marginals off the
domain's sums (_marginals); nodes_used counts the full product rule's nodes.

Reproducibility contract: node order is fixed, and nodes are processed one
fixed chunk after another, whose partial sums are added by the correctly
rounded `math.fsum`, so results and estimates are bitwise identical across
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
from .surfaces import SurfaceSpec, radial_roots, swept_family

CHUNK = 8192  # fixed; part of the determinism contract
_STEADY, _SAFETY = 1.5, 32.0  # _tail: a steady decay's window ratios agree to _STEADY; _SAFETY scales its extrapolation
_ROUNDING_ULPS = 8  # the estimate's floor, in ulps of the sum of |weight * value|
_BULK_SHELLS = 3  # radial shells of the interior node sample
_ORBIT_ULPS = 16  # a pass's check: roots at its rows' second nodes and flips' images agree with its own to 16 ulps


@dataclass(frozen=True)
class QuadratureSpec:
    """The spherical product rule at a given order; a bulk pass puts order Gauss points on each ray."""

    order: int = 24  # Gauss-Gegenbauer points per polar angle; 2*order trapezoid points in the azimuth

    def __post_init__(self):
        if self.order < 3:  # below 3 a polar factor's error estimate reads one coefficient, zero when even
            raise ValueError(f"order must be >= 3, got {self.order}")

    def describe(self) -> str:
        return f"gauss:order={self.order}"


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


@lru_cache(maxsize=64)
def _gegenbauer_rule(order: int, beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss rule for the weight (1 - x^2)^beta on [-1, 1] (Golub & Welsch, Math. Comp. 23, 1969): eigenvalues
    of the Jacobi matrix of the orthonormal recurrence, one Newton step on it, and the Christoffel weights
    mu_0 / sum_k p_k(x)^2. Nodes ascend; nodes and weights are exactly symmetric about 0. Also gives the rows
    p_k(x), k < order, that a null rule on the nodes reads. Cached and read-only: every caller gets these arrays."""
    k = np.arange(1.0, order + 1)
    b = np.sqrt(k * (k + 2 * beta) / ((2 * k + 2 * beta - 1) * (2 * k + 2 * beta + 1)))  # recurrence's b_1 .. b_order
    x = np.linalg.eigvalsh(np.diag(b[:-1], 1) + np.diag(b[:-1], -1))
    x = x - np.divide(*_recurrence(x, b)[:2])
    x = (x - x[::-1]) / 2
    rows = _recurrence(x, b)[2]
    w = math.sqrt(math.pi) * math.gamma(beta + 1) / math.gamma(beta + 1.5) / sum(p * p for p in rows)
    rule = x, (w + w[::-1]) / 2, rows
    for a in rule:
        a.setflags(write=False)
    return rule


@lru_cache(maxsize=32)
def sphere_grid(m: int, order: int, node: int | None = None, halves: tuple = ()) -> tuple[np.ndarray, np.ndarray]:
    """Product quadrature directions and weights on the unit sphere of R^m.

    Each polar angle is handled in x = cos(theta) by the Gauss-Gegenbauer rule
    whose weight absorbs the sin^{m-2-i} surface factor exactly; the periodic
    azimuth uses the trapezoid rule with 2*order points (exact for trig
    polynomials of degree < 2*order). The product is exact for all spherical
    polynomials of degree <= 2*order - 1, which plain Gauss-Legendre in the
    angles is not; nodes are enumerated lexicographically and never reordered.
    With node=k only azimuth node k of each row is built, weighted 2 pi; each
    factor in halves (m - 2: the azimuth) keeps its lower half, as _nodes folds.
    """
    rules = [_gegenbauer_rule(order, (m - 3 - i) / 2.0)[:2] for i in range(m - 2)]  # (1 - x^2)^beta from sin^{m-2-i}
    naz = _AZIMUTH_FACTOR * order
    az = ((np.arange(naz) if node is None else np.array([node])) + 0.5) * 2 * np.pi / naz
    rules.append((az, np.full(len(az), 2 * np.pi / len(az))))
    for i in halves:
        x, w = (a[:(len(a) + 1) // 2] for a in rules[i])
        rules[i] = x, np.where(x == 0, 1, 2) * w
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


def grid_nodes(m: int, order: int) -> int:
    """Nodes of the full product rule at order on the unit sphere of R^m: what nodes_used counts."""
    return _AZIMUTH_FACTOR * order ** (m - 1)


class _Nodes(NamedTuple):
    """One pass's node set: rays center + t * rho * dirs, t in [0, 1], on the domain of the flips it folds."""

    center: np.ndarray
    dirs: np.ndarray
    wts: np.ndarray
    rho: np.ndarray
    slope: np.ndarray
    flips: tuple = ()
    halves: tuple = ()  # the factor that each flip halves: the first of its lowest pair's (pair n's is the azimuth)

    def points(self, sl: slice, r: np.ndarray) -> np.ndarray:
        """center + r * dirs[sl], (B, m) in the coordinate-major memory of the directions."""
        return np.multiply(r, self.dirs[sl].T).T + self.center

    def map(self, fn) -> list:
        """fn(slice) over the fixed CHUNK slices of the nodes, results in node order."""
        return [fn(slice(i, i + CHUNK)) for i in range(0, len(self.dirs), CHUNK)]

    def cone(self, sl: slice) -> np.ndarray:
        """rho^m / m on the rays of sl: the enclosed volume per solid angle, volume's integrand."""
        return self.rho[sl] ** self.dirs.shape[1] / self.dirs.shape[1]


def _joined(parts: list):
    """Per-chunk outputs in node order, keeping their structure: a tuple of arrays gives a tuple of concatenations."""
    return tuple(map(np.concatenate, zip(*parts))) if isinstance(parts[0], tuple) else np.concatenate(parts)


# swept family (an ExpReparam's innermost base, whose roots its reparametrisations share bit for bit) -> {(order,
# collapsed, flips): (rho, slope)}: every pass over one zero set on one node set reads the same roots, dropped with it
_ROOT_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def invariant(fn):
    """Mark fn as keeping the field contract (module docstring), so that a pass reading only marked fns may fold."""
    fn.orbit_invariant = True
    return fn


def _nodes(spec: SurfaceSpec, q: QuadratureSpec, marked: bool = False) -> _Nodes:
    """Directions, weights and (cached) radial roots of the pass at q.order: for marked integrands one node per
    azimuth row where the rows are orbits that fix the origin, on the domain of the flips (module docstring), else
    the full grid. It also solves each row's second node and each flip's image, and raises unless they agree."""
    if spec.star_center is None:
        raise StarShapeError(f"{type(spec).__name__} has no star center; cannot integrate")
    swept, m = swept_family(spec), spec.m
    rows = marked and swept.phase_invariant and not np.any(spec.star_center[-2:])
    pivots = sum({g & -g for g in swept.flip_group})  # the group's elements' lowest pairs
    # its reduced echelon basis: per pivot, the one flip holding no other pivot, bar the flip of z_{n+1} on rows
    flips = tuple(g for g in swept.flip_group if marked and g & pivots == g & -g and g not in (0, rows << spec.n))
    halves = tuple(2 * ((g & -g).bit_length() - 1) for g in flips)
    # the full grid under its two-argument cache key, which set-up and the public callers share: one copy of it
    dirs, wts = sphere_grid(m, q.order, 0 if rows else None, halves) if rows or flips else sphere_grid(m, q.order)
    nodes = _Nodes(spec.star_center, dirs, wts, None, None, flips, halves)

    def solve(d):  # the roots along the rays d, one radial_roots call per CHUNK slice
        parts = [radial_roots(swept, d[i:i + CHUNK]) for i in range(0, len(d), CHUNK)]
        return tuple(np.concatenate([p[k] for p in parts]) for k in (0, 1))

    cached = _ROOT_CACHE.setdefault(swept, {})
    if (q.order, rows, flips) not in cached:
        rho, slope = solve(dirs)
        if rows or flips:  # each row's second node and each flip's image, coordinate-major as the grids are
            images = np.empty((m, rows + len(flips), len(dirs)))
            if rows:
                images[:, 0] = sphere_grid(m, q.order, 1, halves)[0].T
            signs = 1 - 2 * (np.array(flips, dtype=int)[:, None] >> np.arange(m) // 2 & 1)  # -1 on each flipped pair
            np.multiply(dirs.T[:, None], signs.T[:, :, None], out=images[:, rows:])
            off = np.abs(solve(images.reshape(m, -1).T)[0].reshape(-1, len(rho)) - rho)
            if np.any(off > _ORBIT_ULPS * np.finfo(float).eps * rho):
                raise ValueError(f"{type(swept).__name__}: the roots at a claimed symmetry's image (an azimuth row's "
                                 f"second node or a flip's) differ by {np.max(off):.3e}")
        cached[q.order, rows, flips] = rho, slope
    rho, slope = cached[q.order, rows, flips]
    return nodes._replace(rho=rho, slope=slope)


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


def _marginals(polar: np.ndarray, az: np.ndarray, order: int, flips: tuple) -> list:
    """Each factor's marginals (k, nodes) of k integrals on the base grid, from their weighted values on the domain of
    flips summed along each azimuth row, polar (k, *domain's polar factors), and over the rows, az. A factor a flip
    moves is zero-padded if halved and symmetrized, half of each share to the mirror node (reversed, or turned by order
    on the azimuth); the field contract makes the share of a pivot's x = 0 slice, kept whole, symmetric already."""
    out = [polar.sum(tuple(i for i in range(1, polar.ndim) if i != d)) for d in range(1, polar.ndim)] + [az]
    for d, u in enumerate(out):
        if any(g >> d // 2 & 1 for g in flips):
            x = np.concatenate((u, np.zeros((len(u), order * (1 + (u is az)) - u.shape[1]))), 1)
            out[d] = (x + (np.roll(x, order, 1) if u is az else x[:, ::-1])) / 2
    return out


def _error_estimate(polar: np.ndarray, az: np.ndarray, total: np.ndarray, order: int, flips: tuple) -> list:
    """Errors of the product rule for k integrals from their sums on the domain of flips (_marginals; total, sum |w v|
    of each), by null rules on its own nodes (Berntsen & Espelid, ACM TOMS 17, 1991) on each factor's marginal: a
    polar factor's orthonormal Gegenbauer coefficients; the azimuth's Fourier modes below order, counted twice as
    +-2*order alias onto 0 (mode order vanishes at the half-offset nodes), plus _ROUNDING_ULPS ulps of total."""
    *factors, az = _marginals(polar, az, order, flips)
    return [sum(_tail(_gegenbauer_rule(order, (len(factors) - 1 - d) / 2.0)[2] @ u[i]) for d, u in enumerate(factors))
            + 2 * _tail(np.fft.rfft(az[i])[:order]) + _ROUNDING_ULPS * math.ulp(1.0) * t for i, t in enumerate(total)]


def _integral(spec: SurfaceSpec, q: QuadratureSpec, at, marked: bool):
    """Results of k per-node integrands and the scan outputs in chunk order (or None), from one pass: at(nodes, sl)
    gives a chunk's k integrands and scan outputs (a tuple of arrays, or None). Each integrand's chunk sums come from
    np.dot and add by math.fsum; _error_estimate reads its sums per domain row, per azimuth node and of |w v|."""
    nodes, order = _nodes(spec, q, marked), q.order
    shape = [order - order // 2 if i in nodes.halves else order for i in range(spec.m - 2)]  # the domain's polar nodes
    naz = len(nodes.wts) // math.prod(shape)
    w, ones = nodes.wts[::naz], np.ones(naz)  # a node's weight is its row's: the azimuth weights are all equal
    sums = []  # (k, ...) each: the sums of v per domain row, of w v per azimuth node, of |w v|

    def job(sl):
        (vals, out), wts, (first, lead) = at(nodes, sl), nodes.wts[sl], divmod(sl.start, naz)
        span = -(-(lead + len(wts)) // naz)  # the rows that the chunk reaches into, zero-padded to whole rows
        sums[:] = sums or [np.zeros((len(vals), size)) for size in (len(w), naz, 1)]
        for i, v in enumerate(vals):
            grid = (np.concatenate((np.zeros(lead), v, np.zeros(span * naz - lead - len(v)))) if lead or
                    span * naz > len(v) else v).reshape(span, naz)
            sums[0][i, first:first + span] += np.dot(grid, ones)
            sums[1][i] += np.dot(w[first:first + span], grid)
            sums[2][i] += np.dot(np.abs(v), wts)
        return [float(np.dot(v, wts)) for v in vals], out

    dots, outs = zip(*nodes.map(job))
    estimates = _error_estimate((sums[0] * w).reshape(-1, *shape), sums[1], sums[2][:, 0], order, nodes.flips)
    results = tuple(IntegralResult(math.fsum(s), e, grid_nodes(spec.m, order)) for s, e in zip(zip(*dots), estimates))
    return results, None if outs[0] is None else _joined(outs)


def surface_integral(spec: SurfaceSpec, field, q: QuadratureSpec, scan=None):
    """Integral of a boundary scalar over the surface; field maps a FrameBatch to one value per point.

    The one boundary pass: each chunk builds one FrameBatch, which every field (times the surface Jacobian) and
    scan read. A tuple of fields gives a tuple of IntegralResult, each equal to its single-field call; `volume`
    may be one, integrated per solid angle (nodes.cone) and equal to volume(spec, q) where every field is marked
    `invariant` (beside an unmarked one the pass reads the full grid, and the volume may move in its last bits).
    With scan=fn the call returns (result, scan_boundary(spec, q, fn)), the scan read from that same pass: only
    what fn returns. Where the fields and scan are all marked `invariant`, the pass may collapse to one node per
    azimuth row and fold by flips (see the module docstring).
    """
    fields, m = field if isinstance(field, tuple) else (field,), spec.m

    def at(nodes, sl):
        frames = FrameBatch.at_points(spec, nodes.points(sl, nodes.rho[sl]))
        jac = nodes.rho[sl] ** (m - 1) * (2.0 * frames.pgrad_norm) / nodes.slope[sl]
        vals = tuple(nodes.cone(sl) if f is volume else np.asarray(f(frames), dtype=float) * jac for f in fields)
        return vals, None if scan is None else scan(frames)

    marked = all(getattr(f, "orbit_invariant", False) for f in (*fields, scan) if f is not None)
    results, scanned = _integral(spec, q, at, marked)
    result = results if isinstance(field, tuple) else results[0]
    return result if scan is None else (result, scanned)


@invariant
def volume(spec: SurfaceSpec, q: QuadratureSpec) -> IntegralResult:
    """Lebesgue measure of the enclosed domain by the radial formula, from a pass with no frames."""
    return _integral(spec, q, lambda nodes, sl: ((nodes.cone(sl),), None), True)[0][0]


def bulk_integral(spec: SurfaceSpec, field, q: QuadratureSpec) -> IntegralResult:
    """Integral of an interior scalar over the domain by radial layering: q.order Gauss-Legendre points per ray
    (_gegenbauer_rule at beta = 0), whose null rules join the error estimate. field maps points (B, m) to values;
    marked `invariant`, it may collapse and fold the pass (see the module docstring)."""
    m = spec.m
    x, w, rows = _gegenbauer_rule(q.order, 0.0)
    t, u = (x + 1) / 2, w / 2

    def at(nodes, sl):
        rho = nodes.rho[sl]
        acc, radial = np.zeros(rho.shape[0]), []  # radial: the chunk's share of each radial node's sum
        for t_i, u_i in zip(t, u):
            r = rho * t_i
            term = u_i * r ** (m - 1) * rho * np.asarray(field(nodes.points(sl, r)), dtype=float)
            acc += term
            radial.append(np.dot(term, nodes.wts[sl]))
        return (acc,), (np.array([radial]),)

    (res,), (radial,) = _integral(spec, q, at, getattr(field, "orbit_invariant", False))
    return replace(res, error_estimate=res.error_estimate + _tail(rows @ radial.sum(axis=0)))


def scan_boundary(spec: SurfaceSpec, q: QuadratureSpec, fn):
    """Apply fn(FrameBatch) -> array or tuple of arrays over every boundary node.

    Returns what fn returns, an array or a tuple (a 1-tuple too) of arrays, concatenated in fixed node order (scan
    fr.points for the boundary points), one per domain node if fn is marked and the pass folds; used
    for node sweeps (extrema, defects) that are not integrals.
    """
    return surface_integral(spec, (), q, fn)[1]


def scan_bulk(spec: SurfaceSpec, q: QuadratureSpec, fn):
    """Apply fn(points) over an interior sample: _BULK_SHELLS radial shells of the
    direction grid, strictly inside the boundary. Returns what fn returns, joined as scan_boundary joins, shell
    after shell, one per domain node and shell if fn is marked `invariant` and the pass folds."""
    nodes = _nodes(spec, q, getattr(fn, "orbit_invariant", False))
    outs = []
    for fr in (np.arange(1, _BULK_SHELLS + 1) - 0.5) / _BULK_SHELLS:
        outs.extend(nodes.map(lambda sl: fn(nodes.points(sl, nodes.rho[sl] * fr))))
    return _joined(outs)


def clear_root_cache() -> None:
    _ROOT_CACHE.clear()
