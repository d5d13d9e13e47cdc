"""Constant-curvature rotation-invariant profiles in C^2 by ODE integration.

The boundary {|z1|^2 = f(|z2|^2)} has constant Levi curvature k exactly when
f solves

    s f f'' = s f'^2 - k (f + s f'^2)^(3/2) - f f'        (s = |z2|^2 > 0).

The equation is singular at s = 0; a solution smooth across s = 0 must satisfy
f'(0) = -k sqrt(f(0)), and its whole Taylor series at 0 is forced by f(0)
alone. A profile can therefore be started two ways: regular (s0 = 0, only f(0)
free) or from arbitrary band data (s0 > 0, f and f' both free, surface defined
on the integrated band only).

The profile is "closed" when f reaches 0 transversally (f' bounded away from
zero there); then the surface is a smooth compact hypersurface. f and s f'^2
reaching 0 together is a genuine geometric singularity (the gradient of the
defining function vanishes on the cap circle) and is reported as such, never
papered over.

The integrator is the Taylor series method (Jorba & Zou, Experimental Math.
14, 2005). The equation is algebraic in s, f, f' and sqrt(u), u = f + s f'^2,
so the Taylor coefficients of f about a segment start follow one another by
Cauchy products, sqrt(u) by the square-root recurrence, in one O(N^2) pass.
Each segment keeps its polynomial, which gives f, f' and f'' anywhere on it
through polynomial.horner, the one Horner routine, which the rays share; the
step is rho / e^2, rho the radius of convergence estimated from the last
two coefficients relative to f: min over m of (|a_0| / |a_m|)^(1/m). Relative
to f, the steps shrink as f falls towards a singular cap, where a radius from
|a_m|^(-1/m) alone overshoots the singularity and the polynomial can dip below
the cap level and back inside one step. The sphere profile f0 - s is a
polynomial of degree one, so it comes out exact in a single segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularityError, StiffnessError, positive_length
from .polynomial import horner

_ORDER = 24                 # degree of each segment's Taylor polynomial
_TRANSVERSAL_SLOPE = 1e-6   # |f'| below this at f=0 counts as a singular cap
_NEWTON_ITERS = 100


def series_coeffs(k: float, f0: float) -> tuple[float, float, float, float]:
    """Taylor coefficients (f0, f1, f2, f3) of the regular solution at s = 0."""
    r = math.sqrt(f0)
    f1 = -k * r
    f2 = 0.375 * k**2 * (1.0 - k * r)
    f3 = k**3 * (17.0 * k * r - 14.0 * k**2 * f0 - 3.0) / (48.0 * r)
    return (f0, f1, f2, f3)


def ode_residual(s, f, fp, fpp, k):
    """Defect of the profile equation at given jet values (0 on exact solutions)."""
    arg = f + s * fp * fp
    return s * f * fpp - (s * fp * fp - k * arg * np.sqrt(np.maximum(arg, 0.0)) - f * fp)


@dataclass
class ReinhardtProfile:
    """Dense C^2 evaluation of an integrated profile on [s_lo, s_end]."""

    k: float
    f0: float
    fp0: float
    s_lo: float
    s_end: float
    closed: bool
    regular_start: bool
    _knots: np.ndarray = field(repr=False)  # (n + 1,) segment starts, then s_end
    _coefs: np.ndarray = field(repr=False)  # (degree + 1, n) Taylor coefficients about each start
    _cap: tuple[float, float, float] = (0.0, 0.0, 0.0)  # (f', f'', window) at s_end

    def eval(self, s, order: int = 2) -> tuple:
        """Vectorized (f, f', f'')[:order + 1] at the given s values; lower orders skip
        the f'' recurrence, and the rest is bit for bit the same.

        Tiny overshoots past s_end (root-finder roundoff) are continued with the
        endpoint Taylor quadratic; far beyond, a sign-correct linear tail keeps
        the defining function negative-inside/positive-outside for bracketing.
        Below s_lo (band profiles) the profile is undefined.
        """
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s).copy()
        slack = 1e-12 * max(1.0, self.s_end)
        if np.any(s < self.s_lo - slack):
            bad = float(s[s < self.s_lo - slack][0])
            raise DomainError(f"s={bad} below the profile validity range [{self.s_lo}, {self.s_end}]")
        np.clip(s, self.s_lo, None, out=s)
        if not self.closed:
            if np.any(s > self.s_end + slack):
                bad = float(s[s > self.s_end + slack][0])
                raise DomainError(f"s={bad} beyond the integrated band [{self.s_lo}, {self.s_end}]")
            np.clip(s, None, self.s_end, out=s)

        inside = np.minimum(s, self.s_end)
        seg = np.searchsorted(self._knots[1:-1], inside, side="right")  # interior knots: in 0 .. n - 1, no clip
        t = inside - self._knots[seg]
        out = horner(np.take(self._coefs, seg, axis=1), t, order)

        beyond = s > self.s_end
        if np.any(beyond):
            fe_p, fe_pp, w = self._cap
            ds = s[beyond] - self.s_end
            near = ds <= w
            # the endpoint quadratic, then a linear tail from the window edge with the slope there
            edge_f, edge_fp = fe_p * w + 0.5 * fe_pp * w * w, fe_p + fe_pp * w
            tail = (np.where(near, fe_p * ds + 0.5 * fe_pp * ds * ds, edge_f + edge_fp * (ds - w)),
                    np.where(near, fe_p + fe_pp * ds, edge_fp), np.where(near, fe_pp, 0.0))
            for v, x in zip(out, tail):
                v[beyond] = x
        return tuple(float(v[0]) for v in out) if scalar else out

    def residual(self, s) -> np.ndarray:
        f, fp, fpp = self.eval(s)
        return ode_residual(np.asarray(s, dtype=float), f, fp, fpp, self.k)


def _cauchy(x, y, i):
    """Degree-i coefficient of the product of the series x and y (0 for i < 0). The sum is
    correctly rounded, so the profile does not depend on how a BLAS orders a dot product;
    a sum too large for a float is nan, which stops the run like any non-finite coefficient."""
    if i < 0:
        return 0.0
    try:
        return math.fsum(x[:i + 1] * y[i::-1])
    except OverflowError:
        return math.nan


def _taylor(k, c, f, fp) -> np.ndarray:
    """Taylor coefficients a[0.._ORDER] of the profile about s = c, from f(c) and f'(c),
    or from f(0) alone at a regular start (c = 0, fp None).

    The degree-i coefficient of s f f'' - s f'^2 + k u sqrt(u) + f f' (s = c + t) is linear
    in the first coefficient of f not yet known: a[i + 2] with divisor c a0 (i + 1)(i + 2)
    when c > 0, a[i + 1] with divisor a0 (i + 1)^2 at the regular start. Each coefficient
    is that one's defect with it set to 0, divided by the divisor."""
    a, u, w = np.zeros((3, _ORDER + 2))
    n = np.arange(1.0, _ORDER + 2)
    a[0] = f
    first = 1 if fp is None else 2
    if fp is not None:
        a[1] = fp
    for i in range(_ORDER + 1 - first):
        b = n * a[1:]                  # f'
        d = n[:-1] * n[1:] * a[2:]     # f''
        sfp2 = c * _cauchy(b, b, i) + _cauchy(b, b, i - 1)
        u[i] = a[i] + sfp2
        w[i] = math.sqrt(u[0]) if i == 0 else (u[i] - _cauchy(w[1:], w[1:], i - 2)) / (2.0 * w[0])
        defect = (c * _cauchy(a, d, i) + _cauchy(a, d, i - 1) - sfp2
                  + k * _cauchy(u, w, i) + _cauchy(a, b, i))
        a[i + first] = -defect / (a[0] * ((i + 1) ** 2 if fp is None else c * (i + 1) * (i + 2)))
    return a[:_ORDER + 1]


def _falling_root(g, h):
    """The root of g in (0, h], where g falls from g(0) > 0 to g(h) <= 0: Newton's method
    from 0, with a bisection wherever a step would leave the bracket. A step onto h itself
    stays, so that a profile parsed with smax at its own root closes there."""
    lo, hi, t = 0.0, h, 0.0
    for _ in range(_NEWTON_ITERS):
        val, slope = g(t)
        if val == 0.0:
            return t
        lo, hi = (t, hi) if val > 0.0 else (lo, t)
        nxt = t - val / slope if slope < 0.0 else math.nan
        if not lo < nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= 2.0 * math.ulp(nxt):
            return nxt
        t = nxt
    raise StiffnessError(f"event location did not converge in {_NEWTON_ITERS} iterations")


def reinhardt_profile(
    k: float,
    f0: float,
    fp0: float | None = None,
    s0: float = 0.0,
    smax: float | None = None,
) -> ReinhardtProfile:
    """Integrate the profile equation segment by segment and keep each segment's polynomial.

    fp0 is None for a regular start at s0 = 0 (the slope there is forced to
    -k sqrt(f0)); band data requires s0 > 0 and an explicit fp0. Integration
    stops when f reaches 0 (closed surface if transversal), at a singular cap
    (raises), or at smax (open band).
    """
    k, f0 = positive_length("k", k), positive_length("f0", f0)
    for name, value in (("fp0", fp0), ("s0", s0), ("smax", smax)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    regular = fp0 is None
    if regular and s0 != 0.0:
        raise ValueError("regular start requires s0 = 0")
    if not regular and s0 <= 0.0:
        raise ValueError("band data requires s0 > 0")
    smax = 1e3 * max(f0, 1.0 / k**2) if smax is None else float(smax)
    if not smax > s0:
        raise ValueError(f"smax={smax} must exceed the start s={s0}")

    level = 1e-14 * f0  # f + s f'^2 falling to this level is a singular cap
    s, f, fp = float(s0), f0, fp0
    knots, coefs = [s], []
    while True:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            a = _taylor(k, s, f, fp)
        # rho from the last two coefficients relative to f, in Python floats so that no SIMD pow
        # enters the steps; exact zeros (a polynomial profile) bound nothing
        tail = [float(abs(a[0] / c)) ** (1.0 / d) for c, d in ((a[-2], _ORDER - 1), (a[-1], _ORDER)) if c]
        rho = min(tail, default=math.inf) if np.all(np.isfinite(a)) else 0.0
        h = min(rho / math.e**2, smax - s)
        if h < 10 * math.ulp(s):
            raise StiffnessError(f"profile integration broke down near s={s!r}: the graph over s turns "
                                 f"vertical (|f'| = {abs(a[1]):.3g}) and the steps fell below ten float spacings of s")
        coefs.append(a)
        fe, fe_p, fe_pp = horner(a, h, 2)

        def singular(t, a=a, s=s):
            g, gp, gpp = horner(a, t, 2)
            return g + (s + t) * gp * gp - level, gp + gp * gp + 2.0 * (s + t) * gp * gpp

        hits = []
        if fe <= 0.0:
            hits.append((_falling_root(lambda t, a=a: horner(a, t), h), 0))
        if fe + (s + h) * fe_p * fe_p - level <= 0.0:
            hits.append((_falling_root(singular, h), 1))
        if hits:
            t, event = min(hits)  # the earlier root stops the run; at a tie f = 0 closes it
            t = float(t)
            if event == 1:
                raise SingularityError(s + t)
            fe, fe_p, fe_pp = horner(a, t, 2)
            s_end = s + t
            break
        if h == smax - s:
            s_end = smax
            break
        s, f, fp = s + h, fe, fe_p
        knots.append(s)

    closed = bool(hits)
    if closed and abs(fe_p) < _TRANSVERSAL_SLOPE:
        # f and f + s f'^2 vanish together: degenerate cap
        raise SingularityError(s_end, f"profile closes non-transversally at s={s_end!r} (slope {fe_p:.2e})")
    knots.append(s_end)
    coefs = np.array(coefs).T
    return ReinhardtProfile(
        k=k,
        f0=f0,
        fp0=float(coefs[1, 0]),
        s_lo=float(s0),
        s_end=s_end,
        closed=closed,
        regular_start=regular,
        _knots=np.array(knots),
        _coefs=coefs[:max(2, np.flatnonzero(coefs.any(axis=1))[-1] + 1)],  # no trailing zero degrees
        _cap=(float(fe_p), float(fe_pp), 0.05 * max(s_end, 1.0)),
    )
