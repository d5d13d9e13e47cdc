"""Constant-curvature rotation-invariant profiles in C^2 by ODE integration.

The boundary {|z1|^2 = f(|z2|^2)} has constant Levi curvature k exactly when
f solves

    s f f'' = s f'^2 - k (f + s f'^2)^(3/2) - f f'        (s = |z2|^2 > 0).

The equation is singular at s = 0; a solution smooth across s = 0 must satisfy
f'(0) = -k sqrt(f(0)), and the first few Taylor coefficients at 0 are forced by
f(0) alone. A profile can therefore be started two ways: regular (s0 = 0,
series start, only f(0) free) or from arbitrary band data (s0 > 0, f and f'
both free, surface defined on the integrated band only).

The profile is "closed" when f reaches 0 transversally (f' bounded away from
zero there); then the surface is a smooth compact hypersurface. f and s f'^2
reaching 0 together is a genuine geometric singularity (the gradient of the
defining function vanishes on the cap circle) and is reported as such, never
papered over. scipy is imported at the first integration, not with the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularityError, StiffnessError

_SERIES_START = 1e-8        # relative offset of the first integration point
_TRANSVERSAL_SLOPE = 1e-6   # |f'| below this at f=0 counts as a singular cap
_DENOM_FLOOR = 1e-5         # switch f'' to the spline fallback when s*f is tiny


def series_coeffs(k: float, f0: float) -> tuple[float, float, float, float]:
    """Taylor coefficients (f0, f1, f2, f3) of the regular solution at s = 0."""
    r = math.sqrt(f0)
    f1 = -k * r
    f2 = 0.375 * k**2 * (1.0 - k * r)
    f3 = k**3 * (17.0 * k * r - 14.0 * k**2 * f0 - 3.0) / (48.0 * r)
    return (f0, f1, f2, f3)


def ode_rhs_fpp(s, f, fp, k):
    """f'' isolated from the profile equation; valid away from s*f = 0."""
    arg = f + s * fp * fp
    return (s * fp * fp - k * arg * np.sqrt(np.maximum(arg, 0.0)) - f * fp) / (s * f)


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
    series: tuple[float, float, float, float] | None
    _sol: object = field(repr=False)
    _fpp_fallback: object = field(repr=False)
    _s_switch: float = 0.0
    _cap: tuple[float, float, float] = (0.0, 0.0, 0.0)  # (f', f'', window) at s_end

    def eval(self, s, order: int = 2) -> tuple:
        """Vectorized (f, f', f'')[:order + 1] at the given s values; lower orders skip
        the f'' formula and its spline fallback, and the rest is bit for bit the same.

        Tiny overshoots past s_end (root-finder roundoff) are continued with the
        endpoint Taylor quadratic; far beyond, a sign-correct linear tail keeps
        the defining function negative-inside/positive-outside for bracketing.
        Below s_lo (band profiles) the profile is undefined.
        """
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s).copy()
        if np.any(s < self.s_lo - 1e-12 * max(1.0, self.s_end)):
            bad = float(s[s < self.s_lo - 1e-12 * max(1.0, self.s_end)][0])
            raise DomainError(f"s={bad} below the profile validity range [{self.s_lo}, {self.s_end}]")
        np.clip(s, self.s_lo, None, out=s)

        f, fp, fpp = np.empty((3, s.size))

        slack = 1e-12 * max(1.0, self.s_end)
        if not self.closed:
            if np.any(s > self.s_end + slack):
                bad = float(s[s > self.s_end + slack][0])
                raise DomainError(f"s={bad} beyond the integrated band [{self.s_lo}, {self.s_end}]")
            np.clip(s, None, self.s_end, out=s)
        inside = s <= self.s_end
        series_zone = inside & (s < self._s_switch) if self.regular_start else np.zeros_like(inside)
        mid = inside & ~series_zone

        if np.any(series_zone):
            c0, c1, c2, c3 = self.series
            ss = s[series_zone]
            f[series_zone] = c0 + ss * (c1 + ss * (c2 + ss * c3))
            fp[series_zone] = c1 + ss * (2 * c2 + ss * 3 * c3)
            fpp[series_zone] = 2 * c2 + 6 * c3 * ss

        if np.any(mid):
            ss = s[mid]
            y = _dense(self._sol, ss)
            f[mid], fp[mid] = y[0], y[1]
            if order == 2:
                denom = ss * y[0]
                floor = _DENOM_FLOOR * max(self.f0, self.s_end) * self.s_end
                low = denom <= floor
                raw = (ss * y[1] ** 2 - self.k * _pow32(y[0] + ss * y[1] ** 2) - y[0] * y[1]) / np.where(low, 1.0, denom)
                if np.any(low):
                    raw[low] = self._fpp_fallback(ss[low])
                fpp[mid] = raw

        beyond = ~inside
        if np.any(beyond):
            fe_p, fe_pp, w = self._cap
            ds = s[beyond] - self.s_end
            near = ds <= w
            quad_f = fe_p * ds + 0.5 * fe_pp * ds * ds
            quad_fp = fe_p + fe_pp * ds
            # linear tail continues from the window edge with the slope there
            edge_f = fe_p * w + 0.5 * fe_pp * w * w
            edge_fp = fe_p + fe_pp * w
            f[beyond] = np.where(near, quad_f, edge_f + edge_fp * (ds - w))
            fp[beyond] = np.where(near, quad_fp, edge_fp)
            fpp[beyond] = np.where(near, fe_pp, 0.0)

        out = (f, fp, fpp)[:order + 1]
        return tuple(float(v[0]) for v in out) if scalar else out

    def residual(self, s) -> np.ndarray:
        f, fp, fpp = self.eval(s)
        return ode_residual(np.asarray(s, dtype=float), f, fp, fpp, self.k)


def _dense(sol, t: np.ndarray) -> np.ndarray:
    """OdeSolution sol(t), bit for bit, with one interpolant call per segment t reaches
    and without sorting t (RK solutions choose segments with side 'left')."""
    seg = np.clip(np.searchsorted(sol.ts, t, side="left") - 1, 0, sol.n_segments - 1)
    y = np.empty((2, t.size))
    for k in np.flatnonzero(np.bincount(seg, minlength=sol.n_segments)):
        rows = np.flatnonzero(seg == k)
        y[:, rows] = sol.interpolants[k](t[rows])
    return y


def _pow32(arg):
    a = np.maximum(arg, 0.0)
    return a * np.sqrt(a)


def reinhardt_profile(
    k: float,
    f0: float,
    fp0: float | None = None,
    s0: float = 0.0,
    smax: float | None = None,
    rtol: float = 1e-11,
    atol: float = 1e-13,
) -> ReinhardtProfile:
    """Integrate the profile equation and build a dense C^2 interpolant.

    fp0 is None for a regular start at s0 = 0 (the slope there is forced to
    -k sqrt(f0)); band data requires s0 > 0 and an explicit fp0. Integration
    stops when f reaches 0 (closed surface if transversal), at a singular cap
    (raises), or at smax (open band). scipy is imported here, on first use.
    """
    from scipy.integrate import solve_ivp
    from scipy.interpolate import CubicHermiteSpline

    if k <= 0:
        raise ValueError(f"curvature parameter must be positive, got {k}")
    if f0 <= 0:
        raise ValueError(f"profile value must be positive, got f0={f0}")
    regular = fp0 is None
    if regular and s0 != 0.0:
        raise ValueError("regular start requires s0 = 0")
    if not regular and s0 <= 0.0:
        raise ValueError("band data requires s0 > 0")
    if smax is None:
        smax = 1e3 * max(f0, 1.0 / k**2)

    series = series_coeffs(k, f0) if regular else None
    if regular:
        s_switch = _SERIES_START * max(f0, 1.0 / k**2)
        c0, c1, c2, c3 = series
        y_start = [
            c0 + s_switch * (c1 + s_switch * (c2 + s_switch * c3)),
            c1 + s_switch * (2 * c2 + s_switch * 3 * c3),
        ]
        t0 = s_switch
    else:
        s_switch = s0
        y_start = [f0, fp0]
        t0 = s0

    def rhs(s, y):
        return [y[1], ode_rhs_fpp(s, y[0], y[1], k)]

    def hit_zero(s, y):
        return y[0]

    hit_zero.terminal = True
    hit_zero.direction = -1

    def hit_singular(s, y):
        return y[0] + s * y[1] ** 2 - 1e-14 * f0

    hit_singular.terminal = True
    hit_singular.direction = -1

    sol = solve_ivp(
        rhs,
        [t0, smax],
        y_start,
        method="RK45",
        rtol=rtol,
        atol=atol,
        dense_output=True,
        events=[hit_zero, hit_singular],
    )
    if sol.status == -1:
        raise StiffnessError(f"profile integration broke down near s={sol.t[-1]!r}: {sol.message}")
    if len(sol.t_events[1]):
        raise SingularityError(float(sol.t_events[1][0]))

    closed = bool(len(sol.t_events[0]))
    s_end = float(sol.t_events[0][0]) if closed else float(sol.t[-1])
    fe, fe_p = (float(v) for v in sol.sol(s_end))
    if closed and abs(fe_p) < _TRANSVERSAL_SLOPE:
        # f and f + s f'^2 vanish together: degenerate cap
        raise SingularityError(s_end, f"profile closes non-transversally at s={s_end!r} (slope {fe_p:.2e})")

    # spline fallback for f'' where the isolated formula divides by ~0 (cap region)
    grid = np.linspace(s_switch, s_end, 4001)
    yg = sol.sol(grid)
    herm = CubicHermiteSpline(grid, yg[0], yg[1])
    fpp_fallback = herm.derivative(2)

    if closed:
        fe_pp = float(fpp_fallback(s_end))
    else:
        fe_pp = float(ode_rhs_fpp(s_end, fe, fe_p, k)) if s_end * fe > 0 else 0.0
    cap = (fe_p, fe_pp, 0.05 * max(s_end, 1.0))

    return ReinhardtProfile(
        k=k,
        f0=f0,
        fp0=float(y_start[1]) if not regular else series[1],
        s_lo=0.0 if regular else s0,
        s_end=s_end,
        closed=closed,
        regular_start=regular,
        series=series,
        _sol=sol.sol,
        _fpp_fallback=fpp_fallback,
        _s_switch=s_switch,
        _cap=cap,
    )
