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
papered over.

The integrator is Dormand-Prince 5(4) with its quartic dense output and event
location by Brent's method (Dormand & Prince, J. Comput. Appl. Math. 6, 1980;
Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6), written in numpy as
scipy's solve_ivp(method="RK45") and brentq run it, so that every profile is
bit for bit the one scipy gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularityError, StiffnessError

_SERIES_START = 1e-8        # relative offset of the first integration point
_TRANSVERSAL_SLOPE = 1e-6   # |f'| below this at f=0 counts as a singular cap
_DENOM_FLOOR = 1e-5         # switch f'' to the spline fallback when s*f is tiny
_RTOL, _ATOL = 1e-11, 1e-13  # integrator tolerances


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
    _sol: _DenseSteps = field(repr=False)
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


def _dense(sol: _DenseSteps, t) -> np.ndarray:
    """solve_ivp's dense output sol.sol(t), bit for bit: each segment t reaches is
    evaluated once, without sorting t, choosing segments with side 'left' as RK45 does."""
    t = np.asarray(t)
    seg = np.clip(np.searchsorted(sol.ts, t, side="left") - 1, 0, sol.h.size - 1)
    if t.ndim == 0:
        return _quartic(t, sol.ts[seg], sol.h[seg], sol.y_old[seg], sol.Q[seg])
    y = np.empty((2, t.size))
    for k in np.flatnonzero(np.bincount(seg, minlength=sol.h.size)):
        rows = np.flatnonzero(seg == k)  # one np.dot per segment, as scipy's: a wider product may round apart
        y[:, rows] = _quartic(t[rows], sol.ts[k], sol.h[k], sol.y_old[k], sol.Q[k])
    return y


def _pow32(arg):
    a = np.maximum(arg, 0.0)
    return a * np.sqrt(a)


def _hermite_fpp(x, f, fp):
    """f'' of the cubic Hermite interpolant of (x, f, f') as CubicHermiteSpline(x, f, f').derivative(2)
    evaluates it: 6 c0 (s - x_i) + 2 c1 on [x_i, x_{i+1}), c0 and c1 the cubic's leading coefficients
    there, the last interval closed and the end ones extended beyond the knots."""
    dx = np.diff(x)
    slope = np.diff(f) / dx
    t = (fp[:-1] + fp[1:] - 2 * slope) / dx
    c6, c2 = 6.0 * (t / dx), 2.0 * ((slope - fp[:-1]) / dx - t)

    def fpp(s):
        i = np.clip(np.searchsorted(x, s, side="right") - 1, 0, x.size - 2)
        return c2[i] + c6[i] * (s - x[i])

    return fpp


def reinhardt_profile(
    k: float,
    f0: float,
    fp0: float | None = None,
    s0: float = 0.0,
    smax: float | None = None,
) -> ReinhardtProfile:
    """Integrate the profile equation and build a dense C^2 interpolant.

    fp0 is None for a regular start at s0 = 0 (the slope there is forced to
    -k sqrt(f0)); band data requires s0 > 0 and an explicit fp0. Integration
    stops when f reaches 0 (closed surface if transversal), at a singular cap
    (raises), or at smax (open band).
    """
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
    if not smax > t0:
        raise ValueError(f"smax={smax} must exceed the start s={t0}")

    def rhs(s, y):
        return np.array([y[1], ode_rhs_fpp(s, y[0], y[1], k)])

    def hit_zero(s, y):
        return y[0]

    def hit_singular(s, y):
        return y[0] + s * y[1] ** 2 - 1e-14 * f0

    sol, failed, hit = _rk45(rhs, t0, y_start, smax, _RTOL, _ATOL, (hit_zero, hit_singular))
    if failed:
        raise StiffnessError(f"profile integration broke down near s={float(sol.ts[-1])!r}: "
                             "the step size fell below ten float spacings of s")
    if hit is not None and hit[1] == 1:
        raise SingularityError(float(hit[0]))

    closed = hit is not None
    s_end = float(hit[0]) if closed else float(sol.ts[-1])
    fe, fe_p = (float(v) for v in _dense(sol, s_end))
    if closed and abs(fe_p) < _TRANSVERSAL_SLOPE:
        # f and f + s f'^2 vanish together: degenerate cap
        raise SingularityError(s_end, f"profile closes non-transversally at s={s_end!r} (slope {fe_p:.2e})")

    # spline fallback for f'' where the isolated formula divides by ~0 (cap region)
    grid = np.linspace(s_switch, s_end, 4001)
    fpp_fallback = _hermite_fpp(grid, *_dense(sol, grid))

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
        _sol=sol,
        _fpp_fallback=fpp_fallback,
        _s_switch=s_switch,
        _cap=cap,
    )


# Dormand-Prince 5(4) with dense output and terminal events, and Brent's root finder: a
# port of scipy 1.17.1 (integrate/_ivp/rk.py, common.py, ivp.py; optimize/Zeros/brentq.c),
# Copyright (c) 2001-2002 Enthought, Inc., 2003 SciPy Developers, BSD-3-Clause licence.
# Each operation is scipy's, in scipy's order, so the rounding is scipy's too.

_EPS = np.finfo(float).eps
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10  # step-size controller
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([[0, 0, 0, 0, 0], [1/5, 0, 0, 0, 0], [3/40, 9/40, 0, 0, 0], [44/45, -56/15, 32/9, 0, 0],
               [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
               [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([  # quartic dense output, Shampine's c_6
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432], [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


@dataclass(frozen=True)
class _DenseSteps:
    """RK45 dense output: on [ts[k], ts[k + 1]] the state is y_old[k] + h[k] Q[k] (x, x^2, x^3, x^4),
    x = (t - ts[k]) / h[k]; a run stopped by an event ends at its root, inside the last step."""

    ts: np.ndarray     # (n + 1,) breakpoints
    h: np.ndarray      # (n,) step lengths
    y_old: np.ndarray  # (n, 2) states at the step starts
    Q: np.ndarray      # (n, 2, 4) K.T @ P of each step


def _quartic(t, t_old, h, y_old, Q):
    """One step's dense output at t as RkDenseOutput forms it: matrix-vector for a scalar t."""
    x = (t - t_old) / h
    if np.ndim(t) == 0:
        return h * np.dot(Q, np.cumprod(np.tile(x, 4))) + y_old
    return h * np.dot(Q, np.cumprod(np.tile(x, (4, 1)), axis=0)) + y_old[:, None]


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _rk45(fun, t0, y0, t_bound, rtol, atol, events):
    """solve_ivp(fun, (t0, t_bound), y0, method="RK45", rtol=rtol, atol=atol, dense_output=True,
    events=events) for fun returning a float array, t_bound > t0 and events all terminal and met
    falling (direction -1). Returns (steps, failed, hit): the dense output up to the stop, whether
    the step size fell below ten float spacings of t, and (root, event index) of the stopping
    event or None."""
    t = t0 = float(t0)
    t_bound = float(t_bound)
    y = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"initial state {y.tolist()} is not finite")
    rtol, f, K = max(rtol, 100 * _EPS), fun(t, y), np.empty((7, y.size))
    # the starting step for an order-4 error estimate (Hairer, Norsett & Wanner II.4)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t0)
    d2 = _rms((fun(t0 + h0, y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_bound - t0)

    g = [event(t0, y0) for event in events]
    ts, segs = [t0], []

    def steps():
        return _DenseSteps(np.array(ts), *(np.array([seg[i] for seg in segs]) for i in range(3)))

    while True:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                return steps(), True, None
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            K[-1] = f_new = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _E) * h / scale)
            if error_norm < 1:
                factor = _MAX_FACTOR if error_norm == 0 else min(_MAX_FACTOR, _SAFETY * error_norm ** (-1 / 5))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** (-1 / 5))
            rejected = True

        t_old, seg = t, (h, y, K.T.dot(_P))
        t, y, f = t_new, y_new, f_new
        g_old, g = g, [event(t, y) for event in events]
        roots = [(_brentq(lambda s, e=events[i]: e(s, _quartic(s, t_old, *seg)), t_old, t), i)
                 for i, (a, b) in enumerate(zip(g_old, g)) if a >= 0 and b <= 0]
        hit = min(roots, default=None)  # the earliest root stops the run
        ts.append(t if hit is None else hit[0])
        segs.append(seg)
        if hit is not None or t - t_bound >= 0:
            return steps(), False, hit


def _brentq(f, xpre, xcur, tol=4 * _EPS, maxiter=100):
    """A root of f between xpre and xcur, where f changes sign: scipy's brentq with
    xtol = rtol = tol, step for step. No sign change or no convergence raises."""
    xpre, xcur = float(xpre), float(xcur)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("event function has one sign at both ends of the step")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (tol + tol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect, unless inverse interpolation gives a short enough step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C divides into inf or nan, which bisects as well
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"event location did not converge in {maxiter} iterations")
