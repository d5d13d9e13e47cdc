"""The profile integrator against independent references, its exact closed profiles and its typed errors.

levilab integrates the Reinhardt profile by the Taylor series method. The
references here are scipy's solve_ivp(method="DOP853") at rtol 1e-13 on every
start, mpmath.odefun at 30 digits on one band and one regular start, and the
30-digit singular-cap roots recorded below. scipy and mpmath are imported by
the tests only.
"""

import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from levilab import reinhardt as rh
from levilab.errors import SingularityError, StiffnessError

# closed, band, stiff, singular-cap and near-sphere starts
PROFILES = [
    dict(k=0.5, f0=4.0),
    dict(k=0.5, f0=3.5, fp0=-1.1, s0=0.8, smax=3.0),
    dict(k=0.5, f0=5.0),
    dict(k=0.5, f0=1.0),
    dict(k=1.0, f0=1.0),
    dict(k=2.0, f0=0.25),
    dict(k=1.0, f0=0.5),
    dict(k=0.5, f0=3.0),
    dict(k=0.7, f0=1.7),
    dict(k=0.5, f0=4.0, fp0=-1.0, s0=1.0, smax=2.0),
    dict(k=0.3, f0=11.0),
]
BAND = dict(k=0.5, f0=3.5, fp0=-1.1, s0=0.8, smax=3.0)
SPHERES = [(0.5, 4.0), (1.0, 1.0), (2.0, 0.25)]  # f0 = 1/k^2: the radius-1/k sphere, F(s) = f0 - s

# f + s f'^2 reaching 1e-14 f0: the integrator's root, pinned to the bit, and the root located on
# mpmath.odefun's 30-digit solution with mpmath.findroot
SINGULAR_CAPS = [
    (0.5, 1.0, 5.8683169563211, 5.86831695632110028395297680481),
    (0.5, 3.0, 6.29335622973788, 6.29335622973787981498274458225),
    (1.0, 0.5, 1.6791056955445023, 1.6791056955445023008578212237),
    (0.7, 1.7, 2.9908636971752016, 2.99086369717520035246592574125),
]


def _regular_start(k, f0, s1):
    """(f, f') at s1 from the four-term series: its truncation error is about s1^4."""
    c0, c1, c2, c3 = rh.series_coeffs(k, f0)
    return c0 + s1 * (c1 + s1 * (c2 + s1 * c3)), c1 + s1 * (2 * c2 + s1 * 3 * c3)


def dop853(k, f0, fp0=None, s0=0.0, smax=None):
    """The same start, events and end by solve_ivp's DOP853 at rtol 1e-13; a regular start
    leaves s = 0, where the equation is singular, at s = 1e-8 on the series."""
    smax = 1e3 * max(f0, 1.0 / k**2) if smax is None else smax
    if fp0 is None:
        s0 = 1e-8 * max(f0, 1.0 / k**2)
        f0, fp0 = _regular_start(k, f0, s0)

    def rhs(s, y):
        u = y[0] + s * y[1] ** 2
        return [y[1], (s * y[1] ** 2 - k * u * math.sqrt(max(u, 0.0)) - y[0] * y[1]) / (s * y[0])]

    def closes(s, y):
        return y[0]

    def singular(s, y):
        return y[0] + s * y[1] ** 2 - 1e-14 * f0

    for event in (closes, singular):
        event.terminal, event.direction = True, -1
    return solve_ivp(rhs, (s0, smax), [f0, fp0], method="DOP853", rtol=1e-13, atol=1e-15,
                     dense_output=True, events=[closes, singular])


@pytest.mark.parametrize("kw", PROFILES, ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_profile_matches_dop853(kw):
    ref = dop853(**kw)
    [closes, singular] = ref.t_events
    try:
        p = rh.reinhardt_profile(**kw)
    except SingularityError as exc:
        # the level crossing is ill-conditioned: DOP853 at rtol 1e-13 places it to about 5e-10
        assert closes.size == 0 and singular.size == 1
        assert abs(exc.s - singular[0]) <= 1e-9 * singular[0]
        return
    except StiffnessError as exc:
        near = float(re.search(r"near s=([^:]+):", str(exc)).group(1))
        assert ref.status == -1 and abs(near - ref.t[-1]) <= 1e-12 * near
        return
    assert p.closed == (closes.size == 1) and singular.size == 0
    assert abs(p.s_end - (closes[0] if p.closed else ref.t[-1])) <= 1e-12 * p.s_end
    s = np.linspace(ref.t[0], p.s_end, 1001)
    for mine, theirs in zip(p.eval(s, 1), ref.sol(s)):
        assert np.max(np.abs(mine - theirs)) <= 1e-12


def regular_series(mp, k, f0, terms):
    """Coefficients c_0..c_{terms-1} of the regular solution f = sum c_m s^m at s = 0, in mpmath.
    The s^m coefficient of G = s f f'' + f f' - s f'^2 + k u^(3/2), u = f + s f'^2, is
    f0 (m + 1)^2 c_{m+1} plus terms in c_0..c_m: each c_{m+1} makes that coefficient vanish."""

    def mul(a, b):  # product series, truncated to len(a)
        return [mp.fsum(a[i] * b[m - i] for i in range(m + 1)) for m in range(len(a))]

    def der(a):
        return [(i + 1) * a[i + 1] for i in range(len(a) - 1)] + [mp.mpf(0)]

    def times_s(a):
        return [mp.mpf(0)] + a[:-1]

    c = [f0]
    for m in range(terms - 1):
        f = c + [mp.mpf(0)]  # c_{m+1} = 0: G's s^m coefficient is then the rest
        sfp2 = times_s(mul(der(f), der(f)))
        u = [a + b for a, b in zip(f, sfp2)]
        root = [mp.sqrt(u[0])]  # sqrt(u) term by term
        for i in range(1, len(u)):
            root.append((u[i] - mp.fsum(root[t] * root[i - t] for t in range(1, i))) / (2 * root[0]))
        g = times_s(mul(f, der(der(f))))[m] + mul(f, der(f))[m] - sfp2[m] + k * mul(u, root)[m]
        c.append(-g / (f0 * (m + 1) ** 2))
    return c


def test_profile_matches_mpmath_at_30_digits():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    cases = [(BAND, np.linspace(0.8, 3.0, 7)), (dict(k=0.7, f0=1.7, smax=0.5), np.linspace(0.1, 0.5, 5))]
    for kw, s in cases:
        k = mp.mpf(kw["k"])
        if "fp0" in kw:
            start, y0 = mp.mpf(kw["s0"]), [mp.mpf(kw["f0"]), mp.mpf(kw["fp0"])]
        else:
            # off the singular point on 20 terms of the series, whose truncation is below 1e-40:
            # odefun's steps scale with s, so starting near s = 0 would cost most of the run
            start, c = mp.mpf("0.01"), regular_series(mp, k, mp.mpf(kw["f0"]), 20)
            y0 = [mp.polyval(c[::-1], start), mp.polyval([m * c[m] for m in range(1, len(c))][::-1], start)]

        def rhs(x, y, k=k):
            u = y[0] + x * y[1] ** 2
            return [y[1], (x * y[1] ** 2 - k * u * mp.sqrt(u) - y[0] * y[1]) / (x * y[0])]

        sol = mp.odefun(rhs, start, y0)
        want = np.array([[float(v) for v in sol(mp.mpf(float(x)))] for x in s]).T
        got = np.array(rh.reinhardt_profile(**kw).eval(s, 1))
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


@pytest.mark.parametrize("k,f0", SPHERES)
def test_sphere_profiles_close_exactly(k, f0):
    # the Taylor series of f0 - s ends at degree one, so one segment holds it exactly
    p = rh.reinhardt_profile(k, f0)
    assert p.closed and type(p.s_end) is float and p.s_end == f0
    assert p._knots.tolist() == [0.0, f0]
    assert p._coefs[:, 0].tolist() == [f0, -1.0]
    s = np.linspace(0.0, f0, 1001)
    f, fp, fpp = p.eval(s)
    assert np.array_equal(f, f0 - s) and np.all(fp == -1.0) and np.all(fpp == 0.0)


@pytest.mark.parametrize("k,f0", [(0.5, 4.0), (0.5, 3.0), (1.0, 0.5), (0.7, 1.7)])
def test_taylor_start_extends_the_series(k, f0):
    # series_coeffs' f3 cancels in 17 k r - 14 k^2 f0 - 3: 2.3e-15 off at (0.7, 1.7), the recurrence 3.4e-16
    got = rh._taylor(k, 0.0, f0, None)[:4]
    want = np.array(rh.series_coeffs(k, f0))
    assert np.all(np.abs(got - want) <= 3e-15 * np.abs(want))


def test_stiff_start_raises_a_typed_error_naming_the_fold():
    with pytest.raises(StiffnessError) as exc:
        rh.reinhardt_profile(0.5, 5.0)
    msg = str(exc.value)
    assert "near s=3.5421986076968164:" in msg
    slope = float(re.search(r"\|f'\| = ([^)]+)\)", msg).group(1))
    assert "turns vertical" in msg and "ten float spacings" in msg and slope > 7e3


@pytest.mark.parametrize("k,f0,pinned,digits30", SINGULAR_CAPS)
def test_singular_caps_raise_at_the_event_root(k, f0, pinned, digits30):
    with pytest.raises(SingularityError) as exc:
        rh.reinhardt_profile(k, f0)
    assert type(exc.value.s) is float and exc.value.s == pinned
    assert abs(pinned - digits30) <= 1e-15 * digits30
    assert str(exc.value) == f"profile ODE singular at s={pinned!r}"


@pytest.mark.parametrize("coefs, closes_at, raises_at", [
    # f = (t - 1)(t - 3)/3 reaches 0 at t = 1 with slope -2/3; f + s f'^2 falls to the level later
    ([1.0, -4.0 / 3.0, 1.0 / 3.0], 1.0, None),
    # f = (t - 1)^2 - 1e-4 is flat near its root at t = 0.99: f + s f'^2 reaches the level first
    ([1.0 - 1e-4, -2.0, 1.0], None, 0.9615912062626347),
], ids=["closes-first", "cap-first"])
def test_the_earlier_of_two_events_in_a_segment_decides(monkeypatch, coefs, closes_at, raises_at):
    # every segment is this polynomial, whose zero tail makes the first segment run to smax;
    # f0 = 1e12 only sets the cap level 1e-14 f0 to 0.01
    a = np.zeros(rh._ORDER + 1)
    a[:len(coefs)] = coefs
    monkeypatch.setattr(rh, "_taylor", lambda k, c, f, fp: a.copy())
    kw = dict(k=0.5, f0=1e12, fp0=coefs[1], s0=0.5, smax=2.5 if closes_at else 1.5)
    if closes_at:
        p = rh.reinhardt_profile(**kw)
        assert p.closed and abs(p.s_end - (0.5 + closes_at)) <= 1e-15
    else:
        with pytest.raises(SingularityError) as exc:
            rh.reinhardt_profile(**kw)
        assert abs(exc.value.s - (0.5 + raises_at)) <= 1e-12


@pytest.mark.parametrize("kw, name", [
    (dict(k=1e-200, f0=4.0), "k"),   # k^2 underflows
    (dict(k=1e200, f0=4.0), "k"),    # k^2 overflows
    (dict(k=0.5, f0=1e-200), "f0"),
    (dict(k=-0.5, f0=4.0), "k"),
])
def test_length_parameters_are_checked_by_name(kw, name):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, with a square"):
        rh.reinhardt_profile(**kw)


def test_band_end_must_lie_beyond_its_start():
    # the integrator runs forward only; a band ending before s0 was integrated backwards
    with pytest.raises(ValueError, match="smax"):
        rh.reinhardt_profile(0.5, 4.0, fp0=-1.0, s0=2.0, smax=1.0)
