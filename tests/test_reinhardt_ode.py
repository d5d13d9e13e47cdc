"""The profile integrator: bit for bit scipy's RK45, its typed errors, and a shooting test.

levilab integrates the Reinhardt profile with its own numpy port of scipy's
solve_ivp(method="RK45") path, brentq and CubicHermiteSpline. scipy is imported
here, by the tests only, as the oracle the port must match byte for byte.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq

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


def build_with_scipy_reference(monkeypatch, kw):
    """Build the profile (or its error), recording the one _rk45 call it makes, and run
    scipy's solve_ivp on the very same right-hand side, start, tolerances and events."""
    calls = []
    real = rh._rk45

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(rh, "_rk45", spy)
    try:
        built = rh.reinhardt_profile(**kw)
    except (SingularityError, StiffnessError) as exc:
        built = exc
    [((fun, t0, y0, t_bound, rtol, atol, events), out)] = calls
    for event in events:
        event.terminal, event.direction = True, -1
    ref = solve_ivp(fun, (t0, t_bound), y0, method="RK45", rtol=rtol, atol=atol, dense_output=True,
                    events=list(events))
    return built, out, ref


@pytest.mark.parametrize("kw", PROFILES, ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
def test_integrator_is_bitwise_scipy_rk45(monkeypatch, kw):
    built, (steps, failed, hit), ref = build_with_scipy_reference(monkeypatch, kw)
    assert steps.ts.tobytes() == ref.t.tobytes()
    assert failed == (ref.status == -1)
    for e, t_events in enumerate(ref.t_events):
        mine = np.array([hit[0]] if hit is not None and hit[1] == e else [], dtype=float)
        assert mine.tobytes() == np.asarray(t_events, dtype=float).tobytes()

    rng = np.random.default_rng(20)
    s = np.concatenate([rng.uniform(steps.ts[0], steps.ts[-1], 2000), steps.ts])  # edges choose like scipy
    assert rh._dense(steps, s).tobytes() == ref.sol(s).tobytes()
    for x in steps.ts:  # a scalar takes scipy's matrix-vector path
        assert rh._dense(steps, float(x)).tobytes() == ref.sol(float(x)).tobytes()

    if isinstance(built, SingularityError):
        assert built.s == float(hit[0])
    elif isinstance(built, StiffnessError):
        assert f"s={float(ref.t[-1])!r}:" in str(built)
    else:
        assert built.s_end == float(hit[0] if hit is not None else ref.t[-1])
        grid = np.linspace(built._s_switch, built.s_end, 4001)
        spline = CubicHermiteSpline(grid, *ref.sol(grid)).derivative(2)
        pts = np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1]), [grid[0] - 1e-3, grid[-1] + 1e-3]])
        assert built._fpp_fallback(pts).tobytes() == spline(pts).tobytes()
        assert float(built._fpp_fallback(built.s_end)) == float(spline(built.s_end))


def test_two_events_in_one_step_stop_at_the_earlier_root():
    # the second step crosses both levels; the earlier root stops the run, as in scipy
    def fun(t, y):
        return np.array([-1.0 - 0.1 * t, 0.0])

    def late(t, y):
        return y[0] - 0.2

    def early(t, y):
        return y[0] - 0.6

    steps, failed, hit = rh._rk45(fun, 0.0, [1.0, 0.0], 10.0, 1e-3, 1e-6, (late, early))
    for event in (late, early):
        event.terminal, event.direction = True, -1
    ref = solve_ivp(fun, (0.0, 10.0), [1.0, 0.0], rtol=1e-3, atol=1e-6, dense_output=True, events=[late, early])
    assert late(0.0, rh._dense(steps, steps.ts[-2] + steps.h[-1])) < 0  # both levels fell in the last step
    assert not failed and hit[1] == 1 and ref.t_events[0].size == 0
    assert steps.ts.tobytes() == ref.t.tobytes() and hit[0] == ref.t_events[1][0]


@pytest.mark.parametrize("f,a,b", [
    (lambda x: x**3 - 2 * x - 5, 2.0, 3.0),
    (lambda x: np.cos(x) - x, 0.0, 1.0),
    (lambda x: np.tanh(50 * (x - 0.37)), 0.0, 1.0),
    (lambda x: np.exp(x) - 1e5, 0.0, 20.0),
    (lambda x: 1.0 / (x - 3.3), 3.0, 4.0),
    (lambda x: x * x - 1e-300, 0.0, 1.0),
])
def test_brentq_takes_scipys_steps(f, a, b):
    eps = np.finfo(float).eps
    seen = []
    root = rh._brentq(lambda x: seen.append(x) or f(x), a, b)
    want, info = brentq(f, a, b, xtol=4 * eps, rtol=4 * eps, full_output=True)
    assert root == want and len(seen) == info.function_calls


def test_stiff_start_raises_a_typed_error_without_scipy_text():
    with pytest.raises(StiffnessError) as exc:
        rh.reinhardt_profile(0.5, 5.0)
    msg = str(exc.value)
    assert "near s=3.542198607703925:" in msg
    assert "np.float64" not in msg and "Required step size" not in msg


@pytest.mark.parametrize("k,f0,s", [
    (0.5, 1.0, 5.868312425177272),
    (0.5, 3.0, 6.293353102076187),
    (1.0, 0.5, 1.6791045581303305),
    (0.7, 1.7, 2.990862308860974),
])
def test_singular_caps_raise_at_the_event_root(k, f0, s):
    with pytest.raises(SingularityError) as exc:
        rh.reinhardt_profile(k, f0)
    assert type(exc.value.s) is float and exc.value.s == s
    assert str(exc.value) == f"profile ODE singular at s={s!r}"


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_shooting_at_the_sphere_value_closes_on_the_sphere(k):
    # f0 = 1/k^2 is the radius-1/k sphere, F(s) = f0 - s, the one closed profile in C^2
    f0 = 1.0 / k**2
    p = rh.reinhardt_profile(k, f0)
    assert p.closed and type(p.s_end) is float
    assert abs(p.s_end - f0) <= 1e-9
    s = np.linspace(0.0, p.s_end, 1001)
    assert np.max(np.abs(p.eval(s, 0)[0] - (f0 - s))) <= 1e-9


def test_band_end_must_lie_beyond_its_start():
    # the integrator runs forward only; a band ending before s0 was integrated backwards
    with pytest.raises(ValueError, match="smax"):
        rh.reinhardt_profile(0.5, 4.0, fp0=-1.0, s0=2.0, smax=1.0)
