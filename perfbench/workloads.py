"""Seeded benchmark workloads over the public levilab API.

A workload is built once (its surfaces and first grid: the part timed as
setup) and then run as passes. A pass makes every call of the workload once
and returns each call's report, list of identity checks, or exception. The seed draws the axes and the coefficients; the
known answers in answers.py hold for every seed.

Order choice: bulk-n2 runs at gauss order 7. Order 12 costs about 48 s per
call, and order 8 about 10 s per pass, which leaves room for only two or three
timed passes in a run of the benchmark; order 7 takes about 4.5 s per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("bulk-n2", "boundary-n1", "exact-identities")

# Orders of the full runs and of the seconds-long smoke mode.
ORDERS = {
    "bulk-n2": {"full": 7, "smoke": 4},
    "boundary-n1": {"full": 32, "smoke": 8},
}


@dataclass
class Call:
    """One call into the public API; run() returns a report or a list of checks."""

    name: str
    run: Callable[[], object]


@dataclass
class Workload:
    name: str
    seed: int
    calls: list[Call]
    inputs: dict = field(default_factory=dict)  # what the seed drew, for the references


def _paired_axes(rng: np.random.Generator) -> list[float]:
    # The Hessian is never proportional to the identity. Relative quadrature
    # errors are scale invariant and grow fast with the axis ratio, so the seed
    # draws the scale and the middle axis and the extreme ratio is fixed at 1.4:
    # the o7 gradient-flux error then stays near 3e-5 for every seed.
    s = rng.uniform(0.8, 1.25)
    a, b, c = s, s * rng.uniform(1.15, 1.25), s * 1.4
    return [a, a, b, b, c, c]


def _generic_axes(rng: np.random.Generator) -> list[float]:
    # one axis from each of four disjoint ranges, in seeded order: never a ball
    axes = [rng.uniform(lo, lo + 0.15) for lo in (0.75, 0.95, 1.15, 1.35)]
    return [float(x) for x in rng.permutation(axes)]


def _quadric_terms(rng: np.random.Generator) -> dict:
    # |c1| + |c2|/2 < 1/2 keeps the real quadratic form positive definite (star-shaped)
    def coeff():
        return complex(rng.uniform(0.1, 0.2) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))

    return {(2, 0): coeff(), (1, 1): coeff()}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Draw the inputs, construct the surfaces and the first grid."""
    from levilab import quadrature as qd
    from levilab import surfaces as sf
    from levilab import verify as vf
    from levilab import wirtinger as wt

    rng = np.random.default_rng(seed)
    if name == "bulk-n2":
        order = ORDERS[name]["smoke" if smoke else "full"]
        q = qd.QuadratureSpec(order=order)
        sphere = sf.Sphere(1.5, n=2)
        axes = _paired_axes(rng)
        qd.sphere_grid(sphere.m, order)
        calls = [
            Call("integral_formula:sphere", lambda: vf.verify_integral_formula(sphere, 2, q)),
            Call("dirichlet_chain:paired_axes", lambda: vf.dirichlet_chain(axes, 1, q)),
        ]
        return Workload(name, seed, calls, {"sphere_radius": 1.5, "dirichlet_axes": axes})

    if name == "boundary-n1":
        order = ORDERS[name]["smoke" if smoke else "full"]
        q = qd.QuadratureSpec(order=order)
        axes = _generic_axes(rng)
        hterms = _quadric_terms(rng)
        surfaces = {
            "ellipsoid": sf.Ellipsoid(axes),
            "quadric": sf.PerturbedQuadric(1, c=1.0, hterms=hterms),
            "reinhardt": sf.ReinhardtSurface(0.5, 4.0),
        }
        qd.sphere_grid(4, order)
        calls = []
        for label, spec in surfaces.items():
            calls += [
                Call(f"isoperimetric:{label}", lambda s=spec: vf.isoperimetric_ratio(s, 1, q)),
                Call(f"minkowski:{label}", lambda s=spec: vf.minkowski_residual(s, q)),
                Call(f"alexandrov:{label}", lambda s=spec: vf.alexandrov_check(s, 1, q)),
            ]
        return Workload(name, seed, calls, {
            "ellipsoid_axes": axes,
            "quadric_hterms": hterms,
            "reinhardt_radius": 2.0,  # the closed K = 1/2 profile from f0 = 4 is the radius-2 sphere
        })

    if name == "exact-identities":
        # The Wirtinger seed is the program's default, not drawn from the seed:
        # the cost of exact rational arithmetic depends on the drawn coefficients
        # (6.1 s to 10.8 s per pass over six seeds on a 2-vCPU x86 VM), which
        # would swamp any time bound. The answers are `ok` for every seed.
        wseed = wt.DEFAULT_SEED
        # smoke: the same two suites one dimension down
        n_all, n_one = (1, 2) if smoke else (2, 3)
        calls = [
            Call(f"identities:n{n_all}", lambda: wt.run_identity_suite(n_all, wseed)),
            Call(f"identities:n{n_one}:j1", lambda: wt.run_identity_suite(n_one, wseed, j=1)),
        ]
        return Workload(name, seed, calls, {"wirtinger_seed": wseed})

    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def run_pass(workload: Workload) -> list[tuple[Call, object]]:
    """Make every call once; an exception is kept as the call's result."""
    out = []
    for call in workload.calls:
        try:
            result = call.run()
        except Exception as exc:  # a failed call is scored, not fatal to the run
            result = exc
        out.append((call, result))
    return out
