"""Closed-form answer key for the quadrature's error estimate.

Every entry is an integral whose exact value is known, at one order of the
product rule: the volume |B^m| prod(axes) of an ellipsoid and |B^4|/sqrt(det A)
of a PerturbedQuadric, the flux side of the integral formula on an ellipsoid,
sigma_{j+1}(H)|E|/coef, the Dirichlet gradient flux 2|E|, the radius-2 sphere
that the closed Reinhardt profile ReinhardtSurface(0.5, 4.0) traces, the bulk
side on the exp(f) - 1 reparametrised ellipsoid, which equals the flux side of
f because exp(f) - 1 has the gradient of f on the boundary, and the closed-form
bulk side sigma_{j+1}(H)|Omega| of two quadratics: sigma_2(H)|E| on the n = 1
ellipsoid and sigma_3(I)|B| on an n = 2 sphere. Axes and coefficients are drawn
from a fixed seed.

The estimate must be at least the true error wherever that error is above the
rounding floor, and positive where the rule is exact. On the entries at order
o >= 7 it is compared with the difference |I(o) - I(o - 4)| of a second pass
four orders down. To print the table, one line per entry, for the key or for
a wider corpus against order-48 references:

    PYTHONPATH=src python tests/test_error_estimate.py [--held-out]
"""

from __future__ import annotations

import itertools
import math
import statistics
import sys

import numpy as np
import pytest

from levilab import quadrature as qd
from levilab import surfaces as sf
from levilab import verify as vf
from levilab.hermitian import sigma_batch

N1_ORDERS = range(3, 33)
N2_ORDERS = range(3, 13)
BULK_ORDERS = range(3, 13)
SEED = 20261019
SPHERE_N2_RADIUS = 1.5
EPS = np.finfo(float).eps


def unit_ball_volume(m: int) -> float:
    return math.pi ** (m / 2) / math.gamma(m / 2 + 1)


def unit_sphere_area(m: int) -> float:
    return 2.0 * math.pi ** (m / 2) / math.gamma(m / 2)


def elementary_symmetric(values, k: int) -> float:
    return float(sum(math.prod(c) for c in itertools.combinations(values, k)))


def quadric_form(hterms: dict) -> np.ndarray:
    """Real symmetric A with |z|^2/2 + Re(sum c z^e) = x^T A x on R^4 (x1, y1, x2, y2)."""

    def form(x):
        z = (complex(x[0], x[1]), complex(x[2], x[3]))
        h = sum(c * z[0] ** e[0] * z[1] ** e[1] for e, c in hterms.items())
        return (abs(z[0]) ** 2 + abs(z[1]) ** 2) / 2.0 + h.real

    eye = np.eye(4)
    a = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            a[i, j] = (form(eye[i] + eye[j]) - form(eye[i]) - form(eye[j])) / 2.0
    return a


def mixed_hessian_diagonal(axes) -> np.ndarray:
    """The constant diagonal of the mixed Hessian of sum x_k^2 / a_k^2 - 1."""
    inv2 = 1.0 / np.asarray(axes) ** 2
    return (inv2[0::2] + inv2[1::2]) / 2.0


def flux_side(axes, j: int) -> float:
    """Surface integral of K_j |del f|^(j+1) on the ellipsoid: sigma_{j+1}(H)|E| / coef."""
    n = len(axes) // 2 - 1
    vol = unit_ball_volume(len(axes)) * math.prod(axes)
    coef = math.comb(n + 1, j + 1) / (2 * (n + 1))
    return elementary_symmetric(mixed_hessian_diagonal(axes), j + 1) * vol / coef


def _cases():
    """(label, orders, run(q) -> tuple of IntegralResult, exact values) for every family of the key."""
    rng = np.random.default_rng(SEED)
    # n = 1: one axis from each of four disjoint ranges, in seeded order, never a ball
    axes = [float(x) for x in rng.permutation([rng.uniform(lo, lo + 0.15) for lo in (0.75, 0.95, 1.15, 1.35)])]
    ell, dirichlet = sf.Ellipsoid(axes), sf.DirichletQuadratic(axes)
    vol = unit_ball_volume(4) * math.prod(axes)
    # |c1| + |c2|/2 < 1/2 keeps the real quadratic form positive definite
    hterms = {e: complex(rng.uniform(0.1, 0.2) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))) for e in ((2, 0), (1, 1))}
    quadric = sf.PerturbedQuadric(1, c=1.0, hterms=hterms)
    sphere = sf.ReinhardtSurface(0.5, 4.0)  # the radius-2 sphere
    exp_ell = sf.ExpReparam(ell)
    h = mixed_hessian_diagonal(axes)
    # n = 2: paired axes with the extreme ratio 1.4, so the Hessian is never a multiple of the identity
    s = rng.uniform(0.8, 1.25)
    a, b, c = s, s * rng.uniform(1.15, 1.25), s * 1.4
    paired = [a, a, b, b, c, c]
    axes2 = [float(x) for x in rng.permutation([rng.uniform(lo, lo + 0.15) for lo in (0.75, 0.9, 1.05, 1.2, 1.35, 1.5)])]
    ell2, dirichlet2 = sf.Ellipsoid(axes2), sf.DirichletQuadratic(paired)
    sphere2 = sf.Sphere(SPHERE_N2_RADIUS, n=2)
    return [
        ("ellipsoid_n1:volume,flux_j1", N1_ORDERS,
         lambda q: (qd.volume(ell, q), qd.surface_integral(ell, vf._levi_flux_field(1), q)),
         (vol, flux_side(axes, 1))),
        ("dirichlet_n1:gradient_flux", N1_ORDERS, lambda q: (qd.surface_integral(dirichlet, vf._pgrad, q),), (2 * vol,)),
        ("quadric_n1:volume", N1_ORDERS, lambda q: (qd.volume(quadric, q),),
         (unit_ball_volume(4) / math.sqrt(float(np.linalg.det(quadric_form(hterms)))),)),
        ("sphere_r2:area,volume", N1_ORDERS, lambda q: (qd.surface_integral(sphere, vf._ones, q), qd.volume(sphere, q)),
         (unit_sphere_area(4) * 8.0, unit_ball_volume(4) * 16.0)),
        ("exp_ellipsoid_n1:bulk_sigma2", BULK_ORDERS,
         lambda q: (qd.bulk_integral(exp_ell, vf._mixed_field(exp_ell, sigma_batch, 1), q),), (h[0] * h[1] * vol,)),
        ("ellipsoid_n1:bulk_sigma2", BULK_ORDERS, lambda q: (vf._bulk_sigma(ell, 1, q, qd.volume(ell, q)),),
         (h[0] * h[1] * vol,)),
        ("sphere_n2:bulk_sigma3", N2_ORDERS, lambda q: (vf._bulk_sigma(sphere2, 2, q, qd.volume(sphere2, q)),),
         (unit_ball_volume(6) * SPHERE_N2_RADIUS**6,)),
        ("dirichlet_n2:gradient_flux,volume", N2_ORDERS,
         lambda q: (qd.surface_integral(dirichlet2, vf._pgrad, q), qd.volume(dirichlet2, q)),
         (2 * unit_ball_volume(6) * math.prod(paired), unit_ball_volume(6) * math.prod(paired))),
        ("ellipsoid_n2:flux_j1,flux_j2", N2_ORDERS,
         lambda q: qd.surface_integral(ell2, (vf._levi_flux_field(1), vf._levi_flux_field(2)), q),
         (flux_side(axes2, 1), flux_side(axes2, 2))),
    ]


def _held_out_cases():
    """A wider corpus than the key: seeded n = 1 ellipsoids with axes in [0.7, 1.6] (more eccentric than the
    key's), their exp(f) - 1 and Dirichlet forms and an off-center copy, quadrics and a quartic, each against
    its own value at order 48 (K_1^-1 and the mean-curvature moment have no closed form here)."""
    fields = {"ones": vf._ones, "flux_j1": vf._levi_flux_field(1), "inv_k1": vf._inv_levi_field(1),
              "pgrad": vf._pgrad, "minkowski": vf._mean_curv_flux}
    surfaces = {}
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        axes = list(rng.uniform(0.7, 1.6, 4))
        ell = sf.Ellipsoid(axes)
        surfaces[f"ell{seed}"] = ell, ("ones", "flux_j1", "inv_k1", "minkowski")
        surfaces[f"exp{seed}"] = sf.ExpReparam(ell), ("pgrad", "flux_j1")
        surfaces[f"dirichlet{seed}"] = sf.DirichletQuadratic(axes), ("pgrad",)
        surfaces[f"off{seed}"] = sf.Ellipsoid(axes, center=list(rng.uniform(-0.3, 0.3, 4))), ("ones", "minkowski")
        hterms = {e: complex(rng.uniform(0.03, 0.12) * np.exp(1j * rng.uniform(0, 2 * np.pi))) for e in ((2, 0), (1, 1), (0, 2))}
        surfaces[f"quadric{seed}"] = sf.PerturbedQuadric(1, c=1.0, hterms=hterms), ("ones", "inv_k1", "minkowski")
    quartic = {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (2, 0, 2, 0): 0.05, (1, 1, 1, 1): 0.1, (0, 0, 0, 0): -2.0}
    surfaces["quartic"] = sf.UserPolynomial(1, quartic, scale=1.5), ("ones", "flux_j1", "minkowski")
    for label, (spec, names) in surfaces.items():
        def run(q, spec=spec, names=names):
            return qd.surface_integral(spec, tuple(fields[k] for k in names), q) + (qd.volume(spec, q),)

        yield f"{label}:{','.join(names)},volume", N1_ORDERS, run, [r.value for r in run(qd.QuadratureSpec(order=48))]


def answer_key(cases=None) -> list[dict]:
    """One row per entry: label, order, true error, estimate, the order - 4 difference (or None), floor."""
    rows = []
    for label, orders, run, exact in _cases() if cases is None else cases:
        names = label.split(":")[1].split(",")
        values = {}
        for order in orders:
            results = run(qd.QuadratureSpec(order=order))
            for name, res, want in zip(names, results, exact):
                values[name, order] = res.value
                lower = values.get((name, order - 4))
                rows.append({
                    "entry": f"{label.split(':')[0]}:{name}", "order": order,
                    "true": abs(res.value - want), "estimate": res.error_estimate,
                    "difference": None if lower is None else abs(res.value - lower),
                    "floor": qd._ROUNDING_ULPS * EPS * abs(want),
                })
    return rows


@pytest.fixture(scope="module")
def key() -> list[dict]:
    return answer_key()


def test_estimate_covers_the_true_error(key):
    under = [(r["entry"], r["order"], r["true"], r["estimate"]) for r in key
             if r["true"] > r["floor"] and r["estimate"] < r["true"]]
    assert not under


def test_estimate_is_positive_where_the_rule_is_exact(key):
    assert all(r["estimate"] > 0 for r in key)
    # the constant area and volume integrands of the sphere are integrated exactly at every order
    sphere = [r for r in key if r["entry"].startswith("sphere_r2")]
    assert all(r["true"] <= 64 * r["floor"] for r in sphere)


def test_estimate_is_no_looser_than_the_order_minus_4_difference(key):
    pairs = [(r["estimate"] / r["true"], r["difference"] / r["true"]) for r in key
             if r["difference"] is not None and r["true"] > r["floor"]]
    assert len(pairs) > 50
    assert statistics.median(p[0] for p in pairs) <= statistics.median(p[1] for p in pairs)


def test_n2_dirichlet_gradient_flux_bound():
    # the paired-axis Dirichlet chain of the n = 2 golden entry at order 7: the o7 flux error is
    # about 5e-5 relative, and the bound built from the estimates must cover it without being
    # looser than the 2.65e-2 of the order - 4 difference
    r = vf.dirichlet_chain([1.0, 1.0, 1.2, 1.2, 1.4, 1.4], 1, qd.QuadratureSpec(order=7))
    assert r.verdict["kind"] == "inequality_holds"
    assert r.details["gradient_flux_rel_err"] <= r.details["gradient_flux_rel_bound"] <= 2.65e-2


def test_closed_form_bulk_estimate_on_the_n2_sphere():
    # sigma_3(I)|B| from the volume pass, whose estimate is at rounding level; radial layering at order 7
    # read its radial null rule's coefficient of t^5 as error, 7.2e-3 relative though the value was exact
    sphere, q = sf.Sphere(SPHERE_N2_RADIUS, n=2), qd.QuadratureSpec(order=7)
    r = vf._bulk_sigma(sphere, 2, q, qd.volume(sphere, q))
    assert r.error_estimate < 1e-10 * r.value


def _summary(rows: list[dict]) -> str:
    above = [r for r in rows if r["true"] > r["floor"]]
    ratios = [r["estimate"] / r["true"] for r in above]
    lines = [f"entries {len(rows)}, above the rounding floor {len(above)}; estimate / true error:",
             f"  median {statistics.median(ratios):.3g}, max {max(ratios):.3g}, min {min(ratios):.3g}, "
             f"within 100x {sum(x <= 100 for x in ratios) / len(ratios):.1%}"]
    both = [r for r in above if r["difference"] is not None]
    old = [r["difference"] / r["true"] for r in both]
    new = [r["estimate"] / r["true"] for r in both]
    lines.append(f"order >= 7 ({len(both)} entries): median estimate / true {statistics.median(new):.3g}, "
                 f"|I(o) - I(o-4)| / true {statistics.median(old):.3g}; within 100x "
                 f"{sum(x <= 100 for x in new) / len(new):.1%} against {sum(x <= 100 for x in old) / len(old):.1%}")
    return "\n".join(lines)


if __name__ == "__main__":
    # --held-out: the wider corpus of _held_out_cases (about 15 s) in place of the answer key
    table = answer_key(_held_out_cases() if sys.argv[1:] == ["--held-out"] else None)
    print(f"{'entry':36s} {'order':>5s} {'true error':>10s} {'estimate':>10s} {'|I(o)-I(o-4)|':>13s}")
    for r in table:
        diff = "-" if r["difference"] is None else f"{r['difference']:.3e}"
        print(f"{r['entry']:36s} {r['order']:5d} {r['true']:10.3e} {r['estimate']:10.3e} {diff:>13s}")
    print(_summary(table))
