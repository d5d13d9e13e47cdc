"""Bit-level fingerprint of the quadrature passes, for comparing two checkouts.

Prints one JSON line per probe: the float.hex of value plus nodes_used for
surface_integral, volume and bulk_integral (their error estimates on a line
of their own), a sha256 of the raw bytes returned by scan_boundary and
scan_bulk, a sha256 of a K_1 and K_2 scan on an n=2 quadric with complex
holomorphic terms, a sha256 of the Reinhardt jets on every branch of the
profile and of the exp(f) - 1 jets of an ellipsoid, a sha256 of the Wirtinger
Hessians H and S of every family at fixed points, a sha256 of the radial
roots and slopes of the order-12 grid for five families, and a sha256 of a
verification report on every verdict branch the suites reach on these
surfaces (tolerances are passed by position). A report is hashed without
its error estimate and the gradient-flux bound built from it; those are
printed as hex on a line of their own, so a change to the error estimate
alone leaves every other line as it was. A change that must keep the
arithmetic order is bit-identical when the two outputs are equal:

    PYTHONPATH=<old>/src python tests/quadrature_probe.py > old.jsonl
    PYTHONPATH=<new>/src python tests/quadrature_probe.py > new.jsonl
    diff old.jsonl new.jsonl

It is not collected by pytest.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from levilab import curvature as cv
from levilab import quadrature as qd
from levilab import surfaces as sf
from levilab import verify as vf
from levilab.hermitian import newton_gap_batch, sigma_batch

SURFACES = {
    "ellipsoid": lambda: sf.Ellipsoid([1.0, 1.3, 0.8, 1.1]),
    "reinhardt": lambda: sf.ReinhardtSurface(0.5, 4.0),
    "dirichlet": lambda: sf.DirichletQuadratic([1.0, 1.0, 1.0, 2.0]),
}
QUADRIC_N2 = {(2, 0, 0): 0.1 + 0.05j, (1, 1, 0): -0.1j, (0, 1, 1): 0.05, (0, 0, 3): 0.02 - 0.03j}
RULES = {
    "gauss_o12": qd.QuadratureSpec(order=12),
    "gauss_o18": qd.QuadratureSpec(order=18),  # two chunks of CHUNK nodes
    "gauss_o4": qd.QuadratureSpec(order=4),
    "gauss_o7_radial3": qd.QuadratureSpec(order=7, radial_order=3),
}


USER_QUARTIC = {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): 1.0, (0, 0, 0, 0): -1.0, (1, 1, 1, 1): -3.0, (2, 2, 2, 2): 4.0,
                (1, 0, 0, 1): 0.3 + 0.2j, (2, 0, 1, 0): 0.1j}


def _family_points(spec) -> np.ndarray:
    """200 fixed points: on the profile's band for a Reinhardt surface, else in a box."""
    rng = np.random.default_rng(7)
    if isinstance(spec, sf.ReinhardtSurface):
        return _reinhardt_points(spec)
    return rng.uniform(-1.2, 1.2, (200, spec.m))


def _hex(r: qd.IntegralResult) -> list:
    return [r.value.hex(), r.nodes_used]


def _split_estimates(report: dict) -> dict:
    """Remove the error estimate and the bound built from it from a report dict; return them as hex."""
    out = {"error_estimate": report["quadrature"].pop("error_estimate").hex()}
    if "gradient_flux_rel_bound" in report.get("details", {}):
        out["gradient_flux_rel_bound"] = report["details"].pop("gradient_flux_rel_bound").hex()
    return out


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _reinhardt_points(spec: sf.ReinhardtSurface) -> np.ndarray:
    """Points whose s = |z2|^2 falls on every branch of ReinhardtProfile.eval."""
    p = spec.profile
    s = [p._knots]                                            # segment ends
    s.append(p.s_lo + np.geomspace(1e-9, 1e-3, 60) * p.s_end)  # next to the start
    s.append(np.linspace(p.s_lo, p.s_end, 300))               # segment polynomials
    s.append(p.s_end - np.geomspace(1e-9, 1e-4, 40) * p.s_end)
    if p.closed:
        w = p._cap[2]
        s.append(p.s_end + np.linspace(0.0, w, 40))           # quadratic cap
        s.append(p.s_end + w * np.linspace(1.0, 50.0, 40))    # linear tail
    s = np.concatenate(s)
    rng = np.random.default_rng(5)
    r1 = rng.uniform(0.0, 2.5, s.size)
    t1, t2 = rng.uniform(0.0, 2 * np.pi, (2, s.size))
    r2 = np.sqrt(s)
    return np.stack([r1 * np.cos(t1), r1 * np.sin(t1), r2 * np.cos(t2), r2 * np.sin(t2)], axis=1)


def main() -> None:
    for sname, make in SURFACES.items():
        for rname, q in RULES.items():
            spec = make()
            qd.clear_root_cache()

            def sigma2(pts, spec=spec):
                return sigma_batch(sf.eval_jets(spec, pts).mixed, 2)

            def gap(pts, spec=spec):
                return newton_gap_batch(sf.eval_jets(spec, pts).mixed, 2)

            results = {
                "surface_integral": qd.surface_integral(spec, lambda fr: cv.levi(fr, 1), q),
                "volume": qd.volume(spec, q),
                "bulk_integral": qd.bulk_integral(spec, sigma2, q),
            }
            row = {"surface": sname, "rule": rname, **{k: _hex(r) for k, r in results.items()}}
            (k, h), w, pts = qd.scan_boundary(spec, q, lambda fr: (cv.levi(fr, 1), cv.mean_curvature(fr)))
            row["scan_boundary"] = _sha(k, h, w, pts)
            row["scan_boundary_o4"] = _sha(*qd.scan_boundary(spec, qd.QuadratureSpec(order=4), lambda fr: fr.pgrad_norm))
            row["scan_bulk"] = _sha(qd.scan_bulk(spec, q, gap))
            print(json.dumps(row, sort_keys=True))
            estimates = {k: r.error_estimate.hex() for k, r in results.items()}
            print(json.dumps({"error_estimates": sname, "rule": rname, **estimates}, sort_keys=True))
    quadric = sf.PerturbedQuadric(2, c=1.0, hterms=QUADRIC_N2)
    (k1, k2), w, pts = qd.scan_boundary(quadric, qd.QuadratureSpec(order=6), lambda fr: (cv.levi(fr, 1), cv.levi(fr, 2)))
    print(json.dumps({"levi_scan": "quadric_complex_n2_o6", "sha256": _sha(k1, k2, w, pts)}))
    bands = {
        "regular": SURFACES["reinhardt"](),
        "band": sf.ReinhardtSurface(0.5, 3.5, fp0=-1.1, s0=0.8, smax=3.0),
    }
    for name, spec in bands.items():
        pts = _reinhardt_points(spec)
        print(json.dumps({"order2": _sha(*spec.derivatives(pts)), "reinhardt_derivatives": name}))
    ell = SURFACES["ellipsoid"]()
    exp_ell = sf.ExpReparam(ell)
    pts = np.random.default_rng(6).uniform(-1.5, 1.5, (500, 4))
    print(json.dumps({"exp_derivatives": "ellipsoid", "order2": _sha(*exp_ell.derivatives(pts))}))
    families = {
        "ellipsoid": ell, "dirichlet": SURFACES["dirichlet"](), "sphere_n2": sf.Sphere(1.5, n=2),
        "cylinder": sf.Cylinder(2.0, kind="curved"), "quadric_complex_n2": quadric,
        "user_quartic": sf.UserPolynomial(1, USER_QUARTIC, scale=1.2, validate=False),
        "reinhardt_regular": bands["regular"], "reinhardt_band": bands["band"], "exp_ellipsoid": exp_ell,
    }
    for name, spec in families.items():
        d = sf.eval_jets(spec, _family_points(spec))
        print(json.dumps({"wirtinger_hessians": name, "sha256": _sha(d.mixed, d.pure)}))
    roots = {
        "sphere": sf.Sphere(2.0), "ellipsoid": ell, "quadric_complex_n2": quadric,
        "user_quartic": families["user_quartic"], "reinhardt": bands["regular"],
    }
    for name, spec in roots.items():
        nodes = qd._nodes(spec, RULES["gauss_o12"])
        print(json.dumps({"radial_roots": name, "sha256": _sha(nodes.rho, nodes.slope)}))
    reports = {
        "integral_gauss": lambda: vf.verify_integral_formula(ell, 1, RULES["gauss_o12"]),
        "integral_exp": lambda: vf.verify_integral_formula(ell, 1, RULES["gauss_o12"], f_choice="exp"),
        "isoperimetric": lambda: vf.isoperimetric_ratio(ell, 1, RULES["gauss_o12"]),
        "alexandrov": lambda: vf.alexandrov_check(SURFACES["reinhardt"](), 1, RULES["gauss_o12"]),
        "dirichlet": lambda: vf.dirichlet_chain([1.0, 1.0, 1.0, 2.0], 1, RULES["gauss_o12"]),
        "newton": lambda: vf.newton_sweep(ell, 1, RULES["gauss_o12"]),
        "minkowski_equal_o16": lambda: vf.minkowski_residual(ell, qd.QuadratureSpec(order=16)),
        "minkowski_violated_o12": lambda: vf.minkowski_residual(ell, RULES["gauss_o12"]),
        "alexandrov_hypotheses": lambda: vf.alexandrov_check(sf.Ellipsoid([1.0, 1.0, 1.0, 2.0]), 1, RULES["gauss_o12"]),
        "isoperimetric_equal": lambda: vf.isoperimetric_ratio(sf.Sphere(1.0), 1, RULES["gauss_o12"]),
        "dirichlet_equal": lambda: vf.dirichlet_chain([1.0, 1.0, 1.0, 1.0], 1, RULES["gauss_o12"]),
        "dirichlet_violated_o4": lambda: vf.dirichlet_chain([1.0, 1.0, 1.0, 2.0], 1, RULES["gauss_o4"], -1.0),
        "newton_violated": lambda: vf.newton_sweep(ell, 1, RULES["gauss_o12"], -1.0),
    }
    for name, run in reports.items():
        report = run().to_dict()
        estimates = _split_estimates(report)
        text = json.dumps(report, indent=2) + "\n"
        print(json.dumps({"report": name, "sha256": hashlib.sha256(text.encode()).hexdigest()[:16]}))
        print(json.dumps({"report_estimates": name, **estimates}, sort_keys=True))


if __name__ == "__main__":
    main()
