"""Bit-level fingerprint of the quadrature passes, for comparing two checkouts.

Prints one JSON line per probe: the float.hex of value and error estimate
plus nodes_used for surface_integral, volume and bulk_integral, a sha256 of
the raw bytes returned by scan_boundary and scan_bulk, and a sha256 of a few
verification reports. A change that must keep the arithmetic order is
bit-identical when the two outputs are equal:

    PYTHONPATH=<old>/src python tests/quadrature_probe.py > old.jsonl
    PYTHONPATH=<new>/src python tests/quadrature_probe.py > new.jsonl
    diff old.jsonl new.jsonl

Run it with LEVILAB_THREADS unset or 1. It is not collected by pytest.
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
RULES = {
    "gauss_o12": qd.QuadratureSpec(order=12),
    "gauss_o18": qd.QuadratureSpec(order=18),  # two chunks of CHUNK nodes
    "gauss_o4": qd.QuadratureSpec(order=4),
    "gauss_o7_radial3": qd.QuadratureSpec(order=7, radial_order=3),
    "mc": qd.QuadratureSpec(method="mc", samples=20_000, seed=3),  # three chunks
}


def _hex(r: qd.IntegralResult) -> list:
    return [r.value.hex(), r.error_estimate.hex(), r.nodes_used]


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def main() -> None:
    for sname, make in SURFACES.items():
        for rname, q in RULES.items():
            spec = make()
            qd.clear_root_cache()

            def sigma2(pts, spec=spec):
                return sigma_batch(cv.complex_hessian(sf.eval_jets(spec, pts).hess), 2)

            def gap(pts, spec=spec):
                return newton_gap_batch(cv.complex_hessian(sf.eval_jets(spec, pts).hess), 2)

            row = {
                "surface": sname,
                "rule": rname,
                "surface_integral": _hex(qd.surface_integral(spec, lambda fr: cv.levi(fr, 1), q)),
                "volume": _hex(qd.volume(spec, q)),
                "bulk_integral": _hex(qd.bulk_integral(spec, sigma2, q)),
            }
            (k, h), w, pts = qd.scan_boundary(spec, q, lambda fr: (cv.levi(fr, 1), cv.mean_curvature(fr)))
            row["scan_boundary"] = _sha(k, h, w, pts)
            row["scan_boundary_o4"] = _sha(*qd.scan_boundary(spec, q, lambda fr: fr.pgrad_norm, order=4))
            row["scan_bulk"] = _sha(qd.scan_bulk(spec, q, gap, shells=3))
            print(json.dumps(row, sort_keys=True))
    ell = SURFACES["ellipsoid"]()
    reports = {
        "integral_gauss": lambda: vf.verify_integral_formula(ell, 1, RULES["gauss_o12"]),
        "integral_mc": lambda: vf.verify_integral_formula(ell, 1, RULES["mc"]),
        "isoperimetric": lambda: vf.isoperimetric_ratio(ell, 1, RULES["gauss_o12"]),
        "minkowski_mc": lambda: vf.minkowski_residual(ell, RULES["mc"]),
        "alexandrov": lambda: vf.alexandrov_check(SURFACES["reinhardt"](), 1, RULES["gauss_o12"]),
        "dirichlet": lambda: vf.dirichlet_chain([1.0, 1.0, 1.0, 2.0], 1, RULES["gauss_o12"]),
        "newton": lambda: vf.newton_sweep(ell, 1, RULES["gauss_o12"]),
    }
    for name, run in reports.items():
        text = run().to_json()
        print(json.dumps({"report": name, "sha256": hashlib.sha256(text.encode()).hexdigest()[:16]}))


if __name__ == "__main__":
    main()
