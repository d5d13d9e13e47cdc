"""Verification suites: integral formula, isoperimetric estimate, Minkowski
identity, the constant-curvature chain, and the Dirichlet-solution chain.

Each operation runs the relevant quadratures, compares the two sides at an
explicit tolerance, and returns a machine-readable VerificationReport whose
JSON form is byte-stable for fixed inputs. Each operation makes one boundary
pass: its boundary integrals and node scans come from one surface_integral
(or scan_boundary) call, so each chunk's frames are built once per order. A
bulk side on a quadratic (constant H) is sigma_{j+1}(H) times the volume pass,
with no interior node; other families layer Gauss nodes along each ray.
Identities are equal when rel_err <= tol. One rule decides every inequality
(isoperimetric, Alexandrov, Dirichlet chain, Newton sweep) on its margin: equal
when equality is possible and |margin| <= slack, inequality_holds when margin
>= -slack, else violated; slack is tol in the suite's scale. The Dirichlet
gradient-flux sub-check allows a gap of FLUX_TOL plus the quadratures' own
error estimates, so a gap the rule cannot resolve is not reported as a
violation. A hypothesis (K > 0, constant K, H in a Garding cone) is checked on
the nodes a suite visits; where it fails the verdict is hypotheses_not_met.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import curvature as cv
from . import quadrature as qd
from . import surfaces as sf
from .hermitian import newton_gap_batch, sigma_batch

REPORT_SCHEMA_VERSION = "1"

DEFAULT_TOL = 1e-6
CONSTANCY_TOL = 1e-5
NEWTON_GAP_TOL = 1e-10
FLUX_TOL = 1e-7
EXIT_CODES = {"equal": 0, "inequality_holds": 0, "violated": 2, "hypotheses_not_met": 3}  # every kind emitted


@dataclass(frozen=True)
class VerificationReport:
    """One identity check: both sides, errors, verdict, and run metadata."""

    identity: dict
    lhs: float
    rhs: float
    verdict: dict
    quadrature: dict
    surface: str
    details: dict | None = None

    @property
    def abs_err(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def rel_err(self) -> float:
        return _rel_err(self.lhs, self.rhs)

    @property
    def exit_code(self) -> int:
        kind = self.verdict.get("kind")
        if kind not in EXIT_CODES:
            raise ValueError(f"verdict kind {kind!r} has no exit code")
        return EXIT_CODES[kind]

    def to_dict(self, config: dict | None = None) -> dict:
        out = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "identity": self.identity,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "verdict": self.verdict,
            "quadrature": self.quadrature,
            "surface": self.surface,
        }
        if self.details is not None:
            out["details"] = self.details
        if config is not None:
            out["config"] = config
        return out

    def to_json(self, config: dict | None = None) -> str:
        return json.dumps(self.to_dict(config), indent=2) + "\n"


def _rel_err(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def _identity_verdict(lhs: float, rhs: float, tol: float) -> dict:
    """An identity's verdict: equal when the sides agree to tol in rel_err, else violated."""
    return {"kind": "equal" if _rel_err(lhs, rhs) <= tol else "violated", "tol": tol}


def _inequality_verdict(margin: float, slack: float, tol: float | None = None) -> dict:
    """The one inequality rule: equal when equality is possible (tol given) and |margin| <= slack,
    inequality_holds when margin >= -slack, violated otherwise."""
    if tol is not None and abs(margin) <= slack:
        return {"kind": "equal", "tol": tol, "margin": margin}
    return {"kind": "inequality_holds" if margin >= -slack else "violated", "margin": margin}


def _report(spec: sf.SurfaceSpec, quadrature: dict, lhs: float, rhs: float, verdict: dict,
            details: dict | None = None, **identity) -> VerificationReport:
    return VerificationReport(identity, lhs, rhs, verdict, quadrature, spec.canonical(), details)


def _quad_meta(q: qd.QuadratureSpec, *results: qd.IntegralResult) -> dict:
    return {
        "method": q.describe(),
        "nodes_used": int(sum(r.nodes_used for r in results)),
        "error_estimate": float(sum(r.error_estimate for r in results)),
    }


def _mixed_field(spec: sf.SurfaceSpec, fn, j: int):
    """fn(H, j + 1) at interior points, with H from eval_mixed: a quadratic's constant H, f never evaluated."""
    return lambda pts: fn(sf.eval_mixed(spec, pts), j + 1)


def _bulk_sigma(spec: sf.SurfaceSpec, j: int, q: qd.QuadratureSpec, vol: qd.IntegralResult | None = None):
    """Bulk integral of sigma_{j+1}(H): for a quadratic's constant H exactly sigma_{j+1}(H) times the volume
    pass vol (run when None), estimate scaled by |sigma|; any other f by bulk_integral's radial layering."""
    constant = spec.poly.constant_hessians(1) if hasattr(spec, "poly") else None
    if constant is None:
        return qd.bulk_integral(spec, _mixed_field(spec, sigma_batch, j), q)
    c = float(sigma_batch(constant[0], j + 1)[0])
    vol = qd.volume(spec, q) if vol is None else vol
    return qd.IntegralResult(c * vol.value, abs(c) * vol.error_estimate, vol.nodes_used)


def _levi_flux_field(j: int):
    return lambda frames: frames.levi(j) * frames.pgrad_norm ** (j + 1)


def _inv_levi_field(j: int):
    """K^{-1/j}; 0, and no warning, where K <= 0, which the _nonpositive_levi scan reports."""
    return lambda frames: np.where(frames.levi(j) > 0, frames.levi(j), np.inf) ** (-1.0 / j)


def _nonpositive_levi(frames, j: int):
    """K_j and the boundary points of a batch's nodes where K_j <= 0, in node order: the scan _levi_unmet reads."""
    bad = frames.levi(j) <= 0
    return frames.levi(j)[bad], frames.points[bad]


def _levi_unmet(k: np.ndarray, points: np.ndarray) -> dict | None:
    """hypotheses_not_met at the first node of a _nonpositive_levi scan, or None where it found none."""
    return {"kind": "hypotheses_not_met", "reason": f"nonpositive curvature K={float(k[0])} at quadrature node "
            f"with boundary point {points[0].tolist()}"} if len(k) else None


def _ones(frames):
    return np.ones(len(frames))


def _mean_curv_flux(frames):
    return cv.mean_curvature(frames) * sum(nu * x for nu, x in zip(frames.normal.T, frames.points.T))  # <normal, x>


def _pgrad(frames):
    return frames.pgrad_norm


def _gap_and_cone(h: np.ndarray, k: int) -> np.ndarray:
    """Per node, newton_gap_batch(H, k) and for k >= 3 min(sigma_1 .. sigma_k), > 0 where H is in the cone Gamma_k."""
    cone = [np.min([sigma_batch(h, i) for i in range(1, k + 1)], axis=0)] if k > 2 else []
    return np.stack([newton_gap_batch(h, k), *cone], axis=-1)


def _check_j(spec: sf.SurfaceSpec, j: int) -> None:
    if not 1 <= j <= spec.n:
        raise ValueError(f"j={j} out of range 1..{spec.n} for this surface")


def resolve_defining_function(spec: sf.SurfaceSpec, f_choice: str) -> sf.SurfaceSpec:
    """Swap the defining function while keeping the zero set."""
    if f_choice == "default":
        return spec
    if f_choice == "exp":
        return sf.ExpReparam(spec)
    if f_choice == "dirichlet":
        base = spec.base if isinstance(spec, sf.ExpReparam) else spec
        if isinstance(base, sf.DirichletQuadratic):
            return base
        if not isinstance(base, sf.Ellipsoid):
            raise ValueError("the quadratic defining function is available only for ellipsoids")
        if np.any(base.center != 0):
            raise ValueError("the quadratic defining function requires a centered ellipsoid")
        return sf.DirichletQuadratic(base.axes)
    raise ValueError(f"unknown f_choice {f_choice!r}")


def verify_integral_formula(
    spec: sf.SurfaceSpec,
    j: int,
    q: qd.QuadratureSpec,
    f_choice: str = "default",
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Bulk integral of sigma_{j+1} of the mixed Hessian against the weighted
    curvature flux; an exact identity for every defining function. A quadratic's
    bulk side is sigma_{j+1}(H)|Omega| from one volume pass."""
    _check_j(spec, j)
    fspec = resolve_defining_function(spec, f_choice)
    n = fspec.n
    lhs_r = _bulk_sigma(fspec, j, q)
    rhs_r = qd.surface_integral(fspec, _levi_flux_field(j), q)
    coef = math.comb(n + 1, j + 1) / (2 * (n + 1))
    lhs, rhs = lhs_r.value, coef * rhs_r.value
    return _report(fspec, _quad_meta(q, lhs_r, rhs_r), lhs, rhs, _identity_verdict(lhs, rhs, tol),
                   name="integral_formula", j=j, f_choice=f_choice)


def isoperimetric_ratio(
    spec: sf.SurfaceSpec,
    j: int,
    q: qd.QuadratureSpec,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Integral of K^{-1/j} over the boundary against 2(n+1) |Omega|.

    Assumes K > 0 at every node; where not, the integrand reads 0 and the verdict is hypotheses_not_met, naming
    the first such node. Equality characterizes balls and the quadric equality family.
    """
    _check_j(spec, j)
    n = spec.n
    lhs_r, unmet = qd.surface_integral(spec, _inv_levi_field(j), q, scan=lambda fr: _nonpositive_levi(fr, j))
    vol_r = qd.volume(spec, q)
    lhs, rhs = lhs_r.value, 2 * (n + 1) * vol_r.value
    ratio = lhs / rhs
    verdict = _levi_unmet(*unmet) or _inequality_verdict(ratio - 1.0, tol, tol)
    return _report(spec, _quad_meta(q, lhs_r, vol_r), lhs, rhs, verdict, {"ratio": ratio}, name="isoperimetric", j=j)


def minkowski_residual(
    spec: sf.SurfaceSpec,
    q: qd.QuadratureSpec,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Total area against the mean-curvature moment of the position field.

    The position is measured from the origin of the ambient coordinates, not
    from the star center; the identity is translation invariant because the
    mean-curvature vector field integrates to zero over a closed surface.
    """
    area_r, mink_r = qd.surface_integral(spec, (_ones, _mean_curv_flux), q)
    lhs, rhs = area_r.value, mink_r.value
    return _report(spec, _quad_meta(q, area_r, mink_r), lhs, rhs, _identity_verdict(lhs, rhs, tol), name="minkowski")


def alexandrov_check(
    spec: sf.SurfaceSpec,
    j: int,
    q: qd.QuadratureSpec,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Constant-curvature chain: K^{1/j} <= |boundary| / (2(n+1)|Omega|) <= max H.

    Constancy of K over the quadrature nodes is a hypothesis, not a conclusion;
    when the relative defect exceeds CONSTANCY_TOL the chain is not asserted
    and the report says so. max H is the maximum over the node grid, which
    under-approximates the true supremum; the grid is echoed in the metadata.
    """
    _check_j(spec, j)
    n = spec.n
    area_r, (k_vals, h_vals) = qd.surface_integral(
        spec, _ones, q, scan=lambda fr: (fr.levi(j), cv.mean_curvature(fr))
    )
    vol_r = qd.volume(spec, q)
    k_lo, k_hi = float(np.min(k_vals)), float(np.max(k_vals))
    defect = k_hi - k_lo
    k_scale = max(abs(k_lo), abs(k_hi), 1e-300)
    max_h = float(np.max(h_vals))
    ratio = area_r.value / (2 * (n + 1) * vol_r.value)
    details = {
        "k_min": k_lo,
        "k_max": k_hi,
        "k_defect_rel": defect / k_scale,
        "area_over_scaled_volume": ratio,
        "max_mean_curvature": max_h,
        "node_grid": q.describe(),
    }
    if defect > CONSTANCY_TOL * k_scale:
        lhs, rhs = 0.0, 0.0
        verdict = {"kind": "hypotheses_not_met",
                   "reason": f"curvature not constant: relative defect {defect / k_scale:.3e}"}
    elif k_lo <= 0:
        lhs, rhs = k_lo, max_h
        verdict = {"kind": "hypotheses_not_met", "reason": "curvature not positive"}
    else:
        lhs, rhs = (0.5 * (k_lo + k_hi)) ** (1.0 / j), max_h
        details["margins"] = [ratio - lhs, max_h - ratio]
        # both margins clear the slack exactly when the smaller one does
        verdict = _inequality_verdict(min(details["margins"]), tol * max(abs(lhs), abs(ratio), abs(max_h)))
    return _report(spec, _quad_meta(q, area_r, vol_r), lhs, rhs, verdict, details, name="alexandrov", j=j)


def dirichlet_chain(
    axes,
    j: int,
    q: qd.QuadratureSpec,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Chain of estimates for the unit-trace quadratic on an ellipsoid.

    (1) bulk sigma_{j+1}(H)|Omega|, read from the volume pass of (2), against
    its symmetric-function bound, equality exactly when the constant Hessian is
    a multiple of the identity; (2) the gradient flux equals twice the volume,
    up to FLUX_TOL * 2|Omega| plus the error estimates of the flux and of twice
    the volume (the bound relative to 2|Omega| is
    details["gradient_flux_rel_bound"]); (3) the Hoelder lower bound on the
    curvature flux; (4) when the Hessian is a multiple of the identity, the
    pointwise product K^{1/j} (n+1) |del f| is 1 on the whole boundary.
    """
    dspec = sf.DirichletQuadratic(axes)
    _check_j(dspec, j)
    n = dspec.n
    vol_r = qd.volume(dspec, q)
    lhs1_r = _bulk_sigma(dspec, j, q, vol_r)
    rhs1 = math.comb(n + 1, j + 1) * vol_r.value / (n + 1) ** (j + 1)
    margin1 = rhs1 - lhs1_r.value

    diag = dspec.hessian_diagonal()
    proportional = float(np.max(diag) - np.min(diag)) <= 1e-12 * float(np.max(diag))
    # one pass, one K_j per chunk for the flux and K^{-1/j}; the pointwise product is read when proportional
    (pg_r, flux_w_r, inv_r), (dev, *unmet) = qd.surface_integral(
        dspec, (_pgrad, _levi_flux_field(j), _inv_levi_field(j)), q,
        scan=lambda fr: (np.abs(np.maximum(fr.levi(j), 0.0) ** (1.0 / j) * (n + 1) * fr.pgrad_norm - 1.0),
                         *_nonpositive_levi(fr, j)),
    )
    gradc_dev = float(np.max(dev)) if proportional else None
    flux_scale = max(abs(2 * vol_r.value), 1e-300)
    flux_rel = abs(pg_r.value - 2 * vol_r.value) / flux_scale
    flux_rel_bound = FLUX_TOL + (pg_r.error_estimate + 2 * vol_r.error_estimate) / flux_scale

    holder_bound = pg_r.value ** (j + 1) / inv_r.value**j if inv_r.value else 0.0  # 0: K <= 0 at every node
    margin3 = flux_w_r.value - holder_bound

    verdict = _inequality_verdict(margin1, tol * max(rhs1, 1e-300), tol)
    holder = _inequality_verdict(margin3, tol * max(abs(flux_w_r.value), 1e-300))
    failed = [name for name, ok in (("bulk_bound", verdict["kind"] != "violated"),
                                    ("gradient_flux", flux_rel <= flux_rel_bound),
                                    ("holder", holder["kind"] != "violated"),
                                    ("pointwise_product", gradc_dev is None or gradc_dev <= NEWTON_GAP_TOL)) if not ok]
    details = {
        "bulk_bound_margin": margin1,
        "bulk_bound_margin_rel": margin1 / max(rhs1, 1e-300),
        "gradient_flux": pg_r.value,
        "gradient_flux_rel_err": flux_rel,
        "gradient_flux_rel_bound": flux_rel_bound,
        "holder_margin": margin3,
        "hessian_diagonal": [float(d) for d in diag],
        "hessian_proportional_to_identity": proportional,
        "pointwise_product_max_dev": gradc_dev,
    }
    verdict = _levi_unmet(*unmet) or ({"kind": "violated", "failed": failed} if failed else verdict)
    return _report(dspec, _quad_meta(q, vol_r, lhs1_r, pg_r, flux_w_r, inv_r), lhs1_r.value, rhs1, verdict,
                   details, name="dirichlet_chain", j=j)


def newton_sweep(
    spec: sf.SurfaceSpec,
    j: int,
    q: qd.QuadratureSpec,
    tol: float = NEWTON_GAP_TOL,
) -> VerificationReport:
    """Minimum gap C(n+1, j+1) (tr H / (n+1))^{j+1} - sigma_{j+1}(H) of the mixed Hessian over boundary nodes and
    an interior radial sample: a sum of squares for j = 1; for j >= 2 nonnegative where H lies in the Garding cone
    Gamma_{j+1} (Lin & Trudinger, Bull. Austral. Math. Soc. 50, 1994), else hypotheses_not_met."""
    _check_j(spec, j)
    gaps_b = qd.scan_boundary(spec, q, lambda fr: _gap_and_cone(fr.whess, j + 1))
    gaps_i = qd.scan_bulk(spec, q, _mixed_field(spec, _gap_and_cone, j))
    lo_b, lo_i = np.min(gaps_b, axis=0), np.min(gaps_i, axis=0)  # the gap, then for j >= 2 the cone's sigma
    min_gap, cone = float(min(lo_b[0], lo_i[0])), float(min(lo_b[-1], lo_i[-1]))
    verdict = _inequality_verdict(min_gap, tol) if j == 1 or cone > 0 else {
        "kind": "hypotheses_not_met", "reason": f"H outside the Garding cone Gamma_{j + 1}: smallest sigma_i {cone}"}
    quadrature = {"method": q.describe(), "nodes_used": len(gaps_b) + len(gaps_i), "error_estimate": 0.0}
    return _report(spec, quadrature, min_gap, 0.0, verdict,
                   {"boundary_min_gap": float(lo_b[0]), "interior_min_gap": float(lo_i[0])}, name="newton_sweep", j=j)
