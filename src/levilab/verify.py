"""Verification suites: integral formula, isoperimetric estimate, Minkowski
identity, the constant-curvature chain, and the Dirichlet-solution chain.

Each operation runs the relevant quadratures, compares the two sides at an
explicit tolerance, and returns a machine-readable VerificationReport whose
JSON form is byte-stable for fixed inputs. Each operation makes one boundary
pass: its boundary integrals and node scans come from one surface_integral
(or scan_boundary) call, so each chunk's frames are built once per order.
Inequalities report their margin; identities report both sides and the
relative error. The Dirichlet chain's gradient-flux sub-check allows a gap of
FLUX_TOL plus the quadratures' own error estimates, so a gap the rule cannot
resolve is not reported as a violation. Hypothesis failures (nonpositive
curvature at a node, non-constant curvature where constancy is assumed) are
never silently absorbed: they raise or downgrade the verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import curvature as cv
from . import quadrature as qd
from . import surfaces as sf
from .errors import HypothesisViolationError
from .hermitian import newton_gap_batch, sigma_batch

REPORT_SCHEMA_VERSION = "1"

DEFAULT_TOL = 1e-6
CONSTANCY_TOL = 1e-5
NEWTON_GAP_TOL = 1e-10
FLUX_TOL = 1e-7


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
        if kind in ("equal", "inequality_holds"):
            return 0
        if kind == "hypotheses_not_met":
            return 3
        return 2

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


def _quad_meta(q: qd.QuadratureSpec, *results: qd.IntegralResult) -> dict:
    return {
        "method": q.describe(),
        "nodes_used": int(sum(r.nodes_used for r in results)),
        "error_estimate": float(sum(r.error_estimate for r in results)),
    }


def _mixed_field(spec: sf.SurfaceSpec, fn, j: int):
    """fn(H, j + 1) at interior points, with H the mixed Hessian of the jets."""
    return lambda pts: fn(sf.eval_jets(spec, pts).mixed, j + 1)


def _levi_flux_field(j: int):
    def fn(frames):
        return frames.levi(j) * frames.pgrad_norm ** (j + 1)

    return fn


def _inv_levi_field(j: int):
    def fn(frames):
        k = frames.levi(j)
        if np.any(k <= 0):
            i = int(np.argmin(k))
            raise HypothesisViolationError(
                f"nonpositive curvature K={k[i]!r} at quadrature node with boundary point "
                f"{frames.points[i].tolist()}",
                point=frames.points[i],
            )
        return k ** (-1.0 / j)

    return fn


def _ones(frames):
    return np.ones(len(frames))


def _mean_curv_flux(frames):
    return cv.mean_curvature(frames) * np.einsum("bi,bi->b", frames.normal, frames.points)


def _pgrad(frames):
    return frames.pgrad_norm


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
    curvature flux; an exact identity for every defining function."""
    _check_j(spec, j)
    fspec = resolve_defining_function(spec, f_choice)
    n = fspec.n
    lhs_r = qd.bulk_integral(fspec, _mixed_field(fspec, sigma_batch, j), q)
    rhs_r = qd.surface_integral(fspec, _levi_flux_field(j), q)
    coef = math.comb(n + 1, j + 1) / (2 * (n + 1))
    lhs = lhs_r.value
    rhs = coef * rhs_r.value
    return VerificationReport(
        identity={"name": "integral_formula", "j": j, "f_choice": f_choice},
        lhs=lhs,
        rhs=rhs,
        verdict=_identity_verdict(lhs, rhs, tol),
        quadrature=_quad_meta(q, lhs_r, rhs_r),
        surface=fspec.canonical(),
    )


def isoperimetric_ratio(
    spec: sf.SurfaceSpec,
    j: int,
    q: qd.QuadratureSpec,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Integral of K^{-1/j} over the boundary against 2(n+1) |Omega|.

    Requires strictly positive curvature at every node (the integrand blows up
    otherwise); equality characterizes balls and the quadric equality family.
    """
    _check_j(spec, j)
    n = spec.n
    lhs_r = qd.surface_integral(spec, _inv_levi_field(j), q)
    vol_r = qd.volume(spec, q)
    lhs = lhs_r.value
    rhs = 2 * (n + 1) * vol_r.value
    ratio = lhs / rhs
    if abs(ratio - 1.0) <= tol:
        verdict = {"kind": "equal", "tol": tol, "margin": ratio - 1.0}
    elif ratio - 1.0 >= -tol:
        verdict = {"kind": "inequality_holds", "margin": ratio - 1.0}
    else:
        verdict = {"kind": "violated", "margin": ratio - 1.0}
    return VerificationReport(
        identity={"name": "isoperimetric", "j": j},
        lhs=lhs,
        rhs=rhs,
        verdict=verdict,
        quadrature=_quad_meta(q, lhs_r, vol_r),
        surface=spec.canonical(),
        details={"ratio": ratio},
    )


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
    return VerificationReport(
        identity={"name": "minkowski"},
        lhs=lhs,
        rhs=rhs,
        verdict=_identity_verdict(lhs, rhs, tol),
        quadrature=_quad_meta(q, area_r, mink_r),
        surface=spec.canonical(),
    )


def alexandrov_check(
    spec: sf.SurfaceSpec,
    j: int,
    q: qd.QuadratureSpec,
    constancy_tol: float = CONSTANCY_TOL,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Constant-curvature chain: K^{1/j} <= |boundary| / (2(n+1)|Omega|) <= max H.

    Constancy of K over the quadrature nodes is a hypothesis, not a conclusion;
    when the relative defect exceeds the tolerance the chain is not asserted
    and the report says so. max H is the maximum over the node grid, which
    under-approximates the true supremum; the grid is echoed in the metadata.
    """
    _check_j(spec, j)
    n = spec.n
    area_r, ((k_vals, h_vals), _, _) = qd.surface_integral(
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
    if defect > constancy_tol * k_scale:
        return VerificationReport(
            identity={"name": "alexandrov", "j": j},
            lhs=0.0,
            rhs=0.0,
            verdict={
                "kind": "hypotheses_not_met",
                "reason": f"curvature not constant: relative defect {defect / k_scale:.3e}",
            },
            quadrature=_quad_meta(q, area_r, vol_r),
            surface=spec.canonical(),
            details=details,
        )
    if k_lo <= 0:
        return VerificationReport(
            identity={"name": "alexandrov", "j": j},
            lhs=k_lo,
            rhs=max_h,
            verdict={"kind": "hypotheses_not_met", "reason": "curvature not positive"},
            quadrature=_quad_meta(q, area_r, vol_r),
            surface=spec.canonical(),
            details=details,
        )
    k_root = (0.5 * (k_lo + k_hi)) ** (1.0 / j)
    margin_1 = ratio - k_root
    margin_2 = max_h - ratio
    details["margins"] = [margin_1, margin_2]
    chain_scale = max(abs(k_root), abs(ratio), abs(max_h))
    ok = margin_1 >= -tol * chain_scale and margin_2 >= -tol * chain_scale
    verdict = (
        {"kind": "inequality_holds", "margin": min(margin_1, margin_2)}
        if ok
        else {"kind": "violated", "margin": min(margin_1, margin_2)}
    )
    return VerificationReport(
        identity={"name": "alexandrov", "j": j},
        lhs=k_root,
        rhs=max_h,
        verdict=verdict,
        quadrature=_quad_meta(q, area_r, vol_r),
        surface=spec.canonical(),
        details=details,
    )


def dirichlet_chain(
    axes,
    j: int,
    q: qd.QuadratureSpec,
    tol: float = DEFAULT_TOL,
) -> VerificationReport:
    """Chain of estimates for the unit-trace quadratic on an ellipsoid.

    (1) bulk sigma_{j+1} against its symmetric-function bound, equality exactly
    when the constant Hessian is a multiple of the identity; (2) the gradient
    flux equals twice the volume, up to FLUX_TOL * 2|Omega| plus the error
    estimates of the flux and of twice the volume (the bound relative to
    2|Omega| is details["gradient_flux_rel_bound"]); (3) the Hoelder lower
    bound on the curvature flux; (4) when the Hessian is a multiple of the
    identity, the pointwise product K^{1/j} (n+1) |del f| is 1 on the whole
    boundary.
    """
    dspec = sf.DirichletQuadratic(axes)
    _check_j(dspec, j)
    n = dspec.n
    vol_r = qd.volume(dspec, q)
    lhs1_r = qd.bulk_integral(dspec, _mixed_field(dspec, sigma_batch, j), q)
    rhs1 = math.comb(n + 1, j + 1) * vol_r.value / (n + 1) ** (j + 1)
    margin1 = rhs1 - lhs1_r.value

    diag = dspec.hessian_diagonal()
    proportional = float(np.max(diag) - np.min(diag)) <= 1e-12 * float(np.max(diag))
    # one pass, one K_j per chunk for the flux and K^{-1/j}; the pointwise product is read when proportional
    (pg_r, flux_w_r, inv_r), (dev, _, _) = qd.surface_integral(
        dspec, (_pgrad, _levi_flux_field(j), _inv_levi_field(j)), q,
        scan=lambda fr: np.abs(fr.levi(j) ** (1.0 / j) * (n + 1) * fr.pgrad_norm - 1.0),
    )
    gradc_dev = float(np.max(dev)) if proportional else None
    flux_scale = max(abs(2 * vol_r.value), 1e-300)
    flux_rel = abs(pg_r.value - 2 * vol_r.value) / flux_scale
    flux_rel_bound = FLUX_TOL + (pg_r.error_estimate + 2 * vol_r.error_estimate) / flux_scale

    holder_bound = pg_r.value ** (j + 1) / inv_r.value**j
    margin3 = flux_w_r.value - holder_bound

    ok1 = margin1 >= -tol * max(rhs1, 1e-300)
    ok2 = flux_rel <= flux_rel_bound
    ok3 = margin3 >= -tol * max(abs(flux_w_r.value), 1e-300)
    ok4 = gradc_dev is None or gradc_dev <= NEWTON_GAP_TOL
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
    if ok1 and ok2 and ok3 and ok4:
        if abs(margin1) <= tol * max(rhs1, 1e-300):
            verdict = {"kind": "equal", "tol": tol, "margin": margin1}
        else:
            verdict = {"kind": "inequality_holds", "margin": margin1}
    else:
        verdict = {
            "kind": "violated",
            "failed": [name for name, ok in (("bulk_bound", ok1), ("gradient_flux", ok2),
                                             ("holder", ok3), ("pointwise_product", ok4)) if not ok],
        }
    return VerificationReport(
        identity={"name": "dirichlet_chain", "j": j},
        lhs=lhs1_r.value,
        rhs=rhs1,
        verdict=verdict,
        quadrature=_quad_meta(q, vol_r, lhs1_r, pg_r, flux_w_r, inv_r),
        surface=dspec.canonical(),
        details=details,
    )


def newton_sweep(
    spec: sf.SurfaceSpec,
    j: int,
    q: qd.QuadratureSpec,
    gap_tol: float = NEWTON_GAP_TOL,
    shells: int = 3,
) -> VerificationReport:
    """Minimum symmetric-function gap of the mixed Hessian over boundary nodes
    and an interior radial sample; nonnegative for every real surface."""
    _check_j(spec, j)
    gaps_b, _, _ = qd.scan_boundary(spec, q, lambda fr: newton_gap_batch(fr.whess, j + 1))
    gaps_i = qd.scan_bulk(spec, q, _mixed_field(spec, newton_gap_batch, j), shells=shells)
    min_gap = float(min(np.min(gaps_b), np.min(gaps_i)))
    ok = min_gap >= -gap_tol
    return VerificationReport(
        identity={"name": "newton_sweep", "j": j},
        lhs=min_gap,
        rhs=0.0,
        verdict={"kind": "inequality_holds" if ok else "violated", "margin": min_gap},
        quadrature={"method": q.describe(), "nodes_used": int(gaps_b.size + gaps_i.size), "error_estimate": 0.0},
        surface=spec.canonical(),
        details={"boundary_min_gap": float(np.min(gaps_b)), "interior_min_gap": float(np.min(gaps_i))},
    )
