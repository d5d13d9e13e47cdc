"""Pointwise boundary geometry: Wirtinger data, Levi forms, curvatures.

Conventions fixed here and relied on everywhere else:

* f < 0 inside, so the outward normal is grad f / |grad f| and spheres get
  positive curvatures.
* The jets carry the real gradient, H_lk = d^2 f / dz_l dzbar_k (whess) and
  S_lk = d^2 f / dz_l dz_k (pure); the real Hessian is never formed.
* pgrad_norm is the norm of the complex gradient (f_1, ..., f_{n+1}), which is
  half the real gradient norm for real f.
* The mean curvature is div(grad f / |grad f|) / (2n+1), the normalization
  under which a sphere of radius R has mean curvature 1/R. With u the complex
  form of grad f, it reads Laplace f = 4 tr H and (grad f)^T (D^2 f) grad f =
  2 Re(u^T S u) + 2 u^T H conj(u), summed over the upper triangle.

Every function operates on a FrameBatch, the boundary data at a batch of
points; a single point is a batch of one. Its arrays have shape (B, ...) and,
as the jets give them, coordinate-major memory: each coordinate, gradient
component and H or S entry is one contiguous row over the batch. K_j is
defined by gradient-bordered minors, and computed by the lemma of Reilly's
method (Reilly, Michigan Math. J. 20, 1973): their sum over the (j+1)-index
sets equals -<T_j(H) del f, del f>, with T_j = d sigma_{j+1} / dH the Newton
tensor (hermitian.newton_upper, formed once for a quadratic's constant H). So
K_j is one Hermitian form in the Wirtinger gradient, taken in real arithmetic
on its real and imaginary rows; no bordered determinant is formed.
wirtinger.check_lemma_identity proves the lemma exactly. Real input is
assumed (all defining functions here are real-valued): H must be Hermitian,
and levi checks it to hermitian.HERMITIAN_TOL relative to the largest entry
(NotHermitianError otherwise), which is what keeps the bordered minors real.
With nu = FrameBatch.nu and P = I - nu nu*, K_j equals
sigma_j(P H P) / (C(n, j) |del f|^j); the tests check levi against that form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGradientError, DomainError
from .hermitian import check_hermitian, newton_upper
from .surfaces import BOUNDARY_VALUE_TOL, GRADIENT_FLOOR, SurfaceSpec, eval_jets, wirtinger_gradient


def complex_hessian(rhess: np.ndarray) -> np.ndarray:
    """(..., 2N, 2N) real Hessian -> (..., N, N) H, entry (l, k) the z_l, zbar_k derivative."""
    return 0.25 * (rhess[..., 0::2, 0::2] + rhess[..., 1::2, 1::2]
                   + 1j * (rhess[..., 0::2, 1::2] - rhess[..., 1::2, 0::2]))


@dataclass
class FrameBatch:
    """Boundary data at a batch of on-surface points.

    Carries the real and complex gradients and the jets' H and S; constructed
    through at_points, which verifies that the points actually lie on the zero
    set and that the gradient is nondegenerate. The unit normals normal and nu
    are computed on read.
    """

    spec: SurfaceSpec
    points: np.ndarray      # (B, 2N), coordinate-major: points.T is C-contiguous
    rgrad: np.ndarray       # (B, 2N), coordinate-major
    wgrad: np.ndarray       # (B, N) complex, in rgrad's memory order
    whess: np.ndarray       # (B, N, N) complex, mixed: H; entry-major, or one matrix broadcast
    pure: np.ndarray        # (B, N, N) complex, pure: S; likewise
    pgrad_norm: np.ndarray  # (B,)  |complex gradient|
    _levi: dict = field(default_factory=dict, repr=False, compare=False)  # j -> K_j, kept by levi(j)

    @property
    def n(self) -> int:
        return self.spec.n

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def normal(self) -> np.ndarray:
        """(B, 2N) outward unit normal rgrad / |grad f|."""
        return self.rgrad / (2.0 * self.pgrad_norm)[:, None]  # 2 pgrad_norm is |grad f| exactly

    @property
    def nu(self) -> np.ndarray:
        """(B, N) complex unit normal wgrad / pgrad_norm."""
        return self.wgrad / self.pgrad_norm[:, None]

    @classmethod
    def at_points(cls, spec: SurfaceSpec, pts) -> "FrameBatch":
        pts = np.atleast_2d(np.asarray(pts, dtype=float))  # a single point is a batch of one
        j = eval_jets(spec, pts)
        value, rgrad = j.val, j.grad
        off = np.abs(value) > BOUNDARY_VALUE_TOL * max(1.0, spec.scale**2)
        if np.any(off):
            i = int(np.argmax(np.abs(value)))
            raise ValueError(f"point {pts[i].tolist()} is off the boundary: f = {float(value[i])!r}")
        frames = cls(spec=spec, points=pts, rgrad=rgrad, wgrad=wirtinger_gradient(rgrad), whess=j.mixed, pure=j.pure,
                     pgrad_norm=np.sqrt(sum(g * g for g in rgrad.T)) / 2.0)  # a column sum, as radial_roots
        _gradient_norm(frames)
        return frames

    def levi(self, j: int) -> np.ndarray:
        if j not in self._levi:
            self._levi[j] = k = levi(self, j)
            k.setflags(write=False)  # one array for every reader of the batch
        return self._levi[j]


def _gradient_norm(frames: FrameBatch) -> np.ndarray:
    """|grad f| = 2 pgrad_norm, exactly; at or below GRADIENT_FLOOR a point is characteristic."""
    gnorm = 2.0 * frames.pgrad_norm
    if np.any(gnorm <= GRADIENT_FLOOR):
        i = int(np.argmin(gnorm))
        raise DegenerateGradientError(f"|grad f| = {gnorm[i]:.3e} at {frames.points[i].tolist()}: characteristic point")
    return gnorm


def levi(frames: FrameBatch, j: int) -> np.ndarray:
    """j-th Levi curvature <T_j(H) del f, del f> / (C(n, j) |del f|^(j+2)).

    The numerator is minus the sum of the gradient-bordered minors on the (j+1)-index sets, the count of
    which normalizes it, with the sign that makes spheres positive (f < 0 inside).
    """
    n = frames.n
    if not 1 <= j <= n:
        raise ValueError(f"j={j} out of range 1..{n}")
    gnorm = _gradient_norm(frames)
    check_hermitian(frames.whess)
    with np.errstate(over="ignore", invalid="ignore"):
        total = _levi_form(frames.wgrad, newton_upper(frames.whess, j))
        scale = math.comb(n, j) * frames.pgrad_norm ** (j + 2)
    finite = np.isfinite(total) & np.isfinite(scale)
    if not np.all(finite):
        i = int(np.argmin(finite))
        raise DomainError(f"|grad f| = {gnorm[i]:.3e}: the bordered-minor sum or (|grad f| / 2)^{j + 2} "
                          "overflows a float")
    return total / scale


def _levi_form(w: np.ndarray, upper: list) -> np.ndarray:
    """sum_lk w_l T_lk conj(w_k) for Hermitian T given by its upper triangle (l, k, T_lk), in real arithmetic
    on the rows a + i b of w: T_ll |w_l|^2, and for l < k twice Re T_lk (a_l a_k + b_l b_k) + Im T_lk
    (a_l b_k - b_l a_k). The entries of a constant T are numbers, and its zero parts are skipped."""
    a, b = np.ascontiguousarray(w.real.T), np.ascontiguousarray(w.imag.T)
    form = np.zeros(len(w))
    for l, k, c in upper:
        constant = np.ndim(c) == 0
        if l == k:
            if not constant or c.real:
                form += c.real * (a[l] * a[l] + b[l] * b[l])
            continue
        if not constant or c.real:
            form += 2.0 * c.real * (a[l] * a[k] + b[l] * b[k])
        if not constant or c.imag:
            form += 2.0 * c.imag * (a[l] * b[k] - b[l] * a[k])
    return form


def mean_curvature(frames: FrameBatch) -> np.ndarray:
    """Euclidean mean curvature: divergence of the unit normal over 2n+1.

    tr H and Re(u^T S u) + u^T H conj(u) are explicit sums over the upper triangle (S symmetric, H
    Hermitian); a broadcast H or S is read through stride-0 columns, never built as a batch.
    """
    gnorm = _gradient_norm(frames)
    w, h, s = frames.wgrad, frames.whess, frames.pure
    u = np.conj(w)  # the complex form of grad f, halved
    lap = sum(h[:, i, i].real for i in range(w.shape[1]))
    quad = np.zeros(len(w))
    for l in range(w.shape[1]):
        row = s[:, l, l] * u[:, l] + h[:, l, l] * w[:, l]
        for k in range(l + 1, w.shape[1]):
            row += 2.0 * (s[:, l, k] * u[:, k] + h[:, l, k] * w[:, k])
        quad += (u[:, l] * row).real
    div_normal = 4.0 * lap / gnorm - 8.0 * quad / gnorm**3
    return div_normal / (2 * frames.n + 1)
