"""Pointwise boundary geometry: Wirtinger data, bordered minors, curvatures.

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
defined by gradient-bordered minors: one (j+2) x (j+2) determinant per
(j+1)-index set, each taken over the whole batch by hermitian.det_batch
(closed forms up to 4 x 4, so n <= 2 never reaches LAPACK). Real input is
assumed (all defining functions here are real-valued), so bordered
determinants are real and their rounding-level imaginary parts are checked and
dropped. With nu = FrameBatch.nu and P = I - nu nu*, K_j equals
sigma_j(P H P) / (C(n, j) |del f|^j); the tests check levi against that form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGradientError, DomainError
from .hermitian import det_batch
from .surfaces import BOUNDARY_VALUE_TOL, GRADIENT_FLOOR, SurfaceSpec, eval_jets, wirtinger_gradient

_IMAG_DROP_TOL = 1e-10


def complex_hessian(rhess: np.ndarray) -> np.ndarray:
    """(..., 2N, 2N) real Hessian -> (..., N, N) H, entry (l, k) the z_l, zbar_k derivative."""
    return 0.25 * (rhess[..., 0::2, 0::2] + rhess[..., 1::2, 1::2]
                   + 1j * (rhess[..., 0::2, 1::2] - rhess[..., 1::2, 0::2]))


def _check_indices(indices, nvars: int) -> tuple[int, ...]:
    idx = tuple(int(i) for i in indices)
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate indices in {indices}")
    if not all(1 <= i <= nvars for i in idx):
        raise ValueError(f"indices {indices} out of range 1..{nvars}")
    return idx


def bordered_minor(wgrad: np.ndarray, whess: np.ndarray, indices) -> np.ndarray:
    """Determinant of the gradient-bordered Hessian block on an index set (1-based).

    Zero corner, conjugate gradient along the border row, gradient down the
    border column, Hessian block inside. Real for real f; the imaginary part
    is verified below tolerance and dropped. The matrix is built entry-major,
    (k, k, B) seen as (B, k, k), so that det_batch reads each entry as one
    contiguous row over the batch.
    """
    sel = [i - 1 for i in _check_indices(indices, wgrad.shape[-1])]
    g = wgrad.T[sel]
    mat = np.empty((len(sel) + 1, len(sel) + 1, wgrad.shape[0]), dtype=complex)
    mat[0, 0], mat[0, 1:], mat[1:, 0], mat[1:, 1:] = 0.0, np.conj(g), g, whess.transpose(1, 2, 0)[np.ix_(sel, sel)]
    mat = mat.transpose(2, 0, 1)
    det = det_batch(mat)
    rows = np.flatnonzero(np.abs(det.imag) > _IMAG_DROP_TOL)  # the scale is >= 1: no other row can fail
    scale = np.maximum(1.0, np.max(np.abs(mat[rows]), axis=(1, 2)) ** mat.shape[-1])
    if np.any(np.abs(det.imag[rows]) > _IMAG_DROP_TOL * scale):
        i = rows[int(np.argmax(np.abs(det.imag[rows]) / scale))]
        raise ValueError(f"bordered minor has imaginary part {det.imag[i]:.3e}; input not a real function?")
    return det.real


def bordered_sum(wgrad: np.ndarray, whess: np.ndarray, j: int) -> np.ndarray:
    """Sum of the bordered minors over all increasing (j+1)-index sets."""
    nvars = wgrad.shape[-1]
    total = np.zeros(wgrad.shape[0])
    for idx in itertools.combinations(range(1, nvars + 1), j + 1):
        total += bordered_minor(wgrad, whess, idx)
    return total


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
                     pgrad_norm=np.sqrt(_pairwise_sum([g * g for g in rgrad.T])) / 2.0)  # np.linalg.norm's bits
        _gradient_norm(frames)
        return frames

    def levi(self, j: int) -> np.ndarray:
        if j not in self._levi:
            self._levi[j] = k = levi(self, j)
            k.setflags(write=False)  # one array for every reader of the batch
        return self._levi[j]


def _pairwise_sum(rows: list) -> np.ndarray:
    """rows summed elementwise in the order np.add.reduce sums a contiguous row of len(rows) terms (numpy's
    pairwise summation), so that a column sum over a coordinate-major batch keeps the row-major bits."""
    n, tail = len(rows), len(rows) - len(rows) % 8
    if n < 8:
        return sum(rows)
    if n > 128:  # two halves, split at a multiple of 8
        return _pairwise_sum(rows[:n // 2 - n // 2 % 8]) + _pairwise_sum(rows[n // 2 - n // 2 % 8:])
    acc = [sum(rows[i:tail:8][1:], rows[i]) for i in range(8)]  # eight running sums, joined as a tree
    return sum(rows[tail:], ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])))


def _gradient_norm(frames: FrameBatch) -> np.ndarray:
    """|grad f| = 2 pgrad_norm, exactly; at or below GRADIENT_FLOOR a point is characteristic."""
    gnorm = 2.0 * frames.pgrad_norm
    if np.any(gnorm <= GRADIENT_FLOOR):
        i = int(np.argmin(gnorm))
        raise DegenerateGradientError(f"|grad f| = {gnorm[i]:.3e} at {frames.points[i].tolist()}: characteristic point")
    return gnorm


def levi(frames: FrameBatch, j: int) -> np.ndarray:
    """j-th Levi curvature from the bordered-minor sum.

    Normalized by the binomial count of index sets and by |complex gradient|
    to the power j+2, with the sign that makes spheres positive (f < 0 inside).
    """
    n = frames.n
    if not 1 <= j <= n:
        raise ValueError(f"j={j} out of range 1..{n}")
    gnorm = _gradient_norm(frames)
    with np.errstate(over="ignore", invalid="ignore"):
        total = bordered_sum(frames.wgrad, frames.whess, j)
        scale = math.comb(n, j) * frames.pgrad_norm ** (j + 2)
    finite = np.isfinite(total) & np.isfinite(scale)
    if not np.all(finite):
        i = int(np.argmin(finite))
        raise DomainError(f"|grad f| = {gnorm[i]:.3e}: the bordered-minor sum or (|grad f| / 2)^{j + 2} "
                          "overflows a float")
    return -total / scale


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
