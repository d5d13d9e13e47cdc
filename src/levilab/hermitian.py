"""Hermitian matrices and elementary symmetric functions of their eigenvalues.

Every determinant of the numeric pipeline goes through det_batch: explicit
products of 2 x 2 minors for sizes up to 4, LAPACK above. sigma_j is the sum of
all j x j principal minors, gathered into one det_batch call, never an
eigendecomposition. Entry (l, k) of a matrix is a_{l kbar} (row l, column k).
newton_upper gives T_j = d sigma_{j+1} / da, the Newton tensor, by its upper
triangle: each entry a signed sum of j x j minors, again gathered into one
det_batch call. Both reduce a broadcast of one matrix (all batch strides 0, as
a quadratic's complex Hessian) once.

The kernels take stacks of matrices, shape (..., d, d), that are Hermitian by
construction and check nothing per matrix. Conjugate symmetry has one rule,
check_hermitian's: max |a - a*| at most HERMITIAN_TOL times the largest entry,
applied to a stack there and to one matrix from outside by HermitianMatrix,
which then symmetrizes: sigma_batch(HermitianMatrix(a), j) raises
NotHermitianError on an asymmetric a.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotHermitianError

HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class HermitianMatrix:
    """Immutable (n+1) x (n+1) Hermitian matrix, its conjugate symmetry validated by check_hermitian."""

    entries: np.ndarray = field()

    def __init__(self, entries):
        a = np.array(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        check_hermitian(a)
        # symmetrize away the sub-tolerance noise so downstream algebra sees an exact Hermitian,
        # then clear real and imaginary parts below the tolerance relative to the largest entry
        # (subnormals always): LU pivots made of such noise overflow and turn det into nan
        a = (a + a.conj().T) / 2
        floor = max(HERMITIAN_TOL * float(np.max(np.abs(a))), np.finfo(float).tiny)
        re = np.where(np.abs(a.real) < floor, 0.0, a.real)
        im = np.where(np.abs(a.imag) < floor, 0.0, a.imag)
        a = re + 1j * im
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)


def _check_j(j: int, dim: int, lo: int = 1) -> None:
    if not lo <= j <= dim:
        raise ValueError(f"j={j} out of range [{lo}, {dim}]")


def _minor2(a: np.ndarray, r: int, s: int, i: int, k: int) -> np.ndarray:
    """2 x 2 minor on rows (r, s) and columns (i, k), over the batch."""
    return a[..., r, i] * a[..., s, k] - a[..., r, k] * a[..., s, i]


def det_batch(a) -> np.ndarray:
    """Determinants over a stack of square matrices, shape (..., k, k) -> (...).

    Closed forms for k <= 4: Laplace expansion into 2 x 2 minors (along the
    first row for k = 3, along the first two rows for k = 4), so the small
    minors of the pipeline never reach LAPACK. np.linalg.det above that.
    """
    a = np.asarray(a)
    k = a.shape[-1]
    if k == 1:
        return a[..., 0, 0].copy()
    if k == 2:
        return _minor2(a, 0, 1, 0, 1)
    if k == 3:
        return (a[..., 0, 0] * _minor2(a, 1, 2, 1, 2) - a[..., 0, 1] * _minor2(a, 1, 2, 0, 2)
                + a[..., 0, 2] * _minor2(a, 1, 2, 0, 1))
    if k == 4:
        return (_minor2(a, 0, 1, 0, 1) * _minor2(a, 2, 3, 2, 3) - _minor2(a, 0, 1, 0, 2) * _minor2(a, 2, 3, 1, 3)
                + _minor2(a, 0, 1, 0, 3) * _minor2(a, 2, 3, 1, 2) + _minor2(a, 0, 1, 1, 2) * _minor2(a, 2, 3, 0, 3)
                - _minor2(a, 0, 1, 1, 3) * _minor2(a, 2, 3, 0, 2) + _minor2(a, 0, 1, 2, 3) * _minor2(a, 2, 3, 0, 1))
    return np.linalg.det(a)


def _minor_sum(mats: np.ndarray, j: int) -> np.ndarray:
    """Sum of all j x j principal minors, gathered into one det_batch call."""
    idx = np.array(list(itertools.combinations(range(mats.shape[-1]), j)))
    return det_batch(mats[..., idx[:, :, None], idx[:, None, :]]).sum(axis=-1)


def sigma_batch(mats: np.ndarray, j: int) -> np.ndarray:
    """sigma_j over a stack of matrices, shape (..., d, d) -> (...).

    Assumes the inputs are Hermitian by construction (no per-matrix validation);
    returns the real part of the sum of principal minors. A broadcast of one
    matrix (all batch strides 0, as a quadratic's H) is reduced once.
    """
    mats = np.asarray(mats)
    _check_j(j, mats.shape[-1])
    if _broadcast(mats):
        return np.broadcast_to(_minor_sum(mats[(0,) * (mats.ndim - 2)], j).real, mats.shape[:-2])
    return _minor_sum(mats, j).real


def _broadcast(mats: np.ndarray) -> bool:
    """Whether a stack is one matrix broadcast over its batch (all batch strides 0)."""
    return mats.ndim > 2 and mats.size > 0 and not any(mats.strides[:-2])


def check_hermitian(mats) -> None:
    """Raise NotHermitianError where a matrix of the stack (..., d, d) deviates from conjugate symmetry by
    more than HERMITIAN_TOL times its largest entry, so that rounding-level asymmetry passes at any scale.
    An exactly Hermitian stack, as every family's jets give it, is passed by one comparison."""
    mats = np.asarray(mats)
    mats = mats[(0,) * (mats.ndim - 2)] if _broadcast(mats) else mats
    adjoint = np.conj(np.swapaxes(mats, -1, -2))
    if np.array_equal(mats, adjoint):
        return
    dev = np.max(np.abs(mats - adjoint), axis=(-2, -1))
    scale = np.max(np.abs(mats), axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.atleast_1d(np.where(dev > HERMITIAN_TOL * scale, dev / scale, 0.0))
    if np.any(ratio):
        i = int(np.argmax(ratio))
        raise NotHermitianError(f"matrix deviates from conjugate symmetry by {ratio[i]:.3e} of its "
                                f"largest entry at row {i} (tolerance {HERMITIAN_TOL:.0e}); input not a real function?")


@functools.lru_cache(maxsize=None)
def _cofactor_plan(d: int, j: int):
    """T_j's entries as signed j x j minors. Entry (l, k) sums over the (j+1)-sets I holding l and k the
    minor on rows I - {l} and columns I - {k}, negated where the places of l and k in I differ in parity:
    the rows and cols (M, j) of the minors, and per entry of the upper triangle (l, k, plus, minus), the
    minors added and subtracted."""
    rows, cols, entries = [], [], []
    for l, k in zip(*np.triu_indices(d)):
        plus, minus = [], []
        for idx in itertools.combinations(range(d), j + 1):
            if l in idx and k in idx:
                (minus if (idx.index(l) + idx.index(k)) % 2 else plus).append(len(rows))
                rows.append([r for r in idx if r != l])
                cols.append([c for c in idx if c != k])
        entries.append((int(l), int(k), plus, minus))
    return np.array(rows), np.array(cols), entries


def newton_upper(mats, j: int) -> list:
    """The upper triangle of T_j = d sigma_{j+1} / da over a stack of Hermitian matrices (..., d, d), 1 <= j < d.

    T_j is the Newton tensor: entry (l, k) is the generalized cofactor of a_{l kbar}, the numeric twin of
    wirtinger.sym_sigma_grad(a, j + 1), and T_j is Hermitian. Gives (l, k, entry) for l <= k in
    np.triu_indices order, each entry one contiguous row over the stack (entry-major memory, as the jets
    give H); a broadcast of one matrix is formed once, and its entries are numbers (0-d arrays).
    """
    mats = np.asarray(mats)
    d = mats.shape[-1]
    _check_j(j, d - 1)
    if _broadcast(mats):
        mats = mats[(0,) * (mats.ndim - 2)]
    rows, cols, entries = _cofactor_plan(d, j)
    blocks = np.moveaxis(mats, (-2, -1), (0, 1))[rows[:, :, None], cols[:, None, :]]  # (M, j, j, ...)
    minors = det_batch(np.moveaxis(blocks, (1, 2), (-2, -1)))
    upper = []
    for l, k, plus, minus in entries:  # a sum of rows: np.add.reduceat is many times slower here
        entry = sum((minors[i] for i in plus[1:]), minors[plus[0]]) if plus else -minors[minus[0]]
        for i in minus[not plus:]:
            entry = entry - minors[i]
        upper.append((l, k, entry))
    return upper


def newton_gap_batch(mats: np.ndarray, j: int) -> np.ndarray:
    """Signed gap C(d, j) (trace/d)^j - sigma_j over a stack of matrices, shape (..., d, d) -> (...).

    Nonnegative on the symmetric-function positive cone (in particular for
    every positive semidefinite matrix), with equality exactly on real
    multiples of the identity. Real eigenvalues alone are not enough:
    diag(-1, -1, 2) with j = 3 has gap -2, so the gap is returned signed and
    callers assert nonnegativity only where the hypothesis holds.
    """
    mats = np.asarray(mats)
    d = mats.shape[-1]
    _check_j(j, d, lo=2)
    tr = np.einsum("...ii->...", mats).real
    return math.comb(d, j) * (tr / d) ** j - sigma_batch(mats, j)
