"""Hermitian matrices and elementary symmetric functions of their eigenvalues.

Every determinant of the numeric pipeline goes through det_batch: explicit
products of 2 x 2 minors for sizes up to 4, LAPACK above. sigma_j is the sum of
all j x j principal minors, gathered into one det_batch call, never an
eigendecomposition. Entry (l, k) of a matrix is a_{l kbar} (row l, column k).

The kernels take stacks of matrices, shape (..., d, d), that are Hermitian by
construction and check nothing per matrix. HermitianMatrix is the validated
entry point for a matrix from outside: sigma_batch(HermitianMatrix(a), j)
raises NotHermitianError unless a is conjugate symmetric to HERMITIAN_TOL.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotHermitianError

HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class HermitianMatrix:
    """Immutable (n+1) x (n+1) Hermitian matrix with validated conjugate symmetry."""

    entries: np.ndarray = field()

    def __init__(self, entries):
        a = np.array(entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        dev = np.max(np.abs(a - a.conj().T))
        tol = HERMITIAN_TOL * max(1.0, float(np.max(np.abs(a))))
        if dev > tol:
            raise NotHermitianError(f"matrix deviates from conjugate symmetry by {dev:.3e} (tolerance {tol:.3e})")
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
    if mats.ndim > 2 and mats.size and not any(mats.strides[:-2]):
        return np.broadcast_to(_minor_sum(mats[(0,) * (mats.ndim - 2)], j).real, mats.shape[:-2])
    return _minor_sum(mats, j).real


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
