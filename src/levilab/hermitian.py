"""Hermitian matrices and elementary symmetric functions of their eigenvalues.

sigma_j is evaluated algebraically, never through an eigendecomposition: as the
sum of all j x j principal minors for dimensions up to 6, and through the
Faddeev-LeVerrier characteristic-polynomial recursion above that. Entry (l, k)
of a matrix is a_{l kbar} (row l, column k); when differentiating sigma_j the
entries are treated as independent complex variables, so the gradient entry
(l, k) is the generalized cofactor d sigma_j / d a_{l kbar}. For j = dim this
is the transpose of the adjugate, which for Hermitian input equals its
entrywise conjugate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotHermitianError

HERMITIAN_TOL = 1e-12

# Largest dimension for which principal-minor expansion is used directly.
_MINOR_EXPANSION_MAX_DIM = 6


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

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(self.entries.trace().real)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, HermitianMatrix):
        return a.entries
    return HermitianMatrix(a).entries


def _check_j(j: int, dim: int, lo: int = 1) -> None:
    if not lo <= j <= dim:
        raise ValueError(f"j={j} out of range [{lo}, {dim}]")


def _sigma_minors(a: np.ndarray, j: int) -> complex:
    n = a.shape[0]
    total = 0.0 + 0.0j
    for idx in itertools.combinations(range(n), j):
        sub = a[np.ix_(idx, idx)]
        total += np.linalg.det(sub)
    return total


def _sigma_all_faddeev(a: np.ndarray) -> np.ndarray:
    """All sigma_1..sigma_dim via the Faddeev-LeVerrier recursion."""
    n = a.shape[0]
    out = np.empty(n, dtype=complex)
    m = np.eye(n, dtype=complex)
    c = 1.0 + 0.0j
    for k in range(1, n + 1):
        am = a @ m
        c = -am.trace() / k
        out[k - 1] = (-1) ** k * c
        m = am + c * np.eye(n, dtype=complex)
    return out


def _discard_imag(value: complex, scale: float) -> float:
    tol = HERMITIAN_TOL * max(1.0, scale)
    if abs(value.imag) > tol:
        raise ValueError(f"expected a real result, imaginary part {value.imag:.3e} exceeds {tol:.3e}")
    return float(value.real)


def sigma(a, j: int) -> float:
    """j-th elementary symmetric function of the eigenvalues of a Hermitian matrix.

    Equals the sum of all j x j principal minors. The result is real for
    Hermitian input; the rounding-level imaginary part is checked against a
    magnitude-relative tolerance and dropped.
    """
    m = _as_matrix(a)
    _check_j(j, m.shape[0])
    if m.shape[0] <= _MINOR_EXPANSION_MAX_DIM:
        val = _sigma_minors(m, j)
    else:
        val = _sigma_all_faddeev(m)[j - 1]
    scale = float(np.sum(np.abs(m))) ** j if m.size else 1.0
    return _discard_imag(val, scale)


def sigma_batch(mats: np.ndarray, j: int) -> np.ndarray:
    """sigma_j over a stack of matrices, shape (..., d, d) -> (...).

    Assumes the inputs are Hermitian by construction (no per-matrix validation);
    returns the real part after the same sum-of-principal-minors expansion.
    """
    mats = np.asarray(mats)
    d = mats.shape[-1]
    _check_j(j, d)
    total = np.zeros(mats.shape[:-2], dtype=complex)
    for idx in itertools.combinations(range(d), j):
        ix = np.ix_(idx, idx)
        total += np.linalg.det(mats[..., ix[0], ix[1]])
    return total.real


def sigma_grad(a, j: int) -> np.ndarray:
    """Entrywise gradient of sigma_j: entry (l, k) is d sigma_j / d a_{l kbar}.

    Computed as the signed sum over all j-subsets containing both l and k of the
    (j-1) x (j-1) cofactor minors, i.e. the generalized cofactors. Entries are
    treated as independent variables when differentiating.
    """
    m = _as_matrix(a)
    n = m.shape[0]
    _check_j(j, n)
    if n <= _MINOR_EXPANSION_MAX_DIM:
        grad = np.zeros((n, n), dtype=complex)
        for idx in itertools.combinations(range(n), j):
            for pl, l in enumerate(idx):
                rows = [r for r in idx if r != l]
                for pk, k in enumerate(idx):
                    cols = [c for c in idx if c != k]
                    if rows:
                        minor = np.linalg.det(m[np.ix_(rows, cols)])
                    else:
                        minor = 1.0 + 0.0j
                    grad[l, k] += (-1) ** (pl + pk) * minor
        return grad
    # Newton transformation T_0 = I, T_i = sigma_i I - A T_{i-1};
    # the gradient of sigma_j is T_{j-1} transposed.
    sig = _sigma_all_faddeev(m)
    t = np.eye(n, dtype=complex)
    for i in range(1, j):
        t = sig[i - 1] * np.eye(n, dtype=complex) - m @ t
    return t.T


def newton_gap(a, j: int) -> float:
    """Signed gap C(dim, j) (trace/dim)^j - sigma_j.

    Nonnegative on the symmetric-function positive cone (in particular for
    every positive semidefinite matrix), with equality exactly on real
    multiples of the identity. Real eigenvalues alone are not enough:
    diag(-1, -1, 2) with j = 3 has gap -2, so the gap is returned signed and
    callers assert nonnegativity only where the hypothesis holds.
    """
    m = _as_matrix(a)
    n = m.shape[0]
    _check_j(j, n, lo=2)
    tr = float(m.trace().real)
    return math.comb(n, j) * (tr / n) ** j - sigma(m, j)


def newton_gap_batch(mats: np.ndarray, j: int) -> np.ndarray:
    """newton_gap over a stack of Hermitian-by-construction matrices."""
    mats = np.asarray(mats)
    d = mats.shape[-1]
    _check_j(j, d, lo=2)
    tr = np.einsum("...ii->...", mats).real
    return math.comb(d, j) * (tr / d) ** j - sigma_batch(mats, j)
