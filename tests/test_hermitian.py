import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from levilab.errors import NotHermitianError
from levilab.hermitian import (
    HermitianMatrix,
    newton_gap,
    newton_gap_batch,
    sigma,
    sigma_batch,
    sigma_grad,
)


def random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def random_psd(rng, d):
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return b @ b.conj().T / d


def sigma_eig_oracle(a, j):
    """Independent oracle: eigenvalue solve plus the symmetric polynomial."""
    ev = np.linalg.eigvalsh(a)
    return sum(math.prod(c) for c in itertools.combinations(ev, j))


def sigma_minors_raw(a, j):
    """Sum of principal minors without any Hermiticity handling (for FD)."""
    d = a.shape[0]
    return sum(np.linalg.det(a[np.ix_(idx, idx)]) for idx in itertools.combinations(range(d), j))


class TestSigma:
    def test_identity_trace(self):
        assert sigma(HermitianMatrix(np.eye(2)), 1) == pytest.approx(2.0, abs=1e-14)

    def test_diagonal(self):
        assert sigma(HermitianMatrix(np.diag([1.0, 2.0, 3.0])), 2) == pytest.approx(11.0, abs=1e-12)

    def test_random_vs_eigenvalues(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 3)
        assert sigma(a, 2) == pytest.approx(sigma_eig_oracle(a, 2), abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_minors_match_eigenvalues_all_dims(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(5):
            a = random_hermitian(rng, d)
            for j in range(1, d + 1):
                assert sigma(a, j) == pytest.approx(sigma_eig_oracle(a, j), abs=1e-9, rel=1e-9)

    def test_large_dim_recursion_path(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 8)
        for j in (1, 3, 8):
            assert sigma(a, j) == pytest.approx(sigma_eig_oracle(a, j), rel=1e-9, abs=1e-9)

    def test_j_out_of_range(self):
        a = HermitianMatrix(np.eye(3))
        with pytest.raises(ValueError):
            sigma(a, 0)
        with pytest.raises(ValueError):
            sigma(a, 4)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            HermitianMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("asym,ok", [(1e-8, True), (1e-3, False)])
    def test_symmetry_tolerance_scales_with_entries(self, asym, ok):
        # the tolerance is HERMITIAN_TOL times max(1, max|a|): 1e-6 at entries near 1e6
        a = np.array([[1e6, 2e5 + 3e5j], [2e5 - 3e5j, 7e5]])
        a[0, 1] += asym
        if ok:
            assert HermitianMatrix(a).entries[0, 1] == pytest.approx(2e5 + 3e5j, abs=1e-7)
        else:
            with pytest.raises(NotHermitianError):
                HermitianMatrix(a)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        mats = np.stack([random_hermitian(rng, 3) for _ in range(4)])
        got = sigma_batch(mats, 2)
        for i in range(4):
            assert got[i] == pytest.approx(sigma(mats[i], 2), abs=1e-12)


class TestSigmaGrad:
    def test_identity_j2(self):
        g = sigma_grad(HermitianMatrix(np.eye(3)), 2)
        assert np.allclose(g, 2.0 * np.eye(3), atol=1e-12)

    def test_j1_is_identity(self):
        rng = np.random.default_rng(5)
        g = sigma_grad(random_hermitian(rng, 4), 1)
        assert np.allclose(g, np.eye(4), atol=1e-14)

    def test_determinant_cofactors_diagonal(self):
        g = sigma_grad(HermitianMatrix(np.diag([1.0, 2.0, 3.0])), 3)
        assert np.allclose(g, np.diag([6.0, 3.0, 2.0]), atol=1e-12)

    @pytest.mark.parametrize("d,j", [(2, 2), (3, 2), (4, 3), (6, 4), (7, 3), (8, 5)])
    def test_finite_differences(self, d, j):
        # entries are independent variables: complex-step-free central FD of the
        # raw principal-minor sum, one matrix entry at a time
        rng = np.random.default_rng(d * 10 + j)
        a = random_hermitian(rng, d)
        g = sigma_grad(a, j)
        h = 1e-5
        for l, k in [(0, 0), (0, 1), (1, 0), (d - 1, 0), (d - 2, d - 1)]:
            e = np.zeros((d, d), dtype=complex)
            e[l, k] = 1.0
            fd = (sigma_minors_raw(a + h * e, j) - sigma_minors_raw(a - h * e, j)) / (2 * h)
            assert abs(g[l, k] - fd) < 1e-6

    def test_gradient_is_hermitian(self):
        rng = np.random.default_rng(9)
        a = random_hermitian(rng, 4)
        g = sigma_grad(a, 3)
        assert np.max(np.abs(g - g.conj().T)) < 1e-12


class TestEulerAndHomogeneity:
    @pytest.mark.parametrize("t", [-2.0, 0.5, 3.0])
    def test_homogeneity(self, t):
        rng = np.random.default_rng(21)
        for d in (2, 4, 6):
            a = random_hermitian(rng, d)
            for j in range(1, d + 1):
                assert sigma(t * a, j) == pytest.approx(t**j * sigma(a, j), abs=1e-10, rel=1e-10)

    def test_euler_identity(self):
        rng = np.random.default_rng(22)
        for d in (2, 3, 5):
            a = random_hermitian(rng, d)
            for j in range(1, d + 1):
                g = sigma_grad(a, j)
                contraction = np.sum(g * a).real
                assert contraction == pytest.approx(j * sigma(a, j), abs=1e-10, rel=1e-10)


class TestNewtonGap:
    def test_scaled_identity_is_zero(self):
        for c in (-1.5, 0.25, 3.0):
            for d in (2, 4):
                for j in range(2, d + 1):
                    assert newton_gap(c * np.eye(d), j) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_example(self):
        assert newton_gap(np.diag([1.0, 2.0, 3.0]), 2) == pytest.approx(1.0, abs=1e-12)

    def test_random_sweep_nonnegative_on_positive_cone(self):
        # the inequality's hypothesis domain: positive semidefinite matrices
        rng = np.random.default_rng(30)
        count = 0
        for d in (2, 3, 4, 5, 6):
            for _ in range(20):
                a = random_psd(rng, d)
                for j in range(2, d + 1):
                    assert newton_gap(a, j) >= -1e-10
                    count += 1
        assert count >= 100

    def test_indefinite_counterexample_is_signed(self):
        # real eigenvalues alone do not give the mean inequality: this matrix
        # violates it at j = 3 and the gap must come back negative, not clipped
        assert newton_gap(np.diag([-1.0, -1.0, 2.0]), 3) == pytest.approx(-2.0, abs=1e-12)

    def test_j_range(self):
        with pytest.raises(ValueError):
            newton_gap(np.eye(3), 1)

    def test_batch(self):
        mats = np.stack([np.eye(4) * 2.0, np.diag([1.0, 2.0, 3.0, 4.0])])
        gaps = newton_gap_batch(mats, 2)
        assert gaps[0] == pytest.approx(0.0, abs=1e-12)
        assert gaps[1] > 0


@st.composite
def hermitian_matrices(draw, psd=False):
    d = draw(st.integers(min_value=2, max_value=5))
    re = draw(arrays(np.float64, (d, d), elements=st.floats(-5, 5, allow_nan=False)))
    im = draw(arrays(np.float64, (d, d), elements=st.floats(-5, 5, allow_nan=False)))
    a = re + 1j * im
    if psd:
        return a @ a.conj().T / d
    return (a + a.conj().T) / 2


@given(hermitian_matrices())
@settings(max_examples=60)
def test_property_sigma_is_real(a):
    d = a.shape[0]
    for j in range(1, d + 1):
        assert isinstance(sigma(a, j), float)


def _all_nines_noisy_column():
    # rank one, with a near-underflow imaginary part on the last column
    a = np.full((5, 5), 9.0 + 0.0j)
    a[:, 4] = 9 - 7.12023635e-308j
    return a


# PSD within HERMITIAN_TOL, with imaginary noise near or below the underflow
# threshold: det on the raw entries divides by a noise pivot (nan, or a warning)
NOISE_LEVEL_PSD = [
    _all_nines_noisy_column(),
    np.array([[0, -1.11253693e-313j], [1.11253693e-313j, 0.5]]),
]


@pytest.mark.parametrize("a", NOISE_LEVEL_PSD, ids=["5x5-nines", "2x2-subnormal"])
def test_noise_level_parts_give_finite_gap_without_warnings(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for j in range(2, a.shape[0] + 1):
            gap = newton_gap(a, j)
            assert math.isfinite(gap)
            assert gap >= -1e-9 * max(1.0, np.sum(np.abs(a)) ** j)
            assert math.isfinite(sigma(a, j))


@given(hermitian_matrices(psd=True))
@example(NOISE_LEVEL_PSD[0])
@example(NOISE_LEVEL_PSD[1])
@settings(max_examples=60)
def test_property_gap_nonnegative_on_psd(a):
    d = a.shape[0]
    for j in range(2, d + 1):
        assert newton_gap(a, j) >= -1e-9 * max(1.0, np.sum(np.abs(a)) ** j)
