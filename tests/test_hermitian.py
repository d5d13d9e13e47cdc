import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from levilab import hermitian
from levilab.errors import NotHermitianError
from levilab.hermitian import HermitianMatrix, check_hermitian, det_batch, newton_gap_batch, newton_upper, sigma_batch
from levilab.wirtinger import WMatrix, WPoly, sym_sigma_grad


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


def cofactor_gradient(a, j):
    """Entry (l, k) is d sigma_j / d a_{l kbar} at a, read off sigma_batch alone.

    sigma_j is affine in each entry (a rank-one update), so sigma_j(a + t E_lk) - sigma_j(a) = t g_lk,
    with the entries taken as independent variables. sigma_batch keeps the real part: t = 1 gives
    Re g_lk and t = i gives -Im g_lk. No Hermitian symmetry of g is assumed.
    """
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    units = np.eye(d * d).reshape(d * d, d, d)  # E_lk, row-major in (l, k)
    diff = sigma_batch(a + np.concatenate([units, 1j * units]), j) - sigma_batch(a, j)
    return (diff[: d * d] - 1j * diff[d * d:]).reshape(d, d)


class TestSigma:
    def test_identity_trace(self):
        assert sigma_batch(HermitianMatrix(np.eye(2)), 1) == pytest.approx(2.0, abs=1e-14)

    def test_diagonal(self):
        assert sigma_batch(HermitianMatrix(np.diag([1.0, 2.0, 3.0])), 2) == pytest.approx(11.0, abs=1e-12)

    def test_random_vs_eigenvalues(self):
        rng = np.random.default_rng(11)
        a = random_hermitian(rng, 3)
        assert sigma_batch(HermitianMatrix(a), 2) == pytest.approx(sigma_eig_oracle(a, 2), abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_minors_match_eigenvalues_all_dims(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(5):
            a = random_hermitian(rng, d)
            for j in range(1, d + 1):
                assert sigma_batch(HermitianMatrix(a), j) == pytest.approx(sigma_eig_oracle(a, j), abs=1e-9, rel=1e-9)

    def test_large_dim_recursion_path(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(rng, 8)
        for j in (1, 3, 8):
            assert sigma_batch(HermitianMatrix(a), j) == pytest.approx(sigma_eig_oracle(a, j), rel=1e-9, abs=1e-9)

    def test_j_out_of_range(self):
        a = HermitianMatrix(np.eye(3))
        with pytest.raises(ValueError):
            sigma_batch(a, 0)
        with pytest.raises(ValueError):
            sigma_batch(a, 4)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            HermitianMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("asym,ok", [(1e-8, True), (1e-3, False)])
    def test_symmetry_tolerance_scales_with_entries(self, asym, ok):
        # check_hermitian's rule, HERMITIAN_TOL times the largest entry: 1e-6 at entries near 1e6
        a = np.array([[1e6, 2e5 + 3e5j], [2e5 - 3e5j, 7e5]])
        a[0, 1] += asym
        if ok:
            assert HermitianMatrix(a).entries[0, 1] == pytest.approx(2e5 + 3e5j, abs=1e-7)
        else:
            with pytest.raises(NotHermitianError):
                HermitianMatrix(a)

    @pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
    def test_small_matrices_keep_the_relative_rule(self, scale):
        # no absolute floor below unit entries: an entirely asymmetric matrix fails at any scale, as a stack
        a = scale * np.array([[1.0, 1e7], [0.0, 2.0]])
        for check in (HermitianMatrix, check_hermitian):
            with pytest.raises(NotHermitianError, match="by 1.000e[+]00 of its largest entry"):
                check(a)
        assert HermitianMatrix(a + a.T).entries[0, 1] == 1e7 * scale

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        mats = np.stack([random_hermitian(rng, 3) for _ in range(4)])
        got = sigma_batch(mats, 2)
        for i in range(4):
            assert got[i] == pytest.approx(sigma_batch(HermitianMatrix(mats[i]), 2), abs=1e-12)

    @pytest.mark.parametrize("shape", [(7,), (5, 3)])
    def test_broadcast_stack_reduced_once(self, monkeypatch, shape):
        # a quadratic's constant H arrives with batch strides 0: one minor sum, bit-identical
        # to the materialised stack, returned as a read-only broadcast
        from levilab import hermitian

        h = random_hermitian(np.random.default_rng(8), 3)
        stacked = np.broadcast_to(h, shape + h.shape)
        dense = {j: sigma_batch(np.ascontiguousarray(stacked), j) for j in (1, 2, 3)}
        gaps = {j: newton_gap_batch(np.ascontiguousarray(stacked), j) for j in (2, 3)}
        seen = []

        def recording(a):
            seen.append(np.shape(a))
            return det_batch(a)

        monkeypatch.setattr(hermitian, "det_batch", recording)
        for j in (1, 2, 3):
            seen.clear()
            got = sigma_batch(stacked, j)
            assert seen == [(math.comb(3, j), j, j)]
            assert got.shape == shape and not got.flags.writeable
            assert got.tobytes() == dense[j].tobytes()
        for j in (2, 3):
            assert newton_gap_batch(stacked, j).tobytes() == gaps[j].tobytes()

    def test_quadratic_hessian_is_a_broadcast(self):
        # the input property the one-matrix path keys on, on a bulk integrand's H
        from levilab import surfaces as sf

        mixed = sf.eval_jets(sf.Sphere(1.5, n=2), np.full((4, 6), 0.3)).mixed
        assert mixed.shape == (4, 3, 3) and not any(mixed.strides[:-2])


class TestDetBatch:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_lapack(self, k):
        # closed forms up to k = 4, LAPACK above; entries spread over six decades,
        # so the tolerance is scaled by max|a|^k per matrix
        rng = np.random.default_rng(40 + k)
        size = 10.0 ** rng.uniform(-3, 3, (2, 60, 1, 1))
        general = size * (rng.standard_normal((2, 60, k, k)) + 1j * rng.standard_normal((2, 60, k, k)))
        bordered = np.zeros_like(general)
        g = rng.standard_normal((2, 60, k - 1)) + 1j * rng.standard_normal((2, 60, k - 1))
        bordered[..., 0, 1:] = np.conj(g)
        bordered[..., 1:, 0] = g
        bordered[..., 1:, 1:] = general[..., 1:, 1:] + np.conj(np.swapaxes(general[..., 1:, 1:], -1, -2))
        for a in (general, bordered):
            got = det_batch(a)
            assert got.shape == a.shape[:-2]
            tol = 1e-13 * np.max(np.abs(a), axis=(-2, -1)) ** k
            assert np.all(np.abs(got - np.linalg.det(a)) <= tol)

    def test_small_sizes_bypass_lapack(self, forbid_lapack_det):
        # perf guard: sigma and the Newton gap of matrices up to 4 x 4 use the closed forms only
        rng = np.random.default_rng(41)
        mats = {d: np.stack([random_hermitian(rng, d) for _ in range(6)]) for d in (1, 2, 3, 4)}
        for d, m in mats.items():
            for j in range(1, d + 1):
                ref = sigma_eig_oracle(m[0], j)
                assert sigma_batch(HermitianMatrix(m[0]), j) == pytest.approx(ref, abs=1e-12, rel=1e-12)
                assert sigma_batch(m, j)[0] == pytest.approx(ref, abs=1e-12, rel=1e-12)
            for j in range(2, d + 1):
                assert np.all(np.isfinite(newton_gap_batch(m, j)))
                assert math.isfinite(newton_gap_batch(HermitianMatrix(m[0]), j))


class TestSigmaGrad:
    def test_identity_j2(self):
        g = cofactor_gradient(HermitianMatrix(np.eye(3)), 2)
        assert np.allclose(g, 2.0 * np.eye(3), atol=1e-12)

    def test_j1_is_identity(self):
        rng = np.random.default_rng(5)
        g = cofactor_gradient(random_hermitian(rng, 4), 1)
        assert np.allclose(g, np.eye(4), atol=1e-14)

    def test_determinant_cofactors_diagonal(self):
        g = cofactor_gradient(HermitianMatrix(np.diag([1.0, 2.0, 3.0])), 3)
        assert np.allclose(g, np.diag([6.0, 3.0, 2.0]), atol=1e-12)

    @pytest.mark.parametrize("d,j", [(2, 2), (3, 2), (4, 3), (6, 4), (7, 3), (8, 5)])
    def test_finite_differences(self, d, j):
        # entries are independent variables: complex-step-free central FD of the
        # raw principal-minor sum, one matrix entry at a time
        rng = np.random.default_rng(d * 10 + j)
        a = random_hermitian(rng, d)
        g = cofactor_gradient(a, j)
        h = 1e-5
        for l, k in [(0, 0), (0, 1), (1, 0), (d - 1, 0), (d - 2, d - 1)]:
            e = np.zeros((d, d), dtype=complex)
            e[l, k] = 1.0
            fd = (sigma_minors_raw(a + h * e, j) - sigma_minors_raw(a - h * e, j)) / (2 * h)
            assert abs(g[l, k] - fd) < 1e-6

    def test_gradient_is_hermitian(self):
        rng = np.random.default_rng(9)
        a = random_hermitian(rng, 4)
        g = cofactor_gradient(a, 3)
        assert np.max(np.abs(g - g.conj().T)) < 1e-12


def gaussian_integer_hermitian(rng, d):
    """A Hermitian matrix with small Gaussian-integer entries: every minor up to 4 x 4 is exact in floats."""
    a = rng.integers(-4, 5, (d, d)) + 1j * rng.integers(-4, 5, (d, d))
    return np.triu(a, 1) + np.conj(np.triu(a, 1)).T + np.diag(rng.integers(-4, 5, d))


def newton_tensor(mats, j):
    """T_j as a matrix stack (..., d, d) from newton_upper: the upper triangle, its conjugate below."""
    mats = np.asarray(mats)
    d = mats.shape[-1]
    out = np.empty(mats.shape, dtype=complex)
    for l, k, entry in newton_upper(mats, j):
        out[..., k, l], out[..., l, k] = np.conj(entry), entry
    return out


class TestNewtonTensor:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_equals_the_exact_cofactors(self, d):
        # the numeric twin of wirtinger.sym_sigma_grad: T_j = d sigma_{j+1} / da, bit for bit on integer entries
        rng = np.random.default_rng(40 + d)
        for a in (gaussian_integer_hermitian(rng, d) for _ in range(3)):
            exact_matrix = WMatrix([[WPoly.constant(1, complex(x)) for x in row] for row in a])
            for j in range(1, d):
                exact = np.array([[p.eval([0]) for p in row] for row in sym_sigma_grad(exact_matrix, j + 1)])
                assert np.array_equal(newton_tensor(a, j), exact)  # the lower triangle too, Hermitian exactly
                assert np.array_equal(newton_tensor(a[None], j)[0], exact)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_matches_the_gradient_of_sigma(self, d):
        # against d sigma_{j+1} / da read off sigma_batch alone; d = 6 takes the 5 x 5 minors through LAPACK
        rng = np.random.default_rng(60 + d)
        stack = np.stack([random_hermitian(rng, d) for _ in range(3)])
        for j in range(1, d):
            for a, tj in zip(stack, newton_tensor(stack, j)):
                assert np.max(np.abs(tj - cofactor_gradient(a, j + 1))) < 1e-9

    def test_entry_major_rows(self):
        # each entry of T is one contiguous row over the batch, as the jets give H; T_1 = tr(a) I - a^T
        rng = np.random.default_rng(3)
        h = np.stack([random_hermitian(rng, 3) for _ in range(50)]).transpose(1, 2, 0).copy().transpose(2, 0, 1)
        upper = newton_upper(h, 1)
        assert [(l, k) for l, k, _ in upper] == list(zip(*np.triu_indices(3)))
        assert all(entry.shape == (50,) and entry.flags.c_contiguous for _, _, entry in upper)
        trace = np.trace(h, axis1=1, axis2=2)[:, None, None]
        assert np.allclose(newton_tensor(h, 1), trace * np.eye(3) - h.transpose(0, 2, 1))

    def test_broadcast_formed_once(self, monkeypatch):
        a = random_hermitian(np.random.default_rng(4), 3)
        calls, det = [], hermitian.det_batch
        monkeypatch.setattr(hermitian, "det_batch", lambda m: calls.append(np.shape(m)) or det(m))
        upper = newton_upper(np.broadcast_to(a, (1000, 3, 3)), 2)
        assert calls == [(6, 2, 2)] and all(np.ndim(entry) == 0 for _, _, entry in upper)
        assert [entry for _, _, entry in upper] == [entry for _, _, entry in newton_upper(a, 2)]

    @pytest.mark.parametrize("j", [0, 3])
    def test_j_out_of_range(self, j):
        with pytest.raises(ValueError):
            newton_upper(np.eye(3), j)


class TestCheckHermitian:
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    @pytest.mark.parametrize("asym, ok", [(1e-15, True), (1e-13, True), (1e-11, False)])
    def test_tolerance_is_relative_to_the_largest_entry(self, scale, asym, ok):
        a = np.tile(random_hermitian(np.random.default_rng(8), 3), (5, 1, 1)) * scale
        a[3, 0, 2] += asym * np.max(np.abs(a[3]))
        if ok:
            check_hermitian(a)
        else:
            with pytest.raises(NotHermitianError, match="at row 3 "):
                check_hermitian(a)

    def test_broadcast_and_single_matrix(self):
        a = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 0.5]])
        check_hermitian(np.broadcast_to(a, (100, 2, 2)))
        a[0, 0] += 1j
        for m in (a, np.broadcast_to(a, (100, 2, 2))):
            with pytest.raises(NotHermitianError, match=f"by {2 / math.sqrt(5):.3e} of its largest entry at row 0 "):
                check_hermitian(m)

class TestEulerAndHomogeneity:
    @pytest.mark.parametrize("t", [-2.0, 0.5, 3.0])
    def test_homogeneity(self, t):
        rng = np.random.default_rng(21)
        for d in (2, 4, 6):
            a = random_hermitian(rng, d)
            for j in range(1, d + 1):
                got = sigma_batch(HermitianMatrix(t * a), j)
                assert got == pytest.approx(t**j * sigma_batch(HermitianMatrix(a), j), abs=1e-10, rel=1e-10)

    def test_euler_identity(self):
        rng = np.random.default_rng(22)
        for d in (2, 3, 5):
            a = random_hermitian(rng, d)
            for j in range(1, d + 1):
                g = cofactor_gradient(a, j)
                contraction = np.sum(g * a).real
                assert contraction == pytest.approx(j * sigma_batch(HermitianMatrix(a), j), abs=1e-10, rel=1e-10)


class TestNewtonGap:
    def test_scaled_identity_is_zero(self):
        for c in (-1.5, 0.25, 3.0):
            for d in (2, 4):
                for j in range(2, d + 1):
                    assert newton_gap_batch(HermitianMatrix(c * np.eye(d)), j) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_example(self):
        assert newton_gap_batch(HermitianMatrix(np.diag([1.0, 2.0, 3.0])), 2) == pytest.approx(1.0, abs=1e-12)

    def test_random_sweep_nonnegative_on_positive_cone(self):
        # the inequality's hypothesis domain: positive semidefinite matrices
        rng = np.random.default_rng(30)
        count = 0
        for d in (2, 3, 4, 5, 6):
            for _ in range(20):
                a = random_psd(rng, d)
                for j in range(2, d + 1):
                    assert newton_gap_batch(HermitianMatrix(a), j) >= -1e-10
                    count += 1
        assert count >= 100

    def test_indefinite_counterexample_is_signed(self):
        # real eigenvalues alone do not give the mean inequality: this matrix
        # violates it at j = 3 and the gap must come back negative, not clipped
        assert newton_gap_batch(HermitianMatrix(np.diag([-1.0, -1.0, 2.0])), 3) == pytest.approx(-2.0, abs=1e-12)

    def test_j_range(self):
        with pytest.raises(ValueError):
            newton_gap_batch(HermitianMatrix(np.eye(3)), 1)

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
    # the minor sum's imaginary part is rounding: the real part kept is the symmetric function of the eigenvalues
    d = a.shape[0]
    for j in range(1, d + 1):
        got = sigma_batch(HermitianMatrix(a), j)
        assert isinstance(got, float)
        assert got == pytest.approx(sigma_eig_oracle(a, j), rel=1e-9, abs=1e-9 * max(1.0, np.sum(np.abs(a)) ** j))


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
            gap = newton_gap_batch(HermitianMatrix(a), j)
            assert math.isfinite(gap)
            assert gap >= -1e-9 * max(1.0, np.sum(np.abs(a)) ** j)
            assert math.isfinite(sigma_batch(HermitianMatrix(a), j))


@given(hermitian_matrices(psd=True))
@example(NOISE_LEVEL_PSD[0])
@example(NOISE_LEVEL_PSD[1])
@settings(max_examples=60)
def test_property_gap_nonnegative_on_psd(a):
    d = a.shape[0]
    for j in range(2, d + 1):
        assert newton_gap_batch(HermitianMatrix(a), j) >= -1e-9 * max(1.0, np.sum(np.abs(a)) ** j)
