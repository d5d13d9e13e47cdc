import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levilab import curvature as cv
from levilab import quadrature as qd
from levilab import surfaces as sf
from levilab import hermitian
from levilab.errors import DegenerateGradientError, NotHermitianError
from levilab.hermitian import HERMITIAN_TOL, det_batch, newton_gap_batch, sigma_batch
from test_polynomial import CASES as POLYNOMIAL_CASES


def sphere_points(rng, radius, m, count):
    d = rng.standard_normal((count, m))
    d /= np.linalg.norm(d, axis=1)[:, None]
    return radius * d


class TestSphere:
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_levi_is_inverse_radius_power(self, radius, n):
        rng = np.random.default_rng(round(radius * 10) + n)
        spec = sf.Sphere(radius, n=n)
        fr = cv.FrameBatch.at_points(spec, sphere_points(rng, radius, 2 * n + 2, 100))
        for j in range(1, n + 1):
            assert np.max(np.abs(cv.levi(fr, j) - radius**-j)) < 1e-10

    def test_mean_curvature(self):
        rng = np.random.default_rng(6)
        for radius in (0.5, 1.0, 2.0):
            spec = sf.Sphere(radius)
            fr = cv.FrameBatch.at_points(spec, sphere_points(rng, radius, 4, 30))
            assert np.max(np.abs(cv.mean_curvature(fr) - 1.0 / radius)) < 1e-12

    def test_power_identity_on_spheres(self):
        rng = np.random.default_rng(7)
        spec = sf.Sphere(1.7, n=2)
        fr = cv.FrameBatch.at_points(spec, sphere_points(rng, 1.7, 6, 50))
        k1 = cv.levi(fr, 1)
        k2 = cv.levi(fr, 2)
        assert np.max(np.abs(k2 - k1**2)) < 1e-10

    def test_power_identity_fails_on_ellipsoids(self):
        # regression guard: the index dependence is real away from spheres
        spec = sf.Ellipsoid([1.0, 1.0, 1.0, 1.0, 1.0, 2.0])
        rng = np.random.default_rng(8)
        d = rng.standard_normal((30, 6))
        d /= np.linalg.norm(d, axis=1)[:, None]
        fr = cv.FrameBatch.at_points(spec, sf.radial_roots(spec, d)[0][:, None] * d)
        k1 = cv.levi(fr, 1)
        k2 = cv.levi(fr, 2)
        assert np.max(np.abs(k2 - k1**2)) > 1e-3


class TestBorderedMinors:
    def test_sphere_value(self):
        spec = sf.Sphere(2.0)
        fr = cv.FrameBatch.at_points(spec, [0.0, 2.0, 0.0, 0.0])
        assert reference_minor(fr.wgrad, fr.whess, (1, 2))[0] == pytest.approx(-4.0, abs=1e-12)
        # by the lemma, levi's numerator is minus the sum of the bordered minors
        assert cv.levi(fr, 1)[0] * fr.pgrad_norm[0] ** 3 == pytest.approx(4.0, abs=1e-12)

    def test_levi_flat_cylinder(self):
        spec = sf.Cylinder(1.0, kind="flat")
        fr = cv.FrameBatch.at_points(spec, [1.0, 0.0, 0.3, 7.0])
        assert reference_minor(fr.wgrad, fr.whess, (1, 2))[0] == pytest.approx(0.0, abs=1e-14)
        assert cv.levi(fr, 1)[0] == pytest.approx(0.0, abs=1e-14)


def _bordered_frames(seed: int, count: int, big: float, size: int = 3):
    """Hermitian Hessians and gradients of size big: a real function's bordered-minor inputs."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((count, size, size)) + 1j * rng.standard_normal((count, size, size))
    grad = rng.standard_normal((count, size)) + 1j * rng.standard_normal((count, size))
    return big * grad, big * (a + np.conj(np.swapaxes(a, 1, 2)))


REF_IMAG_TOL = 1e-10  # the bordered minors' imaginary-part tolerance, times the entry scale, as first written


def reference_minor(wgrad, whess, indices, det=det_batch):
    """A gradient-bordered minor (1-based indices) as first written: a zero-filled (B, k, k) matrix, its
    imaginary part checked on every row against REF_IMAG_TOL times the entry scale, then dropped."""
    sel = [i - 1 for i in indices]
    mat = np.zeros((wgrad.shape[0], len(sel) + 1, len(sel) + 1), dtype=complex)
    mat[:, 0, 1:], mat[:, 1:, 0], mat[:, 1:, 1:] = np.conj(wgrad[:, sel]), wgrad[:, sel], whess[:, sel][:, :, sel]
    d = det(mat)
    scale = np.maximum(1.0, np.max(np.abs(mat), axis=(1, 2)) ** (len(sel) + 1))
    if np.any(np.abs(d.imag) > REF_IMAG_TOL * scale):
        worst = d.imag[int(np.argmax(np.abs(d.imag) / scale))]
        raise ValueError(f"bordered minor has imaginary part {worst:.3e}; input not a real function?")
    return d.real


def reference_sum(wgrad, whess, j, det=det_batch):
    total = np.zeros(wgrad.shape[0])
    for idx in itertools.combinations(range(1, wgrad.shape[1] + 1), j + 1):
        total += reference_minor(wgrad, whess, idx, det)
    return total


def reference_levi(fr, j, det=det_batch):
    """K_j from the bordered minors, one complex determinant per (j+1)-index set."""
    return -reference_sum(fr.wgrad, fr.whess, j, det) / (math.comb(fr.n, j) * fr.pgrad_norm ** (j + 2))


def raw_frames(wgrad, whess):
    """A FrameBatch over given Wirtinger data, for levi's algebra alone (no surface points)."""
    b, nvars = wgrad.shape
    pn = np.sqrt(np.sum(np.abs(wgrad) ** 2, axis=1))
    zeros = np.zeros((b, 2 * nvars))
    return cv.FrameBatch(
        spec=sf.Sphere(1.0, n=nvars - 1), points=zeros, rgrad=zeros,
        wgrad=wgrad, whess=whess, pure=np.zeros_like(whess), pgrad_norm=pn,
    )


def asymmetry_rows(whess):
    """Per row: whether max |H - H*| exceeds HERMITIAN_TOL times the largest entry, and their ratio."""
    dev = np.max(np.abs(whess - np.conj(whess.transpose(0, 2, 1))), axis=(1, 2))
    scale = np.max(np.abs(whess), axis=(1, 2))
    return dev > HERMITIAN_TOL * scale, dev / scale


class TestHermitianCheck:
    """The bordered minors of a real function are real: levi checks H for conjugate symmetry in their place."""

    def test_large_entries_with_rounding_asymmetry_pass(self):
        wgrad, whess = _bordered_frames(3, 200, 1e4)
        whess[:, 0, 1] *= 1.0 + 1e-15
        # rounding-level asymmetry far above the bare tolerance; only the entry scale forgives it
        assert np.max(np.abs(whess - np.conj(whess.transpose(0, 2, 1)))) > 5 * HERMITIAN_TOL
        fr = raw_frames(wgrad, whess)
        for j in (1, 2):
            ref = reference_levi(fr, j)
            assert np.max(np.abs(cv.levi(fr, j) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), big=st.sampled_from([1e-3, 1.0, 1e3, 1e5]), j=st.sampled_from([1, 2]))
    def test_rows_fail_by_the_stated_bound(self, seed, big, j):
        # a row fails where its asymmetry exceeds HERMITIAN_TOL times its largest entry, and the worst is named;
        # below that, K_j is the bordered-minor reference's
        wgrad, whess = _bordered_frames(seed, 40, big)
        rng = np.random.default_rng(seed)
        whess[rng.integers(0, 40, 3), 0, 2] += 1e-9 * big**2 * rng.standard_normal(3) * 1j
        fr = raw_frames(wgrad, whess)
        bad, ratio = asymmetry_rows(whess)
        if np.any(bad):
            i = int(np.argmax(np.where(bad, ratio, 0.0)))
            message = f"by {ratio[i]:.3e} of its largest entry at row {i} "
            with pytest.raises(NotHermitianError, match=re.escape(message)):
                cv.levi(fr, j)
        else:
            ref = reference_levi(fr, j)
            assert np.max(np.abs(cv.levi(fr, j) - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_levi_raises_for_a_complex_function(self):
        wgrad, whess = _bordered_frames(4, 50, 1.0)
        whess[17, 0, 1] += 0.5j  # no longer Hermitian: not the Hessian of a real function
        with pytest.raises(NotHermitianError, match="at row 17 .*input not a real function"):
            cv.levi(raw_frames(wgrad, whess), 1)
        with pytest.raises(ValueError, match="imaginary part"):  # the reference's own check sees it too
            reference_sum(wgrad, whess, 1)


class TestCylinderRemark:
    """Round cylinder over S^2: curvature scan recorded from derived formulas.

    Hand expansion gives K = (R^2 + x2^2) / (2 R^3) on the surface and
    H = 2/(3R) everywhere; at R = 2 the points with z1 = 0 realize K = 1/2
    against H = 1/3, so the Levi curvature is not dominated by the mean one.
    """

    def test_mean_curvature_everywhere(self):
        spec = sf.Cylinder(2.0, kind="curved")
        rng = np.random.default_rng(9)
        for _ in range(10):
            phase, x2 = rng.uniform(0, 2 * np.pi), rng.uniform(-1.9, 1.9)
            r1 = math.sqrt(4.0 - x2**2)
            p = [r1 * math.cos(phase), r1 * math.sin(phase), x2, rng.uniform(-5, 5)]
            fr = cv.FrameBatch.at_points(spec, p)
            assert cv.mean_curvature(fr)[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
            assert cv.levi(fr, 1)[0] == pytest.approx((4.0 + x2**2) / 16.0, abs=1e-12)

    def test_levi_half_while_mean_is_third(self):
        spec = sf.Cylinder(2.0, kind="curved")
        fr = cv.FrameBatch.at_points(spec, [0.0, 0.0, 2.0, -1.3])
        assert cv.levi(fr, 1)[0] == pytest.approx(0.5, abs=1e-12)
        assert cv.mean_curvature(fr)[0] == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestQuadricFamily:
    def test_levi_equals_gradient_formula(self):
        # on the equality family K^{1/j} (n+1) |del f| = 1 pointwise
        for n, hterms in ((1, {(2, 0): 0.25, (0, 2): 0.25}), (2, {(2, 0, 0): 0.125, (0, 2, 0): 0.125, (0, 0, 2): 0.125})):
            spec = sf.PerturbedQuadric(n, c=1.0, hterms=hterms)
            rng = np.random.default_rng(10 + n)
            d = rng.standard_normal((40, spec.m))
            d /= np.linalg.norm(d, axis=1)[:, None]
            fr = cv.FrameBatch.at_points(spec, sf.radial_roots(spec, d)[0][:, None] * d)
            for j in range(1, n + 1):
                expected = ((n + 1) * fr.pgrad_norm) ** float(-j)
                assert np.max(np.abs(cv.levi(fr, j) - expected)) < 1e-12


class CubicReparam(sf.ExpReparam):
    """phi(f) = 2 f + f^2 + f^3/3 over a base family, phi' = 1 + (1 + f)^2 > 0: the same zero set and
    inside. On f = 0, phi' = phi'' = 2 scale the Hessians and add a rank-one term in place of exp's 1, 1;
    t + t^3/3 would have phi'(0) = 1, phi''(0) = 0 and leave the jets there unchanged."""

    def derivatives(self, pts):
        f = self.base.derivatives(pts)
        v = f.val
        return sf._chain(f, v * (2.0 + v * (1.0 + v / 3.0)), 1.0 + (1.0 + v) ** 2, 2.0 + 2.0 * v)


class TestInvariance:
    @pytest.mark.parametrize("reparam", [sf.ExpReparam, CubicReparam], ids=["exp", "cubic"])
    @pytest.mark.parametrize("name", ["sphere", "ellipsoid", "quadric"])
    def test_defining_function_reparametrization(self, name, reparam):
        spec = {
            "sphere": sf.Sphere(2.0),
            "ellipsoid": sf.Ellipsoid([1.0, 1.0, 1.0, 2.0]),
            "quadric": sf.PerturbedQuadric(1, c=1.0, hterms={(2, 0): 0.25, (0, 2): 0.25}),
        }[name]
        g = reparam(spec)
        rng = np.random.default_rng(11)
        d = rng.standard_normal((30, 4))
        d /= np.linalg.norm(d, axis=1)[:, None]
        pts = sf.radial_roots(spec, d)[0][:, None] * d
        fr_f = cv.FrameBatch.at_points(spec, pts)
        fr_g = cv.FrameBatch.at_points(g, pts)
        assert np.max(np.abs(cv.levi(fr_f, 1) - cv.levi(fr_g, 1))) < 1e-9
        assert np.max(np.abs(cv.mean_curvature(fr_f) - cv.mean_curvature(fr_g))) < 1e-9

    def test_translation_invariance(self):
        shift = np.array([0.4, -0.3, 0.2, 0.9])
        s0 = sf.Sphere(1.5)
        s1 = sf.Sphere(1.5, center=shift)
        rng = np.random.default_rng(12)
        pts = sphere_points(rng, 1.5, 4, 25)
        k0 = cv.levi(cv.FrameBatch.at_points(s0, pts), 1)
        k1 = cv.levi(cv.FrameBatch.at_points(s1, pts + shift), 1)
        assert np.max(np.abs(k0 - k1)) < 1e-13
        h0 = cv.mean_curvature(cv.FrameBatch.at_points(s0, pts))
        h1 = cv.mean_curvature(cv.FrameBatch.at_points(s1, pts + shift))
        assert np.max(np.abs(h0 - h1)) < 1e-13

    @settings(max_examples=20)
    @given(lam=st.floats(0.25, 4.0), seed=st.integers(0, 2**16))
    def test_dilation(self, lam, seed):
        # K_j has the dimension of length^-j: K_j(lam Omega, lam p) = K_j(Omega, p) / lam^j
        axes = np.array([1.0, 1.3, 0.8, 1.1, 0.9, 1.2])
        base, big = sf.Ellipsoid(axes), sf.Ellipsoid(lam * axes)
        d = np.random.default_rng(seed).standard_normal((8, 6))
        d /= np.linalg.norm(d, axis=1)[:, None]
        pts = sf.radial_roots(base, d)[0][:, None] * d
        fr0 = cv.FrameBatch.at_points(base, pts)
        fr1 = cv.FrameBatch.at_points(big, lam * pts)
        for j in (1, 2):
            k0 = cv.levi(fr0, j)
            assert np.max(np.abs(cv.levi(fr1, j) * lam**j - k0)) < 1e-11 * np.max(np.abs(k0))

    @settings(max_examples=20)
    @given(t1=st.floats(0.0, 2 * math.pi), t2=st.floats(0.0, 2 * math.pi), seed=st.integers(0, 2**16))
    def test_unitary_phase_invariance(self, t1, t2, seed):
        # z_k -> e^{i t_k} z_k carries the coefficient c_e of z^e to c_e e^{-i e.t}
        hterms = {(2, 0): 0.15 + 0.05j, (1, 1): -0.1j, (0, 3): 0.02 - 0.03j}
        theta = np.array([t1, t2])
        rotated = {e: c * np.exp(-1j * np.dot(e, theta)) for e, c in hterms.items()}
        base = sf.PerturbedQuadric(1, c=1.0, hterms=hterms)
        turned = sf.PerturbedQuadric(1, c=1.0, hterms=rotated)
        d = np.random.default_rng(seed).standard_normal((8, 4))
        d /= np.linalg.norm(d, axis=1)[:, None]
        pts = sf.radial_roots(base, d)[0][:, None] * d
        z = (pts[:, 0::2] + 1j * pts[:, 1::2]) * np.exp(1j * theta)
        moved = np.empty_like(pts)
        moved[:, 0::2], moved[:, 1::2] = z.real, z.imag
        k0 = cv.levi(cv.FrameBatch.at_points(base, pts), 1)
        k1 = cv.levi(cv.FrameBatch.at_points(turned, moved), 1)
        assert np.max(np.abs(k1 - k0)) < 1e-10 * np.max(np.abs(k0))

    @staticmethod
    def hermitian_quadric(a, b):
        """Re(z* a z + z^T b z) - 1 in C^3, keys z-block first."""
        coeffs = {(0,) * 6: -1.0}
        for k, l in itertools.product(range(3), repeat=2):
            for i, i2, c in ((l, 3 + k, a[k, l]), (k, l, b[k, l])):  # zbar_k a_kl z_l and b_kl z_k z_l
                exps = [0] * 6
                exps[i] += 1
                exps[i2] += 1
                key = tuple(exps)
                coeffs[key] = coeffs.get(key, 0.0) + c
        return sf.UserPolynomial(2, coeffs)

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**16))
    def test_general_unitary_invariance(self, seed):
        # f(Uw) = Re(w* (U* A U) w + w^T (U^T B U) w) - 1, so K_j(f o U)(U^-1 p) = K_j(f)(p)
        fixed = np.random.default_rng(2024)
        m = fixed.standard_normal((3, 3)) + 1j * fixed.standard_normal((3, 3))
        a = m.conj().T @ m + np.eye(3)  # generic Hermitian, eigenvalues >= 1
        s = fixed.standard_normal((3, 3)) + 1j * fixed.standard_normal((3, 3))
        b = 0.1 * (s + s.T) / np.linalg.norm(s + s.T, 2)  # small, so the quadric is an ellipsoid
        rng = np.random.default_rng(seed)
        q, r = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        u = q * (np.diag(r) / np.abs(np.diag(r)))  # Haar-distributed unitary
        base = self.hermitian_quadric(a, b)
        turned = self.hermitian_quadric(u.conj().T @ a @ u, u.T @ b @ u)
        d = rng.standard_normal((8, 6))
        d /= np.linalg.norm(d, axis=1)[:, None]
        pts = sf.radial_roots(base, d)[0][:, None] * d
        w = (pts[:, 0::2] + 1j * pts[:, 1::2]) @ u.conj()  # rows U^-1 z = U* z
        moved = np.empty_like(pts)
        moved[:, 0::2], moved[:, 1::2] = w.real, w.imag
        fr0 = cv.FrameBatch.at_points(base, pts)
        fr1 = cv.FrameBatch.at_points(turned, moved)
        for before, after in [(cv.levi(fr0, j), cv.levi(fr1, j)) for j in (1, 2)] + [
            (cv.mean_curvature(fr0), cv.mean_curvature(fr1))
        ]:
            assert np.max(np.abs(after - before)) < 1e-10 * np.max(np.abs(before))


class TestLemmaConsistency:
    def test_gradient_contraction_equals_minus_bordered_sum(self):
        # numeric bridge of the symbolic contraction lemma
        specs = [
            sf.Ellipsoid([1.0, 1.3, 0.8, 1.1]),
            sf.PerturbedQuadric(1, c=1.0, hterms={(2, 0): 0.25, (0, 2): 0.25}),
            sf.Ellipsoid([1.0, 1.0, 1.2, 1.0, 0.9, 1.1]),
        ]
        rng = np.random.default_rng(13)
        for spec in specs:
            d = rng.standard_normal((10, spec.m))
            d /= np.linalg.norm(d, axis=1)[:, None]
            fr = cv.FrameBatch.at_points(spec, sf.radial_roots(spec, d)[0][:, None] * d)
            # sigma_{j+1} is affine under the rank-one update H + w w* (matrix determinant lemma), so the
            # difference is the contraction of its cofactor gradient with w w*, w the complex gradient
            ww = fr.wgrad[:, :, None] * np.conj(fr.wgrad)[:, None, :]
            for j in range(1, spec.n + 1):
                lhs = -reference_sum(fr.wgrad, fr.whess, j)
                contraction = sigma_batch(fr.whess + ww, j + 1) - sigma_batch(fr.whess, j + 1)
                assert contraction == pytest.approx(lhs, abs=1e-9, rel=1e-9)


KERNEL_SURFACES = {
    "quadric_complex_n2": lambda: sf.PerturbedQuadric(
        2, c=1.0, hterms={(2, 0, 0): 0.1 + 0.05j, (1, 1, 0): -0.1j, (0, 1, 1): 0.05, (0, 0, 3): 0.02 - 0.03j}
    ),
    "ellipsoid_n3": lambda: sf.Ellipsoid([1.0, 1.3, 0.8, 1.1, 0.9, 1.2, 1.05, 0.95]),
    # |z|^2 - 1 - 3|z1 z2|^2 + 4|z1 z2|^4: K_1 changes sign, and its complex Hessian is not real
    "levi_indefinite": lambda: sf.UserPolynomial(
        1, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1, (0, 0, 0, 0): -1, (1, 1, 1, 1): -3, (2, 2, 2, 2): 4}, scale=1.2
    ),
    # H differs at each node: the profile's chain rule, and the composition exp(f) - 1
    "reinhardt": lambda: sf.ReinhardtSurface(0.5, 4.0),
    "exp_ellipsoid_n2": lambda: sf.ExpReparam(sf.Ellipsoid([1.0, 1.3, 0.8, 1.1, 0.9, 1.2])),
}


def boundary_frames(spec, seed, count=24):
    d = np.random.default_rng(seed).standard_normal((count, spec.m))
    d /= np.linalg.norm(d, axis=1)[:, None]
    return cv.FrameBatch.at_points(spec, spec.star_center + sf.radial_roots(spec, d)[0][:, None] * d)


def projected_levi(fr, j, nu):
    """sigma_j(P H P) / (C(n, j) |del f|^j) with P = I - nu nu*: K_j without a bordered minor."""
    p = np.eye(fr.n + 1) - nu[:, :, None] * np.conj(nu)[:, None, :]
    return sigma_batch(p @ fr.whess @ p, j) / (math.comb(fr.n, j) * fr.pgrad_norm**j)


class TestDeterminantKernel:
    @pytest.mark.parametrize("name", sorted(KERNEL_SURFACES))
    def test_levi_matches_lapack_bordered_sum(self, name):
        spec = KERNEL_SURFACES[name]()
        fr = boundary_frames(spec, 50)
        for j in range(1, spec.n + 1):
            ref = reference_levi(fr, j, det=np.linalg.det)
            assert np.max(np.abs(cv.levi(fr, j) - ref)) <= 1e-14 * np.max(np.abs(ref))

    @settings(max_examples=10, deadline=None)
    @given(name=st.sampled_from(sorted(KERNEL_SURFACES)), seed=st.integers(0, 2**16))
    def test_levi_is_sigma_of_projected_hessian(self, name, seed):
        spec = KERNEL_SURFACES[name]()
        fr = boundary_frames(spec, seed, count=8)
        for j in range(1, spec.n + 1):
            k = cv.levi(fr, j)
            assert np.max(np.abs(projected_levi(fr, j, fr.nu) - k)) < 1e-12 * np.max(np.abs(k))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**16), broadcast=st.booleans())
    def test_levi_matches_projected_and_lapack_forms(self, n, seed, broadcast):
        # random Wirtinger data, H broadcast (a quadratic's) or per node: the Levi form against sigma_j(PHP)
        # and against the bordered minors taken by LAPACK (at most 8.3e-15 of max|K| over 2,300 seeds; random
        # indefinite H cancels more than the surfaces, which hold 1e-14)
        wgrad, whess = _bordered_frames(seed, 16, 1.0, size=n + 1)
        if broadcast:
            whess = np.broadcast_to(whess[:1], whess.shape)
        fr = raw_frames(wgrad, whess)
        for j in range(1, n + 1):
            k = cv.levi(fr, j)
            assert np.max(np.abs(reference_levi(fr, j, det=np.linalg.det) - k)) <= 1e-13 * np.max(np.abs(k))
            assert np.max(np.abs(projected_levi(fr, j, fr.nu) - k)) <= 1e-12 * np.max(np.abs(k))

    def test_projection_uses_nu_not_its_conjugate(self):
        # pins the convention nu = del f / |del f|: with conj(nu) the identity holds only for real H
        fr = boundary_frames(KERNEL_SURFACES["levi_indefinite"](), 51)
        k = cv.levi(fr, 1)
        assert np.max(np.abs(projected_levi(fr, 1, np.conj(fr.nu)) - k)) > 0.5 * np.max(np.abs(k))

    def test_levi_bypasses_lapack(self, forbid_lapack_det):
        # perf guard: the Newton tensor's minors are j x j, so n <= 4 (every j) uses the closed forms only,
        # with H broadcast or per node
        specs = [KERNEL_SURFACES[name]() for name in ("levi_indefinite", "quadric_complex_n2", "ellipsoid_n3",
                                                     "reinhardt", "exp_ellipsoid_n2")]
        frames = [boundary_frames(spec, 52) for spec in specs + [sf.Sphere(1.5, n=n) for n in (1, 2, 3, 4)]]
        frames += [raw_frames(*_bordered_frames(52 + n, 16, 1.0, size=n + 1)) for n in (1, 2, 3, 4)]
        for fr in frames:
            for j in range(1, fr.n + 1):
                assert np.all(np.isfinite(cv.levi(fr, j)))


class TestLeviForm:
    @pytest.mark.parametrize("name", sorted(KERNEL_SURFACES))
    def test_levi_equals_the_reference(self, name):
        # one Hermitian form in place of one complex determinant per index set: equal to the stated bound
        spec = KERNEL_SURFACES[name]()
        fr = boundary_frames(spec, 53)
        for j in range(1, spec.n + 1):
            ref = reference_levi(fr, j)
            assert np.max(np.abs(cv.levi(fr, j) - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_constant_newton_tensor_formed_once(self, monkeypatch):
        # perf guard: a quadratic's H is one broadcast matrix, so T_j is formed from one matrix's minors
        fr = boundary_frames(sf.Ellipsoid([1.0, 1.3, 0.8, 1.1, 0.9, 1.2]), 54, count=500)
        batches, det = [], hermitian.det_batch
        monkeypatch.setattr(hermitian, "det_batch", lambda m: batches.append(np.shape(m)[:-2]) or det(m))
        for j in (1, 2):
            cv.levi(fr, j)
        assert batches == [(9,), (6,)]


def assert_gradient_norm_is_numpys(fr):
    """2 pgrad_norm, a column sum, against np.linalg.norm of the row-major rows: the same bits below 8
    coordinates, where numpy sums a row in order, and within 2 ulps from 8 on, where it sums pairwise."""
    ref = np.linalg.norm(np.ascontiguousarray(fr.rgrad), axis=1)
    np.testing.assert_array_max_ulp(2.0 * fr.pgrad_norm, ref, maxulp=0 if fr.rgrad.shape[1] < 8 else 2)


def einsum_mean_curvature(fr, real_hessian):
    """The mean curvature as first written, on the real Hessian that the jets' H and S determine."""
    g, h = fr.rgrad, real_hessian(fr.whess, fr.pure)
    gnorm = np.linalg.norm(g, axis=1)
    quad = np.einsum("bi,bij,bj->b", g, h, g)
    return (np.trace(h, axis1=1, axis2=2) / gnorm - quad / gnorm**3) / (2 * fr.n + 1)


MEAN_CURVATURE_SURFACES = {
    **KERNEL_SURFACES,
    "sphere_off_center": lambda: sf.Sphere(1.3, center=[0.4, -0.2, 0.1, 0.7]),
    "dirichlet_n2": lambda: sf.DirichletQuadratic([1.0, 1.2, 0.9, 1.4, 1.1, 1.3]),
    "reinhardt": lambda: sf.ReinhardtSurface(0.5, 4.0),
    "exp_quadric_n2": lambda: sf.ExpReparam(KERNEL_SURFACES["quadric_complex_n2"]()),
    "exp_levi_indefinite": lambda: sf.ExpReparam(KERNEL_SURFACES["levi_indefinite"]()),
    "cylinder_curved": lambda: sf.Cylinder(2.0, kind="curved"),
    "quadric_cubic_n3": lambda: sf.PerturbedQuadric(
        3, hterms={(3, 0, 0, 0): 0.02, (0, 1, 1, 1): 0.03 - 0.01j, (2, 0, 0, 0): 0.05j}),
}


@functools.lru_cache(maxsize=None)
def mean_curvature_surface(name):
    return MEAN_CURVATURE_SURFACES[name]()


class TestMeanCurvatureContraction:
    # 4 tr H and 2 Re(v^T S v) + 2 v^T H conj(v) sum other products than the real form: not bitwise
    @pytest.mark.parametrize("name", sorted(KERNEL_SURFACES) + ["reinhardt"])
    def test_equals_the_einsum_form(self, name, real_hessian):
        spec = mean_curvature_surface(name)
        fr = boundary_frames(spec, 54, count=4096)
        assert_gradient_norm_is_numpys(fr)
        ref = einsum_mean_curvature(fr, real_hessian)
        assert np.max(np.abs(cv.mean_curvature(fr) - ref)) <= 1e-14 * np.max(np.abs(ref))

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(MEAN_CURVATURE_SURFACES)), seed=st.integers(0, 2**16))
    def test_equals_the_einsum_form_on_every_family(self, name, seed, real_hessian):
        spec = mean_curvature_surface(name)
        if spec.star_center is None:  # the cylinder: a sphere of R^3 in (x1, y1, x2), any y2
            rng = np.random.default_rng(seed)
            pts = np.concatenate([sphere_points(rng, spec.radius, 3, 32), rng.uniform(-2, 2, (32, 1))], axis=1)
            fr = cv.FrameBatch.at_points(spec, pts)
        else:
            fr = boundary_frames(spec, seed, count=32)
        ref = einsum_mean_curvature(fr, real_hessian)
        assert np.max(np.abs(cv.mean_curvature(fr) - ref)) <= 1e-14 * np.max(np.abs(ref))


def einsum_reference_mean_curvature(fr):
    """mean_curvature as einsum contractions wrote it before the explicit upper-triangle sums, and the
    size of what it sums (the same contractions on absolute values): the explicit sums add the same
    products in another order, so the two agree to rounding of that size, not of the result."""
    gnorm = 2.0 * fr.pgrad_norm
    u = np.conj(fr.wgrad)
    lap = 4.0 * np.einsum("bii->b", fr.whess).real
    quad = 8.0 * (np.einsum("bl,blk,bk->b", u, fr.pure, u) + np.einsum("bl,blk,bk->b", u, fr.whess, fr.wgrad)).real
    size = 8.0 * (np.einsum("bl,blk,bk->b", abs(u), abs(fr.pure), abs(u))
                  + np.einsum("bl,blk,bk->b", abs(u), abs(fr.whess), abs(u)))
    scale = 2 * fr.n + 1
    return (lap / gnorm - quad / gnorm**3) / scale, (np.abs(lap) / gnorm + size / gnorm**3) / scale


STAR_SURFACES = sorted(set(MEAN_CURVATURE_SURFACES) - {"cylinder_curved"})


class TestMeanCurvatureExplicitSums:
    TOL = 8 * np.finfo(float).eps  # relative to the size of the summed terms, fixed before the sums were written

    def test_cover_broadcast_and_batched_hessians(self):
        # quadratics give broadcast H and S (stride 0 over the batch), the other families a batch
        frames = [boundary_frames(mean_curvature_surface(name), 0, count=2) for name in STAR_SURFACES]
        kinds = {(fr.n + 1, fr.whess.strides[0] == 0) for fr in frames}
        assert kinds == {(n, broadcast) for n in (2, 3, 4) for broadcast in (False, True)}

    @pytest.mark.parametrize("name", STAR_SURFACES)
    def test_equals_the_einsum_reference(self, name):
        fr = boundary_frames(mean_curvature_surface(name), 55, count=2048)
        ref, size = einsum_reference_mean_curvature(fr)
        assert np.all(np.abs(cv.mean_curvature(fr) - ref) <= self.TOL * size)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(STAR_SURFACES), seed=st.integers(0, 2**16))
    def test_equals_the_einsum_reference_at_random_nodes(self, name, seed):
        fr = boundary_frames(mean_curvature_surface(name), seed, count=64)
        ref, size = einsum_reference_mean_curvature(fr)
        assert np.all(np.abs(cv.mean_curvature(fr) - ref) <= self.TOL * size)

    @pytest.mark.parametrize("name", STAR_SURFACES)
    def test_wirtinger_gradient_is_bitwise_the_complex_expression(self, name):
        g = boundary_frames(mean_curvature_surface(name), 56, count=256).rgrad
        assert cv.wirtinger_gradient(g).tobytes() == ((g[..., 0::2] - 1j * g[..., 1::2]) / 2.0).tobytes()

    def test_wirtinger_gradient_keeps_zeros_positive(self):
        # 0 - y, not -y: a zero y gives +0.0 as the complex expression does; stacked batches too
        g = np.random.default_rng(57).standard_normal((3, 40, 6))
        g[:, ::3] = 0.0
        g[:, 1::4, 1::2] = 0.0
        assert cv.wirtinger_gradient(g).tobytes() == ((g[..., 0::2] - 1j * g[..., 1::2]) / 2.0).tobytes()


LAYOUT_SURFACES = {
    **{name: make for name, (make, _) in POLYNOMIAL_CASES.items()},
    "ellipsoid_n3": KERNEL_SURFACES["ellipsoid_n3"],  # m = 8: numpy's norm sums pairwise
    "levi_indefinite": KERNEL_SURFACES["levi_indefinite"],
    "reinhardt": lambda: sf.ReinhardtSurface(0.5, 4.0),
    "exp_quadric_n2": lambda: sf.ExpReparam(KERNEL_SURFACES["quadric_complex_n2"]()),
    "exp_levi_indefinite": lambda: sf.ExpReparam(KERNEL_SURFACES["levi_indefinite"]()),
}


def layout_points(spec, count=256, seed=58):
    """C-ordered boundary points; on a cylinder a sphere of R^k in its first k coordinates, the rest free."""
    if spec.star_center is not None:
        return np.ascontiguousarray(boundary_frames(spec, seed, count=count).points)
    rng = np.random.default_rng(seed)
    k = 2 + (spec.kind == "curved")
    return np.concatenate([sphere_points(rng, spec.radius, k, count), rng.uniform(-2, 2, (count, spec.m - k))], axis=1)


def frame_fields(fr):
    return [fr.points, fr.rgrad, fr.wgrad, fr.whess, fr.pure, fr.pgrad_norm, cv.mean_curvature(fr),
            *(fr.levi(j) for j in range(1, fr.n + 1))]


class TestCoordinateMajorLayout:
    """Batches are coordinate-major from the direction grid to the kernels, and the layout moves no bit."""

    @pytest.mark.parametrize("name", sorted(LAYOUT_SURFACES))
    def test_frames_are_bitwise_the_same_from_either_point_layout(self, name):
        spec = LAYOUT_SURFACES[name]()
        pts = layout_points(spec)
        row_major, coordinate_major = (cv.FrameBatch.at_points(spec, p) for p in (pts, np.asfortranarray(pts)))
        for a, b in zip(frame_fields(row_major), frame_fields(coordinate_major)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert_gradient_norm_is_numpys(row_major)

    @pytest.mark.parametrize("name", sorted(LAYOUT_SURFACES))
    def test_jets_are_coordinate_major(self, name):
        spec = LAYOUT_SURFACES[name]()
        jet = sf.eval_jets(spec, layout_points(spec))
        assert jet.grad.T.flags.c_contiguous
        assert (jet.mixed.strides[0] == 0) == (jet.pure.strides[0] == 0)
        if jet.mixed.strides[0]:  # not a quadratic's one broadcast matrix: entry-major
            assert jet.mixed.transpose(1, 2, 0).flags.c_contiguous and jet.pure.transpose(1, 2, 0).flags.c_contiguous

    def test_degree_above_two_has_batched_entry_major_hessians(self):
        for name in ("levi_indefinite", "quadric_complex_hterms", "user_levi_indefinite", "reinhardt"):
            spec = LAYOUT_SURFACES[name]()
            assert sf.eval_jets(spec, layout_points(spec, count=8)).mixed.strides[0] != 0

    def test_direction_grid_and_nodes_are_coordinate_major(self):
        nodes = qd._nodes(sf.Sphere(1.5, n=2), qd.QuadratureSpec(order=5))
        assert qd.sphere_grid(6, 5)[0].T.flags.c_contiguous
        assert nodes.points(slice(10, 300), nodes.rho[10:300]).T.flags.c_contiguous

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hermitian_kernels_do_not_depend_on_the_layout(self, n):
        # a non-quadratic H at interior points, entry-major from the jets against a row-major copy; at n = 4
        # sigma_2 and sigma_3 sum C(5, j) = 10 minors
        w = n + 1
        terms = {tuple(int(i % w == k) for i in range(2 * w)): 1.0 for k in range(w)}
        terms.update({(0,) * (2 * w): -1.0, (2,) + (0,) * (w - 2) + (0, 0) + (2,) * (w - 1): 0.2 + 0.1j,
                      (1,) + (0,) * (w - 1) + (1,) + (0,) * (w - 2) + (1,): -0.5})
        spec = sf.UserPolynomial(n, terms, validate=False)
        h = sf.eval_jets(spec, np.random.default_rng(59 + n).uniform(-0.8, 0.8, (512, spec.m))).mixed
        assert h.transpose(1, 2, 0).flags.c_contiguous
        for j in range(1, w + 1):
            assert sigma_batch(h, j).tobytes() == sigma_batch(np.ascontiguousarray(h), j).tobytes()
            if j >= 2:
                assert newton_gap_batch(h, j).tobytes() == newton_gap_batch(np.ascontiguousarray(h), j).tobytes()


class TestMeanCurvatureOracle:
    def test_ellipsoid_against_fd_divergence(self):
        # independent oracle: central-difference divergence of the unit normal field
        spec = sf.Ellipsoid([1.0, 1.0, 1.0, 2.0])
        p = np.array([1.0, 0.0, 0.0, 0.0])
        fr = cv.FrameBatch.at_points(spec, p)
        h = 1e-6

        def unit_normal(x):
            j = sf.eval_jets(spec, x[None, :])
            g = j.grad[0].real
            return g / np.linalg.norm(g)

        div = 0.0
        for i in range(4):
            dp = np.zeros(4)
            dp[i] = h
            div += (unit_normal(p + dp)[i] - unit_normal(p - dp)[i]) / (2 * h)
        assert cv.mean_curvature(fr)[0] == pytest.approx(div / 3.0, abs=1e-6)


class TestDegeneracy:
    def test_vanishing_gradient_raises(self):
        # f = (Re z1)^2 - (Re z2)^3 has a genuine critical point on its zero set
        poly = sf.UserPolynomial(1, {
            (2, 0, 0, 0): 0.25, (1, 0, 1, 0): 0.5, (0, 0, 2, 0): 0.25,
            (0, 3, 0, 0): -0.125, (0, 2, 0, 1): -0.375,
            (0, 1, 0, 2): -0.375, (0, 0, 0, 3): -0.125,
        }, validate=False)
        with pytest.raises(DegenerateGradientError):
            cv.FrameBatch.at_points(poly, [0.0, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("gnorm", [1.5e-10, 0.9e-10])
    def test_one_floor_on_grad_f(self, gnorm):
        # GRADIENT_FLOOR bounds |grad f| = 2 |del f| in at_points, levi and mean_curvature alike:
        # f = |z1|^2 - R^2 has |grad f| = 2R on its zero set, and the raw batch |del f| = gnorm / 2
        radius = gnorm / 2.0
        fr = raw_frames(np.array([[radius, 0.0]], dtype=complex), np.eye(2, dtype=complex)[None])
        checks = (lambda: cv.FrameBatch.at_points(sf.Cylinder(radius), [radius, 0.0, 0.0, 0.0]),
                  lambda: cv.levi(fr, 1), lambda: cv.mean_curvature(fr))
        for check in checks:
            if gnorm > sf.GRADIENT_FLOOR:
                assert np.all(np.isfinite(check().pgrad_norm if check is checks[0] else check()))
            else:
                with pytest.raises(DegenerateGradientError, match="characteristic point"):
                    check()
