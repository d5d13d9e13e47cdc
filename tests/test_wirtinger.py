import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levilab import wirtinger
from levilab.errors import CostLimitError
from levilab.wirtinger import (
    DEFAULT_SEED,
    WMatrix,
    WPoly,
    check_euler_sigma,
    check_lemma_identity,
    check_null_lagrangian,
    complex_hessian,
    generic_poly,
    generic_real_poly,
    point_jets,
    random_rational,
    run_identity_suite,
    sym_bordered_det,
    sym_sigma,
    sym_sigma_grad,
    wd,
)


def var(n, which, i):
    return WPoly.variable(n, which, i)


def norm_sq(n):
    total = WPoly.zero(n)
    for i in range(1, n + 1):
        total = total + var(n, "z", i) * var(n, "zbar", i)
    return total


class TestDerivatives:
    def test_product_rule_on_independent_vars(self):
        p = var(2, "z", 1) * var(2, "zbar", 1)
        assert wd(p, "z", 1) == var(2, "zbar", 1)

    def test_holomorphic_killed_by_zbar(self):
        p = var(2, "z", 1) * var(2, "z", 1)
        assert wd(p, "zbar", 1).is_zero()

    def test_hessian_of_norm_squared_is_identity(self):
        p = norm_sq(2)
        for i in (1, 2):
            for k in (1, 2):
                d = p.wd("z", i).wd("zbar", k)
                expected = WPoly.constant(2, 1) if i == k else WPoly.zero(2)
                assert d == expected

    def test_index_range(self):
        with pytest.raises(ValueError):
            wd(norm_sq(2), "z", 3)
        with pytest.raises(ValueError):
            wd(norm_sq(2), "w", 1)

    def test_mixed_partials_commute(self):
        rng = random.Random(4)
        p = generic_poly(2, 3, rng)
        a = p.wd("z", 1).wd("zbar", 2)
        b = p.wd("zbar", 2).wd("z", 1)
        assert a == b


class TestConjugation:
    def test_involution(self):
        rng = random.Random(8)
        p = generic_poly(2, 3, rng)
        assert p.conj().conj() == p

    def test_conj_multiplicative(self):
        rng = random.Random(9)
        p = generic_poly(2, 2, rng)
        q = generic_poly(2, 2, random.Random(10))
        assert (p * q).conj() == p.conj() * q.conj()

    def test_real_poly_hessian_hermitian(self):
        f = generic_real_poly(3, 3, seed=123)
        assert f.conj() == f
        h = complex_hessian(f)
        for l in range(3):
            for k in range(3):
                assert h.entries[l][k].conj() == h.entries[k][l]


class TestRingAxioms:
    small = st.integers(min_value=-4, max_value=4)

    @st.composite
    @staticmethod
    def polys(draw, n=2, max_terms=4):
        terms = {}
        for _ in range(draw(st.integers(1, max_terms))):
            exps = tuple(draw(TestRingAxioms.small.map(abs)) % 3 for _ in range(2 * n))
            re = Fraction(draw(TestRingAxioms.small), draw(st.integers(1, 4)))
            im = Fraction(draw(TestRingAxioms.small), draw(st.integers(1, 4)))
            terms[exps] = (re, im)
        return WPoly(n, terms)

    @given(polys(), polys(), polys())
    @settings(max_examples=40)
    def test_distributive_and_associative(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a

    @given(polys())
    @settings(max_examples=20)
    def test_additive_inverse(self, a):
        assert (a - a).is_zero()


# -- a plain Fraction-dict reference for the packed representation -----------


def ref_clean(t):
    return {e: (Fraction(c[0]), Fraction(c[1])) for e, c in t.items() if c[0] or c[1]}


def ref_add(p, q):
    out = dict(p)
    for e, (re, im) in q.items():
        a, b = out.get(e, (Fraction(0), Fraction(0)))
        out[e] = (a + re, b + im)
    return ref_clean(out)


def ref_mul(p, q):
    out = {}
    for e1, (a, b) in p.items():
        for e2, (c, d) in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            re, im = out.get(e, (Fraction(0), Fraction(0)))
            out[e] = (re + a * c - b * d, im + a * d + b * c)
    return ref_clean(out)


def ref_wd(p, pos):
    return ref_clean({e[:pos] + (e[pos] - 1,) + e[pos + 1:]: (re * e[pos], im * e[pos])
                      for e, (re, im) in p.items() if e[pos]})


def ref_conj(p, n):
    return {e[n:] + e[:n]: (re, -im) for e, (re, im) in p.items()}


@st.composite
def term_dicts(draw, n=2):
    """Exponents up to 3 and coefficients with non-unit denominators."""
    rational = st.builds(Fraction, st.integers(-12, 12), st.integers(2, 12))
    exps = st.tuples(*[st.integers(0, 3)] * (2 * n))
    return ref_clean(draw(st.dictionaries(exps, st.tuples(rational, rational), max_size=6)))


class TestExactRepresentation:
    @given(term_dicts(), term_dicts(), st.integers(0, 3))
    @settings(max_examples=60)
    def test_ops_match_fraction_reference(self, ta, tb, pos):
        a, b = WPoly(2, ta), WPoly(2, tb)
        assert (a + b).terms == ref_add(ta, tb)
        assert (a - b).terms == ref_add(ta, {e: (-re, -im) for e, (re, im) in tb.items()})
        assert (a * b).terms == ref_mul(ta, tb)
        assert a.wd("z" if pos < 2 else "zbar", pos % 2 + 1).terms == ref_wd(ta, pos)
        assert a.conj().terms == ref_conj(ta, 2)

    @given(term_dicts(), st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 6)),
                                  min_size=4, max_size=4))
    @settings(max_examples=40)
    def test_at_matches_fraction_reference(self, ta, coords):
        # each of z_1, z_2, zbar_1, zbar_2 takes its own Gaussian rational (re + i im) / den
        point = [(Fraction(re, den), Fraction(im, den)) for re, im, den in coords]
        zero = total = (Fraction(0), Fraction(0))
        for exps, coeff in ta.items():
            mono = coeff
            for v, e in zip(point, exps):
                for _ in range(e):
                    mono = (mono[0] * v[0] - mono[1] * v[1], mono[0] * v[1] + mono[1] * v[0])
            total = (total[0] + mono[0], total[1] + mono[1])
        value = WPoly(2, ta).at(point)
        assert value == WPoly.constant(2, total)
        assert value.terms == ({(0, 0, 0, 0): total} if total != zero else {})

    @given(term_dicts())
    @settings(max_examples=30)
    def test_terms_round_trip_and_canonical_form(self, ta):
        a = WPoly(2, ta)
        assert a.terms == ta
        assert a.n_terms == len(ta)
        for b in (a * Fraction(1, 2) * 2, (a * 3 + a) * Fraction(1, 4), a.conj().conj(), a + 0):
            assert b == a
            assert hash(b) == hash(a)

    def test_int_complex_and_fraction_coefficients(self):
        p = WPoly(1, {(1, 0): 3, (0, 1): 0.5 - 2j, (1, 1): Fraction(2, 6), (2, 2): 0})
        assert p.terms == {(1, 0): (3, 0), (0, 1): (Fraction(1, 2), -2), (1, 1): (Fraction(1, 3), 0)}

    def test_exponent_slot_bound(self):
        z = WPoly.variable(1, "z", 1)
        assert (z ** (2**16 - 1)).terms == {(2**16 - 1, 0): (1, 0)}
        with pytest.raises(ValueError):
            z ** (2**16)
        with pytest.raises(ValueError):
            WPoly(1, {(2**15, 2**15): 1})

    @pytest.mark.parametrize("j", [1, 2])
    def test_nonzero_residual_is_exact(self, j):
        # Euler with multiplier j - 1 instead of j leaves exactly -sigma_j
        h = complex_hessian(generic_real_poly(2, 3, seed=55))
        sig = sym_sigma(h, j)
        grad = sym_sigma_grad(h, j)
        total = sig * (j - 1)
        for l in range(2):
            for k in range(2):
                total = total - grad[l][k] * h.entries[l][k]
        assert not sig.is_zero()
        assert total == -sig


class TestBorderedDeterminant:
    def test_sphere_hand_expansion(self):
        # defining polynomial of the round sphere: border kills the constant,
        # the 3x3 determinant collapses to minus the squared gradient norm
        f = norm_sq(2) - WPoly.constant(2, 4)
        assert sym_bordered_det(f, (1, 2)) == -norm_sq(2)

    def test_pluriharmonic_vanishes(self):
        z1 = var(2, "z", 1)
        p = z1 * z1
        f = p + p.conj()
        assert sym_bordered_det(f, (1, 2)).is_zero()

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            sym_bordered_det(norm_sq(2), (1, 1))

    def test_matches_numeric_levi_form(self):
        # cross-module oracle: exact symbolic determinant evaluated at random points against the floating
        # computation from jets, which by the lemma is minus the Levi form <T_1(H) del f, del f>
        from levilab import curvature as cv
        from levilab import surfaces as sf
        from levilab.hermitian import newton_upper

        rng = random.Random(77)
        p = generic_poly(2, 2, rng)
        f = p + p.conj()
        sym = sym_bordered_det(f, (1, 2))
        spec = sf.UserPolynomial(1, {e: complex(re, im) for e, (re, im) in f.terms.items()}, validate=False)
        nrng = np.random.default_rng(5)
        for _ in range(10):
            x = nrng.standard_normal(4)
            z = [complex(x[0], x[1]), complex(x[2], x[3])]
            jt = sf.eval_jets(spec, x[None, :])
            wg = cv.wirtinger_gradient(jt.grad)
            num = -cv._levi_form(wg, newton_upper(jt.mixed, 1))[0]
            assert abs(sym.eval(z) - num) < 1e-12 * max(1.0, abs(num))


class TestSigmaSymbolic:
    def test_euler_for_sigma_grad(self):
        f = generic_real_poly(2, 3, seed=55)
        h = complex_hessian(f)
        for j in (1, 2):
            sig = sym_sigma(h, j)
            grad = sym_sigma_grad(h, j)
            total = WPoly.zero(2)
            for l in range(2):
                for k in range(2):
                    total = total + grad[l][k] * h.entries[l][k]
            assert (total - sig * j).is_zero()

    def test_wmatrix_det_2x2(self):
        a = var(1, "z", 1)
        b = var(1, "zbar", 1)
        m = WMatrix([[a, b], [b, a]])
        assert m.det() == a * a - b * b


def symbolic_residuals(name, n, j, seed):
    """The residual polynomials of one check, expanded in full: the route the pointwise checks
    replace. It reads sym_sigma, sym_sigma_grad and bordered_det through the module, so a
    monkeypatched perturbation reaches both routes alike."""
    nv = n + 1
    f = generic_real_poly(nv, 3, seed)
    h = complex_hessian(f)
    grad = wirtinger.sym_sigma_grad(h, j + 1)
    zero = WPoly.zero(nv)
    if name == "null_lagrangian":
        return [sum((grad[l][k].wd("z", l + 1) for l in range(nv)), zero) for k in range(nv)]
    if name == "lemma_contraction":
        fzb = [f.wd("zbar", k + 1) for k in range(nv)]
        contraction = sum((f.wd("z", l + 1) * sum((grad[l][k] * fzb[k] for k in range(nv)), zero)
                           for l in range(nv)), zero)
        bordered = sum((sym_bordered_det(f, idx) for idx in itertools.combinations(range(1, nv + 1), j + 1)), zero)
        return [contraction + bordered]
    contraction = sum((grad[l][k] * h.entries[l][k] for l in range(nv) for k in range(nv)), zero)
    return [wirtinger.sym_sigma(h, j + 1) * (j + 1) - contraction]


def at_points(polys, n, seed=DEFAULT_SEED):
    """Exact values of the polynomials at the check's seeded points, points outer."""
    return tuple(p.at(pt) for pt in point_jets(n, seed).points for p in polys)


class TestIdentityChecks:
    @pytest.mark.parametrize("n,j", [(1, 1), (2, 1), (2, 2)])
    def test_null_lagrangian_zero(self, n, j):
        res = check_null_lagrangian(n, j)
        assert res.ok
        assert len(res.residuals) == 2 * (n + 1)

    @pytest.mark.parametrize("n,j", [(1, 1), (2, 1), (2, 2)])
    def test_lemma_identity_zero(self, n, j):
        assert check_lemma_identity(n, j).ok

    @pytest.mark.parametrize("n,j", [(1, 1), (2, 1), (2, 2)])
    def test_euler_sigma_zero(self, n, j):
        assert check_euler_sigma(n, j).ok

    def test_other_seeds_also_vanish(self):
        for seed in (1, 424242):
            assert check_null_lagrangian(1, 1, seed=seed).ok
            assert check_lemma_identity(1, 1, seed=seed).ok
            for j in (1, 2):
                assert check_lemma_identity(2, j, seed=seed).ok

    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 424242])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pointwise_equals_symbolic_at_the_points(self, n, seed):
        for res in run_identity_suite(n, seed):
            assert res.ok
            assert res.residuals == at_points(symbolic_residuals(res.name, n, res.j, seed), n, seed)

    @pytest.mark.parametrize("n,j", [(4, None), (5, 5)])
    def test_suite_passes_beyond_the_symbolic_reach(self, n, j):
        results = run_identity_suite(n, j=j)
        assert [r.ok for r in results] == [True] * len(results)

    def test_points_are_independent_gaussian_integers(self):
        points = point_jets(3).points
        assert len(points) == 2 and all(len(p) == 8 for p in points)
        parts = [x for p in points for c in p for x in c]
        assert all(-2**31 <= x < 2**31 for x in parts)
        assert len(set(parts)) == len(parts)
        assert points == point_jets(3).points
        assert points != point_jets(3, seed=1).points

    def test_jets_of_another_suite_are_refused(self):
        with pytest.raises(ValueError, match="seed=1"):
            check_euler_sigma(2, 1, DEFAULT_SEED, point_jets(2, seed=1))

    # Negative controls: a check that cannot fail proves nothing. Each perturbs
    # one side of its identity and expects the residual to be that perturbation
    # at the points, and equal to the perturbed symbolic residual there.

    @pytest.mark.parametrize("j", [1, 2])
    def test_lemma_fails_with_bordered_side_doubled(self, monkeypatch, j):
        bordered = wirtinger.bordered_det
        f = generic_real_poly(3, 3, DEFAULT_SEED)
        expected = sum((sym_bordered_det(f, idx) for idx in itertools.combinations((1, 2, 3), j + 1)),
                       WPoly.zero(3))
        monkeypatch.setattr(wirtinger, "bordered_det", lambda *args: bordered(*args) * 2)
        res = check_lemma_identity(2, j)
        assert not res.ok
        assert not any(p.is_zero() for p in res.residuals)
        assert res.residuals == at_points([expected], 2)
        assert res.residuals == at_points(symbolic_residuals(res.name, 2, j, DEFAULT_SEED), 2)

    @staticmethod
    def _bump_cofactor(monkeypatch, l, k, bump):
        sigma_grad = wirtinger.sym_sigma_grad

        def perturbed(h, j, rows=None):
            grad = sigma_grad(h, j, rows)
            grad[l][k] = grad[l][k] + bump
            return grad

        monkeypatch.setattr(wirtinger, "sym_sigma_grad", perturbed)

    @pytest.mark.parametrize("l,k", [(0, 0), (0, 2), (2, 1)])
    def test_lemma_fails_with_one_cofactor_perturbed(self, monkeypatch, l, k):
        # the contraction must pair entry (l, k) with f_{z_l} f_{zbar_k}; at a point the
        # cofactors are constants, so the bump is one too
        bump = WPoly.constant(3, (2, -3))
        self._bump_cofactor(monkeypatch, l, k, bump)
        f = generic_real_poly(3, 3, DEFAULT_SEED)
        res = check_lemma_identity(2, 1)
        assert not res.ok
        assert res.residuals == at_points([bump * f.wd("z", l + 1) * f.wd("zbar", k + 1)], 2)
        assert res.residuals == at_points(symbolic_residuals(res.name, 2, 1, DEFAULT_SEED), 2)

    def test_null_lagrangian_fails_off_divergence_free(self, monkeypatch):
        # z_1 in entry (0, 0) adds d/dz_1 z_1 = 1 to the divergence of column 0 only; the
        # pointwise check's auxiliary variable t is z_1, along which the z_1 derivative is taken
        self._bump_cofactor(monkeypatch, 0, 0, var(3, "z", 1))
        res = check_null_lagrangian(2, 1)
        assert not res.ok
        one, zero = WPoly.constant(3, 1), WPoly.zero(3)
        assert res.residuals == (one, zero, zero) * 2
        assert res.residuals == at_points(symbolic_residuals(res.name, 2, 1, DEFAULT_SEED), 2)

    @pytest.mark.parametrize("j", [1, 2])
    def test_euler_fails_with_sigma_shifted(self, monkeypatch, j):
        # (j+1)(sigma + 1) - contraction leaves exactly the constant j + 1
        sigma = wirtinger.sym_sigma
        monkeypatch.setattr(wirtinger, "sym_sigma", lambda h, jj: sigma(h, jj) + 1)
        res = check_euler_sigma(2, j)
        assert not res.ok
        assert res.residuals == (WPoly.constant(3, j + 1),) * 2
        assert res.residuals == at_points(symbolic_residuals(res.name, 2, j, DEFAULT_SEED), 2)

    def test_cost_bound(self):
        with pytest.raises(CostLimitError):
            check_null_lagrangian(6, 1)
        with pytest.raises(CostLimitError):
            run_identity_suite(6)

    def test_j_range(self):
        with pytest.raises(ValueError):
            check_euler_sigma(2, 3)

    def test_suite_pinned_at_default_seed(self):
        # evaluation at the seeded points is deterministic: names, verdicts, the largest
        # polynomial formed (f) and the residual sizes are fixed at the default seed
        results = run_identity_suite(2) + run_identity_suite(3, j=1)
        got = [(r.name, r.n, r.j, r.seed, r.ok, r.max_terms, [p.n_terms for p in r.residuals])
               for r in results]
        s = DEFAULT_SEED
        assert got == [
            ("null_lagrangian", 2, 1, s, True, 84, [0] * 6),
            ("lemma_contraction", 2, 1, s, True, 84, [0, 0]),
            ("euler_homogeneity", 2, 1, s, True, 84, [0, 0]),
            ("null_lagrangian", 2, 2, s, True, 84, [0] * 6),
            ("lemma_contraction", 2, 2, s, True, 84, [0, 0]),
            ("euler_homogeneity", 2, 2, s, True, 84, [0, 0]),
            ("null_lagrangian", 3, 1, s, True, 165, [0] * 8),
            ("lemma_contraction", 3, 1, s, True, 165, [0, 0]),
            ("euler_homogeneity", 3, 1, s, True, 165, [0, 0]),
        ]

    @pytest.mark.parametrize("nvars,degree", [(1, 3), (2, 2), (3, 3), (4, 3)])
    def test_generic_poly_matches_dense_walk(self, nvars, degree):
        # reference: walk every tuple of range(degree+1)^(2 nvars) in lexicographic
        # order and keep those of total degree <= degree; the seeded stream then
        # gives every monomial the same coefficient
        rng = random.Random(DEFAULT_SEED)
        terms = {
            exps: (random_rational(rng), random_rational(rng))
            for exps in itertools.product(range(degree + 1), repeat=2 * nvars)
            if sum(exps) <= degree
        }
        assert generic_poly(nvars, degree, random.Random(DEFAULT_SEED)) == WPoly(nvars, terms)

    def test_suite_runner(self):
        results = run_identity_suite(1)
        assert len(results) == 3
        assert all(r.ok for r in results)

    @pytest.mark.parametrize("n", [0, -1])
    def test_suite_needs_n_at_least_1(self, n):
        # a suite of no checks would pass vacuously
        with pytest.raises(ValueError, match="n >= 1"):
            run_identity_suite(n)


def test_eval_exactness():
    f = norm_sq(2) - WPoly.constant(2, 4)
    assert f.eval([2.0, 0.0]) == 0.0
    assert f.eval([1.0 + 1.0j, 1.0 - 1.0j]) == pytest.approx(0.0, abs=1e-15)
