import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert f.is_real()
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
        assert p.coefficients_as_complex() == {(1, 0): 3, (0, 1): 0.5 - 2j, (1, 1): 1 / 3}

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

    def test_matches_numeric_bordered_minor(self):
        # cross-module oracle: exact symbolic determinant evaluated at random
        # points against the floating computation from jets
        from levilab import curvature as cv
        from levilab import surfaces as sf

        rng = random.Random(77)
        p = generic_poly(2, 2, rng)
        f = p + p.conj()
        sym = sym_bordered_det(f, (1, 2))
        spec = sf.UserPolynomial(1, f.coefficients_as_complex(), validate=False)
        nrng = np.random.default_rng(5)
        for _ in range(10):
            x = nrng.standard_normal(4)
            z = [complex(x[0], x[1]), complex(x[2], x[3])]
            jt = sf.eval_jets(spec, x[None, :])
            wg = cv.wirtinger_gradient(jt.grad)
            wh = cv.complex_hessian(jt.hess)
            num = cv.bordered_minor(wg, wh, (1, 2))[0]
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


class TestIdentityChecks:
    @pytest.mark.parametrize("n,j", [(1, 1), (2, 1), (2, 2)])
    def test_null_lagrangian_zero(self, n, j):
        res = check_null_lagrangian(n, j)
        assert res.ok
        assert len(res.residuals) == n + 1

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

    def test_cost_bound(self):
        with pytest.raises(CostLimitError):
            check_null_lagrangian(4, 1)

    def test_j_range(self):
        with pytest.raises(ValueError):
            check_euler_sigma(2, 3)

    def test_suite_pinned_at_default_seed(self):
        # the exact expansion is deterministic: names, verdicts, the largest
        # intermediate term count and the residual sizes are fixed at the default seed
        results = run_identity_suite(2) + run_identity_suite(3, j=1)
        got = [(r.name, r.n, r.j, r.seed, r.ok, r.max_terms, [p.n_terms for p in r.residuals])
               for r in results]
        s = DEFAULT_SEED
        assert got == [
            ("null_lagrangian", 2, 1, s, True, 84, [0, 0, 0]),
            ("lemma_contraction", 2, 1, s, True, 462, [0]),
            ("euler_homogeneity", 2, 1, s, True, 84, [0]),
            ("null_lagrangian", 2, 2, s, True, 84, [0, 0, 0]),
            ("lemma_contraction", 2, 2, s, True, 924, [0]),
            ("euler_homogeneity", 2, 2, s, True, 84, [0]),
            ("null_lagrangian", 3, 1, s, True, 165, [0, 0, 0, 0]),
            ("lemma_contraction", 3, 1, s, True, 1287, [0]),
            ("euler_homogeneity", 3, 1, s, True, 165, [0]),
        ]

    def test_suite_runner(self):
        results = run_identity_suite(1)
        assert len(results) == 3
        assert all(r.ok for r in results)


def test_eval_exactness():
    f = norm_sq(2) - WPoly.constant(2, 4)
    assert f.eval([2.0, 0.0]) == 0.0
    assert f.eval([1.0 + 1.0j, 1.0 - 1.0j]) == pytest.approx(0.0, abs=1e-15)
