"""Real polynomials compiled once into closed-form derivative evaluators.

A RealPolynomial is a sum of terms c * d^e in local coordinates d = x - center,
with e a vector of nonnegative integer exponents; the coordinates are
interleaved, z_k = x_k + i y_k. At construction it expands the terms of f, of
each first derivative, and of the Wirtinger Hessians
H_lk = d^2 f / dz_l dzbar_k = (f_{x_l x_k} + f_{y_l y_k} + i (f_{x_l y_k} - f_{y_l x_k})) / 4 and
S_lk = d^2 f / dz_l dz_k = (f_{x_l x_k} - f_{y_l y_k} - i (f_{x_l y_k} + f_{y_l x_k})) / 4,
real and imaginary parts side by side (the real Hessian is never formed), and
keeps the union of their monomials with one coefficient column per number.
The monomials of f come first, those that only the gradient adds next, those
that only the Hessians add last, so a quadratic reads a leading block.

Evaluation builds the powers d_i^1 .. d_i^deg_i of each coordinate, forms each
monomial as a product of them, and takes one matrix product of the monomial
table with the coefficient columns (Taylor-mode differentiation of a fixed
polynomial; Griewank & Walther, Evaluating Derivatives, 2nd ed., 2008). Each
block of it is copied transposed into coordinate-major rows, one row over the
points per number: real rows for the value and the real gradient, complex rows
for the entries of H and S. The table is built in blocks of points, each at
most TABLE_BUDGET entries. A quadratic's H and S are constant: it reads only
the leading rows and the value and gradient columns, and H and S are broadcast
views of one matrix each, which constant_hessians gives alone, with no table
built. restrict gives f along rays, a polynomial in rho.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TABLE_BUDGET = 1 << 15  # table entries per block of points


def _real_times_power_of_i(c: complex, r: int) -> float:
    """Re(c * i^r), exactly: i^r only permutes and negates the parts of c."""
    return (c.real, -c.imag, -c.real, c.imag)[r % 4]


class RealPolynomial:
    """f(x) = sum of c_e * (x - center)^e over real exponent vectors e."""

    def __init__(self, terms: dict, center):
        self.center = np.asarray(center, dtype=float)
        self.m = self.center.shape[0]
        clean = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.m or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {self.m} coordinates")
            c = float(c)
            if c != 0.0:
                clean[exps] = clean.get(exps, 0.0) + c
        self.terms = dict(sorted(clean.items()))
        self._compile()

    @classmethod
    def from_zzbar(cls, n: int, coeffs: dict) -> "RealPolynomial":
        """Re p for p = sum of c * z^a * zbar^b, keys (a, b) of length 2(n+1).

        The real coordinates are interleaved, z_k = x_k + i y_k. Each factor
        is expanded by the binomial theorem, z^a = sum_p C(a,p) x^(a-p) (i y)^p
        and zbar^b = sum_q C(b,q) x^(b-q) (-i y)^q, so every real coefficient
        is a binomial product times a part of c, up to sign.
        """
        width = n + 1
        real_terms: dict = {}
        for key, c in coeffs.items():
            key = tuple(int(e) for e in key)
            if len(key) != 2 * width or any(e < 0 for e in key):
                raise ValueError(f"bad exponent vector {key} for n={n}")
            c = complex(c)
            # per complex coordinate: (x exponent, y exponent, power of i, binomial weight)
            factors = []
            for k in range(width):
                a, b = key[k], key[width + k]
                factors.append([
                    (a + b - p - q, p + q, p + 3 * q, math.comb(a, p) * math.comb(b, q))
                    for p in range(a + 1) for q in range(b + 1)
                ])
            for choice in itertools.product(*factors):
                exps = tuple(x for ex, ey, _, _ in choice for x in (ex, ey))
                r = sum(ch[2] for ch in choice)
                weight = math.prod(ch[3] for ch in choice)
                real_terms[exps] = real_terms.get(exps, 0.0) + weight * _real_times_power_of_i(c, r)
        return cls(real_terms, np.zeros(2 * width))

    def _compile(self) -> None:
        m = self.m
        nv = m // 2
        self._mixed, pure = 1 + m, 1 + m + 2 * nv * nv  # first columns of H and S
        ncols = pure + 2 * nv * nv
        # (column, monomial, coefficient) for f, each d_i f and the upper triangles of H and S,
        # in that order; the i-th derivative of c d^e is c e_i d^(e - 1_i)
        first = [[(_lower(e, i), c * e[i]) for e, c in self.terms.items() if e[i]] for i in range(m)]

        def second(a, b, w):  # w times the terms of d_a d_b f
            return [(_lower(e, b), w * c * e[b]) for e, c in first[a] if e[b]]

        derived = [(0, e, c) for e, c in self.terms.items()]
        derived += [(1 + i, e, c) for i in range(m) for e, c in first[i]]
        for l, k in zip(*np.triu_indices(nv)):
            x, y, h, s = 2 * l, 2 * k, self._mixed + 2 * (l * nv + k), pure + 2 * (l * nv + k)
            for col, terms in ((h, second(x, y, 0.25) + second(x + 1, y + 1, 0.25)),
                               (h + 1, second(x, y + 1, 0.25) + second(x + 1, y, -0.25) if l < k else []),
                               (s, second(x, y, 0.25) + second(x + 1, y + 1, -0.25)),
                               (s + 1, second(x, y + 1, -0.25) + second(x + 1, y, -0.25))):
                derived += [(col, e, c) for e, c in terms]
        rows: dict = {}  # monomial -> row, in order of first use
        for _, e, _ in derived:
            rows.setdefault(e, len(rows))
        coefs = np.zeros((len(rows), ncols))
        for col, e, c in derived:
            coefs[rows[e], col] += c
        for l, k in zip(*np.triu_indices(nv, 1)):  # lower triangles: the upper columns, conjugated for H
            for base, sign in ((self._mixed, -1.0), (pure, 1.0)):
                up, lo = base + 2 * (l * nv + k), base + 2 * (k * nv + l)
                coefs[:, lo], coefs[:, lo + 1] = coefs[:, up], sign * coefs[:, up + 1]

        # each monomial is a product of power rows: the ones row, then d_i^1 .. d_i^deg_i
        # for each coordinate in turn; shorter products are padded with the ones row
        self._degs = [max((e[i] for e in self.terms), default=0) for i in range(m)]
        offsets = np.cumsum([1] + self._degs)
        self._npow = int(offsets[-1])
        factors = [[int(offsets[i]) + e[i] - 1 for i in range(m) if e[i]] for e in rows]
        width = max([1] + [len(f) for f in factors])
        self._factors = np.array([f + [0] * (width - len(f)) for f in factors], dtype=np.intp).reshape(len(rows), width).T
        self._plan = coefs
        degree = [sum(e) for e in self.terms]  # the terms of f lead the table; restrict sums them by degree
        self._by_degree = np.zeros((len(degree), 1 + max(degree, default=0)))
        self._by_degree[np.arange(len(degree)), degree] = list(self.terms.values())
        self._constant = None  # (H, S) of a quadratic, the same at every point
        if max(degree, default=0) <= 2:
            self._constant = np.stack(self.evaluate(self.center[None, :])[2:])[:, 0]
            self._plan = coefs[:len({e for col, e, _ in derived if col <= m}), :1 + m].copy()

    def evaluate(self, pts: np.ndarray):
        """(value, gradient, H, S) at points (B, m).

        The value has shape (B,) and the real gradient (B, m), coordinate-major: each
        coordinate is one contiguous row. H and S are complex (B, N, N), N = m / 2: read-only
        broadcast views for a quadratic, else views of one entry-major (2, N, N, B) array. Their
        lower triangles come from copies of the upper columns (conjugated for H): H is exactly
        Hermitian and S symmetric when the product sums every column alike.
        """
        dt = np.subtract(np.asarray(pts, dtype=float).T, self.center[:, None], order="C")
        b, nv = dt.shape[1], self.m // 2
        rows, hs = self._times(dt, self._plan, self._mixed)
        if self._constant is not None:
            return rows[0], rows[1:].T, *self.constant_hessians(b)
        return rows[0], rows[1:].T, *hs.reshape(2, nv, nv, b).transpose(0, 3, 1, 2)

    def constant_hessians(self, b: int):
        """A quadratic's (H, S), read-only broadcast views (B, N, N) over b points, with no table; else None."""
        if self._constant is None:
            return None
        return np.broadcast_to(self._constant[:, None], (2, b, *self._constant.shape[1:]))

    def about(self, center) -> "RealPolynomial":
        """The same f expanded about another center: with h the shift of the center,
        c (u + h)^e = sum_s c prod_i C(e_i, s_i) h_i^(e_i - s_i) u^s."""
        h = (np.asarray(center, dtype=float) - self.center).tolist()
        terms: dict = {}
        for e, c in self.terms.items():
            for s in itertools.product(*(range(k + 1) for k in e)):
                terms[s] = terms.get(s, 0.0) + c * math.prod(math.comb(k, j) * x ** (k - j) for k, j, x in zip(e, s, h))
        return RealPolynomial(terms, center)

    def restrict(self, dirs: np.ndarray) -> np.ndarray:
        """a (d + 1, B) with f(center + rho * dirs[b]) = sum_k a[k, b] rho^k, from the terms by degree."""
        a = self._by_degree
        return self._times(np.ascontiguousarray(np.asarray(dirs, dtype=float).T), a, a.shape[1])[0]

    def _times(self, dt: np.ndarray, coefs: np.ndarray, real: int):
        """The first len(coefs) monomials at local coordinates dt (m, B), times coefs: the first `real` columns
        as rows (real, B), the (re, im) column pairs after them as complex rows. Each block is the product
        table^T @ coefs, copied transposed: coefs^T @ table is another BLAS call and moves bits. On a wide
        table (12 terms at n = 2) the BLAS thread count moves them too: the bits hold at a fixed count."""
        k, b = coefs.shape[0], dt.shape[1]
        out, pairs = np.empty((real, b)), np.empty(((coefs.shape[1] - real) // 2, b), dtype=complex)
        step = max(1, TABLE_BUDGET // max(k, self._npow))
        for s in range(0, b, step):
            x = dt[:, s:s + step]
            powers = np.empty((self._npow, x.shape[1]))
            powers[0] = 1.0
            row = 1
            for i, deg in enumerate(self._degs):
                if deg:
                    powers[row] = x[i]
                    for p in range(1, deg):
                        np.multiply(powers[row + p - 1], x[i], out=powers[row + p])
                    row += deg
            table = powers[self._factors[0, :k]]
            for f in self._factors[1:]:
                table *= powers[f[:k]]
            block = np.matmul(table.T, coefs)
            out[:, s:s + step], pairs[:, s:s + step] = block[:, :real].T, block[:, real:].view(complex).T
        return out, pairs


def horner(a: np.ndarray, rho: np.ndarray):
    """(sum_k a[k] rho^k, its rho-derivative) by Horner's rule on B-vectors, a (d + 1, B)."""
    val, der = a[-1].copy(), np.zeros_like(rho)
    for ak in a[-2::-1]:
        np.add(np.multiply(der, rho, out=der), val, out=der)
        np.add(np.multiply(val, rho, out=val), ak, out=val)
    return val, der


def _lower(e: tuple, i: int) -> tuple:
    return e[:i] + (e[i] - 1,) + e[i + 1:]

