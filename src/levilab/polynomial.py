"""Real polynomials compiled once into closed-form derivative evaluators.

A RealPolynomial is a sum of terms c * d^e in local coordinates d = x - center,
with e a vector of nonnegative integer exponents. At construction it expands
the terms of f, of each first derivative and of each second derivative on or
above the diagonal, and keeps the union of their monomials with one
coefficient column per derivative. The monomials of f come first, those that
only the gradient adds next, those that only the Hessian adds last, so a
lower-order evaluation reads a leading block of monomials and columns.

Evaluation builds the powers d_i^1 .. d_i^deg_i of each coordinate, forms
each monomial as a product of them, and takes one matrix product of the
monomial table with the coefficient columns. That gives the value, the
gradient and the upper triangle of the Hessian. This is Taylor-mode differentiation of a
fixed polynomial (Griewank & Walther, Evaluating Derivatives, 2nd ed., 2008).
The table is built in blocks of points, sized so that a block holds at most
TABLE_BUDGET entries whatever the number of monomials.
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
        iu, ju = np.triu_indices(m)
        upper = list(zip(iu.tolist(), ju.tolist()))
        ncols = 1 + m + len(upper)
        # (column, monomial, coefficient) for f, each d_i f and each d_i d_j f with
        # i <= j, in that order; the i-th derivative of c d^e is c e_i d^(e - 1_i)
        first = [[(_lower(e, i), c * e[i]) for e, c in self.terms.items() if e[i]] for i in range(m)]
        derived = [(0, e, c) for e, c in self.terms.items()]
        derived += [(1 + i, e, c) for i in range(m) for e, c in first[i]]
        derived += [(col, _lower(e, j), c * e[j])
                    for col, (i, j) in enumerate(upper, start=1 + m) for e, c in first[i] if e[j]]
        rows: dict = {}  # monomial -> row, in order of first use
        for _, e, _ in derived:
            rows.setdefault(e, len(rows))
        coefs = np.zeros((len(rows), ncols))
        for col, e, c in derived:
            coefs[rows[e], col] += c
        cols = (1, 1 + m, ncols)  # columns read by order 0, 1, 2
        ends = [len({e for col, e, _ in derived if col < cols[o]}) for o in range(3)]

        # each monomial is a product of power rows: the ones row, then d_i^1 .. d_i^deg_i
        # for each coordinate in turn; shorter products are padded with the ones row
        self._degs = [max((e[i] for e in self.terms), default=0) for i in range(m)]
        offsets = np.cumsum([1] + self._degs)
        self._npow = int(offsets[-1])
        factors = [[int(offsets[i]) + e[i] - 1 for i in range(m) if e[i]] for e in rows]
        width = max([1] + [len(f) for f in factors])
        self._factors = np.array([f + [0] * (width - len(f)) for f in factors], dtype=np.intp).reshape(len(rows), width).T
        self._plans = [(k, coefs[:k, :ncol].copy()) for k, ncol in zip(ends, cols)]
        # column of the evaluation output holding Hessian entry (i, j), i.e. (min, max)
        pos = np.empty((m, m), dtype=np.intp)
        pos[iu, ju] = pos[ju, iu] = np.arange(1 + m, ncols)
        self._hess_cols = pos.ravel()

    def evaluate(self, pts: np.ndarray, order: int = 2):
        """(value, gradient, Hessian) at points (B, m); entries above order are None.

        The value has shape (B,), the gradient (B, m) and the Hessian (B, m, m),
        filled from its upper triangle so that it is exactly symmetric.
        """
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order}")
        dt = np.subtract(np.asarray(pts, dtype=float).T, self.center[:, None], order="C")
        b = dt.shape[1]
        k, coefs = self._plans[order]
        out = np.empty((b, coefs.shape[1]))
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
            np.matmul(table.T, coefs, out=out[s:s + step])
        value = out[:, 0]
        grad = out[:, 1:1 + self.m] if order >= 1 else None
        hess = out[:, self._hess_cols].reshape(b, self.m, self.m) if order == 2 else None
        return value, grad, hess


def _lower(e: tuple, i: int) -> tuple:
    return e[:i] + (e[i] - 1,) + e[i + 1:]

