"""Exact polynomial calculus in z_1..z_N, zbar_1..zbar_N over rational-complex coefficients.

z_i and zbar_i are independent variables; no rounding ever happens here.
Coefficients are Gaussian-integer numerators (re, im) over one positive common
denominator, reduced by the gcd of the denominator and every numerator: the
form is canonical, so equality and hashing are exact. Exponent vectors are
packed into one int, 16 bits per slot in tuple order (z block in the low
slots), so a monomial product adds keys. Each polynomial keeps an upper bound
on its total degree; an operation that could push a slot past 2^16 - 1 raises
ValueError instead of carrying into the next slot. Determinants are expanded by
cofactors, which is fine at the sizes this module is used for (<= 5).

The identity checks at the bottom instantiate a divergence-type identity, a
gradient-contraction lemma, and Euler homogeneity for the symmetric functions
of the complex Hessian on a generic seeded degree-3 polynomial. Vanishing of a
polynomial identity at one generic rational coefficient point of this family is
strong evidence, not a proof over indeterminate coefficients; the seed is part
of every result so runs are reproducible.

Public index arguments (variable index i, index sets I) are 1-based to match
the z_1..z_N naming.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import CostLimitError

Coeff = tuple[Fraction, Fraction]

_SLOT_BITS = 16
_SLOT_MAX = (1 << _SLOT_BITS) - 1


def _as_coeff(c) -> Coeff:
    if isinstance(c, tuple) and len(c) == 2:
        return (Fraction(c[0]), Fraction(c[1]))
    if isinstance(c, complex):
        return (Fraction(c.real), Fraction(c.imag))
    return (Fraction(c), Fraction(0))


def _check_degree(deg: int) -> int:
    if deg > _SLOT_MAX:
        raise ValueError(f"total degree {deg} exceeds the packed exponent bound {_SLOT_MAX}")
    return deg


def _make(nvars: int, num: dict[int, tuple[int, int]], den: int, deg: int) -> "WPoly":
    p = WPoly.__new__(WPoly)
    p._set(nvars, num, den, deg)
    return p


class WPoly:
    """Polynomial in z_1..z_N and zbar_1..zbar_N with exact rational-complex coefficients."""

    __slots__ = ("nvars", "_num", "_den", "_deg")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Coeff] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        width = 2 * nvars
        clean: dict[int, Coeff] = {}
        deg = 0
        for exps, c in (terms or {}).items():
            if len(exps) != width or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for nvars={nvars}")
            c = _as_coeff(c)
            if c[0] or c[1]:
                deg = max(deg, _check_degree(sum(exps)))
                clean[sum(e << (_SLOT_BITS * p) for p, e in enumerate(exps))] = c
        den = math.lcm(*(x.denominator for c in clean.values() for x in c))
        self._set(nvars, {k: (int(re * den), int(im * den)) for k, (re, im) in clean.items()}, den, deg)

    def _set(self, nvars: int, num: dict[int, tuple[int, int]], den: int, deg: int) -> None:
        """Store numerators over den, reduced to lowest terms."""
        g = math.gcd(den, *itertools.chain.from_iterable(num.values()))
        self.nvars, self._deg, self._den = nvars, deg, den // g
        self._num = num if g == 1 else {k: (a // g, b // g) for k, (a, b) in num.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "WPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "WPoly":
        return cls(nvars, {tuple([0] * (2 * nvars)): _as_coeff(c)})

    @classmethod
    def variable(cls, nvars: int, which: str, i: int) -> "WPoly":
        pos = _var_pos(which, i, nvars)
        exps = [0] * (2 * nvars)
        exps[pos] = 1
        return cls(nvars, {tuple(exps): (Fraction(1), Fraction(0))})

    # -- ring operations ---------------------------------------------------

    def _check_same(self, other: "WPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("operands have different numbers of variables")

    def __add__(self, other):
        if not isinstance(other, WPoly):
            other = WPoly.constant(self.nvars, other)
        self._check_same(other)
        d1, d2 = self._den, other._den
        g = math.gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        out = {k: (a * s1, b * s1) for k, (a, b) in self._num.items()} if s1 != 1 else dict(self._num)
        for k, (a, b) in other._num.items():
            c, d = out.get(k, (0, 0))
            a, b = c + a * s2, d + b * s2
            if a or b:
                out[k] = (a, b)
            else:
                del out[k]
        return _make(self.nvars, out, d1 * s1, max(self._deg, other._deg))

    __radd__ = __add__

    def __neg__(self):
        num = {k: (-a, -b) for k, (a, b) in self._num.items()}
        return _make(self.nvars, num, self._den, self._deg)

    def __sub__(self, other):
        if not isinstance(other, WPoly):
            other = WPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, WPoly):
            other = WPoly.constant(self.nvars, other)
        self._check_same(other)
        deg = _check_degree(self._deg + other._deg)
        acc: dict[int, tuple[int, int]] = {}  # key -> (re, im): one lookup per term pair
        items = other._num.items()
        for k1, (a, b) in self._num.items():
            for k2, (c, d) in items:
                k = k1 + k2
                r, i = acc.get(k, (0, 0))
                acc[k] = (r + a * c - b * d, i + a * d + b * c)
        out = {k: t for k, t in acc.items() if t[0] or t[1]}
        return _make(self.nvars, out, self._den * other._den, deg)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers not supported")
        result = WPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, WPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self.nvars, self._den, frozenset(self._num.items())))

    # -- calculus ----------------------------------------------------------

    def conj(self) -> "WPoly":
        """Swap the z and zbar exponent blocks and conjugate every coefficient."""
        shift = _SLOT_BITS * self.nvars
        low = (1 << shift) - 1
        num = {(k >> shift) | ((k & low) << shift): (a, -b) for k, (a, b) in self._num.items()}
        return _make(self.nvars, num, self._den, self._deg)

    def wd(self, which: str, i: int) -> "WPoly":
        """Exact partial derivative with respect to z_i or zbar_i (1-based)."""
        shift = _SLOT_BITS * _var_pos(which, i, self.nvars)
        unit = 1 << shift
        num = {}
        for k, (a, b) in self._num.items():
            e = (k >> shift) & _SLOT_MAX
            if e:
                num[k - unit] = (a * e, b * e)
        return _make(self.nvars, num, self._den, max(self._deg - 1, 0))

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Coeff]:
        """Exponent tuple -> (re, im) Fractions; a fresh dict on every access."""
        return {self._exps(k): (Fraction(a, self._den), Fraction(b, self._den))
                for k, (a, b) in self._num.items()}

    def _exps(self, key: int) -> tuple[int, ...]:
        return tuple((key >> (_SLOT_BITS * p)) & _SLOT_MAX for p in range(2 * self.nvars))

    def is_zero(self) -> bool:
        return not self._num

    @property
    def n_terms(self) -> int:
        return len(self._num)

    def eval(self, zvals: Sequence[complex]) -> complex:
        """Evaluate at floating z values (zbar values are their conjugates)."""
        if len(zvals) != self.nvars:
            raise ValueError(f"expected {self.nvars} complex values, got {len(zvals)}")
        z = [complex(v) for v in zvals]
        zb = [v.conjugate() for v in z]
        total = 0j
        n = self.nvars
        for exps, mono in self.coefficients_as_complex().items():
            for i in range(n):
                if exps[i]:
                    mono *= z[i] ** exps[i]
                if exps[n + i]:
                    mono *= zb[i] ** exps[n + i]
            total += mono
        return total

    def coefficients_as_complex(self) -> dict[tuple[int, ...], complex]:
        return {self._exps(k): complex(a / self._den, b / self._den) for k, (a, b) in self._num.items()}

    def __repr__(self):
        return f"WPoly(nvars={self.nvars}, n_terms={self.n_terms})"


def _var_pos(which: str, i: int, nvars: int) -> int:
    if which not in ("z", "zbar"):
        raise ValueError(f"which must be 'z' or 'zbar', got {which!r}")
    if not 1 <= i <= nvars:
        raise ValueError(f"variable index {i} out of range 1..{nvars}")
    return (i - 1) if which == "z" else (nvars + i - 1)


def wd(p: WPoly, which: str, i: int) -> WPoly:
    """Module-level alias for WPoly.wd."""
    return p.wd(which, i)


class WMatrix:
    """Dense matrix of WPoly entries; determinant by cofactor expansion."""

    def __init__(self, entries: Sequence[Sequence[WPoly]]):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged matrix")

    def det(self) -> WPoly:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _det(self.entries)


def _det(rows: list[list[WPoly]]) -> WPoly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    nv = rows[0][0].nvars
    total = WPoly.zero(nv)
    rest = rows[1:]
    for c in range(n):
        entry = rows[0][c]
        if entry.is_zero():
            continue
        minor = [[row[cc] for cc in range(n) if cc != c] for row in rest]
        sub = entry * _det(minor)
        total = total + sub if c % 2 == 0 else total - sub
    return total


# -- generic polynomials and Hessian machinery ------------------------------


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _exponents(width: int, degree: int):
    """Exponent tuples of the given width and total degree <= degree, in lexicographic order."""
    if width == 0:
        yield ()
        return
    for e in range(degree + 1):
        for rest in _exponents(width - 1, degree - e):
            yield (e, *rest)


def generic_poly(nvars: int, degree: int, rng: random.Random) -> WPoly:
    """Dense polynomial of the given total degree with random rational-complex coefficients."""
    terms = {exps: (random_rational(rng), random_rational(rng)) for exps in _exponents(2 * nvars, degree)}
    return WPoly(nvars, terms)


def generic_real_poly(nvars: int, degree: int, seed: int) -> WPoly:
    """Real-valued generic polynomial: p + conj(p) for a seeded random p."""
    rng = random.Random(seed)
    p = generic_poly(nvars, degree, rng)
    return p + p.conj()


def complex_hessian(f: WPoly) -> WMatrix:
    """Matrix of mixed second partials: entry (l, k) is the z_l, zbar_k derivative."""
    n = f.nvars
    return WMatrix([[f.wd("z", l + 1).wd("zbar", k + 1) for k in range(n)] for l in range(n)])


def sym_sigma(h: WMatrix, j: int) -> WPoly:
    """Sum of all j x j principal minors of a symbolic matrix."""
    n = h.rows
    if not 1 <= j <= n:
        raise ValueError(f"j={j} out of range 1..{n}")
    nv = h.entries[0][0].nvars
    total = WPoly.zero(nv)
    for idx in itertools.combinations(range(n), j):
        total = total + _det([[h.entries[r][c] for c in idx] for r in idx])
    return total


def sym_sigma_grad(h: WMatrix, j: int) -> list[list[WPoly]]:
    """Entrywise gradient of sym_sigma: generalized cofactors, entries independent."""
    n = h.rows
    if not 1 <= j <= n:
        raise ValueError(f"j={j} out of range 1..{n}")
    nv = h.entries[0][0].nvars
    grad = [[WPoly.zero(nv) for _ in range(n)] for _ in range(n)]
    one = WPoly.constant(nv, 1)
    for idx in itertools.combinations(range(n), j):
        for pl, l in enumerate(idx):
            rows = [r for r in idx if r != l]
            for pk, k in enumerate(idx):
                cols = [c for c in idx if c != k]
                if rows:
                    minor = _det([[h.entries[r][c] for c in cols] for r in rows])
                else:
                    minor = one
                if (pl + pk) % 2:
                    minor = -minor
                grad[l][k] = grad[l][k] + minor
    return grad


def sym_bordered_det(f: WPoly, indices: Sequence[int]) -> WPoly:
    """Bordered determinant: zero corner, zbar-gradient border row, z-gradient
    border column, and the complex Hessian block restricted to the index set.

    Indices are 1-based, strictly increasing.
    """
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate indices in {indices}")
    if sorted(idx) != idx:
        raise ValueError(f"indices must be strictly increasing, got {indices}")
    if not all(1 <= i <= f.nvars for i in idx):
        raise ValueError(f"indices {indices} out of range 1..{f.nvars}")
    nv = f.nvars
    size = len(idx) + 1
    fz = {i: f.wd("z", i) for i in idx}
    fzb = {i: f.wd("zbar", i) for i in idx}
    h = {(i, k): fz[i].wd("zbar", k) for i in idx for k in idx}
    rows: list[list[WPoly]] = [[WPoly.zero(nv)] + [fzb[k] for k in idx]]
    for i in idx:
        rows.append([fz[i]] + [h[(i, k)] for k in idx])
    assert len(rows) == size
    return _det(rows)


# -- identity checks ---------------------------------------------------------

MAX_NVARS = 4
_GENERIC_DEGREE = 3
DEFAULT_SEED = 20240901


@dataclass(frozen=True)
class IdentityCheck:
    """Result of one exact identity check on a generic seeded polynomial."""

    name: str
    n: int
    j: int
    seed: int
    residuals: tuple[WPoly, ...]
    max_terms: int

    @property
    def ok(self) -> bool:
        return all(p.is_zero() for p in self.residuals)


def _guard_cost(n: int, j: int) -> None:
    if n + 1 > MAX_NVARS:
        raise CostLimitError(f"n={n} exceeds the supported bound n+1 <= {MAX_NVARS}")
    if not 1 <= j <= n:
        raise ValueError(f"j={j} out of range 1..{n}")


def _track(counter: list[int], *polys: WPoly) -> None:
    for p in polys:
        if p.n_terms > counter[0]:
            counter[0] = p.n_terms


def check_null_lagrangian(n: int, j: int, seed: int = DEFAULT_SEED) -> IdentityCheck:
    """Divergence-free property of the sigma_{j+1} cofactor field of the complex Hessian.

    For each k, the z-divergence over l of the (l, k) cofactor entries must be
    the zero polynomial. One residual per k is returned.
    """
    _guard_cost(n, j)
    f = generic_real_poly(n + 1, _GENERIC_DEGREE, seed)
    h = complex_hessian(f)
    grad = sym_sigma_grad(h, j + 1)
    counter = [f.n_terms]
    residuals = []
    for k in range(n + 1):
        div = WPoly.zero(n + 1)
        for l in range(n + 1):
            _track(counter, grad[l][k])
            div = div + grad[l][k].wd("z", l + 1)
        _track(counter, div)
        residuals.append(div)
    return IdentityCheck("null_lagrangian", n, j, seed, tuple(residuals), counter[0])


def check_lemma_identity(n: int, j: int, seed: int = DEFAULT_SEED) -> IdentityCheck:
    """Gradient contraction against the Wirtinger gradient equals minus the
    sum of bordered determinants; the residual of the two sides must vanish.
    The contraction is factored, sum_l f_{z_l} (sum_k grad[l][k] f_{zbar_k}),
    the same polynomial with n+1 large products in place of (n+1)^2. The
    bordered side stays one determinant per index set: grouped by border entry
    it would repeat the contraction's cofactor expansion, a circular check."""
    _guard_cost(n, j)
    nv = n + 1
    f = generic_real_poly(nv, _GENERIC_DEGREE, seed)
    h = complex_hessian(f)
    grad = sym_sigma_grad(h, j + 1)
    fz = [f.wd("z", i) for i in range(1, nv + 1)]
    fzb = [f.wd("zbar", i) for i in range(1, nv + 1)]
    counter = [f.n_terms]
    total = WPoly.zero(nv)
    for l in range(nv):
        inner = sum((grad[l][k] * fzb[k] for k in range(nv)), WPoly.zero(nv))
        term = fz[l] * inner
        _track(counter, inner, term)
        total = total + term
    for idx in itertools.combinations(range(1, nv + 1), j + 1):
        b = sym_bordered_det(f, idx)
        _track(counter, b)
        total = total + b
    _track(counter, total)
    return IdentityCheck("lemma_contraction", n, j, seed, (total,), counter[0])


def check_euler_sigma(n: int, j: int, seed: int = DEFAULT_SEED) -> IdentityCheck:
    """Euler homogeneity of sigma_{j+1}: (j+1) sigma_{j+1} equals the full
    gradient contraction against the Hessian entries themselves."""
    _guard_cost(n, j)
    nv = n + 1
    f = generic_real_poly(nv, _GENERIC_DEGREE, seed)
    h = complex_hessian(f)
    sig = sym_sigma(h, j + 1)
    grad = sym_sigma_grad(h, j + 1)
    counter = [max(f.n_terms, sig.n_terms)]
    total = sig * (j + 1)
    for l in range(nv):
        for k in range(nv):
            term = grad[l][k] * h.entries[l][k]
            _track(counter, term)
            total = total - term
    _track(counter, total)
    return IdentityCheck("euler_homogeneity", n, j, seed, (total,), counter[0])


def run_identity_suite(n: int, seed: int = DEFAULT_SEED, j: int | None = None) -> list[IdentityCheck]:
    """All three identity checks for every admissible j (or one given j)."""
    if n < 1:
        raise ValueError(f"n={n} out of range: the suite needs n >= 1")
    js = [j] if j is not None else list(range(1, n + 1))
    results = []
    for jj in js:
        results.append(check_null_lagrangian(n, jj, seed))
        results.append(check_lemma_identity(n, jj, seed))
        results.append(check_euler_sigma(n, jj, seed))
    return results
