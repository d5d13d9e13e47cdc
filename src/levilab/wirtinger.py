"""Exact polynomial calculus in z_1..z_N, zbar_1..zbar_N over rational-complex coefficients.

z_i and zbar_i are independent variables; no rounding ever happens here.
Coefficients are Gaussian-integer numerators (re, im) over one positive common
denominator, reduced by the gcd of the denominator and every numerator: the
form is canonical, so equality and hashing are exact. Exponent vectors are
packed into one int, 16 bits per slot in tuple order (z block in the low
slots), so a monomial product adds keys. Each polynomial keeps an upper bound
on its total degree; an operation that could push a slot past 2^16 - 1 raises
ValueError instead of carrying into the next slot.

The identity checks at the bottom test a divergence-type identity, a
gradient-contraction lemma, and Euler homogeneity for the symmetric functions
of the complex Hessian of a seeded generic real polynomial f of degree 3. No
residual R is expanded: f's derivatives are evaluated exactly at P = 2 seeded
points, whose 2N coordinates are drawn one by one from the Gaussian integers S
with parts in [-2^31, 2^31), and the determinants run on those constants. R
has degree D <= j + 4 in the 2N independent variables, so by the
Schwartz-Zippel lemma a nonzero R vanishes at one point with probability at
most D/|S| = D/2^64, at every point with at most its P-th power. The
divergence of a cofactor is the chain rule: its t-coefficient over the
entries H + t dH/dz_l at the point. The seed fixes f and the points.

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
        return cls(nvars, {tuple(int(p == pos) for p in range(2 * nvars)): 1})

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
        return self + -(other if isinstance(other, WPoly) else WPoly.constant(self.nvars, other))

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
        result, base = WPoly.constant(self.nvars, 1), self
        while k:
            if k & 1:
                result = result * base
            base, k = base * base if k > 1 else base, k >> 1
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

    def at(self, point: Sequence) -> "WPoly":
        """Exact value as a constant polynomial at 2N Gaussian rationals, the values of
        z_1..z_N and then of zbar_1..zbar_N, each independent of the others."""
        if len(point) != 2 * self.nvars:
            raise ValueError(f"expected {2 * self.nvars} values, got {len(point)}")
        if not self._deg:  # a constant is its own value
            return self
        vals = [_as_coeff(v) for v in point]
        q = math.lcm(*(x.denominator for v in vals for x in v))
        vals = [(a.numerator * (q // a.denominator), b.numerator * (q // b.denominator)) for a, b in vals]
        re = im = 0
        for key, (c, d) in self._num.items():
            e = pos = 0
            while key:
                for _ in range(key & _SLOT_MAX):
                    (a, b), e = vals[pos], e + 1
                    c, d = c * a - d * b, c * b + d * a
                key, pos = key >> _SLOT_BITS, pos + 1
            re, im = re + c * q ** (self._deg - e), im + d * q ** (self._deg - e)
        return _make(self.nvars, {0: (re, im)} if re or im else {}, self._den * q ** self._deg, 0)

    def eval(self, zvals: Sequence[complex]) -> complex:
        """Float view of `at` with zbar_i the conjugate of z_i: the exact value, rounded once."""
        z = [complex(v) for v in zvals]
        value = self.at(z + [v.conjugate() for v in z])
        re, im = value._num.get(0, (0, 0))
        return complex(re / value._den, im / value._den)

    def __repr__(self):
        return f"WPoly(nvars={self.nvars}, n_terms={self.n_terms})"


def _var_pos(which: str, i: int, nvars: int) -> int:
    if which not in ("z", "zbar"):
        raise ValueError(f"which must be 'z' or 'zbar', got {which!r}")
    if not 1 <= i <= nvars:
        raise ValueError(f"variable index {i} out of range 1..{nvars}")
    return (i - 1) if which == "z" else (nvars + i - 1)


wd = WPoly.wd  # module-level alias


class WMatrix:
    """Dense square matrix of WPoly entries; determinant by cofactor expansion."""

    def __init__(self, entries: Sequence[Sequence[WPoly]]):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        if any(len(row) != self.rows for row in self.entries):
            raise ValueError("not a square matrix")

    def det(self) -> WPoly:
        return _det(self.entries)


def _det(rows: list[list[WPoly]]) -> WPoly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = WPoly.zero(rows[0][0].nvars)
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


def generic_poly(nvars: int, degree: int, rng: random.Random) -> WPoly:
    """Dense polynomial of the given total degree with random rational-complex coefficients,
    drawn for the exponent tuples in lexicographic order."""
    slots = itertools.combinations_with_replacement(range(2 * nvars + 1), degree)  # the last is slack
    exps = sorted(tuple(c.count(p) for p in range(2 * nvars)) for c in slots)
    return WPoly(nvars, {e: (random_rational(rng), random_rational(rng)) for e in exps})


def generic_real_poly(nvars: int, degree: int, seed: int) -> WPoly:
    """Real-valued generic polynomial: p + conj(p) for a seeded random p."""
    p = generic_poly(nvars, degree, random.Random(seed))
    return p + p.conj()


def complex_hessian(f: WPoly) -> WMatrix:
    """Matrix of mixed second partials: entry (l, k) is the z_l, zbar_k derivative."""
    return WMatrix(_derivatives(f)[2])


def sym_sigma(h: WMatrix, j: int) -> WPoly:
    """Sum of all j x j principal minors of a symbolic matrix."""
    n = h.rows
    if not 1 <= j <= n:
        raise ValueError(f"j={j} out of range 1..{n}")
    minors = (_det([[h.entries[r][c] for c in idx] for r in idx]) for idx in itertools.combinations(range(n), j))
    return sum(minors, WPoly.zero(h.entries[0][0].nvars))


def sym_sigma_grad(h: WMatrix, j: int, rows: Sequence[int] | None = None) -> list[list[WPoly]]:
    """Entrywise gradient of sym_sigma: generalized cofactors, entries independent.
    Only the given rows (0-based) are formed when rows is given; the others stay zero."""
    n = h.rows
    if not 1 <= j <= n:
        raise ValueError(f"j={j} out of range 1..{n}")
    nv = h.entries[0][0].nvars
    grad = [[WPoly.zero(nv) for _ in range(n)] for _ in range(n)]
    one = WPoly.constant(nv, 1)
    for idx in itertools.combinations(range(n), j):
        for pl, l in enumerate(idx):
            if rows is not None and l not in rows:
                continue
            others = [r for r in idx if r != l]
            for pk, k in enumerate(idx):
                cols = [c for c in idx if c != k]
                minor = _det([[h.entries[r][c] for c in cols] for r in others]) if others else one
                grad[l][k] = grad[l][k] - minor if (pl + pk) % 2 else grad[l][k] + minor
    return grad


def _derivatives(f: WPoly) -> tuple[list[WPoly], list[WPoly], list[list[WPoly]]]:
    """f_{z_i}, f_{zbar_i} and the complex Hessian entries f_{z_l zbar_k}, 0-based."""
    fz = [f.wd("z", i) for i in range(1, f.nvars + 1)]
    fzb = [f.wd("zbar", i) for i in range(1, f.nvars + 1)]
    return fz, fzb, [[d.wd("zbar", k) for k in range(1, f.nvars + 1)] for d in fz]


def bordered_det(fz: Sequence[WPoly], fzb: Sequence[WPoly], h: Sequence[Sequence[WPoly]],
                 indices: Sequence[int]) -> WPoly:
    """Bordered determinant: zero corner, zbar-gradient border row, z-gradient
    border column, and the complex Hessian block restricted to the index set.

    fz[i - 1], fzb[i - 1] and h[l - 1][k - 1] are f_{z_i}, f_{zbar_i} and f_{z_l zbar_k}, as
    polynomials or as their exact values at a point. Indices are 1-based, strictly increasing.
    """
    idx = list(indices)
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"indices must be strictly increasing, got {indices}")
    if not all(1 <= i <= len(fz) for i in idx):
        raise ValueError(f"indices {indices} out of range 1..{len(fz)}")
    rows = [[WPoly.zero(fz[0].nvars)] + [fzb[k - 1] for k in idx]]
    rows += [[fz[i - 1]] + [h[i - 1][k - 1] for k in idx] for i in idx]
    return _det(rows)


def sym_bordered_det(f: WPoly, indices: Sequence[int]) -> WPoly:
    """The bordered determinant as a polynomial, from f's own derivative polynomials."""
    return bordered_det(*_derivatives(f), indices)


# -- identity checks ---------------------------------------------------------

MAX_NVARS = 6
_GENERIC_DEGREE = 3
_POINTS = 2
_PART_BOUND = 1 << 31  # each coordinate's real and imaginary parts lie in [-2^31, 2^31)
DEFAULT_SEED = 20240901


@dataclass(frozen=True)
class IdentityCheck:
    """Result of one exact identity check: one constant residual per component and point,
    points outer; max_terms is the largest polynomial formed, f itself (its derivatives and
    the polynomials formed at a point are smaller)."""

    name: str
    n: int
    j: int
    seed: int
    residuals: tuple[WPoly, ...]
    max_terms: int

    @property
    def ok(self) -> bool:
        return all(p.is_zero() for p in self.residuals)


@dataclass(frozen=True)
class PointJets:
    """f = generic_real_poly(n + 1, 3, seed) at its seeded points: per point, the exact
    constants (fz, fzb, h, dh) with dh[m][l][k] the z_{m+1} derivative of h[l][k]."""

    n: int
    seed: int
    points: tuple[tuple[tuple[int, int], ...], ...]
    values: tuple[tuple, ...]
    max_terms: int


def _guard_cost(n: int, j: int | None = None) -> None:
    if n + 1 > MAX_NVARS:
        raise CostLimitError(f"n={n} exceeds the supported bound n+1 <= {MAX_NVARS}")
    if j is not None and not 1 <= j <= n:
        raise ValueError(f"j={j} out of range 1..{n}")


def _at(tree, point):
    return tree.at(point) if isinstance(tree, WPoly) else [_at(x, point) for x in tree]


def point_jets(n: int, seed: int = DEFAULT_SEED) -> PointJets:
    """Build f and its derivative polynomials once and evaluate them at P seeded points,
    drawn from a stream of their own so that f keeps the coefficients of the seed."""
    _guard_cost(n)
    f = generic_real_poly(n + 1, _GENERIC_DEGREE, seed)
    fz, fzb, h = _derivatives(f)
    dh = [[[e.wd("z", m) for e in row] for row in h] for m in range(1, n + 2)]
    rng = random.Random(f"wirtinger-points:{seed}")
    points = tuple(tuple((rng.randrange(-_PART_BOUND, _PART_BOUND), rng.randrange(-_PART_BOUND, _PART_BOUND))
                         for _ in range(2 * (n + 1))) for _ in range(_POINTS))
    return PointJets(n, seed, points, tuple(_at((fz, fzb, h, dh), p) for p in points), f.n_terms)


def _check(name: str, n: int, j: int, seed: int, jets: PointJets | None, residuals) -> IdentityCheck:
    """Run residuals(fz, fzb, h, dh) -> list of constants at every point of the jets."""
    _guard_cost(n, j)
    if jets is not None and (jets.n, jets.seed) != (n, seed):
        raise ValueError(f"jets of n={jets.n}, seed={jets.seed} given for n={n}, seed={seed}")
    jets = jets or point_jets(n, seed)
    return IdentityCheck(name, n, j, seed, tuple(r for v in jets.values for r in residuals(*v)), jets.max_terms)


def check_null_lagrangian(n: int, j: int, seed: int = DEFAULT_SEED, jets: PointJets | None = None) -> IdentityCheck:
    """Divergence-free property of the sigma_{j+1} cofactor field of the complex Hessian.

    For each k, the z-divergence over l of the (l, k) cofactor entries must vanish; the z_l
    derivative of a cofactor at a point is its t-coefficient over the entries h + t dh[l], with
    the auxiliary variable t = z_1. One residual per k and point."""
    nv = n + 1
    t, origin = WPoly.variable(nv, "z", 1), [0] * (2 * nv)

    def divergence(fz, fzb, h, dh):
        div = [WPoly.zero(nv)] * nv
        for l in range(nv):
            line = WMatrix([[a + t * b for a, b in zip(hr, dr)] for hr, dr in zip(h, dh[l])])
            grad = sym_sigma_grad(line, j + 1, rows=(l,))
            div = [div[k] + grad[l][k].wd("z", 1).at(origin) for k in range(nv)]
        return div

    return _check("null_lagrangian", n, j, seed, jets, divergence)


def check_lemma_identity(n: int, j: int, seed: int = DEFAULT_SEED, jets: PointJets | None = None) -> IdentityCheck:
    """Gradient contraction against the Wirtinger gradient equals minus the
    sum of bordered determinants; the residual of the two sides must vanish.
    The bordered side stays one determinant per index set: grouped by border
    entry it would repeat the contraction's cofactor expansion, a circular check."""
    nv = n + 1

    def residual(fz, fzb, h, dh):
        grad = sym_sigma_grad(WMatrix(h), j + 1)
        total = sum((fz[l] * grad[l][k] * fzb[k] for l in range(nv) for k in range(nv)), WPoly.zero(nv))
        idxs = itertools.combinations(range(1, nv + 1), j + 1)
        return [sum((bordered_det(fz, fzb, h, idx) for idx in idxs), total)]

    return _check("lemma_contraction", n, j, seed, jets, residual)


def check_euler_sigma(n: int, j: int, seed: int = DEFAULT_SEED, jets: PointJets | None = None) -> IdentityCheck:
    """Euler homogeneity of sigma_{j+1}: (j+1) sigma_{j+1} equals the full
    gradient contraction against the Hessian entries themselves."""
    nv = n + 1

    def residual(fz, fzb, h, dh):
        grad = sym_sigma_grad(WMatrix(h), j + 1)
        contraction = sum((grad[l][k] * h[l][k] for l in range(nv) for k in range(nv)), WPoly.zero(nv))
        return [sym_sigma(WMatrix(h), j + 1) * (j + 1) - contraction]

    return _check("euler_homogeneity", n, j, seed, jets, residual)


def run_identity_suite(n: int, seed: int = DEFAULT_SEED, j: int | None = None) -> list[IdentityCheck]:
    """All three identity checks for every admissible j (or one given j), on one build of f."""
    if n < 1:
        raise ValueError(f"n={n} out of range: the suite needs n >= 1")
    jets = point_jets(n, seed)
    return [check(n, jj, seed, jets) for jj in ([j] if j is not None else range(1, n + 1))
            for check in (check_null_lagrangian, check_lemma_identity, check_euler_sigma)]
