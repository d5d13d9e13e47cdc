"""Forward-mode second-order differentiation on batches of points.

A Jet carries the value, gradient, and Hessian of a scalar expression with
respect to m seed variables, for a whole batch of B evaluation points at once:
val has shape (B,), grad (B, m), hess (B, m, m). Building an expression from
the seed jets with +, -, *, /, ** and the function hooks below yields exact
derivatives up to rounding; there is no truncation error anywhere.

The surface families do not go through this engine: the polynomial ones
compile to closed-form evaluators (polynomial.py), and ReinhardtSurface writes
the jets of r1^2 - F(s) in closed form. Jet is the container their derivatives
come back in, and Jet.apply is the one-variable chain rule of the exp(f) - 1
reparametrisation. The seeds and the arithmetic serve expressions built by
hand, chiefly the reference expressions of the tests. m = 0 jets evaluate
values only, and m = 1 jets seeded along a ray give directional derivatives.
Complex dtypes are allowed (polynomials in z and zbar are built from x + iy
and x - iy seeds); no operation here conjugates anything.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class Jet:
    """Value/gradient/Hessian triple over a batch of points."""

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val: np.ndarray, grad: np.ndarray, hess: np.ndarray):
        self.val = val
        self.grad = grad
        self.hess = hess

    # -- seeds ---------------------------------------------------------------

    @staticmethod
    def variables(points: np.ndarray) -> list["Jet"]:
        """One seed jet per coordinate of an array of points with shape (B, m)."""
        points = np.asarray(points, dtype=float)
        b, m = points.shape
        out = []
        for i in range(m):
            grad = np.zeros((b, m))
            grad[:, i] = 1.0
            out.append(Jet(points[:, i].copy(), grad, np.zeros((b, m, m))))
        return out

    @staticmethod
    def ray_variables(center: np.ndarray, directions: np.ndarray, rho: np.ndarray) -> list["Jet"]:
        """Coordinates restricted to rays center + rho * direction.

        The single seed variable is rho, so grad has width 1 and the first and
        second entries of the result are directional derivatives along each ray.
        """
        directions = np.asarray(directions, dtype=float)
        b, m = directions.shape
        rho = np.asarray(rho, dtype=float)
        out = []
        for i in range(m):
            val = center[i] + rho * directions[:, i]
            grad = directions[:, i].reshape(b, 1).copy()
            out.append(Jet(val, grad, np.zeros((b, 1, 1))))
        return out

    @staticmethod
    def constant(c, like: "Jet") -> "Jet":
        b = like.val.shape[0]
        m = like.grad.shape[1]
        dtype = np.result_type(like.val.dtype, np.asarray(c).dtype)
        return Jet(np.full(b, c, dtype=dtype), np.zeros((b, m), dtype=dtype), np.zeros((b, m, m), dtype=dtype))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad, self.hess + other.hess)
        return Jet(self.val + other, self.grad.copy(), self.hess.copy())

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, self.grad - other.grad, self.hess - other.hess)
        return Jet(self.val - other, self.grad.copy(), self.hess.copy())

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            av, bv = self.val, other.val
            ag, bg = self.grad, other.grad
            val = av * bv
            grad = av[:, None] * bg + bv[:, None] * ag
            hess = (
                av[:, None, None] * other.hess
                + bv[:, None, None] * self.hess
                + ag[:, :, None] * bg[:, None, :]
                + bg[:, :, None] * ag[:, None, :]
            )
            return Jet(val, grad, hess)
        return Jet(self.val * other, self.grad * other, self.hess * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            v = other.val
            inv = other.apply(1.0 / v, -1.0 / v**2, 2.0 / v**3)
            return self * inv
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        v = self.val
        return self.apply(other / v, -other / v**2, 2.0 * other / v**3)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("only integer powers; use sqrt/exp hooks for the rest")
        if k < 0:
            return 1.0 / (self ** (-k))
        v = self.val
        if k == 0:
            return Jet.constant(1.0, self) * 1.0
        f1 = k * v ** (k - 1)
        f2 = k * (k - 1) * v ** (k - 2) if k >= 2 else np.zeros_like(v)
        return self.apply(v**k, f1, f2)

    # -- composition -----------------------------------------------------------

    def apply(self, f0: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> "Jet":
        """Compose with a scalar function given its value and first two
        derivatives evaluated at this jet's value arrays."""
        g = self.grad
        outer = g[:, :, None] * g[:, None, :]
        return Jet(
            np.asarray(f0),
            np.asarray(f1)[:, None] * g,
            np.asarray(f1)[:, None, None] * self.hess + np.asarray(f2)[:, None, None] * outer,
        )

    @property
    def real(self) -> "Jet":
        return Jet(self.val.real.copy(), self.grad.real.copy(), self.hess.real.copy())


def sqrt(j: Jet) -> Jet:
    r = np.sqrt(j.val)
    return j.apply(r, 0.5 / r, -0.25 / (r * j.val))


def exp(j: Jet) -> Jet:
    e = np.exp(j.val)
    return j.apply(e, e, e)


def complex_coords(coords: Sequence[Jet]) -> tuple[list[Jet], list[Jet]]:
    """Pair real seeds (x1, y1, x2, y2, ...) into z_k = x_k + i y_k and its
    formal conjugate; inputs must be real jets in interleaved order."""
    if len(coords) % 2:
        raise ValueError("need an even number of real coordinates")
    zs, zbs = [], []
    for k in range(len(coords) // 2):
        x, y = coords[2 * k], coords[2 * k + 1]
        iy = Jet(1j * y.val, 1j * y.grad, 1j * y.hess)
        zs.append(x + iy)
        zbs.append(x - iy)
    return zs, zbs
