"""Exception types shared across the package, and the range check for lengths."""

import math
import sys

# a length x in this range has x^2 and x^-2 both normal floats, so the squares the surface
# families and the profile integrator form neither overflow nor underflow
LENGTH_RANGE = (math.sqrt(sys.float_info.min), 1.0 / math.sqrt(sys.float_info.min))
LENGTH_RULE = "positive and finite, with a square and inverse square that are normal floats"


def positive_length(name: str, value: float) -> float:
    """A length or constant checked by name, so that inf, nan or a square out of range never
    reaches a root finder or an integrator."""
    value = float(value)
    if not LENGTH_RANGE[0] <= value <= LENGTH_RANGE[1]:
        raise ValueError(f"{name} must be {LENGTH_RULE}, got {value!r}")
    return value


class LevilabError(Exception):
    """Base class for all package-specific failures."""


class NotHermitianError(LevilabError, ValueError):
    """Matrix construction rejected: conjugate-symmetry violated beyond tolerance."""


class CostLimitError(LevilabError, ValueError):
    """Symbolic check requested for a dimension above the supported cost bound."""


class DomainError(LevilabError, ValueError):
    """Point lies outside the validity range of the surface (e.g. profile range)."""


class StarShapeError(LevilabError, RuntimeError):
    """No boundary crossing found along a ray: domain not star-shaped about the center."""


class TransversalityError(LevilabError, RuntimeError):
    """Radial direction not transversal to the boundary (<grad f, omega> <= 0 at the root)."""


class SingularityError(LevilabError, RuntimeError):
    """Profile ODE hit a singular configuration (f + s f'^2 <= 0 or f <= 0)."""

    def __init__(self, s: float, message: str = ""):
        self.s = s
        super().__init__(message or f"profile ODE singular at s={s!r}")


class StiffnessError(LevilabError, RuntimeError):
    """Profile ODE integration failed (step-size underflow or solver breakdown)."""


class DegenerateGradientError(LevilabError, RuntimeError):
    """Characteristic point: |del f| below threshold, curvature formulas undefined."""


class SpecParseError(LevilabError, ValueError):
    """Malformed surface spec text; carries the offending location."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
