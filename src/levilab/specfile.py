"""Plain-text surface descriptions and quadrature method strings.

File form, one key per line, '#' comments:

    family=ellipsoid
    axes=1.0,1.0,1.0,2.0
    center=0,0,0,0

Inline form, for the command line:

    sphere:R=2,center=0,0,0,0
    quadric:n=1,c=1,hterms=0.25:2,0;0.25:0,2

In the inline form a comma either separates key=value pairs or continues the
previous value, so vector values need no quoting. Errors carry the exact line
and column of the offending token.

Quadrature strings name the one rule at an order: gauss:order=24.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecParseError
from .quadrature import QuadratureSpec
from .surfaces import (
    Cylinder,
    DirichletQuadratic,
    Ellipsoid,
    PerturbedQuadric,
    ReinhardtSurface,
    Sphere,
    SurfaceSpec,
    UserPolynomial,
)

FAMILIES = ("sphere", "ellipsoid", "quadric", "cylinder", "reinhardt", "poly", "dirichlet")


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _fail(msg: str, tok: _Tok | None = None) -> None:
    raise SpecParseError(msg, line=tok.line if tok else None, column=tok.col if tok else None)


def _float(tok: _Tok, key: str) -> float:
    try:
        return float(tok.text)
    except ValueError:
        _fail(f"{key}: expected a number, got {tok.text!r}", tok)


def _int(tok: _Tok, key: str) -> int:
    try:
        return int(tok.text)
    except ValueError:
        _fail(f"{key}: expected an integer, got {tok.text!r}", tok)


def _floats(tok: _Tok, key: str) -> list[float]:
    try:
        return [float(x) for x in tok.text.split(",") if x != ""]
    except ValueError:
        _fail(f"{key}: expected comma-separated numbers, got {tok.text!r}", tok)


def _complex(text: str, tok: _Tok, key: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        _fail(f"{key}: expected a complex number, got {text!r}", tok)


def _term_map(tok: _Tok, key: str, width: int) -> dict:
    """Parse 'coeff:e1,e2,...;coeff:e1,...' into an exponent->coefficient map."""
    out = {}
    for chunk in tok.text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            _fail(f"{key}: term {chunk!r} is missing the ':' between coefficient and exponents", tok)
        coeff_s, exps_s = chunk.split(":", 1)
        coeff = _complex(coeff_s, tok, key)
        try:
            exps = tuple(int(e) for e in exps_s.split(","))
        except ValueError:
            _fail(f"{key}: bad exponents {exps_s!r}", tok)
        if len(exps) != width:
            _fail(f"{key}: term {chunk!r} needs {width} exponents, got {len(exps)}", tok)
        out[exps] = out.get(exps, 0) + coeff
    if not out:
        _fail(f"{key}: no terms given", tok)
    return out


def build_surface(family: str, params: dict[str, _Tok], where: _Tok | None = None) -> SurfaceSpec:
    params = dict(params)

    def take(key, conv, default=None, required=False):
        tok = params.pop(key, None)
        if tok is None:
            if required:
                _fail(f"{family}: missing required key {key!r}", where)
            return default
        return conv(tok, key)

    try:
        if family == "sphere":
            r = take("R", _float, required=True)
            n = take("n", _int)
            center = take("center", _floats)
            if n is None:
                n = len(center) // 2 - 1 if center else 1
            spec = Sphere(r, center=center, n=n)
        elif family == "ellipsoid":
            axes = take("axes", _floats, required=True)
            spec = Ellipsoid(axes, center=take("center", _floats))
        elif family == "dirichlet":
            axes = take("axes", _floats, required=True)
            spec = DirichletQuadratic(axes)
        elif family == "quadric":
            n = take("n", _int, required=True)
            c = take("c", _float, default=1.0)
            hterms = take("hterms", lambda tok, key: _term_map(tok, key, n + 1), default={})
            spec = PerturbedQuadric(n, c=c, hterms=hterms)
        elif family == "cylinder":
            r = take("R", _float, required=True)
            spec = Cylinder(r, kind=take("kind", lambda tok, key: tok.text, default="flat"))
        elif family == "reinhardt":
            k = take("k", _float, required=True)
            f0 = take("f0", _float, required=True)
            fp0 = take("fp0", _float)
            s0 = take("s0", _float, default=0.0)
            smax = take("smax", _float)
            spec = ReinhardtSurface(k, f0, fp0=fp0, s0=s0, smax=smax)
        elif family == "poly":
            n = take("n", _int, required=True)
            terms = take("terms", lambda tok, key: _term_map(tok, key, 2 * (n + 1)), required=True)
            center = take("center", _floats)
            scale = take("scale", _float, default=1.0)
            spec = UserPolynomial(n, terms, center=center, scale=scale)
        else:
            _fail(f"unknown family {family!r}; known: {', '.join(FAMILIES)}", where)
    except SpecParseError:
        raise
    except (ValueError, ArithmeticError) as exc:
        raise SpecParseError(f"{family}: {exc}", line=where.line if where else None,
                             column=where.col if where else None) from exc

    if params:
        key, tok = next(iter(params.items()))
        _fail(f"{family}: unknown key {key!r}", tok)
    return spec


def parse_inline(text: str, line: int = 1, col0: int = 0) -> SurfaceSpec:
    """Parse 'family:key=value,...' where commas inside vector values continue
    the previous value."""
    text = text.strip()
    if not text:
        raise SpecParseError("empty surface description", line=line, column=col0)
    head, _, rest = text.partition(":")
    family = head.strip().lower()
    params: dict[str, _Tok] = {}
    where = _Tok(family, line, col0)
    if rest:
        pos = col0 + len(head) + 1
        current_key = None
        for piece in rest.split(","):
            if "=" in piece:
                key, _, val = piece.partition("=")
                key = key.strip()
                if key in params:
                    _fail(f"duplicate key {key!r}", _Tok(key, line, pos))
                params[key] = _Tok(val.strip(), line, pos)
                current_key = key
            else:
                if current_key is None:
                    _fail(f"value {piece!r} does not belong to any key", _Tok(piece, line, pos))
                old = params[current_key]
                params[current_key] = _Tok(old.text + "," + piece.strip(), old.line, old.col)
            pos += len(piece) + 1
    return build_surface(family, params, where)


def parse_file_text(text: str) -> SurfaceSpec:
    """Parse the key=value file format; '#' starts a comment."""
    params: dict[str, _Tok] = {}
    family_tok = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "=" not in line:
            raise SpecParseError(f"expected key=value, got {line.strip()!r}", line=ln, column=1)
        key, _, val = line.partition("=")
        col = len(key) + 2
        key = key.strip()
        tok = _Tok(val.strip(), ln, col)
        if key == "family":
            if family_tok is not None:
                raise SpecParseError("duplicate 'family' key", line=ln, column=1)
            family_tok = _Tok(tok.text.lower(), ln, col)
        else:
            if key in params:
                raise SpecParseError(f"duplicate key {key!r}", line=ln, column=1)
            params[key] = tok
    if family_tok is None:
        raise SpecParseError("missing 'family' key", line=1, column=1)
    return build_surface(family_tok.text, params, family_tok)


def parse_surface(text_or_path: str) -> SurfaceSpec:
    """Accept an inline description or a path to a spec file."""
    import os

    if os.path.isfile(text_or_path):
        with open(text_or_path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise SpecParseError(f"{text_or_path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        return parse_file_text(text)
    return parse_inline(text_or_path)


def parse_quadrature(text: str | None, default_order: int = 24) -> QuadratureSpec:
    """Parse gauss:order=N; None gives the default rule."""
    if text is None:
        return QuadratureSpec(order=default_order)
    text = text.strip()
    head, _, rest = text.partition(":")
    method = head.strip().lower()
    if method != "gauss":
        raise SpecParseError(f"quadrature: unknown method {method!r} (only gauss)")
    kv = {}
    for piece in rest.split(",") if rest else []:
        if not piece.strip():
            continue
        if "=" not in piece:
            raise SpecParseError(f"quadrature: expected key=value, got {piece!r}")
        k, _, v = piece.partition("=")
        kv[k.strip()] = v.strip()
    try:
        spec = QuadratureSpec(order=int(kv.pop("order", default_order)))
    except ValueError as exc:
        raise SpecParseError(f"quadrature: {exc}") from exc
    if kv:
        raise SpecParseError(f"quadrature: unknown key {next(iter(kv))!r}")
    return spec
