"""Plain-text surface descriptions and quadrature method strings.

File form, one key per line, '#' comments:

    family=ellipsoid
    axes=1.0,1.0,1.0,2.0
    center=0,0,0,0

Inline form, for the command line:

    sphere:R=2,center=0,0,0,0
    quadric:n=1,c=1,hterms=0.25:2,0;0.25:0,2

A family's keys are its constructor's parameters (surfaces.spec_keys), and those
without a default are required; each key name has one reader here, and a
surface's canonical() prints the same keys back. In the inline form a comma
either separates key=value pairs or continues the previous value, so vector
values need no quoting. Errors carry the exact line and column of the
offending token.

Quadrature strings name the one rule at an order, in the inline grammar:
gauss:order=24.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SpecParseError
from .quadrature import QuadratureSpec
from .surfaces import FAMILIES, SurfaceSpec, spec_keys


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _fail(msg: str, tok: _Tok) -> None:
    raise SpecParseError(msg, line=tok.line, column=tok.col)


def _reader(conv, expected: str):
    """A key reader (token, key, keys read so far) -> value that converts the token's text."""
    def read(tok: _Tok, key: str, _read: dict):
        try:
            return conv(tok.text)
        except ValueError:
            _fail(f"{key}: expected {expected}, got {tok.text!r}", tok)

    return read


def _term_map(tok: _Tok, key: str, width: int) -> dict:
    """Parse 'coeff:e1,e2,...;coeff:e1,...' into an exponent->coefficient map. A term's first
    coefficient is kept as given, so that a signed zero survives: 0 + (-0-0.1j) would be -0.1j."""
    out = {}
    for chunk in tok.text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            _fail(f"{key}: term {chunk!r} is missing the ':' between coefficient and exponents", tok)
        coeff_s, exps_s = chunk.split(":", 1)
        try:
            coeff = complex(coeff_s.replace(" ", ""))
        except ValueError:
            _fail(f"{key}: expected a complex number, got {coeff_s!r}", tok)
        try:
            exps = tuple(int(e) for e in exps_s.split(","))
        except ValueError:
            _fail(f"{key}: bad exponents {exps_s!r}", tok)
        if len(exps) != width:
            _fail(f"{key}: term {chunk!r} needs {width} exponents, got {len(exps)}", tok)
        out[exps] = out[exps] + coeff if exps in out else coeff
    return out


def _terms(blocks: int):
    """The reader of a term map whose exponent vectors have blocks * (n + 1) entries, n read before it."""
    return lambda tok, key, read: _term_map(tok, key, blocks * (read["n"] + 1))


_float = _reader(float, "a number")
_floats = _reader(lambda text: [float(x) for x in text.split(",") if x != ""], "comma-separated numbers")
_int = _reader(int, "an integer")
READERS = {  # one reader per key name, whichever family has the key
    "R": _float, "c": _float, "k": _float, "f0": _float, "fp0": _float, "s0": _float, "smax": _float,
    "scale": _float, "n": _int, "order": _int, "axes": _floats, "center": _floats,
    "kind": lambda tok, key, read: tok.text, "hterms": _terms(1), "terms": _terms(2),
}


def build(cls, params: dict[str, _Tok], where: _Tok, **preset):
    """cls(**keys) from the key tokens: cls's spec_keys are the keys, each read by its reader in the
    order of cls's parameters, on top of preset. A key cls lacks, a missing required key or a
    ValueError from cls is a SpecParseError that names where.text, the family."""
    keys = spec_keys(cls)
    for key, tok in params.items():
        if key not in keys:
            _fail(f"{where.text}: unknown key {key!r}", tok)
    read = dict(preset)
    for key, p in keys.items():
        if key in params:
            read[key] = READERS[key](params[key], key, read)
        elif p.default is p.empty:
            _fail(f"{where.text}: missing required key {key!r}", where)
    try:
        return cls(**read)
    except (ValueError, ArithmeticError) as exc:
        raise SpecParseError(f"{where.text}: {exc}", line=where.line, column=where.col) from exc


def build_surface(params: dict[str, _Tok], where: _Tok) -> SurfaceSpec:
    """The surface of the family where.text from its key tokens."""
    if where.text not in FAMILIES:
        _fail(f"unknown family {where.text!r}; known: {', '.join(FAMILIES)}", where)
    return build(FAMILIES[where.text], params, where)


def _inline(text: str, line: int, col0: int) -> tuple[_Tok, dict[str, _Tok]]:
    """The head token of 'head:key=value,...', lower-cased, and the key tokens, where a comma
    inside a vector value continues the previous value."""
    head, _, rest = text.partition(":")
    params: dict[str, _Tok] = {}
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
    return _Tok(head.strip().lower(), line, col0), params


def parse_inline(text: str, line: int = 1, col0: int = 0) -> SurfaceSpec:
    """Parse 'family:key=value,...' where commas inside vector values continue
    the previous value."""
    text = text.strip()
    if not text:
        raise SpecParseError("empty surface description", line=line, column=col0)
    where, params = _inline(text, line, col0)
    return build_surface(params, where)


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
    return build_surface(params, family_tok)


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
    """Parse gauss:order=N; None, or no order, gives default_order."""
    if text is None:
        return QuadratureSpec(order=default_order)
    where, params = _inline(text.strip(), 1, 0)
    if where.text != "gauss":
        _fail(f"quadrature: unknown method {where.text!r} (only gauss)", where)
    return build(QuadratureSpec, params, where, order=default_order)
